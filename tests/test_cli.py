import json

import pytest

from locksched.cli import main
from locksched.experiment import FIT_HEADER, SCHEDULE_HEADER


@pytest.fixture
def arrivals_csv(tmp_path):
    path = tmp_path / "arrivals.csv"
    code = main(["synth", "--seed", "0", "--days", "2", "--sigma", "0", "--out", str(path)])
    assert code == 0
    return path


def test_synth_output_parses(arrivals_csv):
    lines = arrivals_csv.read_text().splitlines()
    assert lines[0] == "timestamp,direction"
    assert len(lines) > 1


def test_fit_single_day(arrivals_csv, capsys):
    code = main([
        "fit", "--arrivals", str(arrivals_csv), "--day", "2019-01-02",
        "--direction", "U", "--k", "2", "--n", "20",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["T"] > 0
    assert all("mu" in s and "lambda" in s for s in data["streams"])


def test_fit_report(arrivals_csv, tmp_path):
    out = tmp_path / "fit.csv"
    code = main([
        "fit", "--arrivals", str(arrivals_csv),
        "--k-list", "2", "--n-list", "20", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().splitlines()[0] == ",".join(FIT_HEADER)


def test_schedule_command(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "streams": [
            {"direction": "D", "lambda": 2, "mu": 1},
            {"direction": "U", "lambda": 3, "mu": 3},
        ]
    }))
    assert main(["schedule", "--instance", str(inst)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["canonical"]["avg_cost"] == {"num": 1, "den": 6}
    assert "paper-literal" in data


def test_rolling_command_emits_json_lines(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "streams": [
            {"direction": "D", "lambda": 2, "mu": 1},
            {"direction": "U", "lambda": 2, "mu": 2},
        ]
    }))
    code = main(["rolling", "--instance", str(inst), "--epsilon", "1.0",
                 "--chunks", "3", "--window", "10"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    chunks = [json.loads(line) for line in lines]
    for prev, cur in zip(chunks, chunks[1:]):
        assert cur["start"] == prev["next_start"]


@pytest.mark.parametrize("flag", ["--chunks", "--window"])
def test_rolling_command_rejects_zero(tmp_path, capsys, flag):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"streams": [{"direction": "D", "lambda": 2, "mu": 1}]}))
    code = main(["rolling", "--instance", str(inst), "--epsilon", "1.0", flag, "0"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_policy_command(capsys):
    code = main(["policy", "two-stream", "--lambda-d", "2", "--lambda-u", "4",
                 "--mu-d", "1", "--mu-u", "2", "--t", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "D"


def test_evaluate_command(arrivals_csv, capsys):
    code = main(["evaluate", "--arrivals", str(arrivals_csv),
                 "--policies", "alternating,fifo,advfifo"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "day,policy,per_vessel_minutes"
    assert len(lines) == 1 + 2 * 3  # two days, three policies


def test_evaluate_rejects_zero_period(arrivals_csv, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    code = main(["evaluate", "--arrivals", str(arrivals_csv), "--period-minutes", "0", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: period_minutes must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command, out_flag", [("experiment", "--out-dir"), ("fit", "--out"), ("evaluate", "--out")])
def test_arrivals_without_records_is_an_error(tmp_path, capsys, command, out_flag):
    arrivals = tmp_path / "arrivals.csv"
    arrivals.write_text("timestamp,direction\n")
    out = tmp_path / "out"
    assert main([command, "--arrivals", str(arrivals), out_flag, str(out)]) == 1
    assert capsys.readouterr().err == f"error: {arrivals} holds no arrival records\n"
    assert not out.exists()


def test_evaluate_realized_requires_schedule(arrivals_csv):
    assert main(["evaluate", "--arrivals", str(arrivals_csv), "--policies", "realized"]) == 1


def test_evaluate_best_of_two_reports_up_first_run(tmp_path, capsys):
    # One upstream vessel in period 1: starting aligned Down, both FIFO
    # variants spend period 1 on an empty Down lockage, so it waits one
    # period (21 minutes); starting aligned Up serves it on arrival.
    arrivals = tmp_path / "arrivals.csv"
    arrivals.write_text("timestamp,direction\n2019-01-02T00:00:00,U\n")
    args = ["evaluate", "--arrivals", str(arrivals), "--policies", "fifo,advfifo"]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "2019-01-02,fifo,21.00",
        "2019-01-02,advfifo,21.00",
    ]
    assert main(args + ["--best-of-two"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "2019-01-02,fifo,0.00",
        "2019-01-02,advfifo,0.00",
    ]


def test_experiment_command(arrivals_csv, tmp_path):
    out_dir = tmp_path / "reports"
    code = main([
        "experiment", "--arrivals", str(arrivals_csv),
        "--k-list", "2", "--n-list", "20", "--out-dir", str(out_dir),
    ])
    assert code == 0
    assert (out_dir / "fit.csv").read_text().splitlines()[0] == ",".join(FIT_HEADER)
    assert (out_dir / "schedule.csv").read_text().splitlines()[0] == ",".join(SCHEDULE_HEADER)


def test_fatal_error_exit_code(tmp_path):
    missing = tmp_path / "nope.csv"
    assert main(["fit", "--arrivals", str(missing), "--k-list", "2", "--n-list", "20"]) == 1


def test_experiment_rejects_unknown_config_keys(arrivals_csv, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": [2], "n_vals": [20], "sead": 3}))
    code = main(["experiment", "--arrivals", str(arrivals_csv), "--config", str(config),
                 "--out-dir", str(tmp_path / "reports")])
    assert code == 1
    assert "unknown --config keys: n_vals, sead" in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("config, row", [({"jobs": 1}, ["2", "6"]), ({"n": [8]}, ["2", "8"])])
def test_experiment_config_keys_override_flags(arrivals_csv, tmp_path, config, row):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "reports"
    code = main(["experiment", "--arrivals", str(arrivals_csv), "--config", str(path),
                 "--k-list", "2", "--n-list", "6", "--out-dir", str(out_dir)])
    assert code == 0
    for name in ("fit.csv", "schedule.csv"):
        rows = (out_dir / name).read_text().splitlines()[1:]
        assert [line.split(",")[:2] for line in rows] == [row]


@pytest.mark.parametrize(
    "flag, value, message",
    [("--jobs", "0", "jobs must be >= 1, got 0"),
     ("--jobs", "-3", "jobs must be >= 1, got -3"),
     ("--dp-cap", "0", "dp_cap must be >= 1, got 0")],
)
def test_experiment_rejects_non_positive_jobs_and_dp_cap(arrivals_csv, tmp_path, capsys, flag, value, message):
    out_dir = tmp_path / "reports"
    code = main(["experiment", "--arrivals", str(arrivals_csv), "--k-list", "2",
                 "--n-list", "6", "--out-dir", str(out_dir), flag, value])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def test_experiment_config_rejects_zero_jobs(arrivals_csv, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": [2], "n": [6], "jobs": 0}))
    code = main(["experiment", "--arrivals", str(arrivals_csv), "--config", str(config),
                 "--out-dir", str(tmp_path / "reports")])
    assert code == 1
    assert capsys.readouterr().err == "error: jobs must be >= 1, got 0\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_fit_report_rejects_non_positive_jobs(arrivals_csv, tmp_path, capsys, jobs):
    out = tmp_path / "fit.csv"
    code = main(["fit", "--arrivals", str(arrivals_csv), "--k-list", "2", "--n-list", "6",
                 "--jobs", jobs, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
    assert not out.exists()
