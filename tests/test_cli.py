import dataclasses
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from locksched import cli, experiment
from locksched.cli import build_parser, main
from locksched.experiment import FIT_HEADER, SCHEDULE_HEADER, ExperimentConfig


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


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"D": [[5, 0]]}, "error: stream D [5, 0]: lambda must be >= 1, got 0"),
        ({"U": [[21, 126]], "D": [[0, 60]]}, "error: stream D [0, 60]: mu must be in 1..1440, got 0"),
        ({"D": 5}, "error: streams for D must be a list of [mu, lambda] pairs, got 5"),
        ({"X": [[1, 2]]}, 'direction key must be "D" or "U", got "X"'),
        ([[1, 2]], "expected an object mapping direction to [mu, lambda] pairs"),
        ({"D": [[1, 2]], "d": []}, 'streams.json: direction key must be "D" or "U", got "d"'),
    ],
)
def test_synth_rejects_bad_streams(tmp_path, capsys, spec, message):
    streams = tmp_path / "streams.json"
    streams.write_text(json.dumps(spec))
    out = tmp_path / "arrivals.csv"
    assert main(["synth", "--streams", str(streams), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_synth_rejects_negative_days(tmp_path, capsys):
    assert main(["synth", "--days", "-1", "--out", str(tmp_path / "arrivals.csv")]) == 1
    assert "error: days must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["inf", "1e308", "nan"])
def test_synth_rejects_sigma_without_finite_draws(tmp_path, capsys, sigma):
    out = tmp_path / "arrivals.csv"
    assert main(["synth", "--sigma", sigma, "--out", str(out)]) == 1
    assert "error: jitter sigma must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["experiment", "--arrivals", "a.csv", "--k-list", "a"], "argument --k-list: invalid _int_list value: 'a'"),
        (["synth", "--bogus"], "unrecognized arguments: --bogus"),
        (["fit"], "the following arguments are required: --arrivals"),
        ([], "the following arguments are required: command"),
    ],
    ids=["bad-value", "unknown-flag", "missing-flag", "no-command"],
)
def test_usage_errors_exit_1(capsys, argv, message):
    """Exit code 2 means skipped instances, so a usage error exits 1, with
    argparse's usage line and message on stderr."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: locksched")
    assert f"error: {message}" in err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["experiment", "--help"]], ids=" ".join)
def test_help_and_version_exit_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out


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


@pytest.mark.parametrize(
    "flags, message",
    [(["--k", "1", "--n", "5"], "--k needs --day"),
     (["--direction", "U"], "--direction needs --day"),
     (["--day", "2019-01-02", "--k-list", "9", "--jobs", "4", "--k", "1", "--n", "3"],
      "--k-list is not used with --day"),
     (["--day", "2019-01-02", "--jobs", "4"], "--jobs is not used with --day")],
    ids=["k-without-day", "direction-without-day", "k-list-with-day", "jobs-with-day"],
)
def test_fit_rejects_flags_of_the_other_mode(arrivals_csv, tmp_path, capsys, flags, message):
    out = tmp_path / "fit.out"
    assert main(["fit", "--arrivals", str(arrivals_csv), *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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


def test_schedule_rejects_dp_cap_below_one(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"streams": [{"direction": "D", "lambda": 2, "mu": 1}]}))
    out = tmp_path / "schedule.json"
    assert main(["schedule", "--instance", str(inst), "--dp-cap", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: period_cap must be >= 1, got 0\n"
    assert not out.exists()


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


@pytest.mark.parametrize("window", [[], ["--window", "6"]], ids=["default-window", "window"])
def test_rolling_command_rejects_nan_epsilon(tmp_path, capsys, window):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"streams": [{"direction": "D", "lambda": 2, "mu": 1}]}))
    code = main(["rolling", "--instance", str(inst), "--epsilon", "nan", *window])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: epsilon must be positive")


@pytest.mark.parametrize(
    "epsilon, message",
    [("1e-320", "error: epsilon 1e-320 is too small"), ("1e-300", "error: window of ")],
    ids=["overflow", "window-cap"],
)
def test_rolling_command_rejects_tiny_epsilon(tmp_path, capsys, epsilon, message):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"streams": [{"direction": "D", "lambda": 2, "mu": 1},
                                            {"direction": "U", "lambda": 3, "mu": 2}]}))
    code = main(["rolling", "--instance", str(inst), "--epsilon", epsilon])
    assert code == 1
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("command", [["schedule"], ["rolling", "--epsilon", "1.0"]], ids=["schedule", "rolling"])
@pytest.mark.parametrize(
    "document, message",
    [([1], "instance must be a JSON object, got [1]"),
     ({}, 'instance: missing key "streams"'),
     ({"streams": {}}, 'instance key "streams" must be a list, got {}'),
     ({"streams": [3]}, "instance stream 0 must be a JSON object, got 3"),
     ({"streams": [{"direction": "D", "lambda": 2, "mu": 1}, {"direction": "U", "lambda": 2}]},
      'instance stream 1: missing key "mu"'),
     ({"streams": [{"direction": "D", "lambda": 2.7, "mu": 1}]},
      'instance stream 0: key "lambda" must be an int, got 2.7'),
     ({"streams": [{"direction": "D", "lambda": 2, "mu": True}]},
      'instance stream 0: key "mu" must be an int, got true'),
     ({"streams": [{"direction": "X", "lambda": 2, "mu": 1}]},
      'instance stream 0: key "direction" must be "D" or "U", got "X"'),
     ({"streams": [{"direction": "D", "lambda": 2, "mu": 3}]},
      "instance stream 0: mu must satisfy 1 <= mu <= lambda, got mu=3, lambda=2"),
     ({"streams": [{"direction": "D", "lambda": 2, "mu": 1}, {"direction": "U", "lamda": 3, "lambda": 3, "mu": 1}]},
      'instance stream 1: unknown key "lamda"'),
     ({"streams": [{"direction": "D", "lambda": 2, "mu": 1}], "period": 4}, 'instance: unknown key "period"')],
    ids=["top-list", "no-streams", "streams-object", "stream-int", "no-mu", "lambda-float",
         "mu-bool", "bad-direction", "mu-above-lambda", "stream-unknown-key", "top-unknown-key"],
)
def test_instance_commands_reject_bad_documents(tmp_path, capsys, command, document, message):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(document))
    out = tmp_path / "out.json"
    assert main([*command, "--instance", str(inst), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_schedule_json_identical_with_debug_logging(tmp_path, caplog):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"streams": [{"direction": "D", "lambda": 3, "mu": 1},
                                            {"direction": "U", "lambda": 2, "mu": 2}]}))
    quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
    assert main(["schedule", "--instance", str(inst), "--out", str(quiet)]) == 0
    assert not caplog.records
    caplog.set_level(logging.DEBUG, logger="locksched")
    assert main(["schedule", "--instance", str(inst), "--out", str(loud)]) == 0
    assert [(r.name, r.mode) for r in caplog.records] == [
        ("locksched.dp", "canonical"), ("locksched.dp", "paper-literal")]
    assert loud.read_bytes() == quiet.read_bytes()


def test_policy_command(capsys):
    code = main(["policy", "two-stream", "--lambda-d", "2", "--lambda-u", "4",
                 "--mu-d", "1", "--mu-u", "2", "--t", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "D"


@pytest.mark.parametrize(
    "lambda_d, lambda_u, mu_d, mu_u, letters",
    [
        # lambda_D = 1, mu_U = 3 odd: Up is served on odd periods.
        (1, 3, 1, 3, "UD"),
        # lambda_U = 1, mu_D = 2 even: Down is served on even periods.
        (2, 1, 2, 1, "UD"),
        (1, 4, 1, 2, "DU"),
    ],
    ids=["lambda-d-1", "lambda-u-1", "lambda-d-1-even"],
)
def test_policy_command_with_periodicity_one_reads_t(capsys, lambda_d, lambda_u, mu_d, mu_u, letters):
    flags = ["--lambda-d", str(lambda_d), "--lambda-u", str(lambda_u), "--mu-d", str(mu_d), "--mu-u", str(mu_u)]
    for t, letter in zip((1, 2, 3, 4), letters * 2):
        assert main(["policy", "two-stream", *flags, "--t", str(t)]) == 0
        assert capsys.readouterr().out == f"{letter}\n"


@pytest.mark.parametrize("lambda_d, lambda_u", [(1, 3), (3, 1), (2, 3)])
def test_policy_command_rejects_t_below_one(capsys, lambda_d, lambda_u):
    code = main(["policy", "two-stream", "--lambda-d", str(lambda_d), "--lambda-u", str(lambda_u),
                 "--mu-d", "1", "--mu-u", "1", "--t", "0"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: period must be >= 1, got 0\n")


def test_evaluate_command(arrivals_csv, capsys):
    code = main(["evaluate", "--arrivals", str(arrivals_csv),
                 "--policies", "alternating,fifo,advfifo"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "day,policy,per_vessel_minutes"
    assert len(lines) == 1 + 2 * 3  # two days, three policies


def test_evaluate_reads_a_file_with_a_byte_order_mark(arrivals_csv, tmp_path, capsys):
    """Spreadsheet exports start with a UTF-8 byte-order mark."""
    bom_csv = tmp_path / "bom.csv"
    bom_csv.write_bytes(b"\xef\xbb\xbf" + arrivals_csv.read_bytes())
    outputs = []
    for path in (arrivals_csv, bom_csv):
        assert main(["evaluate", "--arrivals", str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out.count("\n") > 1


def test_evaluate_names_the_line_of_an_unclosed_quote(tmp_path, capsys):
    """An unclosed quote in a file past the csv module's 128 KiB field limit
    exits 1 naming the line where the quote opens, as in a smaller file."""
    big = tmp_path / "big.csv"
    assert main(["synth", "--days", "200", "--out", str(big)]) == 0
    lines = big.read_text().splitlines(keepends=True)
    assert len(big.read_bytes()) > 131072
    lines[2] = '"' + lines[2]
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    assert main(["evaluate", "--arrivals", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


@pytest.mark.parametrize("policies, bad", [("bogus", "bogus"), ("fifo,advFIFO", "advFIFO"), ("x,fifo,y", "x, y")])
def test_evaluate_rejects_unknown_policies(arrivals_csv, tmp_path, capsys, policies, bad):
    out = tmp_path / "eval.csv"
    code = main(["evaluate", "--arrivals", str(arrivals_csv), "--policies", policies, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: unknown policies: {bad} (known: alternating, fifo, advfifo, realized)\n"
    )
    assert not out.exists()


def test_evaluate_rejects_empty_policies(arrivals_csv, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    assert main(["evaluate", "--arrivals", str(arrivals_csv), "--policies", ",", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: no policies given (known: alternating, fifo, advfifo, realized)\n"
    assert not out.exists()


def test_evaluate_realized_requires_schedule(arrivals_csv):
    assert main(["evaluate", "--arrivals", str(arrivals_csv), "--policies", "realized"]) == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--policies", "realized"], "--schedule is required for the realized policy"),
        (["--policies", "alternating,fifo", "--schedule", "schedule.json"],
         "--schedule is only used by the realized policy"),
        (["--period-minutes", "0"], "period_minutes must be >= 1, got 0"),
        (["--policies", "alternating", "--best-of-two"],
         "--best-of-two is only used by the fifo and advfifo policies"),
    ],
    ids=["realized-without-schedule", "schedule-without-realized", "zero-period", "best-of-two-without-fifo"],
)
def test_evaluate_checks_flags_before_reading_arrivals(tmp_path, capsys, flags, message):
    # The arrivals file does not exist, so only a check made before reading
    # it can report the flag.
    out = tmp_path / "eval.csv"
    code = main(["evaluate", "--arrivals", str(tmp_path / "missing.csv"), *flags, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "document, message",
    [
        ("[1]", "schedule must be a JSON object, got [1]"),
        ('{"period": 2, "actions": ["D", "U"]}', 'schedule: missing key "initial_alignment"'),
        ('{"initial_alignment": "D", "period": 2}', 'schedule: missing key "actions"'),
        ('{"initial_alignment": "D", "actions": ["D", "U"]}', 'schedule: missing key "period"'),
        ('{"period": 2, "initial_alignment": "D", "actions": "DU"}', 'schedule key "actions" must be a list, got "DU"'),
        ('{"period": 2, "initial_alignment": "D", "actions": ["D", "X"]}',
         'schedule key "actions": entry 1 must be "D", "U" or "W", got "X"'),
        ('{"period": 2, "initial_alignment": "Q", "actions": ["D", "U"]}',
         'schedule key "initial_alignment" must be "D" or "U", got "Q"'),
        ('{"period": "2", "initial_alignment": "D", "actions": ["D", "U"]}', 'schedule key "period" must be an int, got "2"'),
        ('{"period": true, "initial_alignment": "D", "actions": ["D", "U"]}', 'schedule key "period" must be an int, got true'),
        ('{"period": 7, "initial_alignment": "D", "actions": ["D", "U"]}',
         'schedule key "period" is 7 but "actions" holds 2 entries'),
        ('{"period": 0, "initial_alignment": "D", "actions": []}', 'schedule key "actions" must be non-empty'),
        ('{"period": 2, "initial_alignment": "D", "actions": ["D", "U"], "extra": 1}', 'schedule: unknown key "extra"'),
    ],
    ids=["top-level", "no-alignment", "no-actions", "no-period", "actions-string", "action-letter",
         "alignment-letter", "period-string", "period-bool", "period-mismatch", "actions-empty", "unknown-key"],
)
def test_evaluate_rejects_bad_schedule_document(arrivals_csv, tmp_path, capsys, document, message):
    schedule = tmp_path / "schedule.json"
    schedule.write_text(document)
    out = tmp_path / "eval.csv"
    code = main(["evaluate", "--arrivals", str(arrivals_csv), "--policies", "realized",
                 "--schedule", str(schedule), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_evaluate_realized_reads_a_schedule_document(arrivals_csv, tmp_path, capsys):
    schedule = tmp_path / "schedule.json"
    schedule.write_text('{"period": 2, "initial_alignment": "D", "actions": ["D", "U"]}')
    assert main(["evaluate", "--arrivals", str(arrivals_csv), "--policies", "realized",
                 "--schedule", str(schedule)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "day,policy,per_vessel_minutes"
    assert [line.split(",")[:2] for line in lines[1:]] == [["2019-01-02", "realizedPeriodic"], ["2019-01-03", "realizedPeriodic"]]


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


def test_experiment_config_rejects_a_non_object(arrivals_csv, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps([1, 2]))
    code = main(["experiment", "--arrivals", str(arrivals_csv), "--config", str(config),
                 "--out-dir", str(tmp_path / "reports")])
    assert code == 1
    assert capsys.readouterr().err == f"error: --config {config} must hold a JSON object\n"
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize(
    "config, message",
    [({"k": 2}, "k values must be a non-empty list, got 2"),
     ({"k": []}, "k values must be a non-empty list, got []"),
     ({"n": [20, 0]}, "n values must be >= 1, got 0"),
     ({"n": ["20"]}, "n values must be integers, got '20'"),
     ({"k": [True]}, "k values must be integers, got True"),
     ({"period_minutes": "21"}, "period_minutes must be an integer, got '21'"),
     ({"dp_cap": 1.5}, "dp_cap must be an integer, got 1.5"),
     ({"jobs": None}, "jobs must be an integer, got None"),
     ({"n": [6, 6]}, "n values must be distinct, got [6, 6]")],
    ids=["k-int", "k-empty", "n-zero", "n-str", "k-bool", "period-str", "dp-cap-float", "jobs-null", "n-repeated"],
)
def test_experiment_config_rejects_wrong_value_types(arrivals_csv, tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "reports"
    code = main(["experiment", "--arrivals", str(arrivals_csv), "--config", str(path),
                 "--k-list", "2", "--n-list", "6", "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_fit_report_rejects_non_positive_jobs(arrivals_csv, tmp_path, capsys, jobs):
    out = tmp_path / "fit.csv"
    code = main(["fit", "--arrivals", str(arrivals_csv), "--k-list", "2", "--n-list", "6",
                 "--jobs", jobs, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [(["--k-list", "3,0", "--n-list", "6"], "k values must be >= 1, got 0"),
     (["--k-list", "2", "--n-list", "6,-1"], "n values must be >= 1, got -1")],
    ids=["k-zero", "n-negative"],
)
def test_fit_report_rejects_non_positive_k_and_n(arrivals_csv, tmp_path, capsys, grid, message):
    out = tmp_path / "fit.csv"
    code = main(["fit", "--arrivals", str(arrivals_csv), *grid, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [(["--k-list", "3,0", "--n-list", "6"], "k values must be >= 1, got 0"),
     (["--k-list", "2", "--n-list", "0"], "n values must be >= 1, got 0"),
     (["--k-list", "1,1", "--n-list", "6"], "k values must be distinct, got [1, 1]")],
    ids=["k-zero", "n-zero", "k-repeated"],
)
def test_experiment_rejects_non_positive_k_and_n_before_any_work(arrivals_csv, tmp_path, capsys, monkeypatch, grid, message):
    """Rejected before the output directory is made or any cell is fitted."""

    def no_fit(instance, k):
        raise AssertionError("fitted a cell before rejecting the grid")

    monkeypatch.setattr(experiment, "best_fit", no_fit)
    out_dir = tmp_path / "reports"
    code = main(["experiment", "--arrivals", str(arrivals_csv), *grid, "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


# Each ExperimentConfig field: the experiment flag and the --config key that
# set it, and a value other than its default.
_SETTERS = {
    "k_values": ("--k-list", "k", [5]),
    "n_values": ("--n-list", "n", [7]),
    "period_minutes": ("--period-minutes", "period_minutes", 5),
    "dp_cap": ("--dp-cap", "dp_cap", 9),
    "jobs": ("--jobs", "jobs", 2),
}


def test_experiment_flags_and_config_keys_map_one_to_one_onto_config_fields(
    arrivals_csv, tmp_path, capsys, monkeypatch
):
    """No config field that nothing sets, and no flag or key that sets nothing."""
    assert set(_SETTERS) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    # Every experiment flag but the run's input and outputs sets a field.
    args = build_parser().parse_args(["experiment", "--arrivals", "-"])
    flag_dests = {flag[2:].replace("-", "_") for flag, _, _ in _SETTERS.values()}
    assert set(vars(args)) - {"command", "func", "arrivals", "config", "out_dir"} == flag_dests

    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda dataset, config: seen.append(config) or ([], [], 0))
    run = ["experiment", "--arrivals", str(arrivals_csv), "--out-dir", str(tmp_path / "reports")]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"?": 1}))
    assert main(run + ["--config", str(path)]) == 1
    known = re.search(r"\(known: (.*)\)", capsys.readouterr().err).group(1).split(", ")
    assert sorted(known) == sorted(key for _, key, _ in _SETTERS.values())

    assert main(run) == 0
    default = seen.pop()
    for name, (flag, key, value) in _SETTERS.items():
        expected = dataclasses.replace(default, **{name: value})
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        assert main(run + [flag, text]) == 0
        path.write_text(json.dumps({key: value}))
        assert main(run + ["--config", str(path)]) == 0
        assert seen == [expected, expected]
        seen.clear()


def test_main_builds_one_parser_and_leaks_no_flags(arrivals_csv, tmp_path, capsys, monkeypatch):
    """``main`` builds its parser on first use, not at import, and reuses it.
    A run of calls on the shared parser gives every call the outputs and
    exit code of the same call on a fresh parser, so no flag value of one
    call (the small grid here) reaches the next (the default grid).  The
    fit report's Runtime column is a timing and is left out."""
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import locksched.cli as cli; assert cli._parser is None"
    run = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr

    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"streams": [{"direction": "D", "lambda": 2, "mu": 1},
                                            {"direction": "U", "lambda": 3, "mu": 3}]}))
    arrivals = ["--arrivals", str(arrivals_csv)]
    calls = [
        ["experiment", *arrivals, "--k-list", "2", "--n-list", "10", "--out-dir", "small"],
        ["schedule", "--instance", str(inst)],
        ["experiment", *arrivals, "--k-list", "x"],
        ["experiment", *arrivals, "--out-dir", "default"],
        ["policy", "two-stream", "--lambda-d", "2", "--lambda-u", "3", "--mu-d", "1", "--mu-u", "3", "--t", "2"],
    ]
    runtime = FIT_HEADER.index("Runtime")

    def outcome(argv, root, fresh):
        root.mkdir()
        monkeypatch.chdir(root)
        if fresh:
            monkeypatch.setattr(cli, "_parser", None)
        code = main(argv)
        streams = capsys.readouterr()
        reports = {}
        for path in sorted(root.rglob("*.csv")):
            rows = [line.split(",") for line in path.read_text().splitlines()]
            if path.name == "fit.csv":
                rows = [row[:runtime] + row[runtime + 1:] for row in rows]
            reports[str(path.relative_to(root))] = rows
        return code, streams.out, streams.err, reports

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    shared = [outcome(argv, tmp_path / f"shared{i}", fresh=False) for i, argv in enumerate(calls)]
    assert len(builds) == 1
    fresh = [outcome(argv, tmp_path / f"fresh{i}", fresh=True) for i, argv in enumerate(calls)]
    assert len(builds) == 1 + len(calls)
    assert shared == fresh
    assert [code for code, *_ in shared] == [0, 0, 1, 0, 0]
    small, default = shared[0][3]["small/fit.csv"], shared[3][3]["default/fit.csv"]
    assert {row[0] for row in small[1:]} == {"2"}
    assert {row[0] for row in default[1:]} == {"2", "3", "4"}


# Every input file flag: (flag, the rest of a command that reads that file).
_JSON_FLAGS = {
    "schedule --instance": ["schedule", "--instance"],
    "rolling --instance": ["rolling", "--epsilon", "1.0", "--instance"],
    "evaluate --schedule": ["evaluate", "--arrivals", "missing.csv", "--policies", "realized", "--schedule"],
    "experiment --config": ["experiment", "--arrivals", "missing.csv", "--config"],
    "synth --streams": ["synth", "--streams"],
}
_CSV_FLAGS = {f"{command} --arrivals": [command, "--arrivals"] for command in ("fit", "evaluate", "experiment")}


@pytest.mark.parametrize(
    "command, content, message",
    [*[(argv, b'{"k": }', "Expecting value: line 1 column 7 (char 6)") for argv in _JSON_FLAGS.values()],
     *[(argv, b'{"k": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte")
       for argv in _JSON_FLAGS.values()],
     *[(argv, b"timestamp,direction\n\xff", "'utf-8' codec can't decode byte 0xff in position 20: invalid start byte")
       for argv in _CSV_FLAGS.values()]],
    ids=[*(f"{flag}-syntax" for flag in _JSON_FLAGS), *(f"{flag}-utf8" for flag in _JSON_FLAGS), *_CSV_FLAGS],
)
def test_unreadable_input_file_errors_name_the_file(tmp_path, capsys, monkeypatch, command, content, message):
    """A file that is not UTF-8, or not JSON where JSON is read, exits 1
    with the decoder's message behind the file's name."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "input"
    path.write_bytes(content)
    assert main([*command, str(path), "--out" if command[0] != "experiment" else "--out-dir", "out"]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


_ONE_STREAM = '{"direction": "D", "lambda": 2, "mu": 1}'


@pytest.mark.parametrize(
    "command, document, key",
    [(_JSON_FLAGS["schedule --instance"], f'{{"streams": [{_ONE_STREAM}], "streams": []}}', "streams"),
     (_JSON_FLAGS["rolling --instance"], '{"streams": [{"direction": "D", "lambda": 2, "mu": 1, "mu": 2}]}', "mu"),
     (_JSON_FLAGS["evaluate --schedule"],
      '{"period": 2, "initial_alignment": "D", "actions": ["D", "U"], "period": 2}', "period"),
     (_JSON_FLAGS["experiment --config"], '{"k": [2], "n": [6], "k": [3]}', "k"),
     (_JSON_FLAGS["synth --streams"], '{"D": [[1, 60]], "U": [[2, 60]], "D": [[3, 60]]}', "D")],
    ids=["instance", "instance-stream", "schedule", "config", "streams"],
)
def test_repeated_json_key_is_an_error_naming_file_and_key(tmp_path, capsys, monkeypatch, command, document, key):
    """A key given twice in one object is not resolved to its last value:
    every JSON input document rejects it, naming the file and the key."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "input.json"
    path.write_text(document)
    assert main([*command, str(path), "--out" if command[0] != "experiment" else "--out-dir", "out"]) == 1
    assert capsys.readouterr().err == f'error: {path}: repeated key "{key}"\n'
    assert not (tmp_path / "out").exists()
