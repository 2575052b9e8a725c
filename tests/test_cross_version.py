"""The same synth bytes, parse, experiment reports, optimal schedule and
rolling chunks on every supported Python: ``cross_version.py`` runs under
each interpreter found in pyenv's versions directory, and its reply must
equal the one computed in process."""

import json
import os
import subprocess
from pathlib import Path

import pytest
from cross_version import results
from test_arrivals import REJECTED_TIMESTAMPS
from test_experiment import SYNTH_PINS

TESTS = Path(__file__).resolve().parent
SCRIPT = TESTS / "cross_version.py"
SRC = TESTS.parent / "src"
VERSIONS = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"

# One UTC offset, written both as Z and as +00:00, with fractions of 1, 2,
# 4 and 7 digits after "." or ",".
PARSE_TEXT = (
    "timestamp,direction\n"
    "2019-01-02T09:30:00.5Z,D\n"
    "2019-01-02 09:31:59.12+00:00,U\n"
    '"2019-01-02T09:45:10,1234Z",D\n'
    "2019-01-03T00:00:00.1234567+00:00,U\n"
    "2019-01-03T23:59:00Z,D\n"
)
REQUEST = {
    "synth": [
        [seed, days, {d.value: [list(pair) for pair in pairs] for d, pairs in spec.items()}, sigma]
        for seed, days, spec, sigma, _ in SYNTH_PINS
    ],
    "parse": PARSE_TEXT,
    "reject": REJECTED_TIMESTAMPS,
    # Every rolling chunk here is a gap chunk with a free entry that the
    # one-lane window solve gives to UP, the entry started half a unit higher.
    "instance": {
        "streams": [
            {"direction": "D", "lambda": 5, "mu": 2},
            {"direction": "U", "lambda": 3, "mu": 1},
            {"direction": "U", "lambda": 7, "mu": 7},
        ]
    },
}


@pytest.fixture(scope="module")
def expected():
    reply = results(REQUEST)
    assert reply["synth"] == [sha256 for *_, sha256 in SYNTH_PINS]
    assert reply["parse"] == [
        ["2019-01-02T09:30:00", "D"],
        ["2019-01-02T09:31:00", "U"],
        ["2019-01-02T09:45:00", "D"],
        ["2019-01-03T00:00:00", "U"],
        ["2019-01-03T23:59:00", "D"],
    ]
    assert len(reply["reject"]) == len(REJECTED_TIMESTAMPS)
    # Every interpreter rejects each form by the grammar's shape check.
    for stamp, message in zip(REJECTED_TIMESTAMPS, reply["reject"]):
        assert message.startswith(f"line 2: bad timestamp {stamp!r}: expected a date, then T or a space, then a time")
    assert reply["codes"] == [0, 0, 0, 0]
    chunks = [json.loads(line) for line in reply["rolling"]]
    assert [(c["case"], c["entry_alignment"]) for c in chunks] == [("gap", "U")] * 4
    assert reply["optimal"].keys() == {"canonical", "paper-literal"}
    return reply


@pytest.mark.parametrize("version", ["3.10.13", "3.12.1", "3.13.0"])
def test_other_interpreters_agree(version, expected, tmp_path):
    python = VERSIONS / version / "bin" / "python"
    if not python.exists():
        pytest.skip(f"no Python {version} at {python}")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [str(python), "-B", str(SCRIPT)],
        input=json.dumps(REQUEST), capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == expected
