"""Results that must not depend on the Python version, as one JSON object.

Standard library only, so that it runs under any supported interpreter with
``PYTHONPATH=src`` and no test dependencies:

    PYTHONPATH=src python -B tests/cross_version.py < request.json

The request is ``{"synth": [[seed, days, {"D": [[mu, lambda], ...], ...},
sigma], ...], "parse": text, "reject": [timestamp, ...], "instance":
document}``.  The reply holds the SHA-256 of each serialised synthetic
dataset, the records parsed from ``text`` as (timestamp, token) pairs, the
``MalformedRowError`` message of each ``reject`` timestamp read as the one
row of a file (``null`` if it parses), and the exit codes and outputs of four
commands: ``locksched experiment --k-list 2,3 --n-list 10,20`` on
``locksched synth --seed 0 --days 3 --sigma 5`` (``fit.csv`` without its
Runtime column, and ``schedule.csv``), then ``locksched schedule`` (its JSON)
and ``locksched rolling --epsilon 0.5 --chunks 4`` (its JSON lines) on the
instance ``document``.  A free rolling window runs one lane with its Up
entry half a unit higher, so the chunks also check that float start.
"""

import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from locksched.arrivals import MalformedRowError, parse_arrivals, serialize_arrivals
from locksched.cli import main
from locksched.experiment import synth_dataset
from locksched.schedule import Direction


def results(request):
    digests = []
    for seed, days, spec, sigma in request["synth"]:
        dataset = synth_dataset(seed, days, {Direction(d): pairs for d, pairs in spec.items()}, sigma)
        digests.append(hashlib.sha256(serialize_arrivals(dataset).encode()).hexdigest())
    records = parse_arrivals(io.StringIO(request["parse"])).records
    parsed = [[r.timestamp.isoformat(), r.direction.value] for r in records]
    rejections = []
    for stamp in request["reject"]:
        try:
            parse_arrivals(["timestamp,direction\n", f"{stamp},D\n"])
            rejections.append(None)
        except MalformedRowError as exc:
            rejections.append(str(exc))
    with tempfile.TemporaryDirectory() as tmp:
        arrivals = str(Path(tmp, "arrivals.csv"))
        codes = [
            main(["synth", "--seed", "0", "--days", "3", "--sigma", "5", "--out", arrivals]),
            main(["experiment", "--arrivals", arrivals, "--k-list", "2,3", "--n-list", "10,20", "--out-dir", tmp]),
        ]
        fit = list(csv.reader(io.StringIO(Path(tmp, "fit.csv").read_text(encoding="utf-8"))))
        runtime = fit[0].index("Runtime")
        schedule = Path(tmp, "schedule.csv").read_text(encoding="utf-8")
        instance = Path(tmp, "instance.json")
        instance.write_text(json.dumps(request["instance"]), encoding="utf-8")
        optimal, chunks = (Path(tmp, name) for name in ("optimal.json", "chunks.jsonl"))
        codes += [
            main(["schedule", "--instance", str(instance), "--out", str(optimal)]),
            main(["rolling", "--instance", str(instance), "--epsilon", "0.5", "--chunks", "4", "--out", str(chunks)]),
        ]
        optimal_json = json.loads(optimal.read_text(encoding="utf-8"))
        chunk_lines = chunks.read_text(encoding="utf-8").splitlines()
    return {
        "codes": codes,
        "synth": digests,
        "parse": parsed,
        "reject": rejections,
        "fit": [row[:runtime] + row[runtime + 1:] for row in fit],
        "schedule": schedule,
        "optimal": optimal_json,
        "rolling": chunk_lines,
    }


if __name__ == "__main__":
    json.dump(results(json.load(sys.stdin)), sys.stdout)
