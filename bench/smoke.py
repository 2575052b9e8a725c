"""Smoke test of the benchmark harness on tiny inputs.

    python3 bench/smoke.py

Checks that every workload runs in both modes and prints exactly the
metrics BENCHMARK.json lists, that a perturbed golden is reported as a
failure, and that a directory holding only the benchmark's own files makes
the command fail without printing a result.  The perturbed goldens and the
bare directory are made in copies under ``.bench_work/smoke``.  Exits
non-zero on the first broken expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_work" / "smoke"
TIMEOUT_S = 180

# One output value per tiny golden file, changed to something the program
# does not produce.
PERTURB = {
    "pipeline-tiny.json": lambda g: g["k2-n6"]["schedule"].__setitem__(1, g["k2-n6"]["schedule"][1] + "1"),
    "schedule-tiny.json": lambda g: g["dp-L30"].__setitem__("total_cost", g["dp-L30"]["total_cost"] + 1),
    "replay-tiny.json": lambda g: g["2019-01-02"].__setitem__(0, g["2019-01-02"][0] + 1),
}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    command = json.loads((cwd / "BENCHMARK.json").read_text(encoding="utf-8"))["command"]
    return subprocess.run(
        [*command, *args], cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S, check=False
    )


def copy_tree(dest: Path, with_sources: bool) -> Path:
    """A checkout at ``dest`` holding BENCHMARK.json, bench/ and, if asked, src/."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, dest / BENCH.name, ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def last_json(proc: subprocess.CompletedProcess):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def expect(condition: bool, message: str, proc: subprocess.CompletedProcess = None) -> None:
    if not condition:
        detail = f"\n--- stderr ---\n{proc.stderr}" if proc is not None else ""
        raise SystemExit(f"FAIL: {message}{detail}")
    print(f"ok: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        perturbed = copy_tree(SCRATCH / "perturbed", with_sources=True)
        for name, change in PERTURB.items():
            path = perturbed / BENCH.name / "goldens" / name
            data = json.loads(path.read_text(encoding="utf-8"))
            change(data)
            path.write_text(json.dumps(data), encoding="utf-8")
        for workload in (w["name"] for w in spec["workloads"]):
            base = ("--workload", workload, "--seed", "0", "--seconds", "1", "--size", "tiny")
            for trace in (0, 1):
                proc = run(ROOT, *base, "--trace", str(trace))
                result = last_json(proc)
                expect(proc.returncode == 0 and result is not None and result["correct"],
                       f"{workload} --trace {trace} passes its checks", proc)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(got == wanted[trace], f"{workload} --trace {trace} prints the listed metrics", proc)
                expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                       and result["attempted"] >= 1 and result["failed"] == 0,
                       f"{workload} --trace {trace} result has the required keys", proc)
            proc = run(perturbed, *base, "--trace", "0")
            result = last_json(proc)
            expect(proc.returncode != 0 and result is not None and not result["correct"] and result["failed"] >= 1,
                   f"{workload} reports a perturbed golden as a failure", proc)

        bare = copy_tree(SCRATCH / "bare", with_sources=False)
        proc = run(bare, "--workload", "schedule", "--seed", "0", "--seconds", "1", "--trace", "0")
        expect(proc.returncode != 0 and last_json(proc) is None,
               "without the package sources the command fails and prints no result", proc)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
