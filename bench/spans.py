"""In-memory spans around calls into the package's public functions.

A traced run replaces each function named in ``TRACED`` with a wrapper in
every module of the package that holds it, so calls made inside the package
(``simulate`` from ``policies``, ``best_fit`` from ``experiment``) are seen
as well as calls made by the benchmark.  Spans stay in memory and are written
out as JSON lines when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

TRACED: Dict[str, Tuple[str, ...]] = {
    "arrivals": ("parse_arrivals", "extract_instance", "bucket_to_periods"),
    "matching": ("best_fit", "solve_matching"),
    "experiment": (
        "run_fit_experiment",
        "run_schedule_experiment",
        "evaluate_day",
        "fit_day_direction",
        "rescale_streams",
    ),
    "dp": ("solve",),
    "rolling": ("generate", "next_chunk", "windowed_optimum"),
    "two_stream": ("closed_form_schedule",),
    "schedule": ("simulate", "cyclic_average"),
    "policies": ("alternating", "fifo", "adv_fifo", "realized_periodic"),
    "cli": ("main",),
}

TRACED_NAMES: Tuple[str, ...] = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)

# A note is a small value taken from a call's arguments or result, kept on
# its span so that work counts are measured where the work happens.
Note = Callable[[inspect.BoundArguments, object], object]


def _records(bound: inspect.BoundArguments, result: object) -> int:
    return len(bound.arguments["dataset"].records)


def _fit_key(bound: inspect.BoundArguments, result: object) -> list:
    instance = bound.arguments["instance"]
    return [list(instance.arrival_minutes), instance.T, bound.arguments["k"]]


def _lanes(bound: inspect.BoundArguments, result: object) -> int:
    # A free entry orientation solves one lane per orientation.
    return 2 if bound.arguments.get("position") is None else 1


NOTES: Dict[str, Note] = {
    "arrivals.extract_instance": _records,
    "arrivals.bucket_to_periods": _records,
    "matching.best_fit": _fit_key,
    "dp.solve": lambda bound, result: result.period,
    "rolling.windowed_optimum": _lanes,
    "rolling.next_chunk": lambda bound, result: result.case,
    "schedule.simulate": lambda bound, result: result.horizon,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    task: Optional[str]
    note: object = None


class Tracer:
    """Owns the spans of one run and the patches that produce them.

    Calls are recorded only while ``task`` is set, so the benchmark's own
    output checks leave no spans.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.task: Optional[str] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def install(self, package: str) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for mod_name, functions in TRACED.items():
            module = sys.modules[f"{package}.{mod_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for m in modules:
                    holders = [attr for attr, value in vars(m).items() if value is original]
                    for attr in holders:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)
        signature = inspect.signature(fn) if note else None

        def wrapper(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.task)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.note = note(bound, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> List[float]:
        """Each span's duration minus the part of it its child spans cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for i, span in enumerate(self.spans):
            covered = 0.0
            reach = span.start
            for child in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.end - span.start - covered)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "task": span.task,
                }
                if span.note is not None:
                    record["note"] = span.note
                fh.write(json.dumps(record) + "\n")
