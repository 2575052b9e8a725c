"""Arrival-data ingestion: CSV parsing, per-day instance extraction, bucketing.

Timestamps are truncated to one-minute resolution; the minute index within a
day starts at 1.
"""

from __future__ import annotations

import csv
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date, datetime, time
from itertools import chain
from operator import attrgetter
from typing import Iterable, List, NamedTuple, TextIO, Tuple, Union

from .schedule import Direction, _check_int

CSV_HEADER = ("timestamp", "direction")
# Token lookup for parsing: a dict read is far cheaper per row than Direction(token).
_DIRECTION_TOKENS = {d.value: d for d in Direction}
# A fraction of a second just past YYYY-MM-DDTHH:MM:SS (index 19); one that
# runs into a second fraction is left for fromisoformat to reject.
_FRACTION = re.compile(r"[.,][0-9]+(?![.,0-9])")
_TIMESTAMP = attrgetter("timestamp")
# After a four-digit year every field of a timestamp is one separator and two
# digits: -MM-DD, T or t or a space, HH:MM, an optional :SS and an optional
# +HH:MM or -HH:MM, the form a trailing Z and a fraction of a second are cut
# to first.  A shape is the string of its separators, at indices 4, 7, 10...
_SHAPES = frozenset(
    f"--{sep}:{tail}" for sep in "Tt " for tail in ("", ":", "+:", "-:", ":+:", ":-:")
)
_SHAPE_ERROR = (
    "expected a date, then T or a space, then a time of day,"
    " as YYYY-MM-DDTHH:MM[:SS[.fraction]] with an optional Z or +HH:MM or -HH:MM"
)


class MalformedRowError(ValueError):
    """An arrivals CSV row that cannot be read; ``line_number`` is its file line."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class NoArrivalsError(ValueError):
    """No arrivals exist for the requested day and direction."""


class ArrivalRecord(NamedTuple):
    """One arrival.  Immutable and hashable, it unpacks as ``ts, d = record``
    and compares equal to the plain tuple ``(timestamp, direction)``."""

    timestamp: datetime  # truncated to the minute
    direction: Direction

    @property
    def day(self) -> date:
        return self.timestamp.date()

    @property
    def minute_of_day(self) -> int:
        """1-based minute index within the record's day."""
        return self.timestamp.hour * 60 + self.timestamp.minute + 1


@dataclass(frozen=True)
class ArrivalDataset:
    """Arrival records, sorted by timestamp on construction.

    Minutes are wall-clock minutes and each day must be one contiguous slice
    of the sorted records, so a timezone-aware timestamp raises ``ValueError``.
    """

    records: Tuple[ArrivalRecord, ...]

    def __post_init__(self) -> None:
        # Minutes are wall-clock minutes, so timestamps must be naive.  A sort
        # that succeeds compared naive with naive or aware with aware only,
        # so the first record speaks for all.
        try:
            records = tuple(sorted(self.records, key=_TIMESTAMP))
        except TypeError as exc:
            raise ValueError(f"arrival timestamps must be naive datetimes: {exc}") from None
        if records and records[0].timestamp.tzinfo is not None:
            raise ValueError(f"arrival timestamps must be naive datetimes, got {records[0].timestamp.isoformat()}")
        object.__setattr__(self, "records", records)

    def days(self) -> List[date]:
        return sorted({r.timestamp.date() for r in self.records})

    def _day_records(self, day: date) -> Tuple[ArrivalRecord, ...]:
        """The records of one day, in timestamp order."""
        # Records are sorted by naive timestamp, so each day is one
        # contiguous slice, from its midnight to its last microsecond.
        records = self.records
        lo = bisect_left(records, datetime.combine(day, time.min), key=_TIMESTAMP)
        hi = bisect_right(records, datetime.combine(day, time.max), lo=lo, key=_TIMESTAMP)
        return records[lo:hi]

    def minutes_for(self, day: date, direction: Direction) -> List[int]:
        """Sorted 1-based arrival minutes for one day and direction."""
        return [ts.hour * 60 + ts.minute + 1 for ts, d in self._day_records(day) if d is direction]


@dataclass(frozen=True)
class MatchingInstance:
    """Arrivals of one day/direction, horizon ending at the last arrival."""

    arrival_minutes: Tuple[int, ...]
    T: int

    @property
    def n(self) -> int:
        """The number of arrivals."""
        return len(self.arrival_minutes)

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrival_minutes", tuple(self.arrival_minutes))
        _check_int("T", self.T)
        for t in self.arrival_minutes:
            if type(t) is not int:
                raise ValueError(f"arrival minutes must be ints, got {t!r}")
        if not self.arrival_minutes:
            raise ValueError("instance must contain at least one arrival")
        if any(not 1 <= t <= self.T for t in self.arrival_minutes):
            raise ValueError("arrival minutes must lie in [1, T]")
        if list(self.arrival_minutes) != sorted(self.arrival_minutes):
            raise ValueError("arrival minutes must be sorted")


def parse_arrivals(source: Union[TextIO, Iterable[str]]) -> ArrivalDataset:
    """Parse the `timestamp,direction` CSV format into a sorted dataset.

    The first non-blank row must be the header; a leading byte-order mark is
    ignored.  A timestamp is a date ``YYYY-MM-DD``, then ``T``, ``t`` or a
    space, then a time of day ``HH:MM`` or ``HH:MM:SS``, then optionally a
    UTC offset ``+HH:MM`` or ``-HH:MM``; every Python version reads the same
    forms.  Timestamps keep their wall-clock minutes, a fraction of a
    second (after ``.`` or ``,``) is dropped, and a trailing ``Z`` reads as
    ``+00:00``.  Any other form, such as a bare date, a week date, a
    basic-format date or time, an hour alone or an offset as ``+HHMM``,
    ``+HH`` or with seconds, raises ``MalformedRowError`` quoting the
    timestamp.  A file may use one UTC offset throughout, or none;
    mixing offsets, or offset and naive timestamps, raises
    ``MalformedRowError``, as does a row the ``csv`` module cannot read,
    such as one opening a quote it never closes.
    """
    lines = iter(source)
    first = next(lines, "")
    reader = csv.reader(chain((first.removeprefix("\ufeff"),), lines))
    records = []
    append, fromisoformat, token = records.append, datetime.fromisoformat, _DIRECTION_TOKENS.get
    # ArrivalRecord(ts, d) runs the NamedTuple's Python-level __new__;
    # tuple.__new__ builds the same record in C.
    new, record = tuple.__new__, ArrivalRecord
    first_offset = first_ts = None
    # File lines read before the current row, which starts on line done + 1:
    # a quoted field may hold newlines, so rows and lines can differ.
    done = 0
    try:
        for row in reader:
            if row:
                if tuple(cell.strip() for cell in row) != CSV_HEADER:
                    raise MalformedRowError(done + 1, f"expected header {','.join(CSV_HEADER)}, got {','.join(row)!r}")
                break
            done = reader.line_num
        done = reader.line_num
        for row in reader:
            if not row:
                done = reader.line_num
                continue
            if len(row) != 2:
                raise MalformedRowError(done + 1, f"expected 2 fields, got {len(row)}")
            raw_ts, raw_dir = row[0].strip(), row[1].strip()
            # Python 3.10's fromisoformat does not read "Z", nor a fraction of
            # other than 3 or 6 digits; 3.11's does.  Minutes drop the fraction.
            text = raw_ts[:-1] + "+00:00" if raw_ts.endswith("Z") else raw_ts
            fraction = len(text) > 19 and _FRACTION.match(text, 19)
            if fraction:
                text = text[:19] + text[fraction.end():]
            # fromisoformat takes any character after the date as the
            # separator, and 3.11's also reads week dates, basic-format dates
            # and times, and offsets as +HHMM or +HH, so the shape is checked
            # first: the separators at every third index from 4 on, and a
            # length that ends the text at a field's end.
            if len(text) % 3 != 1 or text[4::3] not in _SHAPES:
                raise MalformedRowError(done + 1, f"bad timestamp {raw_ts!r}: {_SHAPE_ERROR}, got {raw_ts!r}")
            try:
                ts = fromisoformat(text)
            except ValueError as exc:
                reason = str(exc).replace(repr(text), repr(raw_ts))
                raise MalformedRowError(done + 1, f"bad timestamp {raw_ts!r}: {reason}") from None
            direction = token(raw_dir)
            if direction is None:
                raise MalformedRowError(done + 1, f"unknown direction token {raw_dir!r}")
            # Minutes are wall-clock minutes, which order correctly only under
            # one UTC offset (or none) for the whole file.
            if first_ts is None:
                first_offset, first_ts = ts.utcoffset(), raw_ts
            elif ts.utcoffset() != first_offset:
                raise MalformedRowError(
                    done + 1, f"timestamp {raw_ts!r} has a different UTC offset from {first_ts!r}"
                )
            if ts.second or ts.microsecond or ts.tzinfo is not None:
                ts = ts.replace(second=0, microsecond=0, tzinfo=None)
            append(new(record, (ts, direction)))
            done = reader.line_num
    except csv.Error as exc:
        # An unclosed quote runs on to the field size limit; the bad field
        # starts on the line after the last row read.
        raise MalformedRowError(done + 1, f"unreadable CSV: {exc}") from None
    return ArrivalDataset(tuple(records))


def serialize_arrivals(dataset: ArrivalDataset) -> str:
    """Inverse of parse_arrivals (LF line endings)."""
    # An identity test reads the token without Enum's Python-level ``value``.
    lines = [",".join(CSV_HEADER)]
    down = Direction.DOWN
    lines += [f"{ts.isoformat()},{'D' if d is down else 'U'}" for ts, d in dataset.records]
    return "\n".join(lines) + "\n"


def extract_instance(dataset: ArrivalDataset, day: date, direction: Direction, n: int) -> MatchingInstance:
    """First min(n, available) arrivals of the day/direction; T = last one."""
    _check_int("n", n, 1)
    minutes = dataset.minutes_for(day, direction)
    if not minutes:
        raise NoArrivalsError(f"no {direction.value} arrivals on {day.isoformat()}")
    selected = minutes[: min(n, len(minutes))]
    return MatchingInstance(arrival_minutes=tuple(selected), T=selected[-1])


def bucket_to_periods(
    dataset: ArrivalDataset, day: date, period_minutes: int, horizon_periods: int
) -> List[Tuple[int, int]]:
    """Per-period (downstream, upstream) arrival counts for one day.

    Minute m maps to period ceil(m / period_minutes); arrivals past the
    horizon are dropped, as are records whose direction is not a
    ``Direction``.  The list starts as one shared ``(0, 0)`` per period, and
    the day's records are read once, each rebuilding its period's pair.
    """
    _check_int("period_minutes", period_minutes, 1)
    _check_int("horizon_periods", horizon_periods, 1)
    down, up = Direction.DOWN, Direction.UP
    counts = [(0, 0)] * horizon_periods
    for ts, direction in dataset._day_records(day):
        # Minute m = 60 h + min + 1 lies in 0-based period ceil(m / p) - 1,
        # which is (60 h + min) // p.
        period = (ts.hour * 60 + ts.minute) // period_minutes
        if period < horizon_periods:
            d, u = counts[period]
            if direction is down:
                counts[period] = (d + 1, u)
            elif direction is up:
                counts[period] = (d, u + 1)
    return counts
