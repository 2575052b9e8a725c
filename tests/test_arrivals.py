import io
import math
import re
import sys
from datetime import date, datetime, timedelta, timezone
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locksched.arrivals import (
    ArrivalDataset,
    ArrivalRecord,
    MalformedRowError,
    MatchingInstance,
    NoArrivalsError,
    bucket_to_periods,
    extract_instance,
    parse_arrivals,
    serialize_arrivals,
)
from locksched.schedule import Direction
from oracles import reference_parse_arrivals


def _parse(text: str) -> ArrivalDataset:
    return parse_arrivals(io.StringIO(text))


def test_parse_truncates_to_minute():
    ds = _parse("timestamp,direction\n2019-01-02T06:30:12,U\n")
    assert len(ds.records) == 1
    rec = ds.records[0]
    assert rec.timestamp == datetime(2019, 1, 2, 6, 30)
    assert rec.direction is Direction.UP
    assert rec.day == date(2019, 1, 2)
    assert rec.minute_of_day == 391


def test_parse_empty_file_gives_empty_dataset():
    assert _parse("timestamp,direction\n").records == ()


def test_parse_sorts_out_of_order_rows():
    ds = _parse(
        "timestamp,direction\n"
        "2019-01-02T10:00:00,D\n"
        "2019-01-02T08:00:00,U\n"
    )
    assert [r.timestamp.hour for r in ds.records] == [8, 10]


def test_parse_rejects_bad_header():
    with pytest.raises(MalformedRowError) as exc:
        _parse("time,dir\n")
    assert str(exc.value) == "line 1: expected header timestamp,direction, got 'time,dir'"
    # An invisible character is visible in the repr.
    with pytest.raises(MalformedRowError, match=r"got 'timestamp,\\ufeffdirection'"):
        _parse("timestamp,\ufeffdirection\n")


def test_parse_checks_header_on_first_non_blank_row():
    with pytest.raises(MalformedRowError) as exc:
        _parse("\n2019-01-02T09:30:00,D\n")
    assert str(exc.value) == "line 2: expected header timestamp,direction, got '2019-01-02T09:30:00,D'"
    ds = _parse("\n\ntimestamp,direction\n2019-01-02T09:30:00,D\n")
    assert ds == _parse("timestamp,direction\n2019-01-02T09:30:00,D\n")
    assert len(ds.records) == 1


def test_parse_ignores_a_leading_byte_order_mark():
    plain = "timestamp,direction\n2019-01-02T09:30:00,D\n2019-01-02T10:00:00,U\n"
    assert _parse("\ufeff" + plain) == _parse(plain)
    assert _parse("\ufeff\n" + plain) == _parse(plain)
    assert parse_arrivals(["\ufefftimestamp,direction\n", "2019-01-02T09:30:00,D\n"]).records == (
        ArrivalRecord(datetime(2019, 1, 2, 9, 30), Direction.DOWN),
    )
    assert _parse("\ufeff").records == ()


def test_parse_rejects_bad_direction():
    with pytest.raises(MalformedRowError) as exc:
        _parse("timestamp,direction\n2019-01-02T06:30:00,X\n")
    assert exc.value.line_number == 2


def test_parse_rejects_bad_timestamp():
    # A fraction that runs into a second one is not cut away.
    for stamp in ("not-a-time", "2019-01-02T09:30:00.5.5"):
        with pytest.raises(MalformedRowError, match=f"bad timestamp {stamp!r}: .*{stamp!r}"):
            _parse(f"timestamp,direction\n{stamp},D\n")


def test_parse_rejects_wrong_field_count():
    with pytest.raises(MalformedRowError):
        _parse("timestamp,direction\n2019-01-02T06:30:00,D,extra\n")


def test_parse_names_the_row_of_an_unclosed_quote():
    # The quote swallows the rest of the file into one field, past the csv
    # module's 128 KiB field limit; the error names the row it opens on.
    rows = "2019-01-02T06:30:00,D\n" * 7000
    with pytest.raises(MalformedRowError) as exc:
        _parse('timestamp,direction\n2019-01-02T06:00:00,U\n"' + rows)
    assert exc.value.line_number == 3
    assert str(exc.value).startswith("line 3: unreadable CSV: field larger than field limit")
    for text, line in (('"timestamp,direction\n' + rows, 1), ('\n"timestamp,direction\n' + rows, 2)):
        with pytest.raises(MalformedRowError) as exc:
            _parse(text)
        assert exc.value.line_number == line


def test_parse_names_the_file_line_after_a_quoted_newline():
    # The first record's quoted timestamp spans lines 2 and 3, so the bad
    # token is on line 4 though it is the third CSV row.
    text = 'timestamp,direction\n"2019-01-02T06:30:00\n",D\n2019-01-02T06:30:00,X\n'
    with pytest.raises(MalformedRowError, match="^line 4: unknown direction token 'X'$"):
        _parse(text)


def test_parse_rejects_mixed_utc_offsets():
    # 10:00+02:00 is 08:00 UTC, before 09:30+00:00, yet its wall clock is later.
    with pytest.raises(MalformedRowError, match="line 3"):
        _parse("timestamp,direction\n2019-01-02T09:30:00+00:00,D\n2019-01-02T10:00:00+02:00,D\n")


def test_parse_rejects_naive_and_offset_timestamps():
    with pytest.raises(MalformedRowError, match="line 3"):
        _parse("timestamp,direction\n2019-01-02T09:30:00,D\n2019-01-02T10:00:00+02:00,U\n")
    with pytest.raises(MalformedRowError, match="line 3"):
        _parse("timestamp,direction\n2019-01-02T09:30:00+02:00,D\n2019-01-02T10:00:00,U\n")


def test_parse_single_offset_keeps_wall_clock_minutes():
    ds = _parse("timestamp,direction\n2019-01-02T10:00:00+02:00,D\n2019-01-02T09:30:00+02:00,U\n")
    assert [r.timestamp for r in ds.records] == [datetime(2019, 1, 2, 9, 30), datetime(2019, 1, 2, 10, 0)]
    assert [r.minute_of_day for r in ds.records] == [571, 601]


def test_parse_reads_trailing_z_as_utc():
    utc = _parse("timestamp,direction\n2019-01-02T09:30:00+00:00,D\n2019-01-02T09:45:10.500000+00:00,U\n")
    z = _parse("timestamp,direction\n2019-01-02T09:30:00Z,D\n2019-01-02T09:45:10.500000Z,U\n")
    assert z == utc
    # Z and +00:00 are one offset; Z and +02:00 are two.
    mixed = _parse("timestamp,direction\n2019-01-02T09:30:00Z,D\n2019-01-02T09:45:10.500000+00:00,U\n")
    assert mixed == utc
    with pytest.raises(MalformedRowError, match="line 3: timestamp '2019-01-02T10:00:00Z' has a different"):
        _parse("timestamp,direction\n2019-01-02T09:30:00+02:00,D\n2019-01-02T10:00:00Z,U\n")
    with pytest.raises(MalformedRowError, match="line 3: timestamp '2019-01-02T10:00:00Z' has a different"):
        _parse("timestamp,direction\n2019-01-02T09:30:00,D\n2019-01-02T10:00:00Z,U\n")


def test_parse_bad_z_timestamp_error_keeps_the_raw_text():
    with pytest.raises(MalformedRowError) as exc:
        _parse("timestamp,direction\nnot-a-timeZ,D\n")
    assert str(exc.value).startswith("line 2: bad timestamp 'not-a-timeZ': ")
    assert "+00:00" not in str(exc.value)


def test_serialize_round_trip():
    text = (
        "timestamp,direction\n"
        "2019-01-02T06:30:00,U\n"
        "2019-01-02T07:15:00,D\n"
    )
    ds = _parse(text)
    assert serialize_arrivals(ds) == text
    assert parse_arrivals(io.StringIO(serialize_arrivals(ds))) == ds


def test_minute_of_day_is_one_based():
    ds = _parse("timestamp,direction\n2019-01-02T00:00:00,D\n")
    assert ds.records[0].minute_of_day == 1


def test_minutes_for_matches_full_scan():
    # Four days with the middle one empty, arrivals at 00:00 and 23:59.
    text = ["timestamp,direction"]
    for day in ("2019-01-02", "2019-01-03", "2019-01-05"):
        for clock, direction in (("00:00", "D"), ("23:59", "U"), ("12:30", "D"), ("23:59", "D"), ("00:00", "U")):
            text.append(f"{day}T{clock}:00,{direction}")
    ds = _parse("\n".join(text) + "\n")
    for offset in range(6):
        day = date(2019, 1, 1 + offset)
        for direction in Direction:
            expected = [r.minute_of_day for r in ds.records if r.day == day and r.direction is direction]
            assert ds.minutes_for(day, direction) == expected
    assert ds.minutes_for(date(2019, 1, 4), Direction.DOWN) == []
    assert ds.minutes_for(date(2019, 1, 5), Direction.DOWN) == [1, 751, 1440]
    assert ds.minutes_for(date(2019, 1, 5), Direction.UP) == [1, 1440]


_UTC = timezone.utc
_PLUS_5 = timezone(timedelta(hours=5))


@pytest.mark.parametrize(
    "timestamps, message",
    [
        # Sorted by instant, the 01-03 record at +05:00 falls between two of
        # 01-02, so 01-02 would not be one slice of the records.
        ([datetime(2019, 1, 2, 23, 30, tzinfo=_UTC), datetime(2019, 1, 3, 1, 0, tzinfo=_PLUS_5),
          datetime(2019, 1, 2, 22, 0, tzinfo=_UTC)], "got 2019-01-03T01:00:00+05:00"),
        ([datetime(2019, 1, 2, 6, 0, tzinfo=_UTC)], "got 2019-01-02T06:00:00+00:00"),
        ([datetime(2019, 1, 2, 6, 0), datetime(2019, 1, 2, 7, 0, tzinfo=_UTC)], "can't compare"),
    ],
    ids=["two-offsets", "one-aware", "naive-and-aware"],
)
def test_dataset_rejects_aware_timestamps(timestamps, message):
    records = tuple(ArrivalRecord(ts, Direction.DOWN) for ts in timestamps)
    with pytest.raises(ValueError, match=f"arrival timestamps must be naive datetimes.*{re.escape(message)}"):
        ArrivalDataset(records)


def test_extract_instance_prefix_selection():
    """First min(n, available) arrivals; T is the last selected minute."""
    recs = tuple(
        ArrivalRecord(datetime(2019, 1, 2, (m - 1) // 60, (m - 1) % 60), Direction.DOWN)
        for m in (12, 40, 95)
    )
    ds = ArrivalDataset(recs)
    inst = extract_instance(ds, date(2019, 1, 2), Direction.DOWN, 2)
    assert inst.arrival_minutes == (12, 40)
    assert inst.T == 40
    assert inst.n == 2


def test_extract_instance_caps_n_at_available():
    recs = (ArrivalRecord(datetime(2019, 1, 2, 0, 11), Direction.DOWN),)
    inst = extract_instance(ArrivalDataset(recs), date(2019, 1, 2), Direction.DOWN, 5)
    assert inst.n == 1


def test_extract_instance_missing_direction_errors():
    recs = (ArrivalRecord(datetime(2019, 1, 2, 0, 11), Direction.DOWN),)
    with pytest.raises(NoArrivalsError):
        extract_instance(ArrivalDataset(recs), date(2019, 1, 2), Direction.UP, 1)


def test_extract_instance_rejects_n_below_1():
    recs = (ArrivalRecord(datetime(2019, 1, 2, 0, 11), Direction.DOWN),)
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        extract_instance(ArrivalDataset(recs), date(2019, 1, 2), Direction.DOWN, 0)


def test_matching_instance_validates():
    with pytest.raises(ValueError):
        MatchingInstance(arrival_minutes=(5, 3), T=5)
    with pytest.raises(ValueError):
        MatchingInstance(arrival_minutes=(0, 2), T=5)
    with pytest.raises(ValueError, match="^instance must contain at least one arrival$"):
        MatchingInstance((), 5)


@pytest.mark.parametrize(
    "minutes, T, message",
    [
        ((2.5, 5, 9), 12, "arrival minutes must be ints, got 2.5"),
        ((2, 5, 9), 12.0, "T must be an int, got 12.0"),
        ((True, 5, 9), 12, "arrival minutes must be ints, got True"),
        ((2, 5, 9), True, "T must be an int, got True"),
    ],
)
def test_matching_instance_rejects_non_int_minutes(minutes, T, message):
    """A float or bool minute or T is rejected when the instance is built,
    not later inside the fitter."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        MatchingInstance(arrival_minutes=minutes, T=T)


def _day_dataset(minutes_down, minutes_up=()):
    recs = [
        ArrivalRecord(datetime(2019, 1, 2, (m - 1) // 60, (m - 1) % 60), d)
        for ms, d in ((minutes_down, Direction.DOWN), (minutes_up, Direction.UP))
        for m in ms
    ]
    return ArrivalDataset(tuple(recs))


def test_bucket_minute_to_period_ceiling():
    ds = _day_dataset([1, 21, 22])
    counts = bucket_to_periods(ds, date(2019, 1, 2), 21, 3)
    assert counts == [(2, 0), (1, 0), (0, 0)]


def test_bucket_aggregates_duplicates():
    ds = _day_dataset([5, 5, 30])
    counts = bucket_to_periods(ds, date(2019, 1, 2), 21, 2)
    assert counts == [(2, 0), (1, 0)]


def test_bucket_drops_beyond_horizon():
    ds = _day_dataset([100])
    assert bucket_to_periods(ds, date(2019, 1, 2), 21, 2) == [(0, 0), (0, 0)]


def test_bucket_rejects_empty_periods_and_horizon():
    ds = _day_dataset([100])
    with pytest.raises(ValueError, match="^period_minutes must be >= 1, got 0$"):
        bucket_to_periods(ds, date(2019, 1, 2), 0, 2)
    with pytest.raises(ValueError, match="^horizon_periods must be >= 1, got 0$"):
        bucket_to_periods(ds, date(2019, 1, 2), 21, 0)


@st.composite
def _bucketings(draw):
    """A dataset of 1 to 3 days (one direction sometimes empty), a day of
    it, a period length of 1 to 60 minutes and a horizon shorter or longer
    than that day's periods."""
    days = [date(2019, 1, 2) + timedelta(days=i) for i in range(draw(st.integers(1, 3)))]
    directions = draw(st.sampled_from([tuple(Direction), (Direction.DOWN,), (Direction.UP,)]))
    drawn = draw(st.lists(st.tuples(st.sampled_from(days), st.integers(1, 1440), st.sampled_from(directions)),
                          max_size=60))
    records = tuple(ArrivalRecord(datetime.combine(day, datetime.min.time()) + timedelta(minutes=m - 1), d)
                    for day, m, d in drawn)
    period_minutes = draw(st.integers(1, 60))
    day_length = -(-1440 // period_minutes)
    horizon = draw(st.integers(1, day_length - 1) | st.integers(day_length, 2 * day_length))
    return records, draw(st.sampled_from(days)), period_minutes, horizon


@settings(max_examples=200, deadline=None)
@given(_bucketings())
def test_bucket_equals_per_record_reference(case):
    records, day, period_minutes, horizon = case
    expected = [[0, 0] for _ in range(horizon)]
    for r in records:
        period = math.ceil(Fraction(r.minute_of_day, period_minutes))
        if r.day == day and period <= horizon:
            expected[period - 1][r.direction is Direction.UP] += 1
    counts = bucket_to_periods(ArrivalDataset(records), day, period_minutes, horizon)
    assert counts == [tuple(c) for c in expected]


_MINUTE_RECORDS = st.lists(
    st.builds(
        lambda day, minute, direction: ArrivalRecord(datetime(2019, 1, 2) + timedelta(days=day, minutes=minute), direction),
        st.integers(0, 4), st.integers(0, 1439), st.sampled_from(Direction),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_MINUTE_RECORDS)
def test_serialize_then_parse_equals_dataset(records):
    dataset = ArrivalDataset(tuple(records))
    assert parse_arrivals(io.StringIO(serialize_arrivals(dataset))) == dataset


# Each file uses one of these offset sets; "Z" and "+00:00" are one offset.
# Python 3.10's fromisoformat, which the reference parser calls, cannot read "Z".
_OFFSETS = [[""], ["+00:00"], ["+02:00"], ["-05:30"]]
# The reference's fromisoformat reads fractions of 3 or 6 digits on 3.10.
_FRACTION_DIGITS = [3, 6]
if sys.version_info >= (3, 11):
    _OFFSETS += [["Z"], ["Z", "+00:00"]]
    _FRACTION_DIGITS = [1, 2, 3, 4, 5, 6]


@st.composite
def _arrival_texts(draw):
    """Well-formed arrival text: seconds, a fraction of 1-6 digits, one
    offset, blank lines, padded cells, a space or ``T`` separator and
    sometimes a byte-order mark."""
    offsets = draw(st.sampled_from(_OFFSETS))
    pad = st.sampled_from(["", " ", "  "])
    lines = ["timestamp,direction"]
    for _ in range(draw(st.integers(0, 25))):
        stamp = datetime(2019, 1, 2) + timedelta(
            days=draw(st.integers(0, 2)),
            minutes=draw(st.integers(0, 1439)),
            seconds=draw(st.integers(0, 59)),
            microseconds=draw(st.sampled_from([0, 123, 500000, 999999])),
        )
        text = stamp.isoformat(draw(st.sampled_from("T ")), draw(st.sampled_from(["minutes", "seconds"])))
        if len(text) == 19 and draw(st.booleans()):
            text += "." + f"{stamp.microsecond:06d}"[: draw(st.sampled_from(_FRACTION_DIGITS))]
        text += draw(st.sampled_from(offsets))
        lines.append(f"{draw(pad)}{text}{draw(pad)},{draw(pad)}{draw(st.sampled_from('DU'))}{draw(pad)}")
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    return draw(st.sampled_from(["", "\ufeff"])) + "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=200, deadline=None)
@given(_arrival_texts())
def test_parse_equals_per_row_reference(text):
    assert parse_arrivals(io.StringIO(text)) == reference_parse_arrivals(text)
