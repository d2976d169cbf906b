"""Throughput and behavior trace parsing, synthetic scenarios, and the
piecewise-constant channel model.

Throughput CSV: header ``timestamp_s,bandwidth_kbps`` (header optional on
input), one sample per row, finite timestamps strictly increasing from 0,
finite non-negative bandwidths. The bandwidth holds constant from each
timestamp until the next; the final sample extends forever. A
:class:`ThroughputTrace` holds the samples as two columns, the timestamps
and the bandwidths. The parser converts a file's whole body in one pass,
checks the two columns as lists of floats and packs them into
``array('d')``, 8 bytes a value; it walks the file line by line only to
name the line of an error. :func:`download_finish_time` reads a
download's first two segments by index and drains the rest through column
iterators positioned with ``__setstate__``.

Behavior CSV: header ``trace_id,category,total_chunks,swipe_chunk``
(header optional on input), one viewing per row; fields are stripped of
whitespace, the two counts are integers with 1 <= swipe_chunk <=
total_chunks. The parser converts the body in bulk, a block of lines at a
time, and walks a rejected file line by line only to name its first bad
line.
"""
from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from dataclasses import FrozenInstanceError
from itertools import islice, repeat
from operator import contains as _contains, itemgetter, le as _le, lt as _lt
from typing import Iterable

THROUGHPUT_HEADER = "timestamp_s,bandwidth_kbps"
BEHAVIOR_HEADER = "trace_id,category,total_chunks,swipe_chunk"

SCENARIO_KINDS = ("high", "medium", "low", "mixed")
SCENARIO_BANDS = {
    "high": (2500.0, 6000.0),
    "medium": (1000.0, 2500.0),
    "low": (300.0, 1000.0),
}
MIXED_STEP_SIGMA = 300.0
MIXED_DRIFT = 150.0
MIXED_FLOOR = 300.0
MIXED_CEIL = 6000.0


class TraceFormatError(ValueError):
    """Raised for malformed trace files; messages carry the line number."""


class TraceSampleError(TraceFormatError):
    """A sample that breaks a :class:`ThroughputTrace` rule; args: (index, rule)."""

    def __str__(self):
        return "sample {}: {}".format(*self.args)


def _check_columns(starts, bws):
    """The one check of the trace rules. Each rule is one pass in C over a
    column; only when a pass fails are the samples walked in order, to name
    the first bad one (its timestamp checked before its bandwidth).

    ``operator.lt``/``le``, not bound dunders: ``(0).__le__(1.5)`` returns
    ``NotImplemented``, which is truthy. The bandwidths are compared with
    ``0.0``, not ``0``: the same verdict for floats, ints and ``Fraction``s,
    and a float column compares float to float."""
    if not starts:
        raise TraceFormatError("trace must contain at least one sample")
    if starts[0] != 0:
        raise TraceSampleError(0, "trace must start at timestamp 0")
    inf = math.inf
    if (starts[-1] < inf
            and all(map(_lt, starts, starts[1:]))
            and all(map(_le, repeat(0.0), bws))
            and all(map(_lt, bws, repeat(inf)))):
        return
    prev = -inf
    for i, (t, bw) in enumerate(zip(starts, bws)):
        if not prev < t < inf:
            raise TraceSampleError(i, "timestamps must be finite and strictly increasing")
        if not 0 <= bw < inf:
            raise TraceSampleError(i, "bandwidth must be finite and non-negative")
        prev = t


class ThroughputTrace:
    """Piecewise-constant bandwidth series; immutable once built.

    Held as two columns, the segment starts and their bandwidths; no tuple
    per sample is kept. ``ThroughputTrace(samples)`` keeps the caller's own
    number objects in two tuples, so a ``Fraction`` trace stays exact. The
    parser and :func:`generate_scenario` pack their float columns into
    ``array('d')``, 8 bytes a value. ``samples`` zips the columns back into
    ``(t, bw)`` pairs on each access. Equality, hashing, ``repr``, pickling
    and copying go by value, so a packed trace and a tuple trace of the same
    samples are interchangeable.
    """

    __slots__ = ("_starts", "_bws")

    def __init__(self, samples):
        samples = tuple(samples)
        self._set(tuple([t for t, _ in samples]), tuple([bw for _, bw in samples]))

    @classmethod
    def _from_columns(cls, starts, bws) -> "ThroughputTrace":
        """A trace of the given start and bandwidth columns, checked by the
        same rules as the public constructor."""
        self = object.__new__(cls)
        self._set(starts, bws)
        return self

    @classmethod
    def _from_floats(cls, starts: list, bws: list) -> "ThroughputTrace":
        """A trace of two lists of floats, checked by the same rules as the
        public constructor and then packed into ``array('d')`` columns:
        checking the lists reads each float as it is, where an array would
        box every value again."""
        _check_columns(starts, bws)
        self = object.__new__(cls)
        self._hold(array("d", starts), array("d", bws))
        return self

    def _set(self, starts, bws):
        _check_columns(starts, bws)
        self._hold(starts, bws)

    def _hold(self, starts, bws):
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_bws", bws)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self)._from_columns, (self._starts, self._bws)

    @property
    def samples(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self._starts, self._bws))

    def _values(self) -> tuple:
        """The two columns as tuples, whatever sequences hold them."""
        return tuple(self._starts), tuple(self._bws)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}(samples={self.samples!r})"

    def segment_index(self, t) -> int:
        return bisect_right(self._starts, t) - 1

    def bandwidth_at(self, t) -> float:
        if not t >= 0:  # NaN too
            raise ValueError("time must be non-negative")
        return self._bws[self.segment_index(t)]


def _sample_lines(lines):
    """``(lineno, stripped line)`` of each line that holds a sample: the
    per-line reading of the format, walked only to name the line of a
    rejected file."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.replace(" ", "") == THROUGHPUT_HEADER:
            continue
        yield lineno, line


def _raise_line_error(lines):
    for lineno, line in _sample_lines(lines):
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceFormatError(
                f"line {lineno}: expected 2 fields, got {len(parts)}") from None
        try:
            float(parts[0]), float(parts[1])
        except ValueError:
            raise TraceFormatError(f"line {lineno}: non-numeric field") from None


def parse_throughput_trace(text: str) -> ThroughputTrace:
    """Parse a throughput CSV (see module docstring for the format); a
    sample that :class:`ThroughputTrace` rejects is reported at its line.

    The whole body is converted in one pass: its sample lines, each holding
    exactly one comma, are joined with commas, split and mapped through
    ``float``. The two float columns are checked as lists and packed into
    ``array('d')``. Each intermediate list is dropped once no later step
    needs it; the lines go before the fields are converted, so a rejected
    file is split into lines again and walked line by line for its message.
    """
    lines = text.splitlines()
    body = lines
    if lines and lines[0].strip().replace(" ", "") == THROUGHPUT_HEADER:
        body = lines[1:]
    body = list(filter(str.strip, body))
    # every line holds a comma and there are two fields a line, so every
    # line holds exactly one
    one_comma = all(map(_contains, body, repeat(",")))
    n_lines = len(body)
    fields = ",".join(body).split(",") if body else []
    del lines, body
    try:
        if not one_comma or len(fields) != 2 * n_lines:
            raise ValueError
        nums = list(map(float, fields))
    except ValueError:
        _raise_line_error(text.splitlines())
        raise  # unreachable: the walk rejects the same lines
    del fields
    starts, bws = nums[0::2], nums[1::2]
    del nums
    try:
        return ThroughputTrace._from_floats(starts, bws)
    except TraceSampleError as exc:
        index, rule = exc.args
        lineno, _ = next(islice(_sample_lines(text.splitlines()), index, None))
        raise TraceFormatError(f"line {lineno}: {rule}") from None


def _num(x) -> str:
    xi = int(x)
    return str(xi) if x == xi else repr(x)


def serialize_throughput_trace(trace: ThroughputTrace) -> str:
    lines = [THROUGHPUT_HEADER]
    lines.extend(f"{_num(t)},{_num(bw)}" for t, bw in trace.samples)
    return "\n".join(lines) + "\n"


class BehaviorTrace(tuple):
    """One observed viewing: the chunk at which the user swiped away.

    A tuple of its four fields, so it equals the plain tuple of them and
    assigning to it raises ``AttributeError``. The constructor checks the
    chunk counts; :func:`parse_behavior_traces` checks a whole block of
    rows in bulk and then builds each with ``tuple.__new__``.
    """

    __slots__ = ()
    __match_args__ = ("trace_id", "category", "total_chunks", "swipe_chunk")

    def __new__(cls, trace_id: str, category: str, total_chunks: int,
                swipe_chunk: int):
        if total_chunks < 1:
            raise ValueError(f"trace {trace_id}: total_chunks must be >= 1")
        if not 1 <= swipe_chunk <= total_chunks:
            raise ValueError(
                f"trace {trace_id}: swipe_chunk {swipe_chunk} out of "
                f"range 1..{total_chunks}")
        return tuple.__new__(cls, (trace_id, category, total_chunks, swipe_chunk))

    trace_id = property(itemgetter(0))
    category = property(itemgetter(1))
    total_chunks = property(itemgetter(2))
    swipe_chunk = property(itemgetter(3))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return ("{}(trace_id={!r}, category={!r}, total_chunks={!r}, "
                "swipe_chunk={!r})").format(type(self).__name__, *self)


# lines of a behavior CSV converted per bulk pass; the pass's field lists,
# and so peak memory, grow with it
_BEHAVIOR_BLOCK = 4096


def _behavior_rows(lines, rows: list, categories: dict):
    """Append the rows of ``lines``, a block of the body, to ``rows``: one
    pass over the block per rule, and ``ValueError`` if any line breaks one.
    Equal categories share the string ``categories`` maps them to."""
    lines = list(filter(str.strip, lines))
    if not lines:
        return
    # three commas a line, so four fields
    if list(map(str.count, lines, repeat(","))).count(3) != len(lines):
        raise ValueError
    fields = list(map(str.strip, ",".join(lines).split(",")))
    totals = list(map(int, fields[2::4]))
    swipes = list(map(int, fields[3::4]))
    # 1 <= swipe <= total, which implies total >= 1
    if min(swipes) < 1 or not all(map(_le, swipes, totals)):
        raise ValueError
    cats = fields[1::4]
    rows += map(tuple.__new__, repeat(BehaviorTrace), zip(
        fields[0::4], map(categories.setdefault, cats, cats), totals, swipes))


def _raise_behavior_line_error(lines):
    """The per-line reading of the format, walked only to name the first
    bad line of a rejected file."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.replace(" ", "") == BEHAVIOR_HEADER:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise TraceFormatError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            total, swipe = int(parts[2]), int(parts[3])
        except ValueError:
            raise TraceFormatError(f"line {lineno}: non-integer chunk count") from None
        try:
            BehaviorTrace(parts[0], parts[1], total, swipe)
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None


def parse_behavior_traces(text: str) -> list[BehaviorTrace]:
    """Parse a behavior CSV (see module docstring) into one trace per row.

    The body is converted in blocks of lines, each by bulk passes: its
    lines are joined with commas, split, stripped, and the two count
    columns mapped through ``int``. Only a rejected file is walked line by
    line, for its message.
    """
    lines = text.splitlines()
    start = 0
    if lines and lines[0].strip().replace(" ", "") == BEHAVIOR_HEADER:
        start = 1
    rows: list[BehaviorTrace] = []
    categories: dict[str, str] = {}
    try:
        for i in range(start, len(lines), _BEHAVIOR_BLOCK):
            _behavior_rows(lines[i:i + _BEHAVIOR_BLOCK], rows, categories)
    except ValueError:
        _raise_behavior_line_error(lines)
        raise  # unreachable: the walk rejects the same lines
    if not rows:
        raise TraceFormatError("empty behavior trace file")
    return rows


def serialize_behavior_traces(traces: Iterable[BehaviorTrace]) -> str:
    lines = [BEHAVIOR_HEADER]
    lines.extend(f"{tr.trace_id},{tr.category},{tr.total_chunks},{tr.swipe_chunk}"
                 for tr in traces)
    return "\n".join(lines) + "\n"


def generate_scenario(kind: str, seed: int, duration_s) -> ThroughputTrace:
    """Deterministic synthetic bandwidth trace with per-second samples.

    high / medium / low draw every second uniformly from their band; mixed
    is a clipped Gaussian random walk that drifts toward uniformly resampled
    waypoint levels so it sweeps through all three bands.
    """
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario {kind!r}; choose one of {SCENARIO_KINDS}")
    if not 0 < duration_s < math.inf:  # NaN too
        raise ValueError("duration must be finite and positive")
    rng = random.Random(f"{kind}:{seed}")
    n = math.ceil(duration_s)
    bws = []
    if kind == "mixed":
        level = rng.uniform(MIXED_FLOOR, MIXED_CEIL)
        target = rng.uniform(MIXED_FLOOR, MIXED_CEIL)
        for _ in range(n):
            bws.append(level)
            if abs(target - level) < MIXED_STEP_SIGMA:
                target = rng.uniform(MIXED_FLOOR, MIXED_CEIL)
            drift = MIXED_DRIFT if target > level else -MIXED_DRIFT
            step = rng.gauss(drift, MIXED_STEP_SIGMA)
            level = min(MIXED_CEIL, max(MIXED_FLOOR, level + step))
    else:
        lo, hi = SCENARIO_BANDS[kind]
        bws = [rng.uniform(lo, hi) for _ in range(n)]
    return ThroughputTrace._from_floats(list(map(float, range(n))), bws)


def download_finish_time(trace: ThroughputTrace, start_s, size_kbit):
    """Earliest time by which ``size_kbit`` kilobits, started at ``start_s``,
    have flowed through the trace; ``math.inf`` if they never do.

    Arithmetic follows the numeric types passed in: with floats the result
    is correct to rounding, with ``fractions.Fraction`` inputs it is exact.
    A NaN start or size is rejected like a negative one.

    The segment holding ``start_s`` is found by bisection over the trace's
    start column. From there each segment that ends at a next sample, with
    its bandwidth ``bw``, either finishes the download at
    ``pos + remaining / bw`` or drains ``cap = bw * (seg_end - pos)``
    kilobits; a zero-bandwidth segment is skipped. The last sample's
    bandwidth carries whatever is left.

    The first two segments, the first of them partial, are read by index:
    on a per-second trace almost every download ends in them, and building
    iterators would cost more than the reads. The segments after them are
    drained by a ``zip`` of two column iterators placed with
    ``__setstate__`` at the next segment's bandwidth and at its end, which
    on a fine-grained trace costs less than reading a packed
    ``array('d')`` by index, one new float object and one subscript a read.
    """
    if not start_s >= 0:  # NaN too
        raise ValueError("start time must be non-negative")
    if not size_kbit >= 0:
        raise ValueError("size must be non-negative")
    if size_kbit == 0:
        return start_s
    starts = trace._starts
    bws = trace._bws
    last = len(starts) - 1
    i = bisect_right(starts, start_s) - 1
    pos = start_s
    remaining = size_kbit
    stop = i + 2
    while i < stop and i < last:
        bw = bws[i]
        i += 1
        seg_end = starts[i]
        if bw > 0:
            cap = bw * (seg_end - pos)
            if remaining <= cap:
                return pos + remaining / bw
            remaining -= cap
        pos = seg_end
    if i < last:
        seg_bws = iter(bws)
        seg_bws.__setstate__(i)
        seg_ends = iter(starts)
        seg_ends.__setstate__(i + 1)
        for bw, seg_end in zip(seg_bws, seg_ends):
            if bw > 0:
                cap = bw * (seg_end - pos)
                if remaining <= cap:
                    return pos + remaining / bw
                remaining -= cap
            pos = seg_end
    bw = bws[last]
    if bw > 0:
        return pos + remaining / bw
    return math.inf
