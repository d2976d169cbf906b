"""Throughput and behavior trace parsing, synthetic scenarios, and the
piecewise-constant channel model.

Throughput CSV: header ``timestamp_s,bandwidth_kbps``, one sample per row,
finite timestamps strictly increasing from 0, finite non-negative
bandwidths. The bandwidth holds constant from each timestamp until the
next; the final sample extends forever. A :class:`ThroughputTrace` holds
the samples as two columns, which the parser packs into ``array('d')``, 8
bytes a value. :func:`download_finish_time` reads a download's first two
segments by index and drains the rest through column iterators positioned
with ``__setstate__``.

Behavior CSV: header ``trace_id,category,total_chunks,swipe_chunk``, one
viewing per row; fields are stripped of whitespace, the two counts are
integers with 1 <= swipe_chunk <= total_chunks.

One reader, :func:`_read_csv`, serves both formats: the header is
optional, blank lines are skipped, and the data lines are converted in
bulk, a block of lines at a time. Only a rejected file is walked line by
line, to name its first bad line.
"""
from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from collections import namedtuple
from dataclasses import FrozenInstanceError
from itertools import islice, repeat
from operator import contains as _contains, le as _le, lt as _lt
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


# data lines of a CSV converted per bulk pass; the pass's field lists, and
# so peak memory, grow with it
_CSV_BLOCK = 4096


def _read_csv(text: str, header: str, n_fields: int, convert, walk):
    """What ``convert`` makes of the data lines of ``text``: its non-blank
    lines, less a first line that reads as ``header`` without spaces.
    ``convert`` gets them unstripped, as an iterator of blocks of up to
    ``_CSV_BLOCK`` lines, and raises ``ValueError`` if a line breaks a rule.
    The data lines are then walked once, each stripped and split at commas,
    to report the first with other than ``n_fields`` fields or that
    ``walk(lineno, fields)`` rejects; a :class:`TraceSampleError` is
    reported at the line of its sample."""
    lines = text.splitlines()
    start = 1 if lines and lines[0].strip().replace(" ", "") == header else 0
    body = list(filter(str.strip, islice(lines, start, None)))
    del lines
    try:
        return convert(body[i:i + _CSV_BLOCK]
                       for i in range(0, len(body), _CSV_BLOCK))
    except ValueError as exc:
        error = exc
    del body
    sample = error.args[0] if isinstance(error, TraceSampleError) else None
    numbered = enumerate(map(str.strip, text.splitlines()), start=1)
    data = ((lineno, line) for lineno, line in numbered
            if line and lineno > start)
    for index, (lineno, line) in enumerate(data):
        fields = line.split(",")
        if len(fields) != n_fields:
            raise TraceFormatError(
                f"line {lineno}: expected {n_fields} fields, got {len(fields)}")
        walk(lineno, fields)
        if index == sample:
            raise TraceFormatError(f"line {lineno}: {error.args[1]}")
    raise error


def _convert_samples(blocks) -> ThroughputTrace:
    """The trace of the lines in ``blocks``: each block's lines are joined
    with commas, split and mapped through ``float`` into two float lists,
    which ``ThroughputTrace._from_floats`` checks and packs."""
    starts, bws = [], []
    for lines in blocks:
        fields = ",".join(lines).split(",")
        # every line holds a comma and there are two fields a line, so
        # every line holds exactly one
        if (not all(map(_contains, lines, repeat(",")))
                or len(fields) != 2 * len(lines)):
            raise ValueError
        nums = list(map(float, fields))
        starts += nums[0::2]
        bws += nums[1::2]
    return ThroughputTrace._from_floats(starts, bws)


def _check_sample_line(lineno: int, fields: list[str]):
    try:
        float(fields[0]), float(fields[1])
    except ValueError:
        raise TraceFormatError(f"line {lineno}: non-numeric field") from None


def parse_throughput_trace(text: str) -> ThroughputTrace:
    """Parse a throughput CSV (see module docstring for the format); a
    sample that :class:`ThroughputTrace` rejects is reported at its line."""
    return _read_csv(text, THROUGHPUT_HEADER, 2, _convert_samples,
                     _check_sample_line)


def _num(x) -> str:
    """``x`` as the parser reads it back: an integral value as an integer,
    any other as the shortest repr of its float, so a float or a dyadic
    ``Fraction`` round-trips exactly."""
    xi = int(x)
    return str(xi) if x == xi else repr(float(x))


def serialize_throughput_trace(trace: ThroughputTrace) -> str:
    lines = [THROUGHPUT_HEADER]
    lines.extend(f"{_num(t)},{_num(bw)}" for t, bw in trace.samples)
    return "\n".join(lines) + "\n"


class BehaviorTrace(namedtuple(
        "BehaviorTrace", ("trace_id", "category", "total_chunks", "swipe_chunk"))):
    """One observed viewing: the chunk at which the user swiped away.

    A named tuple whose constructor checks that each name survives a CSV
    row (no comma, line break or edge space) and that the chunk counts are
    ``int``s, never a ``bool`` or a ``float``, in range; so every row it
    accepts round-trips. ``_make`` and so ``_replace`` call it.
    :func:`parse_behavior_traces` checks a whole block of rows in bulk and
    then builds each with ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(cls, trace_id: str, category: str, total_chunks: int,
                swipe_chunk: int):
        for name in (trace_id, category):
            if (not isinstance(name, str) or name != name.strip()
                    or "," in name or len(name.splitlines()) > 1):
                raise ValueError(f"trace {trace_id!r}: {name!r} must be text "
                                 f"with no comma, line break or edge space")
        if type(total_chunks) is not int:
            raise ValueError(f"trace {trace_id}: total_chunks must be an int, "
                             f"got {total_chunks!r}")
        if type(swipe_chunk) is not int:
            raise ValueError(f"trace {trace_id}: swipe_chunk must be an int, "
                             f"got {swipe_chunk!r}")
        if total_chunks < 1:
            raise ValueError(f"trace {trace_id}: total_chunks must be >= 1")
        if not 1 <= swipe_chunk <= total_chunks:
            raise ValueError(
                f"trace {trace_id}: swipe_chunk {swipe_chunk} out of "
                f"range 1..{total_chunks}")
        return tuple.__new__(cls, (trace_id, category, total_chunks, swipe_chunk))

    @classmethod
    def _make(cls, iterable) -> "BehaviorTrace":
        return cls(*iterable)


def _convert_behavior(blocks) -> list[BehaviorTrace]:
    """The rows of the lines in ``blocks``: one pass over a block per rule.
    Equal categories share one string."""
    rows: list[BehaviorTrace] = []
    categories: dict[str, str] = {}
    for lines in blocks:
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
    return rows


def _check_behavior_line(lineno: int, fields: list[str]):
    trace_id, category, total, swipe = map(str.strip, fields)
    try:
        total, swipe = int(total), int(swipe)
    except ValueError:
        raise TraceFormatError(f"line {lineno}: non-integer chunk count") from None
    try:
        BehaviorTrace(trace_id, category, total, swipe)
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from None


def parse_behavior_traces(text: str) -> list[BehaviorTrace]:
    """Parse a behavior CSV (see module docstring) into one trace per row."""
    rows = _read_csv(text, BEHAVIOR_HEADER, 4, _convert_behavior,
                     _check_behavior_line)
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
