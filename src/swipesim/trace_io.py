"""Throughput and behavior trace parsing, synthetic scenarios, and the
piecewise-constant channel model.

Throughput CSV: header ``timestamp_s,bandwidth_kbps`` (header optional on
input), one sample per row, finite timestamps strictly increasing from 0,
finite non-negative bandwidths. The bandwidth holds constant from each
timestamp until the next; the final sample extends forever.

Behavior CSV: header ``trace_id,category,total_chunks,swipe_chunk``.
"""
from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ThroughputTrace:
    """Piecewise-constant bandwidth series; immutable once built."""

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self):
        # tuple() hands a tuple back as it is
        samples = tuple(self.samples)
        object.__setattr__(self, "samples", samples)
        if not samples:
            raise TraceFormatError("trace must contain at least one sample")
        if samples[0][0] != 0:
            raise TraceSampleError(0, "trace must start at timestamp 0")
        inf = math.inf
        prev = -inf
        for i, (t, bw) in enumerate(samples):
            if not prev < t < inf:
                raise TraceSampleError(i, "timestamps must be finite and strictly increasing")
            if not 0 <= bw < inf:
                raise TraceSampleError(i, "bandwidth must be finite and non-negative")
            prev = t
        object.__setattr__(self, "_starts", tuple([t for t, _ in samples]))

    def segment_index(self, t) -> int:
        return bisect_right(self._starts, t) - 1

    def bandwidth_at(self, t) -> float:
        if t < 0:
            raise ValueError("time must be non-negative")
        return self.samples[self.segment_index(t)][1]


def parse_throughput_trace(text: str) -> ThroughputTrace:
    """Parse a throughput CSV (see module docstring for the format); a
    sample that :class:`ThroughputTrace` rejects is reported at its line."""
    samples = []
    linenos = array("l")  # not int objects, which would scatter the samples in memory
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.replace(" ", "") == THROUGHPUT_HEADER:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceFormatError(f"line {lineno}: expected 2 fields, got {len(parts)}")
        try:
            samples.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise TraceFormatError(f"line {lineno}: non-numeric field") from None
        linenos.append(lineno)
    try:
        return ThroughputTrace(tuple(samples))
    except TraceSampleError as exc:
        index, rule = exc.args
        raise TraceFormatError(f"line {linenos[index]}: {rule}") from None


def _num(x) -> str:
    xi = int(x)
    return str(xi) if x == xi else repr(x)


def serialize_throughput_trace(trace: ThroughputTrace) -> str:
    lines = [THROUGHPUT_HEADER]
    lines.extend(f"{_num(t)},{_num(bw)}" for t, bw in trace.samples)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BehaviorTrace:
    """One observed viewing: the chunk at which the user swiped away."""

    trace_id: str
    category: str
    total_chunks: int
    swipe_chunk: int

    def __post_init__(self):
        if self.total_chunks < 1:
            raise ValueError(f"trace {self.trace_id}: total_chunks must be >= 1")
        if not 1 <= self.swipe_chunk <= self.total_chunks:
            raise ValueError(
                f"trace {self.trace_id}: swipe_chunk {self.swipe_chunk} out of "
                f"range 1..{self.total_chunks}")


def parse_behavior_traces(text: str) -> list[BehaviorTrace]:
    """Parse a behavior CSV into one trace per row."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            out.append(BehaviorTrace(parts[0], parts[1], total, swipe))
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None
    if not out:
        raise TraceFormatError("empty behavior trace file")
    return out


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
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    rng = random.Random(f"{kind}:{seed}")
    n = math.ceil(duration_s)
    samples = []
    if kind == "mixed":
        level = rng.uniform(MIXED_FLOOR, MIXED_CEIL)
        target = rng.uniform(MIXED_FLOOR, MIXED_CEIL)
        for t in range(n):
            samples.append((float(t), level))
            if abs(target - level) < MIXED_STEP_SIGMA:
                target = rng.uniform(MIXED_FLOOR, MIXED_CEIL)
            drift = MIXED_DRIFT if target > level else -MIXED_DRIFT
            step = rng.gauss(drift, MIXED_STEP_SIGMA)
            level = min(MIXED_CEIL, max(MIXED_FLOOR, level + step))
    else:
        lo, hi = SCENARIO_BANDS[kind]
        for t in range(n):
            samples.append((float(t), rng.uniform(lo, hi)))
    return ThroughputTrace(tuple(samples))


def download_finish_time(trace: ThroughputTrace, start_s, size_kbit):
    """Earliest time by which ``size_kbit`` kilobits, started at ``start_s``,
    have flowed through the trace; ``math.inf`` if they never do.

    Arithmetic follows the numeric types passed in: with floats the result
    is correct to rounding, with ``fractions.Fraction`` inputs it is exact.

    The segment holding ``start_s`` is found by bisection over the segment
    starts. From there each segment that ends at a next sample either
    finishes the download at ``pos + remaining / bw`` or drains
    ``cap = bw * (seg_end - pos)`` kilobits; a zero-bandwidth segment is
    skipped. The last sample's bandwidth carries whatever is left.
    """
    if start_s < 0:
        raise ValueError("start time must be non-negative")
    if size_kbit < 0:
        raise ValueError("size must be non-negative")
    if size_kbit == 0:
        return start_s
    starts = trace._starts
    samples = trace.samples
    last = len(starts) - 1
    i = bisect_right(starts, start_s) - 1
    pos = start_s
    remaining = size_kbit
    while i < last:
        bw = samples[i][1]
        i += 1
        seg_end = starts[i]
        if bw > 0:
            cap = bw * (seg_end - pos)
            if remaining <= cap:
                return pos + remaining / bw
            remaining -= cap
        pos = seg_end
    bw = samples[last][1]
    if bw > 0:
        return pos + remaining / bw
    return math.inf
