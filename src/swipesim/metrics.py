"""Session scoring: per-video QoE, bandwidth cost and waste, session utility.

QoE of a video over its watched chunks:

    w1 * sum(q(r_k))  -  w2 * sum(|q(r_{k+1}) - q(r_k)|)  -  w3 * sum(t_k)

where q maps bitrate to quality and t_k is rebuffering seconds charged to
chunk k. Cost counts every downloaded chunk, waste the downloaded chunks
beyond the last watched one; both are reported in megabits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import sub
from typing import Sequence

from .core import chunk_kbit


@dataclass(frozen=True)
class QoEWeights:
    w1: float
    w2: float
    w3: float

    def __post_init__(self):
        if self.w1 < 0 or self.w2 < 0 or self.w3 < 0:
            raise ValueError("QoE weights must be non-negative")


def quality(bitrate_kbps, metric: str = "linear") -> float:
    """Quality of a chunk encoded at the given bitrate."""
    if bitrate_kbps <= 0:
        raise ValueError("bitrate must be positive")
    if metric == "linear":
        return bitrate_kbps / 1000.0
    if metric == "log":
        return math.log(1.0 + bitrate_kbps / 1000.0)
    raise ValueError(f"unknown quality metric {metric!r}")


def qoe_video(watched_bitrates: Sequence, rebuffer_s: Sequence,
              weights: QoEWeights, metric: str = "linear") -> float:
    """Score one video over its watched chunks."""
    if len(watched_bitrates) != len(rebuffer_s):
        raise ValueError("bitrate and rebuffer lists must have equal length")
    q = list(map(quality, watched_bitrates, repeat(metric)))
    base = weights.w1 * sum(q)
    # |q[k+1] - q[k]| for each adjacent pair, summed in chunk order
    variation = weights.w2 * sum(map(abs, map(sub, q[1:], q)))
    stalls = weights.w3 * sum(rebuffer_s)
    return base - variation - stalls


def total_kilobits(bitrates: Sequence, t0_s):
    """Sum of chunk sizes in kilobits; stays an int for integral sizes."""
    return sum(map(chunk_kbit, bitrates, repeat(t0_s)))


def utility(qoes: Sequence, costs_mbit: Sequence, w4: float) -> float:
    """Session objective: QoE of every video minus priced bandwidth cost."""
    if len(qoes) != len(costs_mbit):
        raise ValueError("qoe and cost lists must have equal length")
    return sum(q - w4 * c for q, c in zip(qoes, costs_mbit))
