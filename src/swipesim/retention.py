"""User retention modeling from observed swipe behavior.

Each observed viewing (swiped at chunk k of a K-chunk video) is mapped onto
a 100-bin percentile axis of video duration: chunk k covers bins
bin(k-1)+1 .. bin(k) with bin(k) = ceil(100*k/K) and bin(0) = 0. A model is
the per-category probability mass over those bins; every trace contributes
total mass 1/X spread uniformly over its covered bins, so the vector always
sums to one.

Queries map a chunk of any K-chunk video back onto the same axis:
swipe_probability(k, K) is the mass of the bins chunk k covers.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Real
from typing import Iterable

from .core import json_count

BIN_COUNT = 100


@dataclass(frozen=True)
class RetentionModel:
    """Percentile-binned swipe-mass distribution for one video category.

    Models are equal by value. The hash is the value hash, computed once on
    construction: the engine looks each video's profile up by its model, and
    hashing the 100-float mass on every lookup cost more than the lookup. A
    ``str`` hashes differently in another interpreter, so a model pickles
    and copies by value and its copy computes the hash anew.
    """

    category: str
    mass: tuple[float, ...]
    trace_count: int

    def __post_init__(self):
        if len(self.mass) != BIN_COUNT:
            raise ValueError(f"mass vector must have {BIN_COUNT} bins")
        if any(isinstance(m, bool) or not isinstance(m, Real)
               or not 0 <= m < math.inf for m in self.mass):
            raise ValueError("mass entries must be non-negative numbers")
        total = sum(self.mass)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mass must sum to 1, got {total!r}")
        if self.trace_count < 1:
            raise ValueError("trace_count must be >= 1")
        object.__setattr__(self, "_hash", hash(
            (self.category, self.mass, self.trace_count)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), (self.category, self.mass, self.trace_count)


@dataclass(frozen=True)
class RetentionThresholds:
    """Behavior thresholds for one video length K.

    k_min   earliest chunk at which swipes are ever observed
    k_early first chunk where cumulative swipe probability crosses the
            early-scroll threshold
    k_long  first chunk whose remaining pre-completion swipe mass falls
            under the long-view threshold
    """

    k_min: int
    k_early: int
    k_long: int


def _bin_edge(k: int, total_chunks: int) -> int:
    if k <= 0:
        return 0
    return -(-BIN_COUNT * k // total_chunks)


def build_model(traces: Iterable, category: str) -> RetentionModel:
    """Build the swipe-mass model for one category from behavior traces.

    Traces with the same ``(swipe_chunk, total_chunks)`` cover the same
    bins with the same share, so each distinct pair's span is computed once.
    The shares are still added trace by trace, in order, so every bin sums
    the same floats in the same order.
    """
    picked = [tr for tr in traces if tr.category == category]
    if not picked:
        raise ValueError(f"no behavior traces for category {category!r}")
    x = len(picked)
    mass = [0.0] * BIN_COUNT
    spans = {}
    for tr in picked:
        key = (tr.swipe_chunk, tr.total_chunks)
        span = spans.get(key)
        if span is None:
            k, total = key
            lo = _bin_edge(k - 1, total) + 1
            hi = _bin_edge(k, total)
            if hi < lo:
                # more chunks than bins: the chunk sits inside one bin
                lo = hi
            span = spans[key] = (range(lo - 1, hi), 1.0 / (x * (hi - lo + 1)))
        bins, share = span
        for j in bins:
            mass[j] += share
    return RetentionModel(category=category, mass=tuple(mass), trace_count=x)


def swipe_probability(model: RetentionModel, k: int, total_chunks: int) -> float:
    """Probability that the swipe lands on chunk k of a K-chunk video."""
    if not 1 <= k <= total_chunks:
        raise ValueError(f"chunk {k} out of range 1..{total_chunks}")
    lo = _bin_edge(k - 1, total_chunks)
    hi = _bin_edge(k, total_chunks)
    return sum(model.mass[lo:hi])


def derive_thresholds(model: RetentionModel, total_chunks: int,
                      p_th_early: float, p_th_long: float) -> RetentionThresholds:
    """Derive the k_min / k_early / k_long thresholds for a K-chunk video."""
    if not 0 < p_th_early < 1:
        raise ValueError("p_th_early must lie in (0, 1)")
    if not 0 < p_th_long < 1:
        raise ValueError("p_th_long must lie in (0, 1)")
    probs = [swipe_probability(model, k, total_chunks)
             for k in range(1, total_chunks + 1)]

    k_min = total_chunks
    for k, p in enumerate(probs, start=1):
        if p > 0:
            k_min = k
            break

    k_early = total_chunks
    cum = 0.0
    for k, p in enumerate(probs, start=1):
        cum += p
        if cum > p_th_early:
            k_early = k
            break

    k_long = total_chunks
    tail = sum(probs[:total_chunks - 1])
    for k in range(1, total_chunks + 1):
        if tail < p_th_long:
            k_long = k
            break
        tail -= probs[k - 1]

    return RetentionThresholds(k_min=k_min, k_early=k_early, k_long=k_long)


def swipe_cdf(model: RetentionModel, total_chunks: int) -> tuple[float, ...]:
    """Cumulative swipe probability through chunk k, for k = 1..K."""
    out = []
    cum = 0.0
    for k in range(1, total_chunks + 1):
        cum += swipe_probability(model, k, total_chunks)
        out.append(min(cum, 1.0))
    return tuple(out)


def model_from_dict(data: dict) -> RetentionModel:
    category, mass = data["category"], data["mass"]
    if not isinstance(mass, (list, tuple)):
        raise ValueError("field 'mass': expected a list of numbers")
    return RetentionModel(
        category=category,
        mass=tuple(mass),
        trace_count=json_count(data["trace_count"], "trace_count"),
    )


def model_to_json(model: RetentionModel) -> str:
    return json.dumps({"category": model.category,
                       "trace_count": model.trace_count,
                       "mass": list(model.mass)}, sort_keys=True, indent=2)

