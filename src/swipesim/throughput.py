"""Throughput observation, prediction, and network regime classification.

Prediction blends the windowed average of recent per-chunk download rates
with the rate of the most recent chunk:

    c_pred = alpha1 * mean(window) + alpha2 * last_sample
"""
from __future__ import annotations

from collections import deque
from enum import Enum


class Regime(str, Enum):
    AMPLE = "ample"
    CONSTRAINED = "constrained"
    STARVED = "starved"


class ThroughputHistory:
    """Rolling window of per-chunk average download throughputs, in kbps;
    the mean is computed once per recorded download, when the window moves."""

    __slots__ = ("window", "last_sample_kbps", "_mean")

    def __init__(self, window_chunks: int = 5):
        if window_chunks < 1:
            raise ValueError("window must hold at least one sample")
        self.window: deque = deque(maxlen=window_chunks)
        self.last_sample_kbps = None
        self._mean = None

    def record_download(self, chunk_size_kbit, elapsed_s) -> None:
        """Fold one finished chunk download into the window."""
        if elapsed_s <= 0:
            raise ValueError("elapsed time must be positive")
        sample = chunk_size_kbit / elapsed_s
        window = self.window
        window.append(sample)
        self.last_sample_kbps = sample
        self._mean = sum(window) / len(window)

    def window_mean(self):
        if self._mean is None:
            raise ValueError("no throughput samples recorded yet")
        return self._mean

    def predict(self, alpha1: float, alpha2: float):
        """Blend of windowed mean and last-chunk rate, in kbps."""
        if self._mean is None:
            raise ValueError("no throughput samples recorded yet")
        return alpha1 * self._mean + alpha2 * self.last_sample_kbps


def min_smooth_throughput(current_first_bitrate, next_video_bitrates, b0: int):
    """Throughput that covers one chunk of the current video plus the
    startup chunks of the next one within a single chunk duration."""
    if len(next_video_bitrates) != b0:
        raise ValueError(
            f"expected {b0} next-video bitrates, got {len(next_video_bitrates)}")
    return current_first_bitrate + sum(next_video_bitrates)


def classify_regime(c_kbps, r_min, c_min) -> Regime:
    """Partition throughput into ample / constrained / starved.

    Ample covers the smooth-playback bound (c >= c_min), starved means even
    the lowest rung cannot keep up (c <= r_min); constrained is the band in
    between where preloading choices actually matter.
    """
    if r_min > c_min:
        raise ValueError("r_min must not exceed c_min")
    if c_kbps >= c_min:
        return Regime.AMPLE
    if c_kbps <= r_min:
        return Regime.STARVED
    return Regime.CONSTRAINED
