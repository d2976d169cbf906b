"""Shared domain types for the short-video preloading simulator.

Unit conventions, used everywhere in this package:
  bitrates      kbps
  chunk sizes   kilobits (bitrate * chunk duration)
  times         seconds

Videos are indexed 0-based by their position in the recommendation list;
chunks are indexed 1-based within a video.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Real


@dataclass(frozen=True)
class BitrateLadder:
    """The discrete set of encoding bitrates a video is available at."""

    levels: tuple[int, ...]

    def __post_init__(self):
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ValueError("bitrate ladder must not be empty")
        if not all(0 < lv < math.inf for lv in levels):
            raise ValueError("bitrate ladder levels must be finite and positive")
        if any(a >= b for a, b in zip(levels, levels[1:])):
            raise ValueError("bitrate ladder levels must be strictly ascending")

    @property
    def lowest(self) -> int:
        return self.levels[0]

    @property
    def highest(self) -> int:
        return self.levels[-1]

    def __contains__(self, bitrate) -> bool:
        return bitrate in self.levels

    def match(self, throughput_kbps) -> int:
        """Highest level not exceeding the throughput; lowest if none fits."""
        pick = self.levels[0]
        for lv in self.levels:
            if lv <= throughput_kbps:
                pick = lv
            else:
                break
        return pick

    def step_down(self, bitrate) -> int:
        """Highest level strictly below ``bitrate``, or the lowest level."""
        below = [lv for lv in self.levels if lv < bitrate]
        return below[-1] if below else self.levels[0]

    def step_up(self, bitrate) -> int:
        """Lowest level strictly above ``bitrate``, or the highest level."""
        for lv in self.levels:
            if lv > bitrate:
                return lv
        return self.levels[-1]


def chunk_kbit(bitrate_kbps, duration_s):
    """Size of one chunk in kilobits; an int when the product is integral."""
    size = bitrate_kbps * duration_s
    isize = int(size)
    return isize if size == isize else size


# an int beyond it, which JSON can hold, overflows float arithmetic
_FLOAT_MAX = sys.float_info.max


def _expected(field, kind: str, value) -> ValueError:
    """The readers' error: ``field '<name>': expected <kind>, got <JSON>``."""
    where = "" if field is None else f"field {field!r}: "
    return ValueError(
        f"{where}expected {kind}, got {json.dumps(value, default=repr)}")


def json_fields(obj, names) -> tuple:
    """An object's fields ``names``; a missing or unknown one is an error."""
    if not isinstance(obj, dict):
        raise _expected(None, "a JSON object", obj)
    unknown = [name for name in obj if name not in names]
    missing = [name for name in names if name not in obj]
    if unknown or missing:
        raise ValueError(f"{'unknown' if unknown else 'missing'} field "
                         f"{(unknown or missing)[0]!r}")
    return tuple(obj[name] for name in names)


def json_text(value, field: str) -> str:
    if not isinstance(value, str):
        raise _expected(field, "a string", value)
    return value


def json_number(value, field: str):
    """A number within the float range, kept as given; ``true`` is none."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not -_FLOAT_MAX <= value <= _FLOAT_MAX):
        raise _expected(field, "a number", value)
    return value


def json_count(value, field: str) -> int:
    """A whole number: ``12.0`` reads as 12; ``true`` and ``10.7`` fail."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _expected(field, "an integer", value)
    return value


def json_list(value, field, read=None) -> list:
    """A JSON list, with ``read(item, field)`` of each item if given."""
    if not isinstance(value, list):
        raise _expected(field, "a JSON list", value)
    return value if read is None else [read(item, field) for item in value]


@dataclass(frozen=True)
class VideoSpec:
    """One recommended video, cut into equal-duration chunks."""

    id: str
    category: str
    chunk_count: int
    chunk_duration_s: float
    ladder: BitrateLadder

    def __post_init__(self):
        if self.chunk_count < 1:
            raise ValueError(f"video {self.id}: chunk_count must be >= 1")
        if not 0 < self.chunk_duration_s < math.inf:
            raise ValueError(
                f"video {self.id}: chunk_duration_s must be finite and > 0")

    @cached_property
    def chunk_kbit_by_rate(self) -> dict:
        """``{bitrate: chunk kilobits}`` over the ladder, built on first use;
        shared by every session of the video, so read it, never change it."""
        t0 = self.chunk_duration_s
        return {r: chunk_kbit(r, t0) for r in self.ladder.levels}


@dataclass(frozen=True)
class ChunkRef:
    """A single downloadable chunk: video position, chunk number, bitrate.

    :meth:`create` validates the reference against the video it points
    into. The simulator builds none: a strategy's ``Download`` names a
    player and a rung, and the engine fetches that player's next chunk.
    """

    # declared here, not by ``slots=True``: that option rebuilds the class,
    # and the frozen ``__setattr__`` would check the discarded one, so an
    # unknown name would raise TypeError instead of FrozenInstanceError
    __slots__ = ("video_index", "chunk_index", "bitrate_kbps")

    video_index: int
    chunk_index: int
    bitrate_kbps: int

    def __reduce__(self):
        # by value: restoring slot state would hit the frozen __setattr__
        return ChunkRef, (self.video_index, self.chunk_index,
                          self.bitrate_kbps)

    @classmethod
    def create(cls, video_index: int, chunk_index: int, bitrate_kbps: int,
               spec: VideoSpec) -> "ChunkRef":
        if video_index < 0:
            raise ValueError("video_index must be >= 0")
        if not 1 <= chunk_index <= spec.chunk_count:
            raise ValueError(
                f"chunk {chunk_index} out of range 1..{spec.chunk_count} "
                f"for video {spec.id}")
        if bitrate_kbps not in spec.ladder:
            raise ValueError(
                f"bitrate {bitrate_kbps} not in ladder {spec.ladder.levels} "
                f"of video {spec.id}")
        return cls(video_index, chunk_index, bitrate_kbps)


class PlayerBuffer:
    """Downloaded-chunk record of one player.

    Chunks are always downloaded in order, so ``bitrates`` is a contiguous
    prefix of the video: chunk k is present iff k <= len(bitrates). The
    engine validates each simulated download when the strategy issues it
    and appends to ``bitrates`` directly; :meth:`record_download` is the
    checked append for code that fills a buffer itself.
    """

    __slots__ = ("video_index", "spec", "bitrates")

    def __init__(self, video_index: int, spec: VideoSpec):
        self.video_index = video_index
        self.spec = spec
        self.bitrates: list[int] = []

    def record_download(self, chunk_index: int, bitrate_kbps: int) -> None:
        next_needed = len(self.bitrates) + 1
        if chunk_index != next_needed:
            raise ValueError(
                f"video {self.spec.id}: chunk {chunk_index} downloaded out of "
                f"order (next needed is {next_needed})")
        if chunk_index > self.spec.chunk_count:
            raise ValueError(
                f"video {self.spec.id}: chunk {chunk_index} beyond video end")
        if bitrate_kbps not in self.spec.ladder:
            raise ValueError(
                f"video {self.spec.id}: bitrate {bitrate_kbps} not in ladder")
        self.bitrates.append(bitrate_kbps)


@dataclass
class SessionConfig:
    """Tunable parameters of one viewing session.

    Weights w1..w3 score per-video QoE (quality, variation, rebuffering),
    w4 prices bandwidth cost against QoE in the session utility.
    """

    w1: float = 1.0
    w2: float = 1.0
    w3: float = 1.85
    w4: float = 0.5
    alpha1: float = 0.5
    alpha2: float = 0.5
    gamma1: float = 0.5
    gamma2: float = 0.8
    p_th_early: float = 0.3
    p_th_long: float = 0.1
    b0_startup_chunks: int = 1
    t_sleep_s: float = 0.5
    n_pred: int = 5
    window_chunks: int = 5
    quality_metric: str = "linear"

    def __post_init__(self):
        for f in fields(self):
            read = {"float": json_number, "int": json_count}.get(f.type)
            if read:
                setattr(self, f.name, read(getattr(self, f.name), f.name))
        for name in ("w1", "w2", "w3", "w4", "alpha1", "alpha2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if not 0 < self.gamma1 < self.gamma2 <= 1:
            raise ValueError("need 0 < gamma1 < gamma2 <= 1")
        for name in ("p_th_early", "p_th_long"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must lie in (0, 1)")
        for name, low in (("b0_startup_chunks", 1), ("n_pred", 2),
                          ("window_chunks", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        if not 0 < self.t_sleep_s < math.inf:
            raise ValueError("t_sleep_s must be finite and > 0")
        if self.quality_metric not in ("linear", "log"):
            raise ValueError("quality_metric must be 'linear' or 'log'")
