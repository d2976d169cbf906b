"""Preload decision strategies.

Every strategy answers one question whenever the downloader is idle: which
player's next contiguous chunk to fetch at which bitrate, or sleep. A
:class:`Download` names the window player and the rung, and the engine
fetches that player's next chunk; a :class:`Sleep` idles for the session's
``t_sleep_s``. The context passed in is a read-only snapshot of the player
window (players[0] is the one on screen), the playhead on it and the
throughput estimates, which exist because the engine fetches the session's
first chunk itself. Playback of the current video waits for min(b0, K)
chunks, so every strategy fetches those before it sleeps, whatever its own
target: the engine rejects a sleep while the video on screen waits.

A strategy reads the retention model only through a player's thresholds
and its :class:`SwipeProfile`, which the engine builds once per retention
model and video length: no decision redoes arithmetic on the swipe cdf.

A strategy must stay homogeneous in bandwidth and time: no constant in
kbps or seconds, only ratios. Scaling every rate, or every time, by a power
of two must leave its decisions alone, as ``TestBandwidthScale`` and
``TestTimeScale`` in ``tests/test_engine.py`` check.

Buffer depth targets of the adaptive (dtaap) strategy, per video length K
and behavior thresholds k_min / k_early / k_long (while the channel cannot
sustain the lowest rung they are instead a playhead cushion of
min(STARVED_PLAYHEAD_CUSHION, K) and startup insurance of min(b0, K), after
which the window is filled in order):

  current video, compared against chunks buffered ahead of the playhead
  (StrategyContext.buffered), driven by the predicted throughput c:
      c >= c_min:            1 + ceil(k_long / K)
      r_last < c <= c_min:   2 + ceil(k_long / K) - ceil(k_early / K)
      c <= r_last:           3 + ceil(k_long / K) - ceil(k_early / K)

  Every k that derive_thresholds returns lies in 1..K, so both ceilings
  are 1 and this target is 2, 2 or 3: it never reads the retention model.

  recommended videos, compared against total chunks downloaded
  (PlayerView.downloaded), driven by the windowed average throughput c:
      c >= c_min:            1 + k_min
      r_last < c <= c_min:   2 + k_min - floor(k_early / (2 + k_min))
      c <= r_last:           3 + k_min - floor(k_early / (3 + k_min))

Bitrate rules: the current video steps at most one ladder level per
decision (down when starved for buffer, up when comfortably ahead and the
higher level fits the predicted throughput) and drops below the last
bitrate after a rebuffering event. Recommended videos ladder-match the
average throughput: startup chunks match whatever remains after the
current video's live chunk demand, and later chunks reserve the startup
floor of any window player still waiting for its first chunks. This
budget split keeps the worst-case swipe transition rebuffer-free whenever
the channel covers the smooth-playback bound.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

from .core import BitrateLadder, SessionConfig, VideoSpec
from .retention import RetentionThresholds
from .throughput import Regime, classify_regime

NETWORK_REGIME_THRESHOLDS = {
    Regime.AMPLE: (2, 1),
    Regime.CONSTRAINED: (4, 2),
    Regime.STARVED: (6, 3),
}

PDAS_RETENTION_CUTOFF = 0.5

# fixb's default depth targets for the current and each recommended video
FIXB_CURRENT, FIXB_NEXT = 4, 2

# margin over the lowest rung before the channel counts as able to sustain
# playback; guards the regime test against window-estimate noise. Must stay
# below 2.0 so a channel at the smooth-playback bound never reads as starved.
STARVED_EXIT_MARGIN = 1.9

# headroom required of the windowed average before stepping the current
# video up one rung
STEP_UP_HEADROOM = 1.2

# chunks of playhead cushion served first while starved
STARVED_PLAYHEAD_CUSHION = 3

# conditional swipe probability above which a swipe counts as imminent:
# the majority-outcome cutoff
IMMINENT_HAZARD = 0.5


@dataclass(frozen=True, init=False)
class Download:
    """Fetch the next chunk of the window player ``video_index`` at
    ``bitrate_kbps``; threshold records the depth test that issued it."""

    # declared here, not by ``slots=True``: that option rebuilds the class,
    # and the frozen ``__setattr__`` would check the discarded one, so an
    # unknown name would raise TypeError instead of FrozenInstanceError
    __slots__ = ("video_index", "bitrate_kbps", "threshold")

    video_index: int
    bitrate_kbps: int
    threshold: Optional[float]

    def __init__(self, video_index: int, bitrate_kbps: int,
                 threshold: Optional[float] = None):
        _set_video_index(self, video_index)
        _set_bitrate_kbps(self, bitrate_kbps)
        _set_threshold(self, threshold)

    def __reduce__(self):
        # by value: restoring slot state would hit the frozen __setattr__
        return Download, (self.video_index, self.bitrate_kbps, self.threshold)


# one Download per simulated download: a field slot's own ``__set__`` stores
# the value directly, where the generated frozen ``__init__`` goes through
# ``object.__setattr__`` for every field. The frozen ``__setattr__`` still
# rejects assignment after construction.
_set_video_index, _set_bitrate_kbps, _set_threshold = (
    getattr(Download, f.name).__set__ for f in fields(Download))


@dataclass(frozen=True)
class Sleep:
    """Idle for the session's sleep interval."""

    __slots__ = ()


# the one Sleep every decider returns; a Sleep has no state
_SLEEP = Sleep()

Action = Union[Download, Sleep]


class SwipeProfile(NamedTuple):
    """What the strategies read from a video's swipe cdf. At index k - 1,
    ``reach`` holds the probability of watching chunk k (1 - cdf[k - 2], or
    1 for k = 1) and ``imminent`` whether the swipe hazard at chunk k, the
    chance of a swipe there once it is reached, passes IMMINENT_HAZARD."""

    cdf: tuple[float, ...]
    reach: tuple[float, ...]
    imminent: tuple[bool, ...]
    retention_cap: int


def swipe_profile(cdf) -> SwipeProfile:
    """The :class:`SwipeProfile` of a swipe cdf. A chunk that no viewer
    reaches counts as imminent: everyone has swiped by then."""
    cdf = tuple(cdf)
    before = (0.0, *cdf)[:len(cdf)]
    reach = tuple([1.0 - b for b in before])
    imminent = tuple([r <= 0.0 or (m - b) / r > IMMINENT_HAZARD
                      for m, b, r in zip(cdf, before, reach)])
    return SwipeProfile(cdf, reach, imminent, pdas_retention_cap(cdf))


@dataclass(slots=True)
class PlayerView:
    """One player's download record, read by strategy decisions.

    ``downloaded`` counts the landed chunks, a prefix of the video, and
    ``last_bitrate`` is the rung of the latest; during a session the engine
    updates these two in place and nothing else. The playhead is not a
    player's record: :class:`StrategyContext` holds it. ``swipe`` is shared
    by every view of the same retention model and video length.
    ``chunk_count`` and ``ladder`` are copied from ``spec`` on construction.
    """

    spec: VideoSpec
    video_index: int
    downloaded: int
    thresholds: RetentionThresholds
    swipe: SwipeProfile
    last_bitrate: Optional[int] = None
    chunk_count: int = field(init=False, repr=False, compare=False)
    ladder: BitrateLadder = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.chunk_count = self.spec.chunk_count
        self.ladder = self.spec.ladder


@dataclass(slots=True)
class StrategyContext:
    """Snapshot handed to a strategy at each decision point.

    ``buffered`` and ``lead`` place the playhead on ``players[0]``: its
    chunks not yet played out, for the depth thresholds, and that less the
    played fraction of the chunk on screen, for the bitrate controller.
    c_pred and c_ave are the throughput estimates and r_last the bitrate of
    the last downloaded chunk, all three set from the first landed chunk on.
    """

    players: list[PlayerView]
    buffered: int
    lead: float
    c_pred: float
    c_ave: float
    c_min: float
    r_last: int
    rebuffer_flag: bool
    config: SessionConfig


def buffer_threshold_current(ctx: StrategyContext) -> int:
    """Chunks to keep buffered ahead of the playhead on the current video."""
    cur = ctx.players[0]
    k = cur.chunk_count
    th = cur.thresholds
    ceil_long = -(-th.k_long // k)
    ceil_early = -(-th.k_early // k)
    c = ctx.c_pred
    if c >= ctx.c_min:
        return 1 + ceil_long
    if c > ctx.r_last:
        return 2 + ceil_long - ceil_early
    return 3 + ceil_long - ceil_early


def buffer_threshold_next(ctx: StrategyContext, player_index: int = 1) -> int:
    """Chunks to keep downloaded for a recommended player."""
    th = ctx.players[player_index].thresholds
    c = ctx.c_ave
    if c >= ctx.c_min:
        return 1 + th.k_min
    if c > ctx.r_last:
        return 2 + th.k_min - th.k_early // (2 + th.k_min)
    return 3 + th.k_min - th.k_early // (3 + th.k_min)


def _startup_reserve(ctx: StrategyContext) -> float:
    """Bandwidth to set aside while any recommended player still lacks its
    startup chunks."""
    b0 = ctx.config.b0_startup_chunks
    for p in ctx.players[1:]:
        if p.downloaded < min(b0, p.chunk_count):
            return b0 * p.ladder.lowest
    return 0.0


def _current_demand(ctx: StrategyContext) -> float:
    """Per-chunk bandwidth the on-screen video keeps claiming."""
    cur = ctx.players[0]
    if cur.downloaded >= cur.chunk_count:
        return 0.0
    if cur.last_bitrate is not None:
        return cur.last_bitrate
    return cur.ladder.lowest


def _swipe_imminent(ctx: StrategyContext) -> bool:
    """Whether a swipe off the current video is the likely next event.

    The swipe profile's hazard test at the playhead chunk, against the
    majority-outcome cutoff. While the hazard is high the bandwidth reserves
    that protect the swipe transition stay engaged; once the viewer is in a
    committed stretch they are released.
    """
    cur = ctx.players[0]
    k = min(max(cur.downloaded - ctx.buffered + 1, 1), cur.chunk_count)
    return cur.swipe.imminent[k - 1]


def dtaap_bitrate(ctx: StrategyContext, player_index: int = 0) -> int:
    """Bitrate for the next chunk of the given player."""
    p = ctx.players[player_index]
    ladder = p.ladder
    cfg = ctx.config
    if player_index == 0:
        # the video's own trajectory anchors hold and step decisions;
        # fall back to the globally last downloaded chunk before chunk one
        anchor = p.last_bitrate
        if anchor is None:
            anchor = ctx.r_last
        if ctx.rebuffer_flag:
            pick = ladder.match(ctx.c_pred)
            if pick >= anchor:
                pick = ladder.step_down(anchor)
            return pick
        b_th = buffer_threshold_current(ctx)
        if ctx.c_pred < anchor and ctx.lead < cfg.gamma1 * b_th:
            return ladder.step_down(anchor)
        # step up when the buffer will sit comfortably once this chunk
        # lands, the prediction covers the higher rung, and the windowed
        # average covers it with headroom
        if ctx.c_pred > anchor and ctx.lead + 1.0 > cfg.gamma2 * b_th:
            target = ladder.step_up(anchor)
            reserve = _startup_reserve(ctx) if _swipe_imminent(ctx) else 0.0
            if (target <= ctx.c_pred - reserve
                    and STEP_UP_HEADROOM * target <= ctx.c_ave):
                return target
        return anchor if anchor in ladder else ladder.match(anchor)
    imminent = _swipe_imminent(ctx)
    if p.downloaded < cfg.b0_startup_chunks:
        budget = ctx.c_ave - (_current_demand(ctx) if imminent else 0.0)
        return ladder.match(budget / cfg.b0_startup_chunks)
    reserve = _startup_reserve(ctx) if imminent else 0.0
    return ladder.match(ctx.c_ave - reserve)


def _starved(ctx: StrategyContext) -> bool:
    """True while the channel cannot sustain even the lowest rung, with a
    noise margin. In that regime depth thresholds are pointless: playback
    is download-limited, so past a playhead cushion and startup insurance
    the window is simply filled in order and no channel time is left idle."""
    floor = STARVED_EXIT_MARGIN * ctx.players[0].ladder.lowest
    return not (ctx.c_pred > floor and ctx.c_ave > floor)


def dtaap_decide(ctx: StrategyContext) -> Action:
    starved = _starved(ctx)
    players = ctx.players
    b0 = ctx.config.b0_startup_chunks
    cur = players[0]
    if cur.downloaded < cur.chunk_count:
        b_th = (min(STARVED_PLAYHEAD_CUSHION, cur.chunk_count) if starved
                else buffer_threshold_current(ctx))
        if ctx.buffered < b_th:
            return Download(cur.video_index, dtaap_bitrate(ctx, 0),
                            threshold=b_th)
        if cur.downloaded < b0:
            return Download(cur.video_index, dtaap_bitrate(ctx, 0),
                            threshold=b0)
    for j in range(1, len(players)):
        p = players[j]
        if p.downloaded >= p.chunk_count:
            continue
        b_th = (min(b0, p.chunk_count) if starved
                else buffer_threshold_next(ctx, j))
        if p.downloaded < b_th:
            return Download(p.video_index, dtaap_bitrate(ctx, j),
                            threshold=b_th)
    if starved:
        # bank the window in order; never leave the channel idle
        for j, p in enumerate(players):
            if p.downloaded < p.chunk_count:
                return Download(p.video_index, dtaap_bitrate(ctx, j),
                                threshold=p.chunk_count)
    return _SLEEP


def fixb_decide(ctx: StrategyContext, b_current: int, b_next: int) -> Action:
    """Fixed depth targets; also the scan of :func:`networkbased_decide`."""
    cur = ctx.players[0]
    if cur.downloaded < cur.chunk_count:
        if ctx.buffered < b_current:
            return Download(cur.video_index, cur.ladder.match(ctx.c_ave),
                            threshold=b_current)
        b0 = ctx.config.b0_startup_chunks
        if cur.downloaded < b0:
            return Download(cur.video_index, cur.ladder.match(ctx.c_ave),
                            threshold=b0)
    for p in ctx.players[1:]:
        if p.downloaded < p.chunk_count and p.downloaded < b_next:
            return Download(p.video_index, p.ladder.match(ctx.c_ave),
                            threshold=b_next)
    return _SLEEP


def nextone_decide(ctx: StrategyContext) -> Action:
    """Finish the current video, then fill each recommended player fully."""
    for p in ctx.players:
        if p.downloaded < p.chunk_count:
            return Download(p.video_index, p.ladder.match(ctx.c_ave),
                            threshold=p.chunk_count)
    return _SLEEP


def networkbased_decide(ctx: StrategyContext) -> Action:
    """Fixed-style scan with thresholds scaled by the throughput regime."""
    regime = classify_regime(ctx.c_pred, ctx.players[0].ladder.lowest, ctx.c_min)
    b_current, b_next = NETWORK_REGIME_THRESHOLDS[regime]
    return fixb_decide(ctx, b_current, b_next)


def pdas_retention_cap(swipe_cdf) -> int:
    """pdas_lite's buffer cap for a video: the largest chunk index the user
    survives past with probability > 0.5, or 1 if there is none; part of
    the video's :class:`SwipeProfile`, so computed once per model and K.
    A swipe cdf never decreases, so the chunks that pass form a prefix and
    the scan stops at the first one that fails."""
    cap = 1
    for k, mass in enumerate(swipe_cdf, start=1):
        if not 1.0 - mass > PDAS_RETENTION_CUTOFF:
            break
        cap = k
    return cap


def pdas_lite_decide(ctx: StrategyContext) -> Action:
    """Retention-capped preloading with retention-weighted bitrates.

    Each player's buffer is capped at the last chunk the user is more
    likely than not to reach; for the current player the cap slides with
    the playhead and covers the startup chunks, so playback always
    progresses.
    """
    for j, p in enumerate(ctx.players):
        n = p.downloaded
        if n >= p.chunk_count:
            continue
        cap = p.swipe.retention_cap
        if j == 0:
            play_need = n - ctx.buffered + 1
            cap = max(cap, play_need, ctx.config.b0_startup_chunks)
        if n < cap:
            weighted = ctx.c_ave * p.swipe.reach[n]
            return Download(p.video_index, p.ladder.match(weighted),
                            threshold=cap)
    return _SLEEP


class Strategy(NamedTuple):
    name: str
    decide: Callable[[StrategyContext], Action]


_DECIDERS = {
    "dtaap": dtaap_decide,
    "fixb": fixb_decide,
    "nextone": nextone_decide,
    "network": networkbased_decide,
    "pdas_lite": pdas_lite_decide,
}

STRATEGY_NAMES = tuple(_DECIDERS)


def make_strategy(name: str, fixb_current: int = FIXB_CURRENT,
                  fixb_next: int = FIXB_NEXT) -> Strategy:
    """Build a strategy by its public name: a ``(name, decide)`` pair."""
    if name not in _DECIDERS:
        raise ValueError(f"unknown strategy {name!r}; valid names: {', '.join(STRATEGY_NAMES)}")
    if name == "fixb":
        if fixb_current < 1 or fixb_next < 1:
            raise ValueError("fixed buffer thresholds must be >= 1")
        return Strategy(name, partial(fixb_decide, b_current=fixb_current,
                                      b_next=fixb_next))
    return Strategy(name, _DECIDERS[name])
