"""Deterministic discrete-event simulation of short-video viewing sessions.

Event semantics of one session:

* Playback of a video starts once its first b0 chunks are buffered; each
  chunk then plays for its full duration in real time.
* The playhead stalls when it reaches an undownloaded chunk. Stall time is
  charged to the chunk being waited on; the wait for a freshly swiped-to
  video is charged to its first chunk. The wait before the very first
  video starts playing is startup delay, not rebuffering.
* The user swipes the instant playback of the scripted swipe chunk
  completes. The window then slides: the next video becomes current and a
  new one enters the tail. Whatever the departed video had downloaded
  stays frozen for waste accounting.
* Downloads are non-preemptive and single-channel. A swipe never cancels
  the chunk in flight; its bits count toward cost (and waste when the
  video has departed). A chunk still in flight when the session closes is
  dropped entirely.
* The engine fetches chunk 1 of video 0 at the lowest rung itself; then
  the strategy is consulted whenever the downloader is idle. A download
  fetches the named player's next chunk. Sleeping wakes after
  ``t_sleep_s`` or at the next chunk-playback boundary, whichever comes
  first; sleeping while the video on screen waits for a chunk is an
  error, since that chunk would never come.
* The session ends when the last scripted video's swipe chunk finishes
  playing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter
from typing import Mapping, Optional, Sequence, Union

from . import metrics
from .core import SessionConfig, VideoSpec
from .retention import RetentionModel, derive_thresholds, swipe_cdf
from .strategy import Download, PlayerView, Sleep, StrategyContext
from .throughput import ThroughputHistory, min_smooth_throughput
from .trace_io import ThroughputTrace, download_finish_time


class StarvationError(RuntimeError):
    """The channel can never deliver a chunk the session still needs."""

    def __init__(self, video_index: int, chunk_index: int, wall_clock_s: float):
        self.video_index = video_index
        self.chunk_index = chunk_index
        self.wall_clock_s = wall_clock_s
        super().__init__(
            f"starved at t={wall_clock_s:.3f}s waiting for video "
            f"{video_index} chunk {chunk_index}: no bandwidth left in trace")


class SimulationError(RuntimeError):
    """A strategy or the engine violated a simulation invariant."""


@dataclass(frozen=True)
class SessionScript:
    """The scripted ground truth of one session: the ordered videos and the
    chunk at which the user swipes each one."""

    script_id: str
    videos: tuple[VideoSpec, ...]
    swipe_points: tuple[int, ...]

    def __post_init__(self):
        if not self.videos:
            raise ValueError("script must contain at least one video")
        if len(self.videos) != len(self.swipe_points):
            raise ValueError("one swipe point per video required")
        for spec, sp in zip(self.videos, self.swipe_points):
            if not 1 <= sp <= spec.chunk_count:
                raise ValueError(
                    f"swipe point {sp} out of range 1..{spec.chunk_count} "
                    f"for video {spec.id}")


@dataclass(frozen=True)
class TraceRef:
    trace_id: str
    scenario: str
    trace: ThroughputTrace


@dataclass(frozen=True, init=False)
class VideoResult:
    """One scored video of a session.

    Slotted as :class:`~swipesim.strategy.Download` is, and for the same
    reasons: ``__slots__`` is declared here, not by ``slots=True``, and the
    constructor fills each field through its slot's own setter. The frozen
    ``__setattr__`` still rejects assignment after construction.
    """

    __slots__ = ("video_id", "video_index", "category", "chunk_count",
                 "watched_chunks", "downloaded_chunks", "bitrates",
                 "rebuffer_s", "qoe", "watched_kbit", "waste_kbit")

    video_id: str
    video_index: int
    category: str
    chunk_count: int
    watched_chunks: int
    downloaded_chunks: int
    bitrates: tuple[int, ...]
    rebuffer_s: tuple[float, ...]
    qoe: float
    watched_kbit: Union[int, float]
    waste_kbit: Union[int, float]

    def __init__(self, video_id: str, video_index: int, category: str,
                 chunk_count: int, watched_chunks: int, downloaded_chunks: int,
                 bitrates: tuple[int, ...], rebuffer_s: tuple[float, ...],
                 qoe: float, watched_kbit: Union[int, float],
                 waste_kbit: Union[int, float]):
        _set_video_id(self, video_id)
        _set_video_index(self, video_index)
        _set_category(self, category)
        _set_chunk_count(self, chunk_count)
        _set_watched_chunks(self, watched_chunks)
        _set_downloaded_chunks(self, downloaded_chunks)
        _set_bitrates(self, bitrates)
        _set_rebuffer_s(self, rebuffer_s)
        _set_qoe(self, qoe)
        _set_watched_kbit(self, watched_kbit)
        _set_waste_kbit(self, waste_kbit)

    def __reduce__(self):
        # by value: restoring slot state would hit the frozen __setattr__
        return VideoResult, tuple(getattr(self, f) for f in self.__slots__)

    @property
    def rebuffer_total_s(self) -> float:
        return sum(self.rebuffer_s)

    @property
    def cost_kbit(self) -> Union[int, float]:
        return self.watched_kbit + self.waste_kbit

    @property
    def cost_mbit(self) -> float:
        return self.cost_kbit / 1000.0

    @property
    def waste_mbit(self) -> float:
        return self.waste_kbit / 1000.0


(_set_video_id, _set_video_index, _set_category, _set_chunk_count,
 _set_watched_chunks, _set_downloaded_chunks, _set_bitrates, _set_rebuffer_s,
 _set_qoe, _set_watched_kbit, _set_waste_kbit) = (
    getattr(VideoResult, f.name).__set__ for f in fields(VideoResult))


@dataclass(frozen=True)
class SessionResult:
    videos: tuple[VideoResult, ...]
    qoe_total: float
    cost_mbit_total: float
    waste_mbit_total: float
    utility: float
    wall_time_s: float
    rebuffer_total_s: float
    timeline: Optional[tuple] = None


def sample_swipe_point(behavior_traces: Sequence, chunk_count: int, rng) -> int:
    """Map a sampled observed swipe onto a video of the given length by
    percentile position."""
    tr = behavior_traces[rng.randrange(len(behavior_traces))]
    k = -(-tr.swipe_chunk * chunk_count // tr.total_chunks)
    return min(max(k, 1), chunk_count)


def sample_script(script_id: str, videos: Sequence[VideoSpec],
                  behavior_by_category: Mapping[str, Sequence], rng) -> SessionScript:
    """Draw a swipe point for every video from its category's behavior."""
    swipes = []
    for spec in videos:
        traces = behavior_by_category.get(spec.category)
        if not traces:
            raise ValueError(f"no behavior traces for category {spec.category!r}")
        swipes.append(sample_swipe_point(traces, spec.chunk_count, rng))
    return SessionScript(script_id, tuple(videos), tuple(swipes))


@lru_cache(maxsize=4096)
def _video_profile(model: RetentionModel, chunk_count: int,
                   p_th_early: float, p_th_long: float):
    thresholds = derive_thresholds(model, chunk_count, p_th_early, p_th_long)
    cdf = swipe_cdf(model, chunk_count)
    return thresholds, cdf


def _model_for(model, category: str) -> RetentionModel:
    if isinstance(model, RetentionModel):
        return model
    try:
        return model[category]
    except KeyError:
        raise ValueError(f"no retention model for category {category!r}") from None


class _Simulation:
    """One simulated session and the only owner of its state.

    ``views`` holds one PlayerView per script video, the only download
    count; the strategy sees the window of them from the video on screen.
    ``bitrates`` and ``stalls`` keep each video's rungs and stalls to score.
    ``watched_kbit`` and ``waste_kbit`` sum each video's chunk sizes as they
    land, in chunk order, up to and past its swipe point.

    :meth:`run` holds the playhead in locals: the clock, the current video
    with its view, chunk duration and swipe point, the playhead chunk and
    its start, whether playback started, and the rebuffer total. It writes
    them back here once, when the session closes.
    """

    def __init__(self, script: SessionScript, trace: ThroughputTrace,
                 strategy, config: SessionConfig, model,
                 record_timeline: bool = False, finishes=None):
        self.script = script
        self.trace = trace
        self.finishes = {} if finishes is None else finishes
        self.strategy = strategy
        self.config = config
        self.n_videos = len(script.videos)
        self.bitrates: list[list[int]] = [[] for _ in script.videos]
        self.watched_kbit = [0] * self.n_videos
        self.waste_kbit = [0] * self.n_videos
        # stall seconds per watched chunk: the playhead stops at the swipe
        self.stalls = [[0.0] * sp for sp in script.swipe_points]
        self.history = ThroughputHistory(config.window_chunks)
        self.views: list[PlayerView] = []
        for i, spec in enumerate(script.videos):
            thresholds, cdf = _video_profile(
                _model_for(model, spec.category), spec.chunk_count,
                config.p_th_early, config.p_th_long)
            self.views.append(PlayerView(
                spec=spec, video_index=i, downloaded=0,
                thresholds=thresholds, swipe_cdf=cdf))
        self.timeline: Optional[list] = [] if record_timeline else None
        self._ctx = StrategyContext(
            players=[], buffered=0, lead=0.0, c_pred=None, c_ave=None,
            c_min=0.0, r_last=None, rebuffer_flag=False, config=config)

    def _window(self, lo: int) -> tuple[int, int]:
        """Slide the strategy's window to video ``lo``; the views keep their
        counts. Returns the window's end and the chunks video ``lo`` needs
        before its playback starts."""
        hi = min(lo + self.config.n_pred, self.n_videos)
        window = self.views[lo:hi]
        self._ctx.players = window
        b0 = self.config.b0_startup_chunks
        # worst-case smooth-playback bound, taken at the conservative
        # lowest rung for both the current chunk and the startup chunks
        cur = window[0].ladder.lowest
        nxt = window[1].ladder.lowest if len(window) > 1 else cur
        self._ctx.c_min = min_smooth_throughput(cur, [nxt] * b0, b0)
        return hi, min(b0, window[0].chunk_count)

    def run(self) -> SessionResult:
        """Play the session out from the engine's own first download. Each
        step checks the action, then sleeps, or times a download; plays the
        clock forward to the wake or the landing against the frozen buffers;
        lands the chunk; and reads the playhead into the context to decide
        the next action. The session closes at the last swipe."""
        views = self.views
        swipe_points = self.script.swipe_points
        n_videos = self.n_videos
        bitrates = self.bitrates
        stalls = self.stalls
        watched_kbit = self.watched_kbit
        waste_kbit = self.waste_kbit
        history = self.history
        trace = self.trace
        memo = self.finishes
        timeline = self.timeline
        decide = self.strategy.decide
        finish_time = download_finish_time
        isinf = math.isinf
        cfg = self.config
        alpha1, alpha2, t_sleep_s = cfg.alpha1, cfg.alpha2, cfg.t_sleep_s
        ctx = self._ctx
        # the playhead: ci is the video on screen, ``ready`` its landed
        # chunks; play_chunk stays 1 until its playback starts
        clock = 0.0
        ci = 0
        cur = views[0]
        ready = cur.downloaded
        duration = cur.spec.chunk_duration_s
        swipe_at = swipe_points[0]
        win_hi, startup = self._window(0)
        started = False
        play_chunk = 1
        chunk_begin = 0.0
        total_rebuffer = 0.0
        # the engine's own first download; decisions start once a chunk lands
        action = Download(0, cur.ladder.lowest, threshold=1)
        while True:
            now = clock
            if isinstance(action, Download):
                vi = action.video_index
                rate = action.bitrate_kbps
                if not ci <= vi < win_hi:
                    raise SimulationError(
                        f"strategy targeted video {vi} outside the window")
                view = views[vi]
                n = view.downloaded
                if n >= view.chunk_count:
                    raise SimulationError(
                        f"strategy targeted completed video {vi}")
                # the chunk-size table doubles as the ladder check
                try:
                    size = view.spec.chunk_kbit_by_rate[rate]
                except (KeyError, TypeError):
                    raise SimulationError(
                        f"strategy picked off-ladder bitrate {rate}") from None
                key = (now, size, now.__class__, size.__class__)
                finish = memo.get(key)
                if finish is None:
                    finish = memo[key] = finish_time(trace, now, size)
                if isinf(finish):
                    raise StarvationError(vi, n + 1, now)
                if timeline is not None:
                    buffered = ctx.buffered if vi == ci else n
                    timeline.append(("dl_start", now, vi, n + 1, rate,
                                     buffered, action.threshold))
                # non-preemptive: play out the flight, then land the chunk
                until = finish
            else:
                if not isinstance(action, Sleep):
                    raise SimulationError(f"invalid strategy action {action!r}")
                # wake at the sleep interval or the next chunk-playback boundary
                wake = now + t_sleep_s
                # a sleep while the playhead waits (for chunk ready + 1) never ends
                if ready < (play_chunk if started else startup):
                    raise SimulationError(
                        f"strategy idled while video {ci} "
                        f"waits for chunk {ready + 1}")
                if started:
                    nxt = chunk_begin + duration
                    if nxt < wake:
                        wake = nxt
                if timeline is not None:
                    timeline.append(("sleep", now, wake))
                until = wake
                view = None  # nothing lands
            # play the clock forward to ``until``
            while clock < until:
                if started and play_chunk <= ready:
                    end_t = chunk_begin + duration
                    if end_t > until:
                        clock = until
                        break
                    clock = end_t
                    if play_chunk != swipe_at:
                        play_chunk += 1
                        chunk_begin = end_t
                        if timeline is not None and play_chunk <= ready:
                            timeline.append(("play", clock, ci, play_chunk))
                        continue
                    # the user swipes; the window slides to the next video
                    if timeline is not None:
                        timeline.append(("swipe", clock, ci))
                    ci += 1
                    if ci >= n_videos:
                        if timeline is not None:
                            timeline.append(("end", clock))
                        (self.wall_clock_s, self.current_index,
                         self.play_chunk, self.chunk_begin_s,
                         self.playback_started, self.total_rebuffer) = (
                            clock, ci, play_chunk, chunk_begin, started,
                            total_rebuffer)
                        return self._result()
                    cur = views[ci]
                    ready = cur.downloaded
                    duration = cur.spec.chunk_duration_s
                    swipe_at = swipe_points[ci]
                    win_hi, startup = self._window(ci)
                    started = False
                    play_chunk = 1
                    continue
                if not started and ready >= startup:
                    started = True
                    chunk_begin = clock
                    if timeline is not None:
                        timeline.append(("play", clock, ci, play_chunk))
                    continue
                # the playhead waits for chunk play_chunk; before the first
                # video starts playing that is startup delay, not a stall
                if started or ci > 0:
                    dt = until - clock
                    if dt > 0:
                        stalls[ci][play_chunk - 1] += dt
                        total_rebuffer += dt
                        # cleared once a decision has seen it
                        ctx.rebuffer_flag = True
                clock = until
            if view is not None:
                bitrates[vi].append(rate)
                history.record_download(size, finish - now)
                # the estimates change only when a download lands
                ctx.c_ave = history.window_mean()
                ctx.c_pred = history.predict(alpha1, alpha2)
                ctx.r_last = rate
                # a departed video's view stays current too; none reads it
                view.downloaded = k = n + 1
                view.last_bitrate = rate
                if k <= swipe_points[vi]:
                    watched_kbit[vi] += size
                else:
                    waste_kbit[vi] += size
                if timeline is not None:
                    timeline.append(("dl_done", clock, vi, k))
                if vi == ci:
                    ready = k
                    if started and k == play_chunk:
                        chunk_begin = clock
                        if timeline is not None:
                            timeline.append(("play", clock, ci, play_chunk))
            # read the playhead into the context; until playback starts it
            # waits at chunk 1
            ctx.buffered = buffered = ready - (play_chunk - 1)
            offset = 0.0
            if started and play_chunk <= ready:
                offset = (clock - chunk_begin) / duration
            ctx.lead = buffered - offset
            action = decide(ctx)
            ctx.rebuffer_flag = False

    def _result(self) -> SessionResult:
        cfg = self.config
        weights = metrics.QoEWeights(cfg.w1, cfg.w2, cfg.w3)
        quality_metric = cfg.quality_metric
        qoe_video = metrics.qoe_video
        videos = []
        qoes = []
        costs = []
        wastes = []
        for i, (spec, watched, rungs, stalls, watched_kbit, waste_kbit) in (
                enumerate(zip(self.script.videos, self.script.swipe_points,
                              self.bitrates, self.stalls, self.watched_kbit,
                              self.waste_kbit))):
            bitrates = tuple(rungs)
            rebuf = tuple(stalls)
            qoe = qoe_video(bitrates[:watched], rebuf, weights, quality_metric)
            videos.append(VideoResult(
                spec.id, i, spec.category, spec.chunk_count, watched,
                len(bitrates), bitrates, rebuf, qoe, watched_kbit, waste_kbit))
            qoes.append(qoe)
            # as the video's cost_mbit and waste_mbit properties compute them
            costs.append((watched_kbit + waste_kbit) / 1000.0)
            wastes.append(waste_kbit / 1000.0)
        return SessionResult(
            videos=tuple(videos),
            qoe_total=sum(qoes),
            cost_mbit_total=sum(costs),
            waste_mbit_total=sum(wastes),
            utility=metrics.utility(qoes, costs, cfg.w4),
            wall_time_s=self.wall_clock_s,
            rebuffer_total_s=self.total_rebuffer,
            timeline=tuple(self.timeline) if self.timeline is not None else None)


def run_session(script: SessionScript, trace: ThroughputTrace, strategy,
                config: SessionConfig, model,
                record_timeline: bool = False, *,
                finishes: Optional[dict] = None) -> SessionResult:
    """Simulate one viewing session and score it.

    ``finishes`` memoises finish times, a pure function of (trace, start,
    size), for the sessions of one trace; ``None`` gives the call its own
    dict. A miss calls the module's ``download_finish_time``. Keys carry the
    classes of start and size: a float and an equal ``Fraction`` hash alike
    yet the channel rounds only the float. ``math.inf`` is memoised too.

    With ``record_timeline`` the result's ``timeline`` holds one tuple per
    event, in engine order (t seconds, v video index, k chunk index):

    * ``("dl_start", t, v, k, bitrate_kbps, buffered, threshold)``: a
      download begins; ``buffered`` is the context's for the video on
      screen and the view's ``downloaded`` for any other, ``threshold``
      the strategy's ``Download`` field.
    * ``("dl_done", t, v, k)``: that chunk lands.
    * ``("play", t, v, k)``: the playhead starts chunk k, once per chunk.
    * ``("swipe", t, v)``: the user leaves video v.
    * ``("sleep", t, wake_t)``: the strategy idles until ``wake_t``.
    * ``("end", t)``: the session closes, at the last swipe.
    """
    return _Simulation(script, trace, strategy, config, model,
                       record_timeline, finishes).run()


@dataclass(frozen=True)
class SessionRow:
    strategy: str
    scenario: str
    script_id: str
    trace_id: str
    status: str
    qoe: Optional[float]
    cost_mbit: Optional[float]
    waste_mbit: Optional[float]
    utility: Optional[float]
    rebuffer_s: Optional[float]


@dataclass(frozen=True)
class AggregateRow:
    strategy: str
    scenario: str
    sessions: int
    starved: int
    mean_qoe: Optional[float]
    mean_cost_mbit: Optional[float]
    mean_waste_mbit: Optional[float]
    mean_utility: Optional[float]
    mean_rebuffer_s: Optional[float]
    p50_utility: Optional[float]
    p90_utility: Optional[float]


SESSION_CSV_HEADER = ("strategy,scenario,script_id,trace_id,qoe,cost_mbit,"
                      "waste_mbit,utility,rebuffer_s")
AGGREGATE_CSV_HEADER = ("strategy,scenario,sessions,starved,mean_qoe,"
                        "mean_cost_mbit,mean_waste_mbit,mean_utility,"
                        "mean_rebuffer_s,p50_utility,p90_utility")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".9g")
    return str(x)


def _csv(header: str, rows) -> str:
    """The header, then one line per row of the row's fields that the
    header names, in its order."""
    columns = attrgetter(*header.split(","))
    lines = [header]
    for r in rows:
        lines.append(",".join(map(_fmt, columns(r))))
    return "\n".join(lines) + "\n"


def _mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _percentile(sorted_vals: Sequence[float], q: float) -> Optional[float]:
    if not sorted_vals:
        return None
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[rank - 1]


@dataclass(frozen=True)
class BatchReport:
    rows: tuple[SessionRow, ...]
    aggregates: tuple[AggregateRow, ...]
    seed: int

    def sessions_csv(self) -> str:
        return _csv(SESSION_CSV_HEADER, self.rows)

    def aggregates_csv(self) -> str:
        return _csv(AGGREGATE_CSV_HEADER, self.aggregates)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "aggregates": [vars(a).copy() for a in self.aggregates],
            "sessions": [vars(r).copy() for r in self.rows],
        }


def run_batch(scripts: Sequence[SessionScript], traces: Sequence[TraceRef],
              strategies: Sequence, config: SessionConfig, model,
              seed: int = 0) -> BatchReport:
    """Run every strategy over the scripts x traces matrix.

    Sessions run trace by trace: for each trace, each script, each
    strategy, and a trace's sessions share one ``finishes`` dict (see
    ``run_session``), dropped when the next trace starts. Rows keep input
    order all the same: strategy, then script, then trace, as the row
    index ``(k * n_scripts + si) * n_traces + ti`` places them.

    Starved sessions become flagged rows with empty metrics rather than
    failing the batch. Output order is fixed by input order, so repeated
    runs are byte-identical.
    """
    if not scripts or not traces or not strategies:
        raise ValueError("scripts, traces, and strategies must be non-empty")
    n_scripts = len(scripts)
    n_traces = len(traces)
    rows: list = [None] * (len(strategies) * n_scripts * n_traces)
    for ti, tr in enumerate(traces):
        finishes: dict = {}
        for si, script in enumerate(scripts):
            for k, strat in enumerate(strategies):
                try:
                    res = run_session(script, tr.trace, strat, config, model,
                                      finishes=finishes)
                    outcome = ("ok", res.qoe_total, res.cost_mbit_total,
                               res.waste_mbit_total, res.utility,
                               res.rebuffer_total_s)
                except StarvationError:
                    outcome = ("starved",) + (None,) * 5
                rows[(k * n_scripts + si) * n_traces + ti] = SessionRow(
                    strat.name, tr.scenario, script.script_id, tr.trace_id,
                    *outcome)
    # (strategy, scenario) -> that cell's rows, in row order
    cells: dict[tuple[str, str], list[SessionRow]] = {}
    for row in rows:
        cells.setdefault((row.strategy, row.scenario), []).append(row)
    scenario_order = dict.fromkeys(tr.scenario for tr in traces)
    aggregates = []
    for strat in strategies:
        for scenario in scenario_order:
            cell = cells[strat.name, scenario]
            # a cell with no ok session gets None means and percentiles
            ok = [r for r in cell if r.status == "ok"]
            utils = sorted(r.utility for r in ok)
            aggregates.append(AggregateRow(
                strategy=strat.name, scenario=scenario,
                sessions=len(cell), starved=len(cell) - len(ok),
                mean_qoe=_mean([r.qoe for r in ok]),
                mean_cost_mbit=_mean([r.cost_mbit for r in ok]),
                mean_waste_mbit=_mean([r.waste_mbit for r in ok]),
                mean_utility=_mean([r.utility for r in ok]),
                mean_rebuffer_s=_mean([r.rebuffer_s for r in ok]),
                p50_utility=_percentile(utils, 0.5),
                p90_utility=_percentile(utils, 0.9)))
    return BatchReport(rows=tuple(rows), aggregates=tuple(aggregates), seed=seed)
