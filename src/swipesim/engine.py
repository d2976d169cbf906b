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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class VideoResult:
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
    count; the strategy sees the window of them from ``current_index``.
    ``bitrates`` and ``stalls`` keep each video's rungs and stalls to score.
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
        self.current_index = 0
        self.wall_clock_s = 0.0
        self.playback_started = False
        self.play_chunk = 1
        self.chunk_begin_s = 0.0
        self.bitrates: list[list[int]] = [[] for _ in script.videos]
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
        self.total_rebuffer = 0.0
        self.done = False
        self.timeline: Optional[list] = [] if record_timeline else None
        self._ctx = StrategyContext(
            players=[], buffered=0, lead=0.0, c_pred=None, c_ave=None,
            c_min=0.0, r_last=None, rebuffer_flag=False, config=config)
        self._rebuild_window()

    # -- window helpers --------------------------------------------------

    def _rebuild_window(self):
        """Slide the window to the current video; the views keep their counts."""
        lo = self.current_index
        self._win_hi = min(lo + self.config.n_pred, self.n_videos)
        window = self.views[lo:self._win_hi]
        self._ctx.players = window
        b0 = self.config.b0_startup_chunks
        # the chunks the current video needs before its playback starts
        self._startup_chunks = min(b0, window[0].chunk_count)
        # worst-case smooth-playback bound, taken at the conservative
        # lowest rung for both the current chunk and the startup chunks
        cur = window[0].ladder.lowest
        nxt = window[1].ladder.lowest if len(window) > 1 else cur
        self._ctx.c_min = min_smooth_throughput(cur, [nxt] * b0, b0)

    def _emit_play(self):
        """Record the start of the playhead chunk, which starts only once;
        call only while recording."""
        self.timeline.append(("play", self.wall_clock_s, self.current_index, self.play_chunk))

    # -- decision points --------------------------------------------------

    def _build_ctx(self) -> StrategyContext:
        ctx = self._ctx
        view = ctx.players[0]
        n = view.downloaded
        # until playback starts the playhead waits at chunk 1
        ctx.buffered = buffered = n - (self.play_chunk - 1)
        offset = 0.0
        if self.playback_started and self.play_chunk <= n:
            t0 = view.spec.chunk_duration_s
            offset = (self.wall_clock_s - self.chunk_begin_s) / t0
        ctx.lead = buffered - offset
        return ctx

    def _validate_download(self, vi, rate):
        """The one check of a strategy's download request against the live
        players; returns the size in kilobits of video ``vi``'s next chunk
        at ``rate``."""
        if not self.current_index <= vi < self._win_hi:
            raise SimulationError(
                f"strategy targeted video {vi} outside the window")
        view = self.views[vi]
        if view.downloaded >= view.chunk_count:
            raise SimulationError(f"strategy targeted completed video {vi}")
        # the chunk-size table doubles as the ladder check
        try:
            return view.spec.chunk_kbit_by_rate[rate]
        except (KeyError, TypeError):
            raise SimulationError(
                f"strategy picked off-ladder bitrate {rate}") from None

    def _idle_error(self, k) -> SimulationError:
        """A sleep while the video on screen waits for its chunk ``k``: no
        download would ever come, so the session would never end."""
        return SimulationError(
            f"strategy idled while video {self.current_index} waits for "
            f"chunk {k}")

    # -- playback ----------------------------------------------------------

    def _stall(self, chunk: int, dt: float):
        if dt <= 0:
            return
        self.stalls[self.current_index][chunk - 1] += dt
        self.total_rebuffer += dt
        # run clears it once a decision has seen it
        self._ctx.rebuffer_flag = True

    def _advance(self, until: float):
        """Run playback forward to ``until`` against the frozen buffers."""
        views = self.views
        swipe_points = self.script.swipe_points
        recording = self.timeline is not None
        while self.wall_clock_s < until and not self.done:
            view = views[self.current_index]
            n = view.downloaded
            if not self.playback_started:
                if n >= self._startup_chunks:
                    self.playback_started = True
                    self.play_chunk = 1
                    self.chunk_begin_s = self.wall_clock_s
                    if recording:
                        self._emit_play()
                    continue
                if self.current_index > 0:
                    self._stall(1, until - self.wall_clock_s)
                self.wall_clock_s = until
                return
            if self.play_chunk > n:
                self._stall(self.play_chunk, until - self.wall_clock_s)
                self.wall_clock_s = until
                return
            end_t = self.chunk_begin_s + view.spec.chunk_duration_s
            if end_t > until:
                self.wall_clock_s = until
                return
            self.wall_clock_s = end_t
            if self.play_chunk == swipe_points[self.current_index]:
                self._swipe()
            else:
                self.play_chunk += 1
                self.chunk_begin_s = end_t
                if recording and self.play_chunk <= n:
                    self._emit_play()

    def _swipe(self):
        timeline = self.timeline
        if timeline is not None:
            timeline.append(("swipe", self.wall_clock_s, self.current_index))
        self.current_index += 1
        if self.current_index >= self.n_videos:
            self.done = True
            if timeline is not None:
                timeline.append(("end", self.wall_clock_s))
            return
        self.playback_started = False
        self.play_chunk = 1
        self._rebuild_window()

    def _apply_download(self, vi, rate, size_kbit, elapsed_s):
        # checked when the strategy issued it, by _validate_download
        self.bitrates[vi].append(rate)
        history = self.history
        history.record_download(size_kbit, elapsed_s)
        # the estimates change only when a download lands, so set them here
        ctx = self._ctx
        ctx.c_ave = history.window_mean()
        ctx.c_pred = history.predict(self.config.alpha1, self.config.alpha2)
        ctx.r_last = rate
        # a video that departed with this chunk in flight keeps its view
        # current too; no strategy reads it again
        view = self.views[vi]
        view.downloaded = k = view.downloaded + 1
        view.last_bitrate = rate
        timeline = self.timeline
        if timeline is not None:
            timeline.append(("dl_done", self.wall_clock_s, vi, k))
        if (self.playback_started and vi == self.current_index
                and k == self.play_chunk):
            self.chunk_begin_s = self.wall_clock_s
            if timeline is not None:
                self._emit_play()

    # -- main loop ---------------------------------------------------------

    def run(self) -> SessionResult:
        """Play the session out, opening with the engine's own download."""
        views = self.views
        trace = self.trace
        memo = self.finishes
        timeline = self.timeline
        decide = self.strategy.decide
        build_ctx = self._build_ctx
        advance = self._advance
        finish_time = download_finish_time
        t_sleep = self.config.t_sleep_s
        ctx = self._ctx
        # the engine's own first download; decisions start once a chunk lands
        action = Download(0, views[0].ladder.lowest, threshold=1)
        while not self.done:
            if ctx.r_last is not None:
                action = decide(build_ctx())
                ctx.rebuffer_flag = False
            now = self.wall_clock_s
            if isinstance(action, Download):
                vi = action.video_index
                rate = action.bitrate_kbps
                size = self._validate_download(vi, rate)
                key = (now, size, now.__class__, size.__class__)
                finish = memo.get(key)
                if finish is None:
                    finish = memo[key] = finish_time(trace, now, size)
                if math.isinf(finish):
                    raise StarvationError(vi, views[vi].downloaded + 1, now)
                if timeline is not None:
                    n = views[vi].downloaded
                    buffered = (ctx.buffered if vi == self.current_index
                                else n)
                    timeline.append(("dl_start", now, vi, n + 1, rate,
                                     buffered, action.threshold))
                # non-preemptive: play out the flight, then land the chunk
                advance(finish)
                if self.done:
                    break
                self._apply_download(vi, rate, size, finish - now)
                continue
            if not isinstance(action, Sleep):
                raise SimulationError(f"invalid strategy action {action!r}")
            # wake at the sleep interval or the next chunk-playback boundary
            wake = now + t_sleep
            view = views[self.current_index]
            n = view.downloaded
            if self.playback_started:
                if self.play_chunk > n:
                    raise self._idle_error(self.play_chunk)
                nxt = self.chunk_begin_s + view.spec.chunk_duration_s
                if nxt < wake:
                    wake = nxt
            elif n < self._startup_chunks:
                raise self._idle_error(n + 1)
            if timeline is not None:
                timeline.append(("sleep", now, wake))
            advance(wake)
        return self._result()

    def _result(self) -> SessionResult:
        cfg = self.config
        weights = metrics.QoEWeights(cfg.w1, cfg.w2, cfg.w3)
        quality_metric = cfg.quality_metric
        videos = []
        qoes = []
        costs = []
        for i, (spec, watched, rungs, stalls) in enumerate(zip(
                self.script.videos, self.script.swipe_points, self.bitrates,
                self.stalls)):
            bitrates = tuple(rungs)
            rebuf = tuple(stalls)
            seen = bitrates[:watched]
            t0 = spec.chunk_duration_s
            qoe = metrics.qoe_video(seen, rebuf, weights, quality_metric)
            video = VideoResult(
                video_id=spec.id, video_index=i, category=spec.category,
                chunk_count=spec.chunk_count, watched_chunks=watched,
                downloaded_chunks=len(bitrates), bitrates=bitrates,
                rebuffer_s=rebuf, qoe=qoe,
                watched_kbit=metrics.total_kilobits(seen, t0),
                waste_kbit=metrics.total_kilobits(bitrates[watched:], t0))
            videos.append(video)
            qoes.append(qoe)
            costs.append(video.cost_mbit)
        return SessionResult(
            videos=tuple(videos),
            qoe_total=sum(qoes),
            cost_mbit_total=sum(costs),
            waste_mbit_total=sum(v.waste_mbit for v in videos),
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
