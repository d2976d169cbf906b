import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracle import brute_force_session, canonical

from swipesim import engine
from swipesim.cli import default_behavior, default_catalog
from swipesim.core import BitrateLadder, SessionConfig, VideoSpec, chunk_kbit
from swipesim.engine import (
    SessionScript,
    SimulationError,
    StarvationError,
    TraceRef,
    VideoResult,
    run_batch,
    run_session,
    sample_script,
    sample_swipe_point,
)
from swipesim.metrics import total_kilobits
from swipesim.retention import build_model
from swipesim.strategy import (
    STRATEGY_NAMES,
    Download,
    Sleep,
    Strategy,
    make_strategy,
)
from swipesim.trace_io import (
    BehaviorTrace,
    ThroughputTrace,
    download_finish_time,
    generate_scenario,
)

LADDER1 = BitrateLadder((750,))
LADDER2 = BitrateLadder((750, 1850))
LADDER3 = BitrateLadder((750, 1200, 1850))

MODEL = build_model(
    [BehaviorTrace("t1", "cat", 10, 5), BehaviorTrace("t2", "cat", 10, 10)],
    "cat")
CFG = SessionConfig()


def videos_of(n, chunk_count, ladder=LADDER3, t0=1.0):
    return tuple(VideoSpec(f"v{i}", "cat", chunk_count, t0, ladder)
                 for i in range(n))


def const_trace(bw):
    return ThroughputTrace(((0.0, float(bw)),))


class TestSingleVideoTimelines:
    def test_fast_channel_plays_through(self):
        script = SessionScript("s", videos_of(1, 2, LADDER1), (2,))
        res = run_session(script, const_trace(2000), make_strategy("dtaap"),
                          CFG, MODEL, record_timeline=True)
        events = {ev[:2] for ev in res.timeline if ev[0] in ("dl_done", "swipe", "end")}
        assert ("dl_done", 0.375) in events
        assert ("dl_done", 0.75) in events
        assert ("swipe", 2.375) in events and ("end", 2.375) in events
        v = res.videos[0]
        assert (v.watched_chunks, v.downloaded_chunks) == (2, 2)
        assert res.rebuffer_total_s == 0.0
        # startup wait of the first video is not rebuffering
        assert v.rebuffer_s == (0.0, 0.0)

    def test_slow_channel_stalls_on_second_chunk(self):
        script = SessionScript("s", videos_of(1, 2, LADDER1), (2,))
        res = run_session(script, const_trace(500), make_strategy("dtaap"),
                          CFG, MODEL, record_timeline=True)
        done = [ev for ev in res.timeline if ev[0] == "dl_done"]
        assert [ev[1] for ev in done] == [1.5, 3.0]
        # chunk 1 plays 1.5..2.5; chunk 2 lands at 3.0, so 0.5 s stall on it
        assert res.videos[0].rebuffer_s == (0.0, 0.5)
        assert res.rebuffer_total_s == 0.5
        assert res.wall_time_s == 4.0

    def test_swipe_on_chunk_one_wastes_completed_extras(self):
        script = SessionScript("s", videos_of(2, 3, LADDER1), (1, 1))
        res = run_session(script, const_trace(2000), make_strategy("nextone"),
                          CFG, MODEL, record_timeline=True)
        for v in res.videos:
            assert v.watched_chunks == 1
            assert v.downloaded_chunks == 3
            assert v.waste_mbit == pytest.approx(1.5)
        # every downloaded-but-unwatched chunk shows up as waste
        dl_done = [ev for ev in res.timeline if ev[0] == "dl_done"]
        assert len(dl_done) == 6


class TestConservation:
    @pytest.mark.parametrize("name", ["dtaap", "fixb", "nextone", "network",
                                      "pdas_lite"])
    def test_cost_partitions_exactly(self, name):
        rng = random.Random(name)
        for trial in range(5):
            n = rng.randint(1, 6)
            videos = tuple(
                VideoSpec(f"v{i}", "cat", rng.randint(1, 8), 1.0, LADDER3)
                for i in range(n))
            swipes = tuple(rng.randint(1, v.chunk_count) for v in videos)
            script = SessionScript("s", videos, swipes)
            trace = generate_scenario(rng.choice(("high", "medium", "low", "mixed")),
                                      trial, 400)
            res = run_session(script, trace, make_strategy(name), CFG, MODEL)
            for v in res.videos:
                assert isinstance(v.cost_kbit, int)
                assert v.cost_kbit == v.watched_kbit + v.waste_kbit
                assert v.watched_chunks <= v.downloaded_chunks <= v.chunk_count

    @pytest.mark.parametrize("t0", [0.1, 0.3, Fraction(1, 3)],
                             ids=["0.1s", "0.3s", "fraction"])
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_ledger_equals_the_reference_sums(self, name, t0):
        # the engine adds each size as its chunk lands; these sizes are an
        # int at 750 kbps and floats or Fractions at the other rungs
        ladder = BitrateLadder((750, 1201, 1847))
        rng = random.Random(f"{name}-{t0}")
        types = set()
        waste = 0
        for trial in range(4):
            videos = tuple(VideoSpec(f"v{i}", "cat", rng.randint(1, 12), t0,
                                     ladder) for i in range(rng.randint(2, 6)))
            swipes = tuple(rng.randint(1, v.chunk_count) for v in videos)
            trace = generate_scenario(rng.choice(("high", "medium", "mixed")),
                                      trial, 400)
            res = run_session(SessionScript("s", videos, swipes), trace,
                              make_strategy(name), CFG, MODEL)
            for v in res.videos:
                w = v.watched_chunks
                for got, want in ((v.watched_kbit, total_kilobits(v.bitrates[:w], t0)),
                                  (v.waste_kbit, total_kilobits(v.bitrates[w:], t0))):
                    assert got == want and type(got) is type(want)
                    types.add(type(got))
                waste += v.waste_kbit > 0
        # both kinds of size were summed, and some sessions wasted chunks
        assert len(types) >= 2 and waste


class TestTimelineInvariants:
    def test_clock_monotone_and_causal(self):
        videos = videos_of(4, 6)
        script = SessionScript("s", videos, (2, 1, 6, 3))
        trace = generate_scenario("medium", 9, 300)
        res = run_session(script, trace, make_strategy("dtaap"), CFG, MODEL,
                          record_timeline=True)
        last_t = 0.0
        starts = {}
        for ev in res.timeline:
            assert ev[1] >= last_t - 1e-12
            last_t = max(last_t, ev[1])
            if ev[0] == "dl_start":
                starts[(ev[2], ev[3])] = ev[1]
            elif ev[0] == "dl_done":
                assert ev[1] >= starts[(ev[2], ev[3])]
            elif ev[0] == "play":
                # playback never consumes an undownloaded chunk
                assert ev[1] >= starts[(ev[2], ev[3])]

    def test_downloads_issued_only_below_threshold(self):
        videos = videos_of(5, 8)
        script = SessionScript("s", videos, (1, 4, 8, 2, 5))
        for name in ("dtaap", "fixb", "network", "pdas_lite"):
            trace = generate_scenario("mixed", 21, 400)
            res = run_session(script, trace, make_strategy(name), CFG, MODEL,
                              record_timeline=True)
            for ev in res.timeline:
                if ev[0] == "dl_start":
                    buffered, threshold = ev[5], ev[6]
                    assert buffered < threshold


class TestOracleEquivalence:
    def test_exhaustive_small_matrix(self):
        # every strategy at startup depths b0 = 1, 2 and 3
        checked = 0
        for b0, name, (n_videos, chunk_count, ladder) in itertools.product(
                (1, 2, 3), STRATEGY_NAMES, itertools.product(
                    (1, 2, 3), (1, 2, 4), (LADDER1, LADDER2))):
            config = SessionConfig(b0_startup_chunks=b0)
            videos = videos_of(n_videos, chunk_count, ladder)
            for bw in (600.0, 2000.0):
                for swipes in itertools.product(
                        range(1, chunk_count + 1), repeat=n_videos):
                    script = SessionScript("s", videos, swipes)
                    res = run_session(script, const_trace(bw),
                                      make_strategy(name), config, MODEL,
                                      record_timeline=True)
                    events, rebuffer, downloaded, end_t = brute_force_session(
                        script, bw, make_strategy(name), config, MODEL)
                    assert canonical(res.timeline) == canonical(events), (b0, name)
                    assert end_t == res.wall_time_s
                    for i, v in enumerate(res.videos):
                        assert list(v.bitrates) == downloaded[i]
                        for k in range(1, v.watched_chunks + 1):
                            assert v.rebuffer_s[k - 1] == rebuffer.get((i, k), 0.0)
                    checked += 1
        assert checked == 3 * len(STRATEGY_NAMES) * 404


def _fill_then(action):
    """Download the on-screen video in order at its lowest rung; once it is
    complete, return ``action``."""
    def decide(ctx):
        cur = ctx.players[0]
        if cur.downloaded < cur.spec.chunk_count:
            return Download(cur.video_index, cur.spec.ladder.lowest)
        return action
    return decide


def _after_first_swipe(action):
    """Play the on-screen video in order at its lowest rung; once the first
    swipe has moved the window past video 0, return ``action``."""
    fill = _fill_then(Sleep())

    def decide(ctx):
        return action if ctx.players[0].video_index > 0 else fill(ctx)
    return decide


ROOT = Path(__file__).resolve().parent.parent
ROGUE_SCRIPT = SessionScript("s", videos_of(7, 2), (2,) * 7)


def _run_rogue(decide):
    return run_session(ROGUE_SCRIPT, const_trace(2000),
                       Strategy("rogue", decide), CFG, MODEL)


# id -> (a strategy that sleeps while the video on screen waits, the
# error's subject). The engine fetches chunk 1 of video 0 before the first
# decision, so a strategy that only sleeps lets playback start on it and
# stall at chunk 2; a sleep before playback starts is the swipe's case.
IDLE_CASES = {
    "swipe-startup": (_after_first_swipe(Sleep()),
                      "video 1 waits for chunk 1"),
    "mid-video": (lambda ctx: Sleep(), "video 0 waits for chunk 2"),
}

_IDLE_CHILD = """\
import sys
import test_engine
from swipesim.engine import SimulationError
try:
    test_engine._run_rogue(test_engine.IDLE_CASES[sys.argv[1]][0])
except SimulationError as err:
    print(err)
else:
    sys.exit("the session ended")
"""


class TestStrategyBoundary:
    """The engine rejects every malformed action a strategy can return."""

    SCRIPT = ROGUE_SCRIPT

    @pytest.mark.parametrize("decide, message", [
        (lambda ctx: Download(5, 750), "video 5 outside the window"),
        (_after_first_swipe(Download(0, 750)), "video 0 outside the window"),
        (_fill_then(Download(0, 750)), "completed video 0"),
        (lambda ctx: Download(0, 999), "off-ladder bitrate 999"),
        (lambda ctx: Download(0, [750]), r"off-ladder bitrate \[750\]"),
        (lambda ctx: None, "invalid strategy action None"),
        (lambda ctx: "sleep", "invalid strategy action 'sleep'"),
    ], ids=["outside-window", "departed-video", "completed-video",
            "off-ladder", "unhashable-bitrate", "none", "string"])
    def test_rogue_action_raises(self, decide, message):
        with pytest.raises(SimulationError, match=message):
            _run_rogue(decide)

    def test_rogue_filler_is_otherwise_valid(self):
        # the completed-video case fails on its own request, not before it
        res = _run_rogue(_fill_then(Sleep()))
        assert all(v.downloaded_chunks == 2 for v in res.videos)

    @pytest.mark.parametrize("case", sorted(IDLE_CASES))
    def test_idle_while_waiting_raises(self, case):
        # a session that lets such a sleep pass never ends, so it runs in a
        # child process whose timeout fails the test instead of stalling
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "tests")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", _IDLE_CHILD, case],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == (
            f"strategy idled while {IDLE_CASES[case][1]}")

    def test_idle_at_a_swipe_onto_a_ready_video_is_valid(self):
        # every window player filled, then sleeps that wake at chunk ends:
        # once the window is full a swipe lands on a sleep's bound, and the
        # decision there comes before the next video, already buffered,
        # starts playing
        def fill_window(ctx):
            for p in ctx.players:
                if p.downloaded < p.spec.chunk_count:
                    return Download(p.video_index, p.spec.ladder.lowest)
            return Sleep()
        res = run_session(self.SCRIPT, const_trace(2000),
                          Strategy("filler", fill_window), CFG, MODEL,
                          record_timeline=True)
        swipes = {ev[1] for ev in res.timeline if ev[0] == "swipe"}
        sleeps = {ev[1] for ev in res.timeline if ev[0] == "sleep"}
        assert swipes & sleeps
        assert res.rebuffer_total_s == 0.0


class TestTimelineParity:
    """Recording the timeline changes nothing else in the result."""

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_untimed_result_equals_timed(self, name):
        rng = random.Random(f"parity:{name}")
        for trial in range(4):
            n = rng.randint(1, 7)
            videos = tuple(
                VideoSpec(f"v{i}", "cat", rng.randint(1, 9),
                          rng.choice((0.5, 1.0, 2.0)), LADDER3)
                for i in range(n))
            swipes = tuple(rng.randint(1, v.chunk_count) for v in videos)
            script = SessionScript(f"s{trial}", videos, swipes)
            trace = generate_scenario(
                ("high", "medium", "low", "mixed")[trial], trial, 400)
            plain = run_session(script, trace, make_strategy(name), CFG, MODEL)
            timed = run_session(script, trace, make_strategy(name), CFG, MODEL,
                                record_timeline=True)
            assert plain.timeline is None and timed.timeline
            assert plain == dataclasses.replace(timed, timeline=None)


class TestStarvation:
    def test_dead_channel_aborts(self):
        script = SessionScript("s", videos_of(1, 2, LADDER1), (2,))
        trace = ThroughputTrace(((0.0, 500.0), (1.0, 0.0)))
        with pytest.raises(StarvationError) as err:
            run_session(script, trace, make_strategy("dtaap"), CFG, MODEL)
        assert err.value.video_index == 0
        # the chunk comes from the engine's own count: none has landed
        assert err.value.chunk_index == 1
        assert str(err.value) == ("starved at t=0.000s waiting for video 0 "
                                  "chunk 1: no bandwidth left in trace")

    def test_batch_flags_starved_rows(self):
        script = SessionScript("s", videos_of(1, 2, LADDER1), (2,))
        traces = [TraceRef("dead", "low", ThroughputTrace(((0.0, 0.0),))),
                  TraceRef("live", "low", const_trace(1000))]
        report = run_batch([script], traces, [make_strategy("dtaap")], CFG,
                           MODEL)
        by_id = {r.trace_id: r for r in report.rows}
        assert by_id["dead"].status == "starved"
        assert by_id["dead"].utility is None
        assert by_id["live"].status == "ok"
        agg = report.aggregates[0]
        assert agg.sessions == 2 and agg.starved == 1


class TestEngineBootstrap:
    """The engine fetches chunk 1 of video 0 at the lowest rung itself, so
    every context a strategy sees carries throughput estimates."""

    SCRIPT = SessionScript("s", videos_of(4, 5), (2, 5, 1, 3))
    # under the lowest rung, then a dead stretch: the session stalls, the
    # starved branches decide, and the channel recovers before the end
    STARVING = ThroughputTrace(((0.0, 900.0), (3.0, 0.0), (5.0, 600.0),
                                (9.0, 3000.0)))

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_first_download_is_the_engines(self, name):
        seen = []

        def decide(ctx):
            seen.append((ctx.c_pred, ctx.c_ave, ctx.r_last))
            return inner(ctx)
        inner = make_strategy(name).decide
        lowest = self.SCRIPT.videos[0].ladder.lowest
        for b0, trace in itertools.product(
                (1, 2, 3), (const_trace(2000), self.STARVING)):
            seen.clear()
            res = run_session(self.SCRIPT, trace, Strategy(name, decide),
                              SessionConfig(b0_startup_chunks=b0), MODEL,
                              record_timeline=True)
            assert res.timeline[0] == ("dl_start", 0.0, 0, 1, lowest, 0, 1)
            assert seen and all(None not in est for est in seen)
            # one decision per action after the engine's own, none after
            # the end: a decision past it would have no action to record
            actions = [ev for ev in res.timeline
                       if ev[0] in ("dl_start", "sleep")]
            assert len(seen) == len(actions) - 1
            assert res.timeline[-1][0] == "end"


@st.composite
def _scaled_sessions(draw):
    """A script, a piecewise trace, a strategy, a startup depth and a power
    of two to scale rates by. Some segments carry no bandwidth, and a trace
    whose last one carries none starves any session that outlasts it."""
    videos = tuple(
        VideoSpec(f"v{i}", "cat", draw(st.integers(1, 12)),
                  draw(st.sampled_from((0.5, 1.0, 2.0))),
                  draw(st.sampled_from((LADDER1, LADDER2, LADDER3))))
        for i in range(draw(st.integers(1, 6))))
    swipes = tuple(draw(st.integers(1, v.chunk_count)) for v in videos)
    gaps = draw(st.lists(st.sampled_from((0.25, 0.5, 1.0, 1.5, 3.0)),
                         max_size=8))
    rate = st.integers(300, 6000).map(float)
    bws = [0.0 if draw(st.integers(0, 3)) == 3 else draw(rate) for _ in gaps]
    bws.append(0.0 if draw(st.integers(0, 4)) == 4 else draw(rate))
    starts = [0.0] + list(itertools.accumulate(gaps))
    return (SessionScript("s", videos, swipes), list(zip(starts, bws)),
            draw(st.sampled_from(STRATEGY_NAMES)), draw(st.integers(1, 3)),
            2 ** draw(st.integers(1, 3)))


def _outcome(script, samples, name, b0, t_sleep_s=CFG.t_sleep_s):
    """The session's timeline, or where it starved."""
    try:
        return run_session(script, ThroughputTrace(samples),
                           make_strategy(name),
                           SessionConfig(b0_startup_chunks=b0,
                                         t_sleep_s=t_sleep_s), MODEL,
                           record_timeline=True).timeline
    except StarvationError as err:
        return ("starved", err.video_index, err.chunk_index, err.wall_clock_s)


class TestBandwidthScale:
    """Metamorphic relation: scaling every ladder rung and every trace
    bandwidth by 2**k leaves the timeline as it is, except that each
    download's bitrate is 2**k times as large. A power of two scales every
    float result exactly, so the relation holds bit for bit."""

    @settings(derandomize=True, database=None, max_examples=400,
              deadline=None)
    @given(_scaled_sessions())
    def test_timeline_scales_only_bitrates(self, case):
        script, samples, name, b0, m = case
        scaled_script = SessionScript("s", tuple(
            dataclasses.replace(v, ladder=BitrateLadder(
                tuple(m * r for r in v.ladder.levels)))
            for v in script.videos), script.swipe_points)
        base = _outcome(script, samples, name, b0)
        scaled = _outcome(scaled_script, [(t, m * bw) for t, bw in samples],
                          name, b0)
        # a starved session starves at the same chunk at the same time
        expected = base if base[0] == "starved" else tuple(
            ev[:4] + (m * ev[4],) + ev[5:] if ev[0] == "dl_start" else ev
            for ev in base)
        assert scaled == expected


class TestTimeScale:
    """Metamorphic relation: scaling the trace's timestamps, every chunk
    duration and the sleep interval by 2**k scales every event time and
    wake time by 2**k and leaves every decision as it is: a chunk is 2**k
    times as large and takes 2**k times as long, so every throughput and
    every buffer lead stays the same. Exact, as for the bandwidth scale."""

    @settings(derandomize=True, database=None, max_examples=400,
              deadline=None)
    @given(_scaled_sessions())
    def test_timeline_scales_only_times(self, case):
        script, samples, name, b0, m = case
        scaled_script = SessionScript("s", tuple(
            dataclasses.replace(v, chunk_duration_s=m * v.chunk_duration_s)
            for v in script.videos), script.swipe_points)
        base = _outcome(script, samples, name, b0)
        scaled = _outcome(scaled_script, [(m * t, bw) for t, bw in samples],
                          name, b0, t_sleep_s=m * CFG.t_sleep_s)
        if base[0] == "starved":
            # the same chunk starves, at the scaled time
            assert scaled == base[:3] + (m * base[3],)
            return
        # a sleep's second field is its wake time
        assert scaled == tuple(
            (ev[0], m * ev[1], m * ev[2]) if ev[0] == "sleep"
            else (ev[0], m * ev[1]) + ev[2:] for ev in base)


class TestNonPreemption:
    def test_inflight_chunk_counts_for_departed_video(self):
        # swipe of video 0 happens while its chunk 3 is still in flight
        videos = videos_of(2, 3, LADDER1)
        script = SessionScript("s", videos, (1, 3))
        trace = const_trace(800)  # 0.9375 s per 750 kbit chunk
        res = run_session(script, trace, make_strategy("nextone"), CFG, MODEL,
                          record_timeline=True)
        v0 = res.videos[0]
        assert v0.downloaded_chunks == 3
        assert v0.waste_kbit == 1500
        done3 = next(ev for ev in res.timeline
                     if ev[0] == "dl_done" and ev[2:] == (0, 3))
        swipe0 = next(ev for ev in res.timeline if ev[0] == "swipe" and ev[2] == 0)
        assert done3[1] > swipe0[1]

    def test_inflight_chunk_dropped_at_session_close(self):
        videos = videos_of(1, 3, LADDER1)
        script = SessionScript("s", videos, (1,))
        res = run_session(script, const_trace(800), make_strategy("nextone"),
                          CFG, MODEL, record_timeline=True)
        # chunk 3 (started 1.875) was in flight at the closing swipe (1.9375)
        started = {ev[2:4] for ev in res.timeline if ev[0] == "dl_start"}
        finished = {ev[2:4] for ev in res.timeline if ev[0] == "dl_done"}
        assert (0, 3) in started and (0, 3) not in finished
        assert res.videos[0].downloaded_chunks == 2
        assert res.videos[0].waste_kbit == 750


class TestRunBatch:
    def test_cross_product_shape(self):
        scripts = [SessionScript(f"s{i}", videos_of(2, 3), (1, 2))
                   for i in range(2)]
        traces = [TraceRef(f"t{i}", "high", generate_scenario("high", i, 60))
                  for i in range(2)]
        report = run_batch(scripts, traces, [make_strategy("dtaap")], CFG, MODEL)
        assert len(report.rows) == 4
        assert len(report.aggregates) == 1

    def test_deterministic_reports(self):
        scripts = [SessionScript(f"s{i}", videos_of(3, 5), (2, 5, 1))
                   for i in range(3)]
        traces = [TraceRef(f"t{i}", k, generate_scenario(k, i, 120))
                  for i, k in enumerate(("high", "low", "mixed"))]
        strategies = [make_strategy("dtaap"), make_strategy("fixb")]
        r1 = run_batch(scripts, traces, strategies, CFG, MODEL, seed=5)
        r2 = run_batch(scripts, traces, strategies, CFG, MODEL, seed=5)
        assert r1.sessions_csv() == r2.sessions_csv()
        assert r1.aggregates_csv() == r2.aggregates_csv()
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            run_batch([], [], [], CFG, MODEL)

    def test_all_starved_cell_has_no_means(self):
        script = SessionScript("s", videos_of(1, 2, LADDER1), (2,))
        dead = TraceRef("dead", "low", ThroughputTrace(((0.0, 0.0),)))
        report = run_batch([script], [dead], [make_strategy("dtaap")], CFG,
                           MODEL)
        (agg,) = report.aggregates
        assert agg.sessions == agg.starved == 1
        assert all(value is None for value in (
            agg.mean_qoe, agg.mean_cost_mbit, agg.mean_waste_mbit,
            agg.mean_utility, agg.mean_rebuffer_s, agg.p50_utility,
            agg.p90_utility))
        assert report.aggregates_csv().splitlines()[1] == "dtaap,low,1,1,,,,,,,"


    def test_rows_keep_strategy_major_order(self):
        # 2 strategies x 2 scripts x 2 traces, against a plain loop in row
        # order, one session at a time
        scripts = [SessionScript("s0", videos_of(3, 5), (2, 5, 1)),
                   SessionScript("s1", videos_of(2, 4), (4, 1))]
        traces = [TraceRef("t0", "high", generate_scenario("high", 0, 120)),
                  TraceRef("t1", "low", generate_scenario("low", 1, 120))]
        strategies = [make_strategy("dtaap"), make_strategy("pdas_lite")]
        rows = [_session_row(s, sc, tr)
                for s in strategies for sc in scripts for tr in traces]
        header = ("strategy,scenario,script_id,trace_id,qoe,cost_mbit,"
                  "waste_mbit,utility,rebuffer_s")
        expected_sessions = "\n".join(
            [header] + [",".join(format(v, ".9g") if isinstance(v, float)
                                 else v for v in row) for row in rows]) + "\n"
        expected_aggregates = [
            "strategy,scenario,sessions,starved,mean_qoe,mean_cost_mbit,"
            "mean_waste_mbit,mean_utility,mean_rebuffer_s,p50_utility,"
            "p90_utility"]
        for s in strategies:
            for scenario in ("high", "low"):
                cell = [r for r in rows if r[:2] == (s.name, scenario)]
                means = [sum(r[i] for r in cell) / len(cell)
                         for i in (4, 5, 6, 7, 8)]
                # two sessions: p50 is the lower utility, p90 the higher
                utils = sorted(r[7] for r in cell)
                expected_aggregates.append(",".join(
                    [s.name, scenario, "2", "0"]
                    + [format(v, ".9g") for v in means + utils]))
        report = run_batch(scripts, traces, strategies, CFG, MODEL)
        assert report.sessions_csv() == expected_sessions
        assert report.aggregates_csv() == "\n".join(expected_aggregates) + "\n"


def _session_row(strategy, script, tr):
    res = run_session(script, tr.trace, strategy, CFG, MODEL)
    return (strategy.name, tr.scenario, script.script_id, tr.trace_id,
            res.qoe_total, res.cost_mbit_total, res.waste_mbit_total,
            res.utility, res.rebuffer_total_s)


def _fresh(trace):
    """An equal-valued trace object that no session has run on; a session
    on it alone computes every finish itself (a session never repeats a
    start time of its own)."""
    return ThroughputTrace(trace.samples)


def _run(script, trace, strategy, record_timeline=False):
    """``repr`` of a session's result, or ``"starved"``: the repr tells a
    float from a ``Fraction`` of equal value, which ``==`` does not."""
    try:
        return repr(run_session(script, trace, strategy, CFG, MODEL,
                                record_timeline))
    except StarvationError:
        return "starved"


def _row_fields(script, trace, strategy):
    """``repr`` of the metrics a batch row takes from a session, or
    ``"starved"``."""
    try:
        res = run_session(script, trace, strategy, CFG, MODEL)
    except StarvationError:
        return "starved"
    return repr((res.qoe_total, res.cost_mbit_total, res.waste_mbit_total,
                 res.utility, res.rebuffer_total_s))


def _row_repr(row):
    if row.status == "starved":
        return "starved"
    return repr((row.qoe, row.cost_mbit, row.waste_mbit, row.utility,
                 row.rebuffer_s))


class TestFinishMemo:
    """The sessions of one trace in a batch share one dict of finish times,
    and a session run alone has a dict of its own; every result equals a
    fresh session's on a fresh, equal-valued trace (``_fresh``)."""

    SCRIPTS = (
        SessionScript("a", videos_of(4, 5, LADDER1), (2, 5, 1, 3)),
        SessionScript("b", videos_of(4, 5, LADDER1), (1, 1, 1, 1)),
        SessionScript("c", videos_of(3, 6), (6, 2, 4)),
        SessionScript("d", videos_of(5, 4), (4, 4, 4, 4, 4)),
    )
    TRACES = {
        "per-second": generate_scenario("mixed", 3, 300),
        # bandwidth drops to zero twice and for good after 8 s
        "starving": ThroughputTrace(((0.0, 1500.0), (3.0, 0.0), (5.0, 900.0),
                                     (8.0, 0.0))),
        # the first download waits out a dead segment: the clock turns
        # into a Fraction
        "fraction": ThroughputTrace(((Fraction(0), Fraction(0)),
                                     (Fraction(1, 2), Fraction(1500)),
                                     (Fraction(7, 2), Fraction(0)),
                                     (Fraction(4), Fraction(2000)),
                                     (Fraction(9), Fraction(600)))),
    }

    @pytest.mark.parametrize("kind", list(TRACES))
    def test_batch_and_timeline_equal_fresh_sessions(self, kind):
        trace = self.TRACES[kind]
        strategies = [make_strategy(n) for n in STRATEGY_NAMES]
        report = run_batch(self.SCRIPTS, [TraceRef("t", "custom", trace)],
                           strategies, CFG, MODEL)
        # a session after the batch computes its finishes afresh
        script, strategy = self.SCRIPTS[0], make_strategy("network")
        timeline = _run(script, trace, strategy, record_timeline=True)
        assert timeline == _run(script, _fresh(trace), strategy,
                                record_timeline=True)
        rows = iter(report.rows)
        statuses = set()
        for strategy in strategies:
            for script in self.SCRIPTS:
                row = next(rows)
                assert _row_repr(row) == _row_fields(
                    script, _fresh(trace), strategy), (strategy.name, script)
                statuses.add(row.status)
        if kind == "starving":
            # a memoised inf still starves the session that meets it
            assert statuses == {"ok", "starved"}

    def test_memo_computes_each_finish_once(self, monkeypatch):
        calls = []

        def counted(trace, start_s, size_kbit):
            calls.append((start_s, size_kbit))
            return download_finish_time(trace, start_s, size_kbit)
        monkeypatch.setattr(engine, "download_finish_time", counted)
        trace = _fresh(self.TRACES["per-second"])
        strategies = [make_strategy(n) for n in STRATEGY_NAMES]
        run_batch(self.SCRIPTS, [TraceRef("t", "custom", trace)], strategies,
                  CFG, MODEL)
        batch_calls = list(calls)
        calls.clear()
        for strategy in strategies:
            for script in self.SCRIPTS:
                run_session(script, _fresh(trace), strategy, CFG, MODEL)
        # the batch computes each distinct (start, size) once; fresh traces
        # compute every download
        assert len(batch_calls) == len(set(batch_calls)) < len(calls)

    def test_switching_traces_replaces_the_memo(self):
        a = self.TRACES["per-second"]
        b = generate_scenario("low", 4, 300)
        script = self.SCRIPTS[2]
        # every strategy on A, then on B, then on A again, in a row
        runs = [(trace, name, _run(script, trace, make_strategy(name), True))
                for trace in (a, b, a) for name in STRATEGY_NAMES]
        for trace, name, result in runs:
            assert result == _run(script, _fresh(trace), make_strategy(name),
                                  True), name

    def test_threads_switching_traces(self):
        # sessions on two traces from more threads than cores, switching
        # often: each session keeps a memo of its own. On these two traces
        # many (start, size) keys occur on both.
        traces = (const_trace(1000), const_trace(1500))
        jobs = [(script, trace, name) for script in self.SCRIPTS
                for trace in traces for name in STRATEGY_NAMES]
        expected = [_run(script, _fresh(trace), make_strategy(name))
                    for script, trace, name in jobs]
        results = []

        def work(n):
            # two threads per quarter of the jobs, three rounds each
            for _ in range(3):
                for i in range(n % 4, len(jobs), 4):
                    script, trace, name = jobs[i]
                    results.append(
                        (i, _run(script, trace, make_strategy(name))))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,))
                       for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 6 * len(jobs)
        for i, result in results:
            assert result == expected[i], jobs[i]

    def test_no_reference_to_the_trace_outlives_the_call(self):
        trace = generate_scenario("medium", 5, 300)
        before = sys.getrefcount(trace)
        run_batch(self.SCRIPTS[:2], [TraceRef("t", "medium", trace)],
                  [make_strategy("dtaap")], CFG, MODEL)
        assert sys.getrefcount(trace) == before
        # a sweep of standalone sessions on one trace keeps nothing either
        for name in STRATEGY_NAMES:
            for script in self.SCRIPTS:
                run_session(script, trace, make_strategy(name), CFG, MODEL)
        assert sys.getrefcount(trace) == before


class TestScripts:
    def test_rejects_bad_swipe_point(self):
        with pytest.raises(ValueError):
            SessionScript("s", videos_of(1, 3), (4,))
        with pytest.raises(ValueError):
            SessionScript("s", videos_of(2, 3), (1,))
        with pytest.raises(ValueError):
            SessionScript("s", (), ())

    def test_sample_swipe_point_maps_percentiles(self):
        rng = random.Random(0)
        traces = [BehaviorTrace("t", "cat", 10, 5)]
        # swiping halfway through maps to halfway of any length
        assert sample_swipe_point(traces, 20, rng) == 10
        assert sample_swipe_point(traces, 1, rng) == 1

    def test_sample_script_deterministic(self):
        behavior = {"cat": [BehaviorTrace(f"t{i}", "cat", 10, i + 1)
                            for i in range(10)]}
        videos = videos_of(4, 8)
        s1 = sample_script("s", videos, behavior, random.Random(3))
        s2 = sample_script("s", videos, behavior, random.Random(3))
        assert s1 == s2
        assert all(1 <= k <= 8 for k in s1.swipe_points)

    def test_sample_script_unknown_category(self):
        with pytest.raises(ValueError):
            sample_script("s", videos_of(1, 4), {"other": []}, random.Random(0))


class TestModelLookup:
    def test_per_category_models(self):
        videos = (VideoSpec("a", "catA", 3, 1.0, LADDER3),
                  VideoSpec("b", "catB", 3, 1.0, LADDER3))
        script = SessionScript("s", videos, (3, 3))
        models = {
            "catA": build_model([BehaviorTrace("x", "catA", 10, 10)], "catA"),
            "catB": build_model([BehaviorTrace("y", "catB", 10, 1)], "catB"),
        }
        res = run_session(script, const_trace(3000), make_strategy("dtaap"),
                          CFG, models)
        assert res.videos[0].watched_chunks == 3

    def test_missing_category_rejected(self):
        script = SessionScript("s", videos_of(1, 3), (3,))
        with pytest.raises(ValueError):
            run_session(script, const_trace(3000), make_strategy("dtaap"),
                        CFG, {"other": MODEL})


class TestVideoResult:
    def _result(self):
        script = SessionScript("s", videos_of(3, 6), (2, 6, 1))
        res = run_session(script, const_trace(3000), make_strategy("nextone"),
                          CFG, MODEL)
        return res.videos[0]

    def test_frozen(self):
        v = self._result()
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.qoe = 0.0

    def test_equal_by_value(self):
        v = self._result()
        again = VideoResult(*(getattr(v, f.name)
                              for f in dataclasses.fields(VideoResult)))
        assert again == v and again is not v
        assert VideoResult(**{f.name: getattr(v, f.name)
                              for f in dataclasses.fields(VideoResult)}) == v
        assert dataclasses.replace(v, qoe=v.qoe + 1.0) != v

    def test_replace_and_cost(self):
        v = self._result()
        # swiped at chunk 2 with more downloaded: the rest is waste
        assert v.watched_chunks == 2 and v.downloaded_chunks > 2
        assert v.waste_kbit > 0
        assert v.cost_kbit == v.watched_kbit + v.waste_kbit
        w = dataclasses.replace(v, waste_kbit=v.waste_kbit + 750)
        assert w.cost_kbit == w.watched_kbit + w.waste_kbit
        assert w.cost_kbit == v.cost_kbit + 750
        assert (w.video_id, w.bitrates, w.rebuffer_s) == (
            v.video_id, v.bitrates, v.rebuffer_s)
        assert w.waste_mbit == w.waste_kbit / 1000.0
        assert w.cost_mbit == w.cost_kbit / 1000.0


class TestChunkSizeTable:
    def test_one_table_per_video(self):
        spec = VideoSpec("a", "cat", 4, 1.5, LADDER3)
        table = spec.chunk_kbit_by_rate
        assert table == {r: chunk_kbit(r, 1.5) for r in LADDER3.levels}
        assert table is spec.chunk_kbit_by_rate
        # a session reads the table but leaves it as it was
        script = SessionScript("s", (spec,), (4,))
        run_session(script, const_trace(3000), make_strategy("dtaap"), CFG,
                    MODEL)
        assert spec.chunk_kbit_by_rate == {750: 1125, 1200: 1800,
                                           1850: 2775}
        # value equality of videos ignores the cached table
        assert spec == VideoSpec("a", "cat", 4, 1.5, LADDER3)


class TestStartupNeed:
    """Playback of the current video waits for min(b0, K) chunks, so a
    strategy that idles below that sleeps on a context that never changes."""

    @staticmethod
    def bounded(strategy, limit=100_000):
        calls = itertools.count(1)

        def decide(ctx):
            if next(calls) > limit:
                raise AssertionError(f"{strategy.name}: no end after {limit} decisions")
            return strategy.decide(ctx)
        return Strategy(strategy.name, decide)

    @pytest.mark.parametrize("b0", [1, 2, 3])
    @pytest.mark.parametrize("name, fixb", [
        *((n, (4, 2)) for n in STRATEGY_NAMES), ("fixb", (1, 1))],
        ids=[*STRATEGY_NAMES, "fixb-1-1"])
    def test_every_strategy_finishes(self, name, fixb, b0):
        behavior = default_behavior(b0)
        models = {cat: build_model(behavior, cat) for cat in ("quick", "drama")}
        by_category = {cat: [tr for tr in behavior if tr.category == cat]
                       for cat in models}
        catalog = default_catalog(b0)
        rng = random.Random(f"startup:{b0}")
        config = SessionConfig(b0_startup_chunks=b0)
        for i in range(8):
            videos = [rng.choice(catalog) for _ in range(6)]
            script = sample_script(f"s{i}", videos, by_category, rng)
            for kind in ("high", "medium", "low", "mixed"):
                trace = generate_scenario(kind, i, 300)
                res = run_session(script, trace,
                                  self.bounded(make_strategy(name, *fixb)),
                                  config, models)
                assert [v.watched_chunks for v in res.videos] == list(
                    script.swipe_points)
