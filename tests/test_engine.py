import dataclasses
import itertools
import math
import random

import pytest
from _oracle import brute_force_session, canonical

from swipesim.core import BitrateLadder, ChunkRef, SessionConfig, VideoSpec
from swipesim.engine import (
    SessionScript,
    SimulationError,
    StarvationError,
    TraceRef,
    run_batch,
    run_session,
    sample_script,
    sample_swipe_point,
)
from swipesim.retention import build_model
from swipesim.strategy import (
    STRATEGY_NAMES,
    Download,
    Sleep,
    Strategy,
    make_strategy,
)
from swipesim.trace_io import BehaviorTrace, ThroughputTrace, generate_scenario

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
        checked = 0
        for n_videos, chunk_count, ladder in itertools.product(
                (1, 2, 3), (1, 2, 4), (LADDER1, LADDER2)):
            videos = videos_of(n_videos, chunk_count, ladder)
            for bw in (600.0, 2000.0):
                for name in ("dtaap", "fixb", "nextone"):
                    for swipes in itertools.product(
                            range(1, chunk_count + 1), repeat=n_videos):
                        script = SessionScript("s", videos, swipes)
                        res = run_session(script, const_trace(bw),
                                          make_strategy(name), CFG, MODEL,
                                          record_timeline=True)
                        events, rebuffer, downloaded, end_t = brute_force_session(
                            script, bw, make_strategy(name), CFG, MODEL)
                        assert canonical(res.timeline) == canonical(events)
                        assert end_t == res.wall_time_s
                        for i, v in enumerate(res.videos):
                            assert list(v.bitrates) == downloaded[i]
                            for k in range(1, v.watched_chunks + 1):
                                assert v.rebuffer_s[k - 1] == rebuffer.get((i, k), 0.0)
                        checked += 1
        assert checked > 500


def _fill_then(action):
    """Download the on-screen video in order at its lowest rung; once it is
    complete, return ``action``."""
    def decide(ctx):
        cur = ctx.players[0]
        if cur.downloaded < cur.spec.chunk_count:
            return Download(ChunkRef(cur.video_index, cur.downloaded + 1,
                                     cur.spec.ladder.lowest))
        return action
    return decide


def _after_first_swipe(action):
    """Play the on-screen video in order at its lowest rung; once the first
    swipe has moved the window past video 0, return ``action``."""
    fill = _fill_then(Sleep(0.5))

    def decide(ctx):
        return action if ctx.players[0].video_index > 0 else fill(ctx)
    return decide


class TestStrategyBoundary:
    """The engine rejects every malformed action a strategy can return."""

    SCRIPT = SessionScript("s", videos_of(7, 2), (2,) * 7)

    @pytest.mark.parametrize("decide, message", [
        (lambda ctx: Download(ChunkRef(5, 1, 750)),
         "video 5 outside the window"),
        (_after_first_swipe(Download(ChunkRef(0, 1, 750))),
         "video 0 outside the window"),
        (_fill_then(Download(ChunkRef(0, 3, 750))), "completed video 0"),
        (lambda ctx: Download(ChunkRef(0, 2, 750)),
         "requested chunk 2 of video 0, next needed is 1"),
        (lambda ctx: Download(ChunkRef(0, 1, 999)),
         "off-ladder bitrate 999"),
        (lambda ctx: Download(ChunkRef(0, 1, [750])),
         r"off-ladder bitrate \[750\]"),
        (lambda ctx: Sleep(0.0), "invalid strategy action"),
        (lambda ctx: Sleep(-0.5), "invalid strategy action"),
        (lambda ctx: None, "invalid strategy action None"),
        (lambda ctx: "sleep", "invalid strategy action 'sleep'"),
    ], ids=["outside-window", "departed-video", "completed-video",
            "chunk-order", "off-ladder", "unhashable-bitrate", "zero-sleep",
            "negative-sleep", "none", "string"])
    def test_rogue_action_raises(self, decide, message):
        with pytest.raises(SimulationError, match=message):
            run_session(self.SCRIPT, const_trace(2000),
                        Strategy("rogue", decide), CFG, MODEL)

    def test_rogue_filler_is_otherwise_valid(self):
        # the completed-video case fails on its own request, not before it
        res = run_session(self.SCRIPT, const_trace(2000),
                          Strategy("rogue", _fill_then(Sleep(0.5))), CFG, MODEL)
        assert all(v.downloaded_chunks == 2 for v in res.videos)


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
