"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The comparison matrix (criterion 6) runs 4 scenarios x 5 strategies x
50 scripts x 20 traces at a fixed seed, mirroring the CLI defaults, so
``swipesim compare --seed 11`` reproduces the numbers offline.
"""
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from _oracle import brute_force_session, canonical, cost_video, waste_video
from helpers import make_ctx, make_view

from swipesim import metrics
from swipesim.cli import default_behavior, default_catalog, main as cli_main
from swipesim.core import BitrateLadder, SessionConfig, VideoSpec
from swipesim.engine import (
    SessionScript,
    TraceRef,
    run_batch,
    run_session,
    sample_script,
)
from swipesim.retention import build_model, derive_thresholds, swipe_probability
from swipesim.strategy import (
    buffer_threshold_current,
    buffer_threshold_next,
    dtaap_bitrate,
    dtaap_decide,
    fixb_decide,
    make_strategy,
    networkbased_decide,
    nextone_decide,
    pdas_lite_decide,
    Download,
    Sleep,
)
from swipesim.throughput import (
    Regime,
    ThroughputHistory,
    classify_regime,
    min_smooth_throughput,
)
from swipesim.trace_io import (
    SCENARIO_BANDS,
    BehaviorTrace,
    ThroughputTrace,
    download_finish_time,
    generate_scenario,
    parse_behavior_traces,
    parse_throughput_trace,
)

SEED = 11
SCENARIOS = ("high", "medium", "low", "mixed")
STRATEGY_NAMES = ("dtaap", "fixb", "nextone", "network", "pdas_lite")
N_SCRIPTS = 50
N_TRACES = 20
TRACE_DURATION_S = 300.0
VIDEOS_PER_SCRIPT = 8

LADDER3 = BitrateLadder((750, 1200, 1850))


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status}{' - ' if detail else ''}{detail}")


@pytest.fixture(scope="module")
def world():
    behavior = default_behavior(SEED)
    by_cat = {}
    for tr in behavior:
        by_cat.setdefault(tr.category, []).append(tr)
    models = {cat: build_model(traces, cat) for cat, traces in by_cat.items()}
    catalog = default_catalog(SEED)
    rng = random.Random(f"scripts:{SEED}")
    scripts = []
    for i in range(N_SCRIPTS):
        videos = [catalog[rng.randrange(len(catalog))]
                  for _ in range(VIDEOS_PER_SCRIPT)]
        scripts.append(sample_script(f"s{i:03d}", videos, by_cat, rng))
    traces = []
    for kind in SCENARIOS:
        for i in range(N_TRACES):
            traces.append(TraceRef(
                trace_id=f"{kind}_s{SEED + i}", scenario=kind,
                trace=generate_scenario(kind, SEED + i, TRACE_DURATION_S)))
    return {"models": models, "scripts": scripts, "traces": traces,
            "behavior_by_cat": by_cat, "catalog": catalog}


@pytest.fixture(scope="module")
def matrix(world):
    config = SessionConfig()
    strategies = [make_strategy(n) for n in STRATEGY_NAMES]
    start = time.perf_counter()
    report = run_batch(world["scripts"], world["traces"], strategies, config,
                       world["models"], seed=SEED)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_conservation(world):
    """Cost partitions exactly into watched plus waste, in integer kilobits."""
    rng = random.Random("conservation")
    models = world["models"]
    by_cat = world["behavior_by_cat"]
    start = time.perf_counter()
    sessions = 0
    while sessions < 1000:
        for name in STRATEGY_NAMES:
            for kind in SCENARIOS:
                n = rng.randint(1, 6)
                videos = tuple(
                    VideoSpec(f"v{i}", rng.choice(("quick", "drama")),
                              rng.randint(1, 20), 1.0, LADDER3)
                    for i in range(n))
                script = sample_script("s", videos, by_cat, rng)
                trace = generate_scenario(kind, rng.randrange(10_000), 240)
                res = run_session(script, trace, make_strategy(name),
                                  SessionConfig(), models)
                for v in res.videos:
                    assert isinstance(v.cost_kbit, int)
                    assert isinstance(v.watched_kbit, int)
                    assert isinstance(v.waste_kbit, int)
                    assert v.cost_kbit == v.watched_kbit + v.waste_kbit
                    assert v.watched_chunks <= v.downloaded_chunks <= v.chunk_count
                sessions += 1
    elapsed = time.perf_counter() - start
    _report(1, True, f"{sessions} sessions, exact kilobit conservation, "
                     f"{elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_2_retention_model(world):
    """Mass sums to one; same-length sets reconstruct the swipe histogram."""
    rng = random.Random("retention")
    for x in (10, 500, 10_000):
        traces = []
        for i in range(x):
            total = rng.randint(1, 200)
            traces.append(BehaviorTrace(f"t{i}", "c", total,
                                        rng.randint(1, total)))
        model = build_model(traces, "c")
        assert abs(sum(model.mass) - 1.0) <= 1e-9
    for total, x in ((7, 10_000), (23, 10_000), (64, 5_000), (100, 2_000)):
        swipes = [rng.randint(1, total) for _ in range(x)]
        model = build_model(
            [BehaviorTrace(f"t{i}", "c", total, k) for i, k in enumerate(swipes)],
            "c")
        bound = 1.0 / (2 * x)
        for k in range(1, total + 1):
            empirical = swipes.count(k) / x
            assert abs(swipe_probability(model, k, total) - empirical) <= bound + 1e-12
    _report(2, True, "sum-to-one at X<=1e4 and 1/(2X) reconstruction")


def test_criterion_3_closed_form_examples():
    """Worked examples of the scoring, prediction, retention, and decision
    formulas, plus the trace tooling rows."""
    w = metrics.QoEWeights(1.0, 1.0, 1.85)
    assert metrics.quality(750) == 0.75
    assert metrics.quality(1850) == 1.85
    assert metrics.quality(1000) == 1.0
    assert metrics.qoe_video([1200, 1200], [0.0, 0.0], w) == pytest.approx(2.4)
    assert metrics.qoe_video([750, 1850], [0.0, 0.0], w) == pytest.approx(1.5)
    assert metrics.qoe_video([], [], w) == 0.0
    assert cost_video([750] * 3, 1.0) == pytest.approx(2.25)
    assert cost_video([], 1.0) == 0.0
    assert cost_video([1850], 1.0) == pytest.approx(1.85)
    assert waste_video([750] * 5, 3, 1.0) == pytest.approx(1.5)
    assert waste_video([750] * 5, 5, 1.0) == 0.0
    assert waste_video([1200, 1200], 0, 1.0) == pytest.approx(2.4)
    assert metrics.utility([2.4, 1.5], [2.25, 3.0], 0.5) == pytest.approx(1.275)
    assert metrics.utility([2.4, 1.5], [1.0, 1.0], 0.0) == pytest.approx(3.9)
    assert metrics.utility([], [], 0.5) == 0.0

    h = ThroughputHistory()
    h.record_download(1000, 0.5)
    assert h.last_sample_kbps == 2000.0
    h2 = ThroughputHistory()
    h2.record_download(3000, 1.0)
    h2.record_download(1000, 1.0)
    assert h2.predict(0.5, 0.5) == 1500.0
    h3 = ThroughputHistory()
    h3.record_download(1850, 1.0)
    assert h3.predict(0.5, 0.5) == 1850.0
    assert h2.predict(1.0, 0.0) == h2.window_mean()
    # the uniform-ladder special case: the bound is twice the lowest rung
    assert min_smooth_throughput(750, [750], 1) == 1500
    assert min_smooth_throughput(1850, [750], 1) == 2600
    assert min_smooth_throughput(750, [750, 750], 2) == 2250
    assert classify_regime(3000, 750, 2600) is Regime.AMPLE
    assert classify_regime(700, 750, 2600) is Regime.STARVED
    assert classify_regime(2600, 750, 2600) is Regime.AMPLE

    model = build_model([BehaviorTrace("t1", "c", 10, 5),
                         BehaviorTrace("t2", "c", 10, 10)], "c")
    for j in range(1, 101):
        expected = 0.05 if 41 <= j <= 50 or 91 <= j <= 100 else 0.0
        assert model.mass[j - 1] == pytest.approx(expected, abs=1e-12)
    uniform = build_model([BehaviorTrace("t", "c", 1, 1)], "c")
    assert all(m == pytest.approx(0.01) for m in uniform.mass)
    assert swipe_probability(model, 5, 10) == pytest.approx(0.5)
    assert swipe_probability(model, 3, 10) == pytest.approx(0.0)
    assert swipe_probability(uniform, 1, 1) == pytest.approx(1.0)
    th = derive_thresholds(model, 10, 0.3, 0.1)
    assert (th.k_min, th.k_early, th.k_long) == (5, 5, 6)
    late = build_model([BehaviorTrace("t", "c", 10, 10)], "c")
    th_late = derive_thresholds(late, 10, 0.3, 0.1)
    assert (th_late.k_min, th_late.k_early, th_late.k_long) == (10, 10, 1)
    th_one = derive_thresholds(model, 1, 0.3, 0.1)
    assert (th_one.k_min, th_one.k_early, th_one.k_long) == (1, 1, 1)

    # current-video depth target, one row per branch
    ctx = make_ctx(c_pred=2600.0, c_min=2600.0)
    ctx.players[0] = make_view(0, k_long=8, chunk_count=10)
    assert buffer_threshold_current(ctx) == 2
    ctx = make_ctx(c_pred=2000.0, c_min=2600.0, r_last=750)
    ctx.players[0] = make_view(0, k_long=8, k_early=2,
                               chunk_count=10)
    assert buffer_threshold_current(ctx) == 2
    ctx = make_ctx(c_pred=700.0, c_min=2600.0, r_last=750)
    ctx.players[0] = make_view(0, k_long=8, k_early=2,
                               chunk_count=10)
    assert buffer_threshold_current(ctx) == 3
    # recommended-video depth target, one row per branch
    ctx = make_ctx(c_ave=2600.0, c_min=2600.0)
    ctx.players[1] = make_view(1, k_min=2)
    assert buffer_threshold_next(ctx) == 3
    ctx = make_ctx(c_ave=2000.0, c_min=2600.0, r_last=750)
    ctx.players[1] = make_view(1, k_min=2, k_early=2)
    assert buffer_threshold_next(ctx) == 4
    ctx = make_ctx(c_ave=700.0, c_min=2600.0, r_last=750)
    ctx.players[1] = make_view(1, k_min=2, k_early=8)
    assert buffer_threshold_next(ctx) == 4

    # a Download names the player; the engine fetches its next chunk
    ctx = make_ctx(downloaded=3, buffered=1)
    action = dtaap_decide(ctx)
    assert isinstance(action, Download)
    assert (action.video_index, ctx.players[0].downloaded + 1) == (0, 4)
    ctx = make_ctx(c_ave=2000.0, c_min=1500.0, downloaded=5, buffered=5)
    action = dtaap_decide(ctx)
    assert (action.video_index, ctx.players[1].downloaded + 1) == (1, 1)
    players = [make_view(0, downloaded=10)]
    players += [make_view(j, downloaded=5, k_min=2) for j in range(1, 5)]
    cfg = SessionConfig()
    assert dtaap_decide(make_ctx(players=players, buffered=10,
                                 config=cfg)) == Sleep()

    ctx = make_ctx(c_pred=1000.0, r_last=1850, rebuffer_flag=True,
                   downloaded=1, buffered=0)
    assert dtaap_bitrate(ctx, 0) == 750
    players = [make_view(0, downloaded=4)]
    players += [make_view(j, downloaded=1) for j in range(1, 5)]
    ctx = make_ctx(players=players, buffered=3, c_pred=1850.0, c_ave=2600.0,
                   c_min=1500.0, r_last=1200)
    assert dtaap_bitrate(ctx, 0) == 1850
    players = [make_view(0, downloaded=3)]
    players += [make_view(j, downloaded=1) for j in range(1, 5)]
    ctx = make_ctx(players=players, buffered=2, c_ave=1300.0)
    assert dtaap_bitrate(ctx, 1) == 1200

    ctx = make_ctx(downloaded=2, buffered=2)
    assert fixb_decide(ctx, 4, 2).video_index == 0
    players = [make_view(0, downloaded=4)]
    players += [make_view(j, downloaded=2) for j in range(1, 5)]
    assert isinstance(fixb_decide(make_ctx(players=players, buffered=4), 4, 2),
                      Sleep)
    ctx = make_ctx(c_ave=600.0)
    ctx.players[0] = make_view(0)
    assert fixb_decide(ctx, 4, 2).bitrate_kbps == 750

    ctx = make_ctx(downloaded=9, buffered=9, chunk_count=10)
    assert nextone_decide(ctx).video_index == 0
    assert ctx.players[0].downloaded + 1 == 10
    players = [make_view(0, downloaded=10, chunk_count=10)]
    players += [make_view(j, downloaded=0, chunk_count=8) for j in range(1, 5)]
    action = nextone_decide(make_ctx(players=players))
    assert (action.video_index, players[1].downloaded + 1) == (1, 1)
    players = [make_view(0, downloaded=10, chunk_count=10)]
    players += [make_view(j, downloaded=8, chunk_count=8) for j in range(1, 5)]
    assert isinstance(nextone_decide(make_ctx(players=players)), Sleep)

    players = [make_view(0, downloaded=2),
               make_view(1, downloaded=0), make_view(2, downloaded=1),
               make_view(3, downloaded=1), make_view(4, downloaded=1)]
    ctx = make_ctx(players=players, buffered=2, c_pred=3000.0, c_min=2600.0)
    assert networkbased_decide(ctx).video_index == 1
    ctx = make_ctx(c_pred=700.0, c_min=2600.0, downloaded=2, buffered=2)
    assert networkbased_decide(ctx).video_index == 0
    players = [make_view(0, downloaded=4)]
    players += [make_view(j, downloaded=2) for j in range(1, 5)]
    ctx = make_ctx(players=players, buffered=4, c_pred=1500.0, c_min=2600.0)
    assert isinstance(networkbased_decide(ctx), Sleep)

    retention = [0.9, 0.8, 0.7, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05, 0.0]
    cdf = tuple(1.0 - r for r in retention)
    players = [make_view(0, downloaded=3, swipe_cdf=cdf)]
    players += [make_view(j, downloaded=9, swipe_cdf=cdf) for j in range(1, 5)]
    action = pdas_lite_decide(make_ctx(players=players, buffered=3))
    assert (action.video_index, players[0].downloaded + 1) == (0, 4)
    no_early = (0.0,) * 9 + (1.0,)
    players = [make_view(0, downloaded=0, swipe_cdf=no_early)]
    players += [make_view(j, downloaded=9) for j in range(1, 5)]
    action = pdas_lite_decide(make_ctx(players=players, buffered=0, c_ave=1300.0))
    assert action.bitrate_kbps == 1200
    players = [make_view(0, downloaded=1, chunk_count=1, swipe_cdf=(1.0,))]
    players += [make_view(j, downloaded=0, chunk_count=1, swipe_cdf=(1.0,))
                for j in range(1, 5)]
    action = pdas_lite_decide(make_ctx(players=players, buffered=1))
    assert (action.video_index, players[1].downloaded + 1) == (1, 1)

    trace = parse_throughput_trace("0,2000\n1,1500")
    assert trace.samples == ((0.0, 2000.0), (1.0, 1500.0))
    assert parse_throughput_trace("0,0").bandwidth_at(50) == 0.0
    with pytest.raises(ValueError):
        parse_throughput_trace("1,2000")
    rows = parse_behavior_traces("t1,cat_a,10,5")
    assert (rows[0].total_chunks, rows[0].swipe_chunk) == (10, 5)
    assert parse_behavior_traces("t2,cat_a,10,10")[0].swipe_chunk == 10
    with pytest.raises(ValueError):
        parse_behavior_traces("t3,cat_a,10,11")

    assert generate_scenario("high", 7, 10).samples == generate_scenario("high", 7, 10).samples
    low = generate_scenario("low", 3, 100)
    assert all(300 <= bw <= 1000 for _, bw in low.samples)
    hits = 0
    for seed in range(100):
        bands = set()
        for _, bw in generate_scenario("mixed", seed, 300).samples:
            for kind, (lo, hi) in SCENARIO_BANDS.items():
                if lo <= bw <= hi:
                    bands.add(kind)
        hits += bands >= {"high", "medium", "low"}
    assert hits >= 95

    flat = ThroughputTrace(((0.0, 2000.0),))
    assert download_finish_time(flat, 0.0, 1000) == 0.5
    steps = ThroughputTrace(((0.0, 1000.0), (1.0, 3000.0)))
    assert download_finish_time(steps, 0.0, 2500) == 1.5
    assert download_finish_time(flat, 3.25, 0) == 3.25
    _report(3, True, "all worked-example rows")


def test_criterion_4_oracle_equivalence():
    """Engine timelines equal an independent chronological enumeration."""
    model = build_model([BehaviorTrace("t1", "cat", 10, 5),
                         BehaviorTrace("t2", "cat", 10, 10)], "cat")
    cfg = SessionConfig()
    ladders = (BitrateLadder((750,)), BitrateLadder((750, 1850)))
    checked = 0
    for n_videos, chunk_count, ladder in itertools.product(
            (1, 2, 3), (1, 2, 4), ladders):
        videos = tuple(VideoSpec(f"v{i}", "cat", chunk_count, 1.0, ladder)
                       for i in range(n_videos))
        for bw in (600.0, 2000.0):
            trace = ThroughputTrace(((0.0, bw),))
            for name in ("dtaap", "fixb", "nextone"):
                for swipes in itertools.product(
                        range(1, chunk_count + 1), repeat=n_videos):
                    script = SessionScript("s", videos, swipes)
                    res = run_session(script, trace, make_strategy(name),
                                      cfg, model, record_timeline=True)
                    events, rebuffer, downloaded, end_t = brute_force_session(
                        script, bw, make_strategy(name), cfg, model)
                    assert canonical(res.timeline) == canonical(events)
                    assert end_t == res.wall_time_s
                    for i, v in enumerate(res.videos):
                        assert list(v.bitrates) == downloaded[i]
                        for k in range(1, v.watched_chunks + 1):
                            assert v.rebuffer_s[k - 1] == rebuffer.get((i, k), 0.0)
                    checked += 1
    _report(4, True, f"{checked} exhaustive timelines identical")


def test_criterion_5_determinism(tmp_path):
    """Identical manifest and seed produce byte-identical reports."""
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["compare", "--strategy", "dtaap,fixb",
                       "--scenario", "high,low", "--seed", "17",
                       "--n-scripts", "4", "--n-traces", "2",
                       "--duration", "120", "--out", str(out)])
        assert rc == 0
        outs.append(out)
    for fname in ("sessions.csv", "aggregates.csv", "report.json",
                  "scripts.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    _report(5, True, "byte-identical reruns")


def _means(report, strategy, scenario):
    agg = next(a for a in report.aggregates
               if a.strategy == strategy and a.scenario == scenario)
    return agg


def test_criterion_6a_utility_monotone_in_bandwidth(matrix):
    report, elapsed = matrix
    violations = []
    for name in STRATEGY_NAMES:
        u = {scen: _means(report, name, scen).mean_utility
             for scen in ("high", "medium", "low")}
        if not u["high"] >= u["medium"] >= u["low"]:
            violations.append(f"{name}: {u}")
    _report("6a", not violations,
            f"utility non-increasing high->medium->low; matrix {elapsed:.1f}s")
    assert elapsed < 60.0
    assert not violations, violations


def _replication_means(report, strategy):
    """Mean waste per trace-seed replication, pooled over scenarios/scripts."""
    sums = {}
    counts = {}
    for row in report.rows:
        if row.strategy != strategy or row.status != "ok":
            continue
        rep = row.trace_id.rsplit("_s", 1)[1]
        sums[rep] = sums.get(rep, 0.0) + row.waste_mbit
        counts[rep] = counts.get(rep, 0) + 1
    return {rep: sums[rep] / counts[rep] for rep in sums}


def test_criterion_6b_waste_dominance(matrix):
    report, _ = matrix
    dtaap = _replication_means(report, "dtaap")
    nextone = _replication_means(report, "nextone")
    fixb = _replication_means(report, "fixb")
    reps = sorted(dtaap)
    vs_nextone = sum(dtaap[r] <= nextone[r] for r in reps) / len(reps)
    vs_fixb = sum(dtaap[r] <= fixb[r] for r in reps) / len(reps)
    ok = vs_nextone >= 0.95 and vs_fixb >= 0.80
    _report("6b", ok, f"waste <= nextone in {vs_nextone:.0%} of replications, "
                      f"<= fixb in {vs_fixb:.0%}")
    assert vs_nextone >= 0.95
    assert vs_fixb >= 0.80


def test_criterion_6c_utility_sign_pattern(matrix):
    report, _ = matrix
    failures = []
    for scen in ("medium", "low", "mixed"):
        d = _means(report, "dtaap", scen).mean_utility
        for rival in ("nextone", "network"):
            r = _means(report, rival, scen).mean_utility
            ok = d >= r
            print(f"  6c {scen:6s} dtaap {d:9.3f} vs {rival:8s} {r:9.3f}: "
                  f"{'PASS' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{scen}: dtaap {d:.3f} < {rival} {r:.3f}")
    _report("6c", not failures, "utility >= nextone and >= network-based "
                                "on medium/low/mixed")
    assert not failures, failures


def test_criterion_7_worst_case_rebuffer_free():
    """Continuous chunk-1 swiping incurs zero rebuffering whenever the
    constant channel covers the smooth-playback bound."""
    videos = tuple(VideoSpec(f"v{i}", "cat", 8, 1.0, LADDER3)
                   for i in range(12))
    script = SessionScript("s", videos, tuple(1 for _ in videos))
    model = build_model(
        [BehaviorTrace(f"t{i}", "cat", 8, 1) for i in range(20)], "cat")
    cfg = SessionConfig()
    assert cfg.b0_startup_chunks == 1
    c_min = min_smooth_throughput(LADDER3.lowest, [LADDER3.lowest], 1)
    assert c_min == 1500
    stalls = {}
    for c in (1500.0, 1600.0, 2000.0, 2400.0, 3000.0, 6000.0):
        assert c >= c_min
        res = run_session(script, ThroughputTrace(((0.0, c),)),
                          make_strategy("dtaap"), cfg, model)
        stalls[c] = res.rebuffer_total_s
    ok = all(s == 0.0 for s in stalls.values())
    _report(7, ok, f"zero rebuffer at C in {sorted(stalls)}")
    assert all(s == 0.0 for s in stalls.values()), stalls
