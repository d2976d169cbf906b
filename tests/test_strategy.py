import copy
import dataclasses
import pickle
import random
import zlib

import pytest
from helpers import LADDER3, make_ctx, make_view

from swipesim.core import SessionConfig
from swipesim.retention import build_model, swipe_cdf
from swipesim.strategy import (
    Download,
    Sleep,
    _SLEEP,
    _starved,
    buffer_threshold_current,
    buffer_threshold_next,
    dtaap_bitrate,
    dtaap_decide,
    fixb_decide,
    make_strategy,
    networkbased_decide,
    nextone_decide,
    pdas_lite_decide,
    pdas_retention_cap,
)
from swipesim.trace_io import BehaviorTrace


class TestBufferThresholdCurrent:
    def test_ample_branch(self):
        ctx = make_ctx(c_pred=2600.0, c_min=2600.0)
        ctx.players[0] = make_view(0, k_long=8, chunk_count=10)
        assert buffer_threshold_current(ctx) == 2

    def test_middle_branch(self):
        ctx = make_ctx(c_pred=2000.0, c_min=2600.0, r_last=750)
        ctx.players[0] = make_view(0, k_long=8, k_early=2,
                                   chunk_count=10)
        assert buffer_threshold_current(ctx) == 2

    def test_low_branch(self):
        ctx = make_ctx(c_pred=700.0, c_min=2600.0, r_last=750)
        ctx.players[0] = make_view(0, k_long=8, k_early=2,
                                   chunk_count=10)
        assert buffer_threshold_current(ctx) == 3

    def test_branch_exclusivity(self):
        rng = random.Random(41)
        for _ in range(300):
            c_pred = rng.uniform(100, 4000)
            r_last = rng.choice((750, 1200, 1850))
            c_min = rng.uniform(800, 3000)
            conds = [c_pred >= c_min,
                     r_last < c_pred <= c_min,
                     c_pred <= r_last and c_pred < c_min]
            # exactly one region claims any point except the shared boundary
            # between the lower two, which the piecewise order resolves
            assert 1 <= sum(conds) <= 2

    def test_branch_monotonicity(self):
        base = dict(k_long=8, k_early=2, chunk_count=10)
        b1 = make_ctx(c_pred=3000.0, c_min=1500.0, r_last=750)
        b2 = make_ctx(c_pred=1200.0, c_min=1500.0, r_last=750)
        b3 = make_ctx(c_pred=700.0, c_min=1500.0, r_last=750)
        for ctx in (b1, b2, b3):
            ctx.players[0] = make_view(0, **base)
        t1 = buffer_threshold_current(b1)
        t2 = buffer_threshold_current(b2)
        t3 = buffer_threshold_current(b3)
        assert t3 >= t2 >= t1 - 1


class TestBufferThresholdNext:
    def test_ample_branch(self):
        ctx = make_ctx(c_ave=2600.0, c_min=2600.0)
        ctx.players[1] = make_view(1, k_min=2)
        assert buffer_threshold_next(ctx) == 3

    def test_middle_branch(self):
        ctx = make_ctx(c_ave=2000.0, c_min=2600.0, r_last=750)
        ctx.players[1] = make_view(1, k_min=2, k_early=2)
        assert buffer_threshold_next(ctx) == 4

    def test_low_branch(self):
        ctx = make_ctx(c_ave=700.0, c_min=2600.0, r_last=750)
        ctx.players[1] = make_view(1, k_min=2, k_early=8)
        assert buffer_threshold_next(ctx) == 4


class TestDtaapDecide:
    def test_fills_current_first(self):
        ctx = make_ctx(downloaded=3, buffered=1)
        action = dtaap_decide(ctx)
        assert isinstance(action, Download)
        assert action.video_index == 0
        assert ctx.players[0].downloaded + 1 == 4

    def test_moves_to_recommended_when_current_at_threshold(self):
        ctx = make_ctx(c_ave=2000.0, c_min=1500.0, downloaded=5, buffered=5)
        action = dtaap_decide(ctx)
        assert isinstance(action, Download)
        assert action.video_index == 1
        assert ctx.players[1].downloaded + 1 == 1

    def test_sleeps_when_everyone_at_threshold(self):
        cfg = SessionConfig()
        players = [make_view(0, downloaded=10)]
        for j in range(1, 5):
            players.append(make_view(j, downloaded=5, k_min=2))
        ctx = make_ctx(players=players, buffered=10, c_ave=2000.0, c_min=1500.0,
                       config=cfg)
        action = dtaap_decide(ctx)
        assert action == Sleep()

    def test_starved_priority_order(self):
        # both estimates below STARVED_EXIT_MARGIN * 750: playhead cushion,
        # then the current video's startup chunks, then min(b0, K) of each
        # recommended player, then the whole window in order, then sleep
        players = [make_view(0, downloaded=2), make_view(1, downloaded=4),
                   make_view(2, chunk_count=2), make_view(3, downloaded=1),
                   make_view(4, downloaded=4)]
        ctx = make_ctx(players=players, c_pred=1000.0, c_ave=1000.0,
                       config=SessionConfig(b0_startup_chunks=4))
        assert _starved(ctx)
        issued = []
        while isinstance(action := dtaap_decide(ctx), Download):
            assert action.bitrate_kbps in LADDER3
            issued.append((action.video_index, action.threshold))
            players[action.video_index].downloaded += 1
            if action.video_index == 0:
                ctx.buffered += 1
                ctx.lead += 1.0
        assert action == Sleep()
        assert all(p.complete for p in players)
        assert issued == ([(0, 3), (0, 4), (2, 2), (2, 2)] + [(3, 4)] * 3
                          + [(0, 10)] * 6 + [(1, 10)] * 6 + [(3, 10)] * 6
                          + [(4, 10)] * 6)


class TestDtaapBitrate:
    def test_rebuffer_drops_to_prediction(self):
        ctx = make_ctx(c_pred=1000.0, r_last=1850, rebuffer_flag=True,
                       downloaded=1, buffered=0)
        assert dtaap_bitrate(ctx, 0) == 750

    def test_rebuffer_forces_below_last(self):
        ctx = make_ctx(c_pred=5000.0, r_last=1200, rebuffer_flag=True,
                       downloaded=1, buffered=0)
        assert dtaap_bitrate(ctx, 0) == 750

    def test_step_up_with_comfortable_buffer(self):
        # buffer of 3 clears 0.8 * threshold and the higher rung fits c_pred
        players = [make_view(0, downloaded=4)]
        players += [make_view(j, downloaded=1) for j in range(1, 5)]
        ctx = make_ctx(players=players, buffered=3, c_pred=1850.0, c_ave=2600.0,
                       c_min=1500.0, r_last=1200)
        assert dtaap_bitrate(ctx, 0) == 1850

    def test_step_up_skipped_when_level_exceeds_prediction(self):
        players = [make_view(0, downloaded=3)]
        players += [make_view(j, downloaded=1) for j in range(1, 5)]
        ctx = make_ctx(players=players, buffered=2, lead=1.9, c_pred=1000.0,
                       c_min=1500.0, r_last=750)
        assert dtaap_bitrate(ctx, 0) == 750

    def test_step_down_when_starved(self):
        ctx = make_ctx(c_pred=800.0, c_min=1500.0, r_last=1200,
                       downloaded=1, buffered=0)
        assert dtaap_bitrate(ctx, 0) == 750

    def test_holds_otherwise(self):
        # lead too thin to step up, prediction too good to step down
        ctx = make_ctx(c_pred=1850.0, c_min=1500.0, r_last=1200,
                       downloaded=1, buffered=1, lead=0.5)
        assert dtaap_bitrate(ctx, 0) == 1200

    def test_recommended_matches_average(self):
        # startup chunks of every window player already present
        players = [make_view(0, downloaded=3)]
        players += [make_view(j, downloaded=1) for j in range(1, 5)]
        ctx = make_ctx(players=players, buffered=2, c_ave=1300.0)
        assert dtaap_bitrate(ctx, 1) == 1200

    @staticmethod
    def early_swiper_cdf(chunk_count=10):
        # majority hazard at playhead chunk 2 keeps the transition reserves
        # engaged for a current player with downloaded=3, buffered=2
        return (0.0,) + (0.6,) * (chunk_count - 2) + (1.0,)

    def test_recommended_startup_matches_remainder(self):
        def ctx_with_current_rate(rate, c_ave):
            players = [make_view(0, downloaded=3,
                                 swipe_cdf=self.early_swiper_cdf())]
            players[0].last_bitrate = rate
            players += [make_view(j, downloaded=0) for j in range(1, 5)]
            return make_ctx(players=players, buffered=2, c_ave=c_ave)

        # plenty of headroom after the current video's demand
        assert dtaap_bitrate(ctx_with_current_rate(750, 6000.0), 1) == 1850
        # tight: whatever the current video leaves over fits only the floor
        assert dtaap_bitrate(ctx_with_current_rate(750, 1500.0), 1) == 750
        assert dtaap_bitrate(ctx_with_current_rate(1850, 2500.0), 1) == 750

    def test_startup_ignores_current_demand_for_committed_viewer(self):
        # no early swipe mass: the viewer will stay, match the average
        players = [make_view(0, downloaded=3)]
        players[0].last_bitrate = 1850
        players += [make_view(j, downloaded=0) for j in range(1, 5)]
        ctx = make_ctx(players=players, buffered=2, c_ave=2000.0)
        assert dtaap_bitrate(ctx, 1) == 1850

    def test_recommended_reserves_pending_startups(self):
        # player 1 past startup, player 2 still empty: hold back its share
        players = [make_view(0, downloaded=3,
                             swipe_cdf=self.early_swiper_cdf()),
                   make_view(1, downloaded=1), make_view(2, downloaded=0),
                   make_view(3, downloaded=1), make_view(4, downloaded=1)]
        ctx = make_ctx(players=players, buffered=2, c_ave=1600.0)
        assert dtaap_bitrate(ctx, 1) == 750
        ctx2 = make_ctx(players=list(players), buffered=2, c_ave=3000.0)
        assert dtaap_bitrate(ctx2, 1) == 1850


class TestFixB:
    def test_downloads_current_below_threshold(self):
        ctx = make_ctx(downloaded=2, buffered=2)
        action = fixb_decide(ctx, 4, 2)
        assert isinstance(action, Download)
        assert action.video_index == 0

    def test_sleeps_at_thresholds(self):
        players = [make_view(0, downloaded=4)]
        players += [make_view(j, downloaded=2) for j in range(1, 5)]
        ctx = make_ctx(players=players, buffered=4)
        assert isinstance(fixb_decide(ctx, 4, 2), Sleep)

    def test_low_average_picks_lowest_rung(self):
        ctx = make_ctx(c_ave=600.0, downloaded=0, buffered=0)
        action = fixb_decide(ctx, 4, 2)
        assert action.bitrate_kbps == 750

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            make_strategy("fixb", 0, 2)


class TestNextOne:
    def test_finishes_current_first(self):
        ctx = make_ctx(downloaded=9, buffered=9, chunk_count=10)
        action = nextone_decide(ctx)
        assert action.video_index == 0
        assert ctx.players[0].downloaded + 1 == 10

    def test_fills_recommended_in_order(self):
        players = [make_view(0, downloaded=10, chunk_count=10)]
        players += [make_view(j, downloaded=0, chunk_count=8) for j in range(1, 5)]
        ctx = make_ctx(players=players)
        action = nextone_decide(ctx)
        assert action.video_index == 1
        assert players[1].downloaded + 1 == 1

    def test_sleeps_when_everything_downloaded(self):
        players = [make_view(0, downloaded=10, chunk_count=10)]
        players += [make_view(j, downloaded=8, chunk_count=8) for j in range(1, 5)]
        ctx = make_ctx(players=players)
        assert isinstance(nextone_decide(ctx), Sleep)


class TestNetworkBased:
    def test_ample_moves_to_recommended(self):
        players = [make_view(0, downloaded=2),
                   make_view(1, downloaded=0), make_view(2, downloaded=1),
                   make_view(3, downloaded=1), make_view(4, downloaded=1)]
        ctx = make_ctx(players=players, buffered=2, c_pred=3000.0, c_min=2600.0)
        action = networkbased_decide(ctx)
        assert action.video_index == 1

    def test_starved_keeps_filling_current(self):
        ctx = make_ctx(c_pred=700.0, c_min=2600.0, downloaded=2, buffered=2)
        action = networkbased_decide(ctx)
        assert action.video_index == 0

    def test_constrained_sleeps_at_thresholds(self):
        players = [make_view(0, downloaded=4)]
        players += [make_view(j, downloaded=2) for j in range(1, 5)]
        ctx = make_ctx(players=players, buffered=4, c_pred=1500.0, c_min=2600.0)
        assert isinstance(networkbased_decide(ctx), Sleep)


class TestPdasLite:
    @staticmethod
    def cdf_for(chunk_count, retention):
        # retention[k-1] = probability of surviving past chunk k
        return tuple(1.0 - r for r in retention)

    def test_caps_at_majority_retention(self):
        retention = [0.9, 0.8, 0.7, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05, 0.0]
        cdf = self.cdf_for(10, retention)
        players = [make_view(0, downloaded=3, swipe_cdf=cdf)]
        players += [make_view(j, downloaded=9, swipe_cdf=cdf) for j in range(1, 5)]
        ctx = make_ctx(players=players, buffered=3)
        action = pdas_lite_decide(ctx)
        assert action.video_index == 0
        assert players[0].downloaded + 1 == 4
        # at the cap the current player is skipped
        players[0].downloaded = 4
        assert isinstance(pdas_lite_decide(make_ctx(players=players, buffered=4)),
                          Sleep)

    def test_cap_slides_with_playhead(self):
        retention = [0.4] + [0.0] * 9  # cap would be 1
        cdf = self.cdf_for(10, retention)
        # playhead needs chunk 4: downloaded 3, buffered 0
        players = [make_view(0, downloaded=3, swipe_cdf=cdf)]
        players += [make_view(j, downloaded=9) for j in range(1, 5)]
        ctx = make_ctx(players=players, buffered=0)
        action = pdas_lite_decide(ctx)
        assert action.video_index == 0
        assert players[0].downloaded + 1 == 4

    def test_bitrate_weighted_by_reach(self):
        cdf = (0.0,) * 9 + (1.0,)  # nobody swipes before the end
        players = [make_view(0, downloaded=0, swipe_cdf=cdf)]
        players += [make_view(j, downloaded=9) for j in range(1, 5)]
        ctx = make_ctx(players=players, buffered=0, c_ave=1300.0)
        action = pdas_lite_decide(ctx)
        assert action.bitrate_kbps == 1200

    def test_single_chunk_videos_cap_at_one(self):
        players = [make_view(0, downloaded=0, chunk_count=1, swipe_cdf=(1.0,))]
        players += [make_view(j, downloaded=0, chunk_count=1, swipe_cdf=(1.0,))
                    for j in range(1, 5)]
        ctx = make_ctx(players=players, buffered=0)
        action = pdas_lite_decide(ctx)
        assert action.video_index == 0
        assert players[0].downloaded + 1 == 1
        players[0].downloaded = 1
        action = pdas_lite_decide(make_ctx(players=players, buffered=1))
        assert action.video_index == 1
        assert players[1].downloaded + 1 == 1


def _cap_by_rule(cdf):
    """The last k with 1 - cdf[k-1] > 0.5, else 1."""
    cap = 1
    for k in range(1, len(cdf) + 1):
        if 1.0 - cdf[k - 1] > 0.5:
            cap = k
    return cap


class TestPdasRetentionCap:
    def test_hand_made_cdfs(self):
        assert pdas_retention_cap((0.5, 1.0)) == 1       # exactly 0.5 left
        assert pdas_retention_cap((0.1, 0.4, 0.6, 1.0)) == 2
        assert pdas_retention_cap((0.0,) * 9 + (1.0,)) == 9
        assert pdas_retention_cap((1.0,)) == 1

    def test_per_video_cap_matches_rule_on_random_models(self):
        rng = random.Random(211)
        tails = 0
        for _ in range(150):
            traces = []
            for i in range(rng.randint(1, 40)):
                total = rng.randint(1, 120)
                traces.append(BehaviorTrace(f"t{i}", "cat", total,
                                            rng.randint(1, total)))
            model = build_model(traces, "cat")
            for chunk_count in (rng.randint(1, 12), rng.randint(13, 60)):
                cdf = swipe_cdf(model, chunk_count)
                if cdf[-1] < 1.0:
                    tails += 1
                want = _cap_by_rule(cdf)
                assert pdas_retention_cap(cdf) == want
                view = make_view(0, chunk_count=chunk_count, swipe_cdf=cdf)
                assert view.retention_cap == want
        # models whose cdf stops a rounding step short of 1 are covered
        assert tails > 0

    def test_zero_prefixes_and_short_tails_match_full_scan(self):
        below_one = 1.0 - 2 ** -53
        cdfs = [(0.0,) * 9 + (1.0,), (0.0,) * 4 + (0.3, 0.5, below_one),
                (0.0, 0.0, 0.5, below_one), (0.0,) * 3, (below_one,) * 2,
                (0.0, 0.49999999999999994, 0.5), (0.0,) * 7 + (below_one,)]
        # models whose every view runs to a late chunk: the cdf starts
        # with zeros and may end a rounding step below 1
        rng = random.Random(307)
        for _ in range(100):
            traces = []
            for i in range(rng.randint(1, 30)):
                total = rng.randint(2, 90)
                traces.append(BehaviorTrace(f"t{i}", "cat", total, rng.randint(
                    max(1, total - rng.randint(0, 3)), total)))
            model = build_model(traces, "cat")
            cdfs += [swipe_cdf(model, rng.randint(1, 60)) for _ in range(2)]
        zero_prefixes = sum(cdf[0] == 0.0 for cdf in cdfs)
        tails = sum(cdf[-1] < 1.0 for cdf in cdfs)
        assert zero_prefixes > 100 and tails > 10
        for cdf in cdfs:
            assert pdas_retention_cap(cdf) == _cap_by_rule(cdf), cdf


class TestActions:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(Download)] == [
            "video_index", "bitrate_kbps", "threshold"]
        assert dataclasses.fields(Sleep) == ()

    def test_frozen(self):
        d = Download(2, 1200, 2.0)
        for name in ("video_index", "bitrate_kbps", "threshold"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(d, name, 7)
        # Sleep has no field to assign, and no __dict__ to grow one
        assert Sleep.__dataclass_params__.frozen
        for action in (d, Sleep()):
            assert not hasattr(action, "__dict__")

    def test_unknown_names_are_frozen(self):
        # a name that is no field, such as the removed Sleep.duration_s
        for action, name in ((Sleep(), "duration_s"), (Sleep(), "bogus"),
                             (Download(0, 750), "bogus")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(action, name, 1)

    def test_copy_and_pickle_by_value(self):
        for action in (Download(2, 1200, 2.0), Download(0, 750), Sleep()):
            twins = [copy.copy(action), copy.deepcopy(action)]
            twins += [pickle.loads(pickle.dumps(action, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for twin in twins:
                assert twin == action and type(twin) is type(action)

    @pytest.mark.parametrize("name", ["dtaap", "fixb", "nextone", "network",
                                      "pdas_lite"])
    def test_deciders_share_one_sleep(self, name):
        # every player complete: each decider sleeps, with the one instance
        players = [make_view(i, downloaded=10) for i in range(5)]
        ctx = make_ctx(players=players, buffered=10)
        decide = make_strategy(name).decide
        assert decide(ctx) is decide(ctx) is _SLEEP == Sleep()

    def test_equal_and_hashable(self):
        a = Download(2, 1200, threshold=2.0)
        b = Download(2, 1200, 2.0)
        assert a == b and hash(a) == hash(b)
        assert a != Download(2, 1200, 3.0)
        assert a != Download(2, 750, 2.0) and a != Download(1, 1200, 2.0)
        assert Sleep() == Sleep() and hash(Sleep()) == hash(Sleep())
        assert len({a, b, Sleep(), Sleep()}) == 2
        assert Download(2, 1200) == Download(video_index=2, bitrate_kbps=1200,
                                             threshold=None)

    def test_replace(self):
        d = Download(2, 1200, 2.0)
        assert dataclasses.replace(d, threshold=4) == Download(2, 1200, 4)
        assert dataclasses.replace(d, bitrate_kbps=750) == Download(2, 750, 2.0)
        assert dataclasses.replace(Sleep()) == Sleep()

    def test_repr(self):
        assert repr(Download(2, 1200, 2.0)) == (
            "Download(video_index=2, bitrate_kbps=1200, threshold=2.0)")
        assert repr(Sleep()) == "Sleep()"

    def test_never_equal_to_plain_tuples(self):
        assert Download(2, 1200, 2.0) != (2, 1200, 2.0)
        assert Download(2, 1200) != (2, 1200, None)
        assert Sleep() != ()

    def test_idle_decisions_equal_a_fresh_sleep(self):
        players = [make_view(0, downloaded=10)]
        players += [make_view(j, downloaded=10) for j in range(1, 5)]
        for name in STRATEGIES:
            action = make_strategy(name).decide(make_ctx(players=players))
            assert action == Sleep()
            assert type(action) is Sleep


def _random_ctx(rng):
    cfg = SessionConfig()
    players = []
    for j in range(rng.randint(2, 5)):
        k = rng.randint(1, 12)
        downloaded = rng.randint(0, k)
        if j == 0:
            played = rng.randint(0, downloaded) if downloaded else 0
            buffered = downloaded - max(0, played - 1)
        cdf = []
        acc = 0.0
        for i in range(k):
            acc = min(1.0, acc + rng.random() / k)
            cdf.append(acc)
        cdf[-1] = 1.0
        players.append(make_view(
            j, chunk_count=k, downloaded=downloaded, k_min=rng.randint(1, k),
            k_early=rng.randint(1, k), k_long=rng.randint(1, k),
            swipe_cdf=tuple(cdf)))
    return make_ctx(
        players=players,
        buffered=buffered,
        c_pred=rng.uniform(200, 6500),
        c_ave=rng.uniform(200, 6500),
        c_min=1500.0,
        r_last=rng.choice((750, 1200, 1850)),
        rebuffer_flag=rng.random() < 0.2,
        config=cfg)


STRATEGIES = ["dtaap", "fixb", "nextone", "network", "pdas_lite"]


@pytest.mark.parametrize("name", STRATEGIES)
def test_actions_always_valid(name):
    rng = random.Random(zlib.crc32(name.encode()))
    strat = make_strategy(name)
    for _ in range(400):
        ctx = _random_ctx(rng)
        action = strat.decide(ctx)
        if isinstance(action, Sleep):
            continue
        player = next(p for p in ctx.players
                      if p.video_index == action.video_index)
        assert not player.complete
        assert action.bitrate_kbps in player.ladder.levels


@pytest.mark.parametrize("name", ["dtaap", "fixb", "network"])
def test_sleep_only_when_thresholds_met(name):
    rng = random.Random(97)
    strat = make_strategy(name)
    for _ in range(400):
        ctx = _random_ctx(rng)
        action = strat.decide(ctx)
        if not isinstance(action, Sleep):
            continue
        if name == "dtaap":
            if _starved(ctx):
                # thresholds lifted: sleeping means everything is complete
                assert all(p.complete for p in ctx.players)
                continue
            cur_th = buffer_threshold_current(ctx)
            nxt_th = [buffer_threshold_next(ctx, j)
                      for j in range(1, len(ctx.players))]
        elif name == "fixb":
            cur_th, nxt_th = 4, [2] * (len(ctx.players) - 1)
        else:
            from swipesim.strategy import NETWORK_REGIME_THRESHOLDS
            from swipesim.throughput import classify_regime
            regime = classify_regime(ctx.c_pred, ctx.players[0].ladder.lowest,
                                     ctx.c_min)
            b_c, b_n = NETWORK_REGIME_THRESHOLDS[regime]
            cur_th, nxt_th = b_c, [b_n] * (len(ctx.players) - 1)
        cur = ctx.players[0]
        assert cur.complete or ctx.buffered >= cur_th
        for p, th in zip(ctx.players[1:], nxt_th):
            assert p.complete or p.downloaded >= th


def test_dtaap_step_moves_at_most_one_level():
    rng = random.Random(101)
    for _ in range(400):
        ctx = _random_ctx(rng)
        if ctx.rebuffer_flag:
            continue
        cur = ctx.players[0]
        if cur.complete:
            continue
        ladder = cur.ladder
        bitrate = dtaap_bitrate(ctx, 0)
        assert bitrate in ladder.levels
        if ctx.r_last in ladder.levels:
            gap = abs(ladder.levels.index(bitrate)
                      - ladder.levels.index(ctx.r_last))
            assert gap <= 1


def test_make_strategy_rejects_unknown():
    with pytest.raises(ValueError, match="dtaap"):
        make_strategy("foo")
