import random

import pytest
from _oracle import cost_video, waste_video

from swipesim.metrics import (
    QoEWeights,
    qoe_video,
    quality,
    total_kilobits,
    utility,
)

W = QoEWeights(1.0, 1.0, 1.85)


class TestQuality:
    def test_values(self):
        assert quality(750) == 0.75
        assert quality(1850) == 1.85
        assert quality(1000) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            quality(0)

    def test_log_metric_monotone(self):
        assert quality(1850, "log") > quality(750, "log") > 0


class TestQoE:
    def test_flat_bitrates(self):
        assert qoe_video([1200, 1200], [0.0, 0.0], W) == pytest.approx(2.4)

    def test_variation_penalty(self):
        assert qoe_video([750, 1850], [0.0, 0.0], W) == pytest.approx(1.5)

    def test_empty_watch(self):
        assert qoe_video([], [], W) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            qoe_video([750], [], W)

    def test_monotone_in_rebuffer(self):
        base = qoe_video([750, 750], [0.0, 0.0], W)
        for stall in (0.1, 0.5, 2.0):
            assert qoe_video([750, 750], [0.0, stall], W) < base

    def test_constant_bitrate_has_no_variation_term(self):
        w_var_only = QoEWeights(0.0, 5.0, 0.0)
        assert qoe_video([1200] * 6, [0.0] * 6, w_var_only) == 0.0

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            QoEWeights(1.0, -1.0, 1.0)


class TestCostWaste:
    def test_cost(self):
        assert cost_video([750, 750, 750], 1.0) == pytest.approx(2.25)
        assert cost_video([], 1.0) == 0.0
        assert cost_video([1850], 1.0) == pytest.approx(1.85)

    def test_cost_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            cost_video([750], 0.0)

    def test_waste(self):
        assert waste_video([750] * 5, 3, 1.0) == pytest.approx(1.5)
        assert waste_video([750] * 5, 5, 1.0) == 0.0
        assert waste_video([1200, 1200], 0, 1.0) == pytest.approx(2.4)

    def test_waste_rejects_excess_watch(self):
        with pytest.raises(ValueError):
            waste_video([750], 2, 1.0)

    def test_conservation_exact(self):
        rng = random.Random(7)
        ladder = (750, 1200, 1850)
        for _ in range(500):
            n = rng.randint(0, 30)
            bitrates = [rng.choice(ladder) for _ in range(n)]
            watched = rng.randint(0, n)
            t0 = rng.choice((1.0, 2.0, 0.5))
            cost_k = total_kilobits(bitrates, t0)
            watched_k = total_kilobits(bitrates[:watched], t0)
            waste_k = total_kilobits(bitrates[watched:], t0)
            assert cost_k == watched_k + waste_k


class TestUtility:
    def test_weighted(self):
        assert utility([2.4, 1.5], [2.25, 3.0], 0.5) == pytest.approx(1.275)

    def test_zero_weight(self):
        assert utility([2.4, 1.5], [9.0, 9.0], 0.0) == pytest.approx(3.9)

    def test_empty(self):
        assert utility([], [], 0.5) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            utility([1.0], [], 0.5)

    def test_linear_in_w4(self):
        qoes, costs = [2.0, 1.0], [4.0, 3.0]
        u0 = utility(qoes, costs, 0.0)
        u1 = utility(qoes, costs, 1.0)
        for w4 in (0.25, 0.5, 0.75):
            assert utility(qoes, costs, w4) == pytest.approx(u0 + w4 * (u1 - u0))
