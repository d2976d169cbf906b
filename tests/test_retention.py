import copy
import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipesim.retention import (
    RetentionModel,
    build_model,
    derive_thresholds,
    model_from_dict,
    model_to_json,
    swipe_cdf,
    swipe_probability,
)
from swipesim.trace_io import BehaviorTrace


def traces_of(pairs, category="cat"):
    return [BehaviorTrace(f"t{i}", category, total, swipe)
            for i, (swipe, total) in enumerate(pairs)]


TWO_TRACE_MODEL = build_model(traces_of([(5, 10), (10, 10)]), "cat")


class TestBuildModel:
    def test_two_trace_binning(self):
        mass = TWO_TRACE_MODEL.mass
        for j in range(1, 101):
            expected = 0.05 if 41 <= j <= 50 or 91 <= j <= 100 else 0.0
            assert mass[j - 1] == pytest.approx(expected, abs=1e-12)

    def test_single_chunk_video_spreads_uniformly(self):
        model = build_model(traces_of([(1, 1)]), "cat")
        assert all(m == pytest.approx(0.01) for m in model.mass)

    def test_mass_sums_to_one(self):
        rng = random.Random(5)
        for _ in range(20):
            pairs = []
            for _ in range(rng.randint(1, 200)):
                total = rng.randint(1, 300)
                pairs.append((rng.randint(1, total), total))
            model = build_model(traces_of(pairs), "cat")
            assert sum(model.mass) == pytest.approx(1.0, abs=1e-9)

    def test_filters_by_category(self):
        mixed = traces_of([(5, 10)]) + traces_of([(1, 10)], category="other")
        model = build_model(mixed, "other")
        assert model.trace_count == 1

    def test_empty_category_rejected(self):
        with pytest.raises(ValueError):
            build_model(traces_of([(5, 10)]), "missing")


def _reference_bin_edge(k: int, total_chunks: int) -> int:
    if k <= 0:
        return 0
    return -(-100 * k // total_chunks)


def _reference_build_model(traces, category: str):
    """The per-trace loop that the span cache replaced, kept as it was but
    for returning the model's fields; returns (mass, trace_count)."""
    picked = [tr for tr in traces if tr.category == category]
    if not picked:
        raise ValueError(f"no behavior traces for category {category!r}")
    x = len(picked)
    mass = [0.0] * 100
    for tr in picked:
        lo = _reference_bin_edge(tr.swipe_chunk - 1, tr.total_chunks) + 1
        hi = _reference_bin_edge(tr.swipe_chunk, tr.total_chunks)
        if hi < lo:
            # more chunks than bins: the chunk sits inside one bin
            lo = hi
        share = 1.0 / (x * (hi - lo + 1))
        for j in range(lo - 1, hi):
            mass[j] += share
    return tuple(mass), x


def _assert_matches_reference(traces):
    for category in {tr.category for tr in traces}:
        model = build_model(traces, category)
        mass, count = _reference_build_model(traces, category)
        # bit for bit: float.hex tells 0.0 from -0.0 and every last digit
        assert [m.hex() for m in model.mass] == [m.hex() for m in mass]
        assert (model.category, model.trace_count) == (category, count)


_TOTAL = st.one_of(st.just(1), st.integers(2, 30), st.integers(90, 110),
                   st.integers(101, 400))


@st.composite
def _population(draw):
    """Rows over up to four categories, in any order; K > 100 puts a chunk
    inside one bin, K = 1 spreads one chunk over all of them."""
    rows = []
    for i in range(draw(st.integers(1, 60))):
        total = draw(_TOTAL)
        swipe = draw(st.one_of(st.integers(1, total), st.sampled_from([1, total])))
        rows.append(BehaviorTrace(f"t{i}", draw(st.sampled_from("abcd")), total, swipe))
    return rows


class TestBuildMatchesReference:
    """``build_model`` gives the per-trace loop's mass, bit for bit."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(_population())
    def test_random_populations(self, rows):
        _assert_matches_reference(rows)

    @pytest.mark.parametrize("pairs", [
        [(1, 1)], [(1, 1)] * 3, [(150, 150), (1, 150), (77, 150), (77, 150)],
        [(k, 101) for k in range(1, 102)] + [(k, 333) for k in range(333, 0, -7)],
        [(1, 3), (2, 3), (3, 3), (1, 3), (2, 7), (1, 1)],
    ], ids=["one-row", "k1", "k150", "k101-k333", "repeats"])
    def test_edge_populations(self, pairs):
        _assert_matches_reference(traces_of(pairs))

    def test_mixed_categories_and_one_row_category(self):
        rng = random.Random(23)
        rows = []
        for i in range(3000):
            total = rng.choice((1, rng.randint(2, 90), rng.randint(101, 500)))
            rows.append(BehaviorTrace(f"t{i}", rng.choice(("x", "y", "z")), total,
                                      rng.randint(1, total)))
        rows.insert(1234, BehaviorTrace("lone", "w", 9, 4))
        _assert_matches_reference(rows)


class TestSwipeProbability:
    def test_interval_mass(self):
        assert swipe_probability(TWO_TRACE_MODEL, 5, 10) == pytest.approx(0.5)

    def test_empty_interval(self):
        assert swipe_probability(TWO_TRACE_MODEL, 3, 10) == pytest.approx(0.0)

    def test_single_chunk_takes_all_mass(self):
        model = build_model(traces_of([(1, 1)]), "cat")
        assert swipe_probability(model, 1, 1) == pytest.approx(1.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            swipe_probability(TWO_TRACE_MODEL, 0, 10)
        with pytest.raises(ValueError):
            swipe_probability(TWO_TRACE_MODEL, 11, 10)


class TestThresholds:
    def test_two_trace_model(self):
        th = derive_thresholds(TWO_TRACE_MODEL, 10, 0.3, 0.1)
        assert (th.k_min, th.k_early, th.k_long) == (5, 5, 6)

    def test_completion_only_model(self):
        model = build_model(traces_of([(10, 10)]), "cat")
        th = derive_thresholds(model, 10, 0.3, 0.1)
        assert (th.k_min, th.k_early, th.k_long) == (10, 10, 1)

    def test_single_chunk_video(self):
        th = derive_thresholds(TWO_TRACE_MODEL, 1, 0.3, 0.1)
        assert (th.k_min, th.k_early, th.k_long) == (1, 1, 1)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            derive_thresholds(TWO_TRACE_MODEL, 10, 0.0, 0.1)
        with pytest.raises(ValueError):
            derive_thresholds(TWO_TRACE_MODEL, 10, 0.3, 1.0)

    def test_ordering_property(self):
        rng = random.Random(13)
        for _ in range(50):
            pairs = []
            for _ in range(rng.randint(1, 50)):
                total = rng.randint(1, 40)
                pairs.append((rng.randint(1, total), total))
            model = build_model(traces_of(pairs), "cat")
            k = rng.randint(1, 40)
            th = derive_thresholds(model, k, 0.3, 0.1)
            assert 1 <= th.k_min <= th.k_early <= k
            assert 1 <= th.k_long <= k


class TestReconstruction:
    def test_same_k_histogram(self):
        rng = random.Random(17)
        for total in (4, 10, 33):
            x = 500
            swipes = [rng.randint(1, total) for _ in range(x)]
            model = build_model(traces_of([(s, total) for s in swipes]), "cat")
            bound = 1.0 / (2 * x)
            probs = [swipe_probability(model, k, total) for k in range(1, total + 1)]
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)
            for k in range(1, total + 1):
                empirical = swipes.count(k) / x
                assert abs(probs[k - 1] - empirical) <= bound + 1e-12

    def test_cumulative_monotone(self):
        cdf = swipe_cdf(TWO_TRACE_MODEL, 10)
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] == pytest.approx(1.0)


class TestModelJson:
    def test_roundtrip(self):
        again = model_from_dict(json.loads(model_to_json(TWO_TRACE_MODEL)))
        assert again == TWO_TRACE_MODEL

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            RetentionModel("cat", (0.5,) * 100, 1)
        with pytest.raises(ValueError):
            RetentionModel("cat", (0.1,) * 10, 1)


SRC = Path(__file__).resolve().parent.parent / "src"
PAIRS = [(5, 10), (10, 10), (1, 7)]

# Unpickles the model read from stdin (hex), builds the same model from
# PAIRS, and reports both hashes and two lookups of the engine's profile
# cache: one by the model built there, then one by the unpickled copy.
UNPICKLE = """
import json, pickle, sys
from swipesim.engine import _video_profile
from swipesim.retention import build_model
from swipesim.trace_io import BehaviorTrace
model = pickle.loads(bytes.fromhex(sys.stdin.read()))
built = build_model([BehaviorTrace(f"t{i}", "cat", total, swipe)
                     for i, (swipe, total) in enumerate(json.loads(sys.argv[1]))],
                    "cat")
_video_profile.cache_clear()
_video_profile(built, 10, 0.3, 0.1)
_video_profile(model, 10, 0.3, 0.1)
info = _video_profile.cache_info()
print(json.dumps({"equal": model == built, "hash": hash(model),
                  "built": hash(built), "str": hash("cat"),
                  "hits": info.hits, "misses": info.misses}))
"""


class TestModelHash:
    def test_equal_models_hash_equal(self):
        model = build_model(traces_of(PAIRS), "cat")
        again = build_model(traces_of(PAIRS), "cat")
        assert model == again and model is not again
        assert hash(model) == hash(again)
        by_hand = RetentionModel("cat", model.mass, model.trace_count)
        assert by_hand == model and hash(by_hand) == hash(model)
        # the value hash, the one the generated dataclass hash would give
        assert hash(model) == hash(("cat", model.mass, model.trace_count))
        assert {model: 1}[again] == 1
        assert build_model(traces_of(PAIRS, "dog"), "dog") != model
        assert build_model(traces_of(PAIRS[:2]), "cat") != model

    def test_copy_and_replace_rehash(self):
        model = build_model(traces_of(PAIRS), "cat")
        for twin in (copy.copy(model), copy.deepcopy(model),
                     pickle.loads(pickle.dumps(model))):
            assert twin == model and hash(twin) == hash(model)
        renamed = dataclasses.replace(model, category="dog")
        assert renamed.category == "dog" and renamed != model
        assert hash(renamed) == hash(("dog", model.mass, model.trace_count))
        same = dataclasses.replace(model)
        assert same == model and hash(same) == hash(model)
        # a replaced field is checked like a new model
        with pytest.raises(ValueError):
            dataclasses.replace(model, trace_count=0)

    def test_unpickled_in_another_interpreter_rehashes(self):
        model = build_model(traces_of(PAIRS), "cat")
        # a hash seed other than this interpreter's, so that str hashes differ
        seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", UNPICKLE, json.dumps(PAIRS)],
            input=pickle.dumps(model).hex(), capture_output=True, text=True,
            env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["str"] != hash("cat")
        assert out["equal"]
        assert out["hash"] == out["built"] != hash(model)
        assert (out["hits"], out["misses"]) == (1, 1)
