import math
import random
from fractions import Fraction

import pytest

from swipesim.trace_io import (
    SCENARIO_BANDS,
    ThroughputTrace,
    TraceFormatError,
    download_finish_time,
    generate_scenario,
    parse_behavior_traces,
    parse_throughput_trace,
    serialize_behavior_traces,
    serialize_throughput_trace,
)


class TestParseThroughput:
    def test_basic(self):
        trace = parse_throughput_trace("0,2000\n1,1500")
        assert trace.samples == ((0.0, 2000.0), (1.0, 1500.0))
        assert trace.bandwidth_at(0.5) == 2000.0
        assert trace.bandwidth_at(7.0) == 1500.0

    def test_header_accepted(self):
        trace = parse_throughput_trace("timestamp_s,bandwidth_kbps\n0,2000")
        assert trace.samples == ((0.0, 2000.0),)

    def test_zero_bandwidth_valid(self):
        trace = parse_throughput_trace("0,0")
        assert trace.bandwidth_at(100.0) == 0.0

    def test_must_start_at_zero(self):
        with pytest.raises(TraceFormatError):
            parse_throughput_trace("1,2000")

    def test_malformed_row_reports_line(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_throughput_trace("0,2000\n1,abc")
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_throughput_trace("0,2000\n1")

    def test_non_monotone(self):
        with pytest.raises(TraceFormatError):
            parse_throughput_trace("0,2000\n0,1500")

    def test_negative_bandwidth(self):
        with pytest.raises(TraceFormatError):
            parse_throughput_trace("0,-5")

    @pytest.mark.parametrize("text", [
        "0,100\n1,nan\n", "0,100\n1,inf\n",
        "0,100\nnan,200\n", "0,100\ninf,200\n",
    ], ids=["bw-nan", "bw-inf", "t-nan", "t-inf"])
    def test_non_finite_reports_line(self, text):
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_throughput_trace(text)

    def test_empty(self):
        with pytest.raises(TraceFormatError):
            parse_throughput_trace("")

    def test_rejected_sample_reports_its_line(self):
        header = "timestamp_s,bandwidth_kbps\n\n"
        with pytest.raises(TraceFormatError, match="line 3: trace must start"):
            parse_throughput_trace(header + "2,100\n")
        with pytest.raises(TraceFormatError, match="line 5: timestamps"):
            parse_throughput_trace(header + "0,100\n\n0,200\n")

    def test_roundtrip(self):
        trace = generate_scenario("medium", 3, 30)
        again = parse_throughput_trace(serialize_throughput_trace(trace))
        assert again.samples == trace.samples


class TestParseBehavior:
    def test_basic(self):
        rows = parse_behavior_traces("t1,cat_a,10,5")
        assert rows[0].trace_id == "t1"
        assert rows[0].swipe_chunk == 5

    def test_completion(self):
        rows = parse_behavior_traces("t2,cat_a,10,10")
        assert rows[0].swipe_chunk == rows[0].total_chunks

    def test_swipe_beyond_end(self):
        with pytest.raises(TraceFormatError):
            parse_behavior_traces("t3,cat_a,10,11")

    def test_nonpositive_counts(self):
        with pytest.raises(TraceFormatError):
            parse_behavior_traces("t4,cat_a,0,0")

    def test_roundtrip(self):
        text = "trace_id,category,total_chunks,swipe_chunk\nt1,cat_a,10,5\nt2,b,3,3\n"
        rows = parse_behavior_traces(text)
        assert serialize_behavior_traces(rows) == text


class TestGenerateScenario:
    def test_deterministic(self):
        a = generate_scenario("high", 7, 10)
        b = generate_scenario("high", 7, 10)
        assert a.samples == b.samples

    def test_band_ranges(self):
        for kind, (lo, hi) in SCENARIO_BANDS.items():
            trace = generate_scenario(kind, 1, 100)
            assert len(trace.samples) == 100
            assert all(lo <= bw <= hi for _, bw in trace.samples)

    def test_mixed_crosses_bands(self):
        hits = 0
        for seed in range(100):
            trace = generate_scenario("mixed", seed, 300)
            bands = set()
            for _, bw in trace.samples:
                for kind, (lo, hi) in SCENARIO_BANDS.items():
                    if lo <= bw <= hi:
                        bands.add(kind)
            if bands >= {"high", "medium", "low"}:
                hits += 1
        assert hits >= 95

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_scenario("wild", 1, 10)

    def test_nonpositive_duration(self):
        with pytest.raises(ValueError):
            generate_scenario("low", 1, 0)


class TestDownloadFinishTime:
    def test_constant_rate(self):
        trace = ThroughputTrace(((0.0, 2000.0),))
        assert download_finish_time(trace, 0.0, 1000) == 0.5

    def test_piecewise(self):
        trace = ThroughputTrace(((0.0, 1000.0), (1.0, 3000.0)))
        assert download_finish_time(trace, 0.0, 2500) == 1.5

    def test_zero_size(self):
        trace = ThroughputTrace(((0.0, 2000.0),))
        assert download_finish_time(trace, 3.25, 0) == 3.25

    def test_starved_channel(self):
        trace = ThroughputTrace(((0.0, 1000.0), (2.0, 0.0)))
        assert download_finish_time(trace, 0.0, 1999) < 2.0
        assert math.isinf(download_finish_time(trace, 0.0, 2001))

    def test_zero_gap_then_recovery(self):
        trace = ThroughputTrace(((0.0, 0.0), (5.0, 1000.0)))
        assert download_finish_time(trace, 0.0, 500) == 5.5

    def test_rejects_negative_args(self):
        trace = ThroughputTrace(((0.0, 2000.0),))
        with pytest.raises(ValueError):
            download_finish_time(trace, -1.0, 1)
        with pytest.raises(ValueError):
            download_finish_time(trace, 0.0, -1)

    def test_monotone(self):
        rng = random.Random(23)
        samples, t = [], 0.0
        for _ in range(20):
            samples.append((t, rng.uniform(0, 4000)))
            t += rng.uniform(0.2, 3.0)
        trace = ThroughputTrace(tuple(samples))
        last = None
        for size in sorted(rng.uniform(0, 9000) for _ in range(40)):
            fin = download_finish_time(trace, 1.0, size)
            if last is not None:
                assert fin >= last
            last = fin
        f1 = download_finish_time(trace, 0.5, 4000)
        f2 = download_finish_time(trace, 2.5, 4000)
        assert f2 >= f1

    def test_additivity_exact_with_rationals(self):
        rng = random.Random(29)
        samples, t = [], Fraction(0)
        for _ in range(12):
            samples.append((t, Fraction(rng.randint(0, 4000), rng.randint(1, 7))))
            t += Fraction(rng.randint(1, 9), rng.randint(1, 4))
        samples[-1] = (samples[-1][0], Fraction(1500))
        trace = ThroughputTrace(tuple(samples))
        for _ in range(100):
            start = Fraction(rng.randint(0, 40), rng.randint(1, 5))
            a = Fraction(rng.randint(0, 6000), rng.randint(1, 11))
            b = Fraction(rng.randint(0, 6000), rng.randint(1, 11))
            whole = download_finish_time(trace, start, a + b)
            split = download_finish_time(trace, download_finish_time(trace, start, a), b)
            assert whole == split

    def test_additivity_close_with_floats(self):
        trace = generate_scenario("mixed", 4, 60)
        rng = random.Random(31)
        for _ in range(200):
            start = rng.uniform(0, 50)
            a, b = rng.uniform(0, 4000), rng.uniform(0, 4000)
            whole = download_finish_time(trace, start, a + b)
            split = download_finish_time(trace, download_finish_time(trace, start, a), b)
            assert split == pytest.approx(whole, rel=1e-9)


def _reference_finish(samples, start, size):
    """Plain piecewise integration: find the segment by a linear scan, then
    drain it segment by segment with the same arithmetic as the channel."""
    if size == 0:
        return start
    i = 0
    while i + 1 < len(samples) and samples[i + 1][0] <= start:
        i += 1
    pos, remaining = start, size
    while i + 1 < len(samples):
        bw, seg_end = samples[i][1], samples[i + 1][0]
        if bw > 0:
            cap = bw * (seg_end - pos)
            if remaining <= cap:
                return pos + remaining / bw
            remaining -= cap
        pos = seg_end
        i += 1
    bw = samples[-1][1]
    return pos + remaining / bw if bw > 0 else math.inf


def _random_piecewise(rng, n, num):
    """``n`` segments with about a quarter at zero bandwidth; ``num`` makes
    each number (float or Fraction)."""
    samples, t = [], num(0)
    for _ in range(n):
        bw = num(0) if rng.random() < 0.25 else num(rng.randint(1, 6000)) / rng.randint(1, 7)
        samples.append((t, bw))
        t += num(rng.randint(1, 40)) / rng.randint(1, 8)
    return samples


class TestFinishTimeMatchesReference:
    """Exact agreement with a reference loop, on random piecewise traces."""

    @pytest.mark.parametrize("num", [float, Fraction], ids=["float", "fraction"])
    def test_random_traces(self, num):
        rng = random.Random(101)
        for _ in range(150):
            samples = _random_piecewise(rng, rng.randint(1, 25), num)
            trace = ThroughputTrace(tuple(samples))
            last_t = samples[-1][0]
            starts = [t for t, _ in samples]               # on a breakpoint
            starts += [last_t + num(rng.randint(1, 30)) / 3  # past the last
                       for _ in range(3)]
            starts += [num(rng.randint(0, 400)) / rng.randint(1, 9)
                       for _ in range(10)]
            for start in starts:
                for size in (num(0), num(rng.randint(1, 90000)) / rng.randint(1, 11),
                             num(rng.randint(1, 3000))):
                    got = download_finish_time(trace, start, size)
                    want = _reference_finish(samples, start, size)
                    assert got == want and type(got) is type(want), (
                        samples, start, size)

    def test_float_scenarios(self):
        rng = random.Random(103)
        for kind in ("mixed", "low"):
            trace = generate_scenario(kind, 5, 90)
            for _ in range(300):
                start = rng.choice([rng.uniform(0, 100), float(rng.randint(0, 95))])
                size = rng.uniform(1, 20000)
                assert (download_finish_time(trace, start, size)
                        == _reference_finish(trace.samples, start, size))


class TestTraceInvariants:
    def test_trace_validation(self):
        with pytest.raises(ValueError):
            ThroughputTrace(())
        with pytest.raises(ValueError):
            ThroughputTrace(((1.0, 100.0),))
        with pytest.raises(ValueError):
            ThroughputTrace(((0.0, 100.0), (0.0, 50.0)))
        with pytest.raises(ValueError):
            ThroughputTrace(((0.0, -1.0),))

    @pytest.mark.parametrize("samples", [
        ((0.0, math.nan),), ((0.0, math.inf),),
        ((0.0, 100.0), (math.nan, 50.0)), ((0.0, 100.0), (math.inf, 50.0)),
    ], ids=["bw-nan", "bw-inf", "t-nan", "t-inf"])
    def test_rejects_non_finite(self, samples):
        with pytest.raises(ValueError):
            ThroughputTrace(samples)

    def test_rule_names_the_sample(self):
        with pytest.raises(ValueError, match="sample 2: bandwidth"):
            ThroughputTrace(((0.0, 1.0), (1.0, 2.0), (2.0, -1.0)))

    def test_tuple_is_kept(self):
        samples = ((0.0, 100.0), (1.0, 50.0))
        assert ThroughputTrace(samples).samples is samples
