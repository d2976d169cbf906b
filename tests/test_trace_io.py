import copy
import gc
import math
import pickle
import random
import tracemalloc
from array import array
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipesim.trace_io import (
    BEHAVIOR_HEADER,
    SCENARIO_BANDS,
    THROUGHPUT_HEADER,
    BehaviorTrace,
    ThroughputTrace,
    TraceFormatError,
    TraceSampleError,
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

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 10**6), st.integers(0, 10**9),
                              st.integers(0, 20), st.integers(0, 40)),
                    min_size=1, max_size=12))
    def test_dyadic_fraction_roundtrip_is_exact(self, steps):
        samples, t = [], Fraction(0)
        for step, bw, k, j in steps:
            samples.append((t, Fraction(bw, 2 ** j)))
            t += Fraction(step, 2 ** k)
        trace = ThroughputTrace(samples)
        again = parse_throughput_trace(serialize_throughput_trace(trace))
        assert again == trace and again.samples == tuple(samples)

    def test_fraction_serializes_as_its_float(self):
        trace = ThroughputTrace([(0, Fraction(1, 3)), (Fraction(3, 2), 2)])
        text = serialize_throughput_trace(trace)
        assert text == f"{THROUGHPUT_HEADER}\n0,0.3333333333333333\n1.5,2\n"
        assert parse_throughput_trace(text).samples == ((0.0, 1 / 3), (1.5, 2.0))


# names from the characters that a CSV row of the behavior format treats
# specially: the comma, line breaks and whitespace
_NAME = st.text(st.sampled_from("ab ,\t\n\r\x0b\x1c\x85\u2028"), max_size=4)


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

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_NAME, _NAME, st.integers(1, 50)),
                    min_size=1, max_size=6))
    def test_every_row_the_constructor_accepts_round_trips(self, drawn):
        rows = []
        for trace_id, category, total in drawn:
            try:
                rows.append(BehaviorTrace(trace_id, category, total, total))
            except ValueError:
                # what it rejects, a CSV row would split or change
                row = tuple.__new__(BehaviorTrace, (trace_id, category, total, total))
                try:
                    back = parse_behavior_traces(serialize_behavior_traces([row]))
                except ValueError:
                    continue
                assert back != [row]
        if rows:
            assert parse_behavior_traces(serialize_behavior_traces(rows)) == rows


class TestBehaviorTraceRow:
    def test_a_tuple_of_its_fields(self):
        row = BehaviorTrace("t1", "cat_a", 10, 5)
        assert row == ("t1", "cat_a", 10, 5) and tuple(row) == ("t1", "cat_a", 10, 5)
        assert hash(row) == hash(("t1", "cat_a", 10, 5))
        assert (row.trace_id, row.category, row.total_chunks, row.swipe_chunk) == (
            "t1", "cat_a", 10, 5)
        assert BehaviorTrace(trace_id="t1", category="cat_a", total_chunks=10,
                             swipe_chunk=5) == row
        assert repr(row) == ("BehaviorTrace(trace_id='t1', category='cat_a', "
                             "total_chunks=10, swipe_chunk=5)")
        match row:
            case BehaviorTrace(tid, cat, total, swipe):
                assert (tid, cat, total, swipe) == tuple(row)

    def test_assignment_raises_attribute_error(self):
        row = BehaviorTrace("t1", "cat_a", 10, 5)
        for name in ("trace_id", "category", "total_chunks", "swipe_chunk", "extra"):
            with pytest.raises(AttributeError):
                setattr(row, name, 1)
        with pytest.raises(AttributeError):
            del row.swipe_chunk
        assert not hasattr(row, "__dict__")

    @pytest.mark.parametrize("fields, message", [
        (("t", "c", 0, 0), "trace t: total_chunks must be >= 1"),
        (("t", "c", -3, 1), "trace t: total_chunks must be >= 1"),
        (("t", "c", 10, 11), "trace t: swipe_chunk 11 out of range 1..10"),
        (("t", "c", 10, 0), "trace t: swipe_chunk 0 out of range 1..10"),
    ])
    def test_constructor_checks_the_counts(self, fields, message):
        with pytest.raises(ValueError) as exc:
            BehaviorTrace(*fields)
        assert str(exc.value) == message
        # so do the named tuple's other ways to build a row
        with pytest.raises(ValueError) as exc:
            BehaviorTrace._make(fields)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            BehaviorTrace("t", "c", 10, 5)._replace(total_chunks=fields[2],
                                                   swipe_chunk=fields[3])
        assert str(exc.value) == message

    @pytest.mark.parametrize("trace_id, category, name", [
        ("a,b", "c", "'a,b'"),
        ("t", "c,d", "'c,d'"),
        ("t", "c\nd", "'c\\nd'"),
        ("t", "c\r", "'c\\r'"),
        ("t", "c\u2028d", "'c\\u2028d'"),
        (" t", "c", "' t'"),
        ("t", "c ", "'c '"),
        ("t", "\tc", "'\\tc'"),
        (7, "c", "7"),
    ])
    def test_constructor_checks_the_names(self, trace_id, category, name):
        message = (f"trace {trace_id!r}: {name} must be text with no comma, "
                   f"line break or edge space")
        with pytest.raises(ValueError) as exc:
            BehaviorTrace(trace_id, category, 10, 5)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            BehaviorTrace._make((trace_id, category, 10, 5))
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            BehaviorTrace("t", "c", 10, 5)._replace(trace_id=trace_id,
                                                   category=category)
        assert str(exc.value) == message

    def test_named_tuple_helpers(self):
        row = BehaviorTrace._make(["t1", "cat_a", 10, 5])
        assert type(row) is BehaviorTrace and row == ("t1", "cat_a", 10, 5)
        assert BehaviorTrace._fields == (
            "trace_id", "category", "total_chunks", "swipe_chunk")
        assert row._asdict() == {"trace_id": "t1", "category": "cat_a",
                                 "total_chunks": 10, "swipe_chunk": 5}
        again = row._replace(swipe_chunk=10)
        assert type(again) is BehaviorTrace and again == ("t1", "cat_a", 10, 10)
        with pytest.raises(ValueError, match="unexpected field names"):
            row._replace(extra=1)

    def test_copies_and_pickles_by_value(self):
        row = BehaviorTrace("t1", "cat_a", 10, 5)
        copies = [copy.copy(row), copy.deepcopy(row)]
        copies += [pickle.loads(pickle.dumps(row, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in copies:
            assert type(again) is BehaviorTrace and again == row
            assert again.swipe_chunk == 5

    def test_parsed_rows_share_each_category(self):
        rows = parse_behavior_traces("\n".join(
            f"t{i},cat_{i % 2}, {i + 1} ,1" for i in range(9000)))
        assert all(type(row) is BehaviorTrace for row in rows)
        assert rows[8999] == ("t8999", "cat_1", 9000, 1)
        assert len({id(row.category) for row in rows}) == 2


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
        for duration in (0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                generate_scenario("low", 1, duration)


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

    @pytest.mark.parametrize("call, message", [
        (lambda trace: download_finish_time(trace, math.nan, 100),
         "start time must be non-negative"),
        (lambda trace: download_finish_time(trace, 0.0, math.nan),
         "size must be non-negative"),
        (lambda trace: trace.bandwidth_at(math.nan), "time must be non-negative"),
    ], ids=["finish-start", "finish-size", "bandwidth-at"])
    def test_rejects_nan(self, call, message):
        for trace in (ThroughputTrace(((0.0, 2000.0), (1.0, 500.0))),
                      parse_throughput_trace("0,2000\n1,500")):
            with pytest.raises(ValueError) as exc:
                call(trace)
            assert str(exc.value) == message

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


def _parsed(samples) -> ThroughputTrace:
    """The trace the parser builds from the file of ``samples``: packed
    ``array('d')`` columns of the same floats."""
    trace = parse_throughput_trace(serialize_throughput_trace(ThroughputTrace(samples)))
    assert type(trace._starts) is array and type(trace._bws) is array
    return trace


class TestFinishTimeMatchesReference:
    """Exact agreement with a reference loop, on random piecewise traces,
    tuple-backed and parsed (array-backed)."""

    @pytest.mark.parametrize("num, build", [
        (float, ThroughputTrace), (Fraction, ThroughputTrace), (float, _parsed),
    ], ids=["float", "fraction", "float-parsed"])
    def test_random_traces(self, num, build):
        rng = random.Random(101)
        for _ in range(150):
            samples = _random_piecewise(rng, rng.randint(1, 25), num)
            trace = build(tuple(samples))
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
            packed = generate_scenario(kind, 5, 90)
            for trace in (packed, ThroughputTrace(packed.samples)):
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

    @pytest.mark.parametrize("num", [float, Fraction], ids=["float", "fraction"])
    def test_columns_hold_the_callers_numbers(self, num):
        samples = tuple((num(i) / 4, num(100 + i) / 3) for i in range(50))
        trace = ThroughputTrace(samples)
        for i, (t, bw) in enumerate(samples):
            assert trace._starts[i] is t and trace._bws[i] is bw
        # the two columns are all the trace holds, and no sample is a tuple
        assert not hasattr(trace, "__dict__")
        held = [r for r in gc.get_referents(trace) if r is not ThroughputTrace]
        assert sorted(map(id, held)) == sorted(map(id, (trace._starts, trace._bws)))
        assert not any(isinstance(x, tuple) for col in held for x in col)
        # samples is built on each access
        assert trace.samples == samples
        assert trace.samples is not samples and trace.samples is not trace.samples

    def test_immutable_value_that_copies_and_pickles(self):
        trace = ThroughputTrace(((0.0, 100.0), (1.5, 0.0), (4.0, 250.5)))
        for name in ("_starts", "_bws", "samples", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(trace, name, ())
        with pytest.raises(FrozenInstanceError):
            del trace._bws
        same = ThroughputTrace([(0.0, 100.0), (1.5, 0.0), (4.0, 250.5)])
        assert same == trace and hash(same) == hash(trace)
        assert trace != ThroughputTrace(((0.0, 100.0), (1.5, 0.0), (4.0, 250.0)))
        assert trace != trace.samples
        assert repr(trace) == f"ThroughputTrace(samples={trace.samples!r})"
        exact = ThroughputTrace(((Fraction(0), Fraction(7, 3)),))
        for original in (trace, exact):
            copies = [copy.copy(original), copy.deepcopy(original)]
            copies += [pickle.loads(pickle.dumps(original, protocol))
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for again in copies:
                assert type(again) is ThroughputTrace
                assert again == original and hash(again) == hash(original)
                assert again.samples == original.samples
                assert list(map(type, again._bws)) == list(map(type, original._bws))
                with pytest.raises(FrozenInstanceError):
                    again._starts = ()

    def test_column_constructor_checks_the_same_rules(self):
        assert ThroughputTrace._from_columns((0.0, 1.0), (5.0, 0.0)) == (
            ThroughputTrace(((0.0, 5.0), (1.0, 0.0))))
        with pytest.raises(TraceFormatError, match="at least one sample"):
            ThroughputTrace._from_columns((), ())
        for starts, bws, message in (
                ((1.0,), (5.0,), "sample 0: trace must start"),
                ((0.0, 2.0, 2.0), (5.0, 1.0, 1.0), "sample 2: timestamps"),
                ((0.0, math.inf), (5.0, 1.0), "sample 1: timestamps"),
                ((0.0, 1.0), (5.0, math.nan), "sample 1: bandwidth"),
                # the first bad sample is named, its timestamp checked first
                ((0.0, 1.0, 0.5), (5.0, -1.0, -1.0), "sample 1: bandwidth"),
                ((0.0, 1.0, 0.5), (5.0, 1.0, -1.0), "sample 2: timestamps")):
            with pytest.raises(TraceSampleError, match=message):
                ThroughputTrace._from_columns(starts, bws)


# a segment's length and bandwidth, some bandwidths zero or tiny
_SEGMENT = st.tuples(
    st.floats(1e-3, 50),
    st.one_of(st.just(0.0), st.floats(0, 1e4), st.floats(0, 1e-3)))


class TestPackedColumns:
    """The parser and ``generate_scenario`` pack a trace's columns into
    ``array('d')``; such a trace answers as the tuple trace of the same
    samples does."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(_SEGMENT, min_size=1, max_size=30), st.data())
    def test_finish_times_equal_to_the_bit(self, segments, data):
        samples, t = [], 0.0
        for length, bw in segments:
            samples.append((t, bw))
            t += length
        tuples = ThroughputTrace(samples)
        packed = ThroughputTrace._from_floats([t for t, _ in samples],
                                              [bw for _, bw in samples])
        assert type(packed._bws) is array and type(tuples._bws) is tuple
        last = samples[-1][0]
        starts = [t for t, _ in samples]                       # on a breakpoint
        starts += data.draw(st.lists(st.floats(last, last + 100), min_size=1,
                                     max_size=3))              # at or past the last
        starts += data.draw(st.lists(st.floats(0, last + 1), max_size=5))
        sizes = [0.0] + data.draw(st.lists(
            st.one_of(st.floats(0, 1e6), st.floats(0, 1)), min_size=1, max_size=4))
        for start in starts:
            for size in sizes:
                assert (download_finish_time(packed, start, size).hex()
                        == download_finish_time(tuples, start, size).hex()), (start, size)

    def test_one_value_across_representations(self):
        samples = ((0.0, 1500.0), (0.25, 0.0), (1.0, 2750.5), (3.5, 1e-3))
        tuples = ThroughputTrace(samples)
        parsed = parse_throughput_trace(serialize_throughput_trace(tuples))
        assert parsed._starts.typecode == parsed._bws.typecode == "d"
        assert parsed == tuples and tuples == parsed and hash(parsed) == hash(tuples)
        assert len({parsed, tuples}) == 1
        assert parsed != ThroughputTrace(samples[:-1]) and parsed != samples
        assert repr(parsed) == repr(tuples)
        assert parsed.samples == tuples.samples == samples
        assert all(type(x) is float for pair in parsed.samples for x in pair)
        assert serialize_throughput_trace(parsed) == serialize_throughput_trace(tuples)
        copies = [copy.copy(parsed), copy.deepcopy(parsed)]
        copies += [pickle.loads(pickle.dumps(parsed, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in copies:
            assert type(again) is ThroughputTrace and type(again._bws) is array
            assert again == tuples and hash(again) == hash(tuples)
            assert repr(again) == repr(tuples)
            with pytest.raises(FrozenInstanceError):
                again._bws = ()
        assert copies[1]._bws is not parsed._bws

    def test_generated_traces_are_packed(self):
        trace = generate_scenario("mixed", 3, 20)
        assert type(trace._starts) is array and type(trace._bws) is array
        assert trace == ThroughputTrace(trace.samples)
        assert trace._starts.tolist() == [float(i) for i in range(20)]

    def test_a_parsed_sample_holds_at_most_24_bytes(self):
        """Two packed doubles are 16 bytes a sample; two float objects and
        two tuple slots would be 64."""
        n = 30_000
        text = _fine_trace_text(n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = parse_throughput_trace(text)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace.samples) == n
        assert held <= 24 * n, f"{held / n:.1f} bytes a sample"

    def test_parsing_peaks_at_most_180_bytes_a_sample(self):
        """At its peak the parse holds the lines, two float columns and one
        block's fields, never the fields of the whole file."""
        n = 30_000
        text = _fine_trace_text(n)
        tracemalloc.start()
        try:
            parse_throughput_trace(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 180 * n, f"{peak / n:.1f} bytes a sample"


def _fine_trace_text(n):
    """``n`` samples 10 ms apart, as the lines of a fine-grained trace."""
    return "\n".join(f"{i / 100!r},{1000.0 + i % 7!r}" for i in range(n)) + "\n"


def _reference_trace(samples):
    """The sample rules as one loop over ``(t, bw)`` pairs; returns them."""
    samples = tuple(samples)
    if not samples:
        raise TraceFormatError("trace must contain at least one sample")
    if samples[0][0] != 0:
        raise TraceSampleError(0, "trace must start at timestamp 0")
    inf = math.inf
    prev = -inf
    for i, (t, bw) in enumerate(samples):
        if not prev < t < inf:
            raise TraceSampleError(i, "timestamps must be finite and strictly increasing")
        if not 0 <= bw < inf:
            raise TraceSampleError(i, "bandwidth must be finite and non-negative")
        prev = t
    return samples


def _reference_parse(text: str):
    """The line-by-line parser that the bulk parser replaced, kept as it
    was but for building ``_reference_trace`` (the samples) in place of a
    trace."""
    samples = []
    linenos = array("l")  # not int objects, which would scatter the samples in memory
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.replace(" ", "") == THROUGHPUT_HEADER:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceFormatError(f"line {lineno}: expected 2 fields, got {len(parts)}")
        try:
            samples.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise TraceFormatError(f"line {lineno}: non-numeric field") from None
        linenos.append(lineno)
    try:
        return _reference_trace(tuple(samples))
    except TraceSampleError as exc:
        index, rule = exc.args
        raise TraceFormatError(f"line {linenos[index]}: {rule}") from None


def _outcome(parse, text):
    """The samples ``parse`` reads from ``text`` (as reprs, so -0.0 and 0.0
    differ), or the type and message of what it raised."""
    try:
        result = parse(text)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    samples = result.samples if isinstance(result, ThroughputTrace) else result
    return repr(samples)


_NUMBER = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(-5, 60, allow_nan=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "NaN", "1e1", "1_0", "-0", "+2.5",
                     "0x1", "abc", "", " ", "1 0", "\u00a03\u00a0"]))
_PAD = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _sample_line(draw):
    fields = draw(st.lists(_NUMBER, min_size=1, max_size=3))
    pads = [draw(_PAD) for _ in range(2)]
    return pads[0] + ",".join(fields) + pads[1]


@st.composite
def _valid_lines(draw):
    """Sample lines of a trace that ``_reference_trace`` accepts."""
    n = draw(st.integers(1, 12))
    steps = draw(st.lists(st.integers(1, 9), min_size=n - 1, max_size=n - 1))
    t, lines = 0, []
    for step in [0] + steps:
        t += step
        bw = draw(st.one_of(st.integers(0, 9000).map(str),
                            st.floats(0, 9000).map(repr)))
        lines.append(f"{draw(_PAD)}{t / 4!r},{draw(_PAD)}{bw}{draw(_PAD)}")
    return lines


@st.composite
def _trace_text(draw):
    lines = draw(st.one_of(
        _valid_lines(),
        st.lists(_sample_line(), max_size=8),
        # a valid trace with one line replaced (a bad field, a field too
        # many or few, an out-of-order timestamp) or repeated
        st.tuples(_valid_lines(), _sample_line(), st.integers(0, 11)).map(
            lambda v: v[0][:v[2]] + [v[1]] + v[0][v[2] + 1:]),
        st.tuples(_valid_lines(), st.integers(0, 11)).map(
            lambda v: v[0] + [v[0][min(v[1], len(v[0]) - 1)]]),
        # ... or one bandwidth replaced, by a bad value or an edge case
        st.tuples(_valid_lines(), st.integers(0, 11),
                  st.sampled_from(["nan", "inf", "-1", "-0.0", "1e400", "0"])).map(
            lambda v: [line if i != v[1] else line.rsplit(",", 1)[0] + "," + v[2]
                       for i, line in enumerate(v[0])])))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " ", "\t", " \t "])))
    header = draw(st.sampled_from([None, THROUGHPUT_HEADER,
                                   " timestamp_s, bandwidth_kbps ",
                                   "timestamp_s;bandwidth_kbps"]))
    if header is not None:
        lines.insert(draw(st.sampled_from([0, 0, 0, 1])), header)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestParseMatchesReference:
    """The bulk parser accepts and rejects what the line-by-line parser did,
    with the same samples or the same message."""

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(_trace_text())
    def test_same_samples_or_same_message(self, text):
        assert _outcome(parse_throughput_trace, text) == _outcome(_reference_parse, text)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(0, 1e9)),
                    min_size=1, max_size=20))
    def test_serialize_parse_round_trip(self, pairs):
        samples, t = [], 0.0
        for step, bw in pairs:
            samples.append((t, bw))
            t += step
        trace = ThroughputTrace(samples)
        again = parse_throughput_trace(serialize_throughput_trace(trace))
        assert again == trace and again.samples == tuple(samples)

    @pytest.mark.parametrize("lineno, line, message", [
        (20_001, "200.0,1500.0,7", "line 20001: expected 2 fields, got 3"),
        (29_999, "299.97,nan", "line 29999: bandwidth must be finite and non-negative"),
        (15_000, "149.97,1500.0",
         "line 15000: timestamps must be finite and strictly increasing"),
        # with the header, the first block holds lines 2-4097
        (4_097, "40.95,1500.0,7", "line 4097: expected 2 fields, got 3"),
        (4_098, "40.96,abc", "line 4098: non-numeric field"),
        (4_097, "40.95,-1", "line 4097: bandwidth must be finite and non-negative"),
        (4_098, "40.95,1500.0",
         "line 4098: timestamps must be finite and strictly increasing"),
    ], ids=["3-fields", "nan", "repeated-timestamp", "block-end-3-fields",
            "block-start-non-numeric", "block-end-negative",
            "block-start-repeated-timestamp"])
    def test_large_file_error_names_its_line(self, lineno, line, message):
        lines = [THROUGHPUT_HEADER] + [f"{i / 100!r},{1000.0 + i % 7!r}"
                                       for i in range(29_999)]
        text = "\n".join(lines) + "\n"
        assert len(parse_throughput_trace(text).samples) == 29_999
        lines[lineno - 1] = line
        broken = "\n".join(lines) + "\n"
        with pytest.raises(TraceFormatError) as exc:
            parse_throughput_trace(broken)
        assert str(exc.value) == message
        assert _outcome(_reference_parse, broken) == (TraceFormatError, message)


def _reference_parse_behavior(text: str) -> list[BehaviorTrace]:
    """The line-by-line parser that the bulk parser replaced, kept as it was."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.replace(" ", "") == BEHAVIOR_HEADER:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise TraceFormatError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            total, swipe = int(parts[2]), int(parts[3])
        except ValueError:
            raise TraceFormatError(f"line {lineno}: non-integer chunk count") from None
        try:
            out.append(BehaviorTrace(parts[0], parts[1], total, swipe))
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None
    if not out:
        raise TraceFormatError("empty behavior trace file")
    return out


def _behavior_outcome(parse, text):
    """The rows ``parse`` reads from ``text``, with their types, or the type
    and message of what it raised."""
    try:
        rows = parse(text)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return [(type(row), tuple(map(type, row)), tuple(row)) for row in rows]


_BEHAVIOR_PAD = st.sampled_from(["", " ", "\t", "\xa0", "\u3000", " \t"])
_COUNT = st.one_of(
    st.integers(0, 150).map(str),
    st.sampled_from(["1_0", "+5", "10.0", "0", "-1", "-0", "", "abc", "1e1",
                     "\u0663", "5\x1f", "1 0", "0x1"]))
_NAME = st.text(alphabet="ab_1 -.", max_size=4)


@st.composite
def _behavior_line(draw):
    """A line of 3 to 5 padded fields, any of them bad."""
    n = draw(st.integers(3, 5))
    fields = [draw(_NAME) for _ in range(2)] + [draw(_COUNT) for _ in range(n - 2)]
    return ",".join(draw(_BEHAVIOR_PAD) + f + draw(_BEHAVIOR_PAD) for f in fields)


@st.composite
def _valid_behavior_lines(draw):
    """Rows that ``BehaviorTrace`` accepts, K up to 150 so some exceed 100."""
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        total = draw(st.integers(1, 150))
        swipe = draw(st.integers(1, total))
        fields = [draw(_NAME), draw(st.sampled_from(["quick", "drama", "c 1"])),
                  str(total), str(swipe)]
        lines.append(",".join(draw(_BEHAVIOR_PAD) + f + draw(_BEHAVIOR_PAD)
                              for f in fields))
    return lines


def _replace_count(lines, i, column, value):
    i = min(i, len(lines) - 1)
    parts = lines[i].split(",")
    parts[column] = value
    return lines[:i] + [",".join(parts)] + lines[i + 1:]


@st.composite
def _behavior_text(draw):
    lines = draw(st.one_of(
        _valid_behavior_lines(),
        st.lists(_behavior_line(), max_size=8),
        # a valid population with one line replaced ...
        st.tuples(_valid_behavior_lines(), _behavior_line(), st.integers(0, 11)).map(
            lambda v: v[0][:v[2]] + [v[1]] + v[0][v[2] + 1:]),
        # ... or one count replaced, by an edge case or an out-of-range value
        st.tuples(_valid_behavior_lines(), st.integers(0, 11), st.sampled_from([2, 3]),
                  st.sampled_from(["1_0", "+5", "10.0", "0", "-2", "151", "1000"])).map(
            lambda v: _replace_count(v[0], *v[1:])),
        # ... or a line with 2 commas next to one with 4: 8 fields that
        # read as two valid rows if only the total were counted
        st.tuples(_valid_behavior_lines(), st.integers(0, 11)).map(
            lambda v: v[0][:v[1]] + ["x,c,5", "1,y,c,6,2"] + v[0][v[1]:])))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " ", "\t", "\xa0", " \u3000 "])))
    header = draw(st.sampled_from([None, BEHAVIOR_HEADER,
                                   " trace_id, category,total_chunks , swipe_chunk",
                                   "trace_id;category;total_chunks;swipe_chunk"]))
    if header is not None:
        if draw(st.booleans()):
            lines.insert(0, header)
        else:
            lines[:0] = ["", header]  # a header after a blank first line
    newline = draw(st.sampled_from(["\n", "\r\n", "\r", "\u2028"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestParseBehaviorMatchesReference:
    """The bulk parser accepts and rejects what the line-by-line parser did,
    with the same rows or the same message."""

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(_behavior_text())
    def test_same_rows_or_same_message(self, text):
        assert (_behavior_outcome(parse_behavior_traces, text)
                == _behavior_outcome(_reference_parse_behavior, text))

    @pytest.mark.parametrize("text", [
        "", "\n \n", BEHAVIOR_HEADER, BEHAVIOR_HEADER + "\n\n",
        "\n" + BEHAVIOR_HEADER + "\nt,c,3,1", "t,c,1_0,+5", "t,c,10.0,5",
        "t,c,5,5\x1f", "t,c,0,0", "t,c,3,4", "t,c,3,0", "x,c,5\n1,y,c,6,2",
    ])
    def test_edge_cases(self, text):
        assert (_behavior_outcome(parse_behavior_traces, text)
                == _behavior_outcome(_reference_parse_behavior, text))

    @pytest.mark.parametrize("lineno, line, message", [
        (20_001, "b20000,c04,40,3,9", "line 20001: expected 4 fields, got 5"),
        (59_999, "b59998,c02,40.5,3", "line 59999: non-integer chunk count"),
        (30_000, "b29999,c11,10,11",
         "line 30000: trace b29999: swipe_chunk 11 out of range 1..10"),
        # with the header, the first block holds lines 2-4097
        (4_097, "b04095,c03,40,3,9", "line 4097: expected 4 fields, got 5"),
        (4_098, "b04096,c04,x,3", "line 4098: non-integer chunk count"),
        (4_097, "b04095,c03,10,0",
         "line 4097: trace b04095: swipe_chunk 0 out of range 1..10"),
        (4_098, "b04096,c04,0,1", "line 4098: trace b04096: total_chunks must be >= 1"),
    ], ids=["5-fields", "non-integer", "swipe-beyond-total", "block-end-5-fields",
            "block-start-non-integer", "block-end-swipe-0", "block-start-total-0"])
    def test_large_file_error_names_its_line(self, lineno, line, message):
        lines = [BEHAVIOR_HEADER] + [f"b{i:05d},c{i % 12:02d},{5 + i % 86},{1 + i % 5}"
                                     for i in range(59_999)]
        text = "\n".join(lines) + "\n"
        assert len(parse_behavior_traces(text)) == 59_999
        lines[lineno - 1] = line
        broken = "\n".join(lines) + "\n"
        with pytest.raises(TraceFormatError) as exc:
            parse_behavior_traces(broken)
        assert str(exc.value) == message
        assert _behavior_outcome(_reference_parse_behavior, broken) == (
            TraceFormatError, message)
