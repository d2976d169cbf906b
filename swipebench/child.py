"""One timed `swipesim compare`, run in-process in a fresh interpreter.

Usage: child.py SRC RESULT_JSON TRACE(0|1) -- <compare arguments>

Times the three phases of the command: set-up (from `main` to the entry of
`run_batch`), the batch, and the report writing after it. With TRACE=1 the
public functions of every layer are wrapped first and the per-layer span
aggregates are added to the result. The result is written as JSON to
RESULT_JSON.
"""
from __future__ import annotations

import json
import math
import resource
import sys
from time import perf_counter


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    # ru_maxrss is in KiB on Linux; the largest child's peak is added to ours
    return cpu, (own.ru_maxrss + kids.ru_maxrss) / 1024.0


class _TracedStrategy:
    """A strategy whose `decide` is traced; everything else is the original."""

    def __init__(self, inner, decide):
        self._inner = inner
        self.name = inner.name
        self.decide = decide

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class Tracer:
    """Span aggregates per layer, kept in memory while the command runs.

    Each span name keeps its call count, its inclusive busy time and the
    time of the spans directly inside it; a layer's self time is the
    difference. A wrapper's own bookkeeping is booked as child time of the
    caller, so tracing cost stays out of the caller's self time.
    """

    def __init__(self):
        self.spans = {}
        self.stack = []
        self.session_ms = []
        self.videos_entered = 0
        self.segments = 0
        self.finite_finishes = 0
        self.decisions = {}

    def wrap(self, name, fn, after=None):
        """`fn` recorded as span `name`; `after(seconds, args, result)` runs
        outside the span."""
        stack = self.stack
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                rec[0] += 1
                rec[1] += d
                rec[2] += stack.pop()
            if after is not None:
                after(d, args, result)
            if stack:
                stack[-1] += perf_counter() - t0
            return result
        return traced

    def _after_session(self, d, args, _result):
        self.session_ms.append(d * 1000.0)
        self.videos_entered += len(args[0].videos)

    def _after_finish(self, _d, args, finish):
        if not math.isinf(finish):
            trace, start_s = args[0], args[1]
            self.segments += (trace.segment_index(finish)
                              - trace.segment_index(start_s) + 1)
            self.finite_finishes += 1

    def _traced_strategy(self, strategy, download_type):
        counts = self.decisions.setdefault(strategy.name, [0, 0])

        def after(_d, _args, action):
            counts[0] += 1
            if isinstance(action, download_type):
                counts[1] += 1
        return _TracedStrategy(strategy, self.wrap(
            f"strategy.{strategy.name}", strategy.decide, after))

    def install(self, cli, core, engine, metrics, strategy_mod, throughput):
        wrap = self.wrap
        cli.parse_throughput_trace = wrap("trace_io.parse",
                                          cli.parse_throughput_trace)
        cli.build_model = wrap("retention.build", cli.build_model)
        cli.run_batch = wrap("engine.run_batch", cli.run_batch)
        engine.download_finish_time = wrap(
            "trace_io.finish", engine.download_finish_time, self._after_finish)
        engine.derive_thresholds = wrap("retention.profile",
                                        engine.derive_thresholds)
        engine.swipe_cdf = wrap("retention.profile_cdf", engine.swipe_cdf)
        engine.run_session = wrap("engine.run_session", engine.run_session,
                                  self._after_session)
        hist = throughput.ThroughputHistory
        hist.record_download = wrap("throughput.record", hist.record_download)
        hist.window_mean = wrap("throughput.window_mean", hist.window_mean)
        create = core.ChunkRef.__dict__["create"].__func__
        core.ChunkRef.create = classmethod(wrap("core.chunkref_create", create))
        buf = core.PlayerBuffer
        buf.record_download = wrap("core.record_download", buf.record_download)
        for fn in ("qoe_video", "total_kilobits", "utility"):
            setattr(metrics, fn, wrap("metrics.score", getattr(metrics, fn)))
        report = engine.BatchReport
        for fn in ("sessions_csv", "aggregates_csv", "to_json_dict"):
            setattr(report, fn, wrap("engine.report", getattr(report, fn)))
        make_strategy = cli.make_strategy
        download = strategy_mod.Download
        cli.make_strategy = lambda *a, **k: self._traced_strategy(
            make_strategy(*a, **k), download)

    def summary(self) -> dict:
        return {"spans": self.spans, "session_ms": self.session_ms,
                "videos_entered": self.videos_entered,
                "segments": self.segments,
                "finite_finishes": self.finite_finishes,
                "decisions": self.decisions}


def main(argv) -> int:
    src, result_path, traced = argv[1], argv[2], argv[3] == "1"
    compare_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, src)
    from swipesim import cli, core, engine, metrics, strategy, throughput

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(cli, core, engine, metrics, strategy, throughput)
    marks = {}
    run_batch = cli.run_batch

    def marked_batch(*args, **kwargs):
        marks["enter"] = perf_counter()
        try:
            return run_batch(*args, **kwargs)
        finally:
            marks["exit"] = perf_counter()
    cli.run_batch = marked_batch

    cpu0, _ = _rusage()
    t0 = perf_counter()
    rc = cli.main(compare_args)
    t_end = perf_counter()
    cpu1, peak_mb = _rusage()
    if rc != 0:
        print(f"swipesim compare exited with {rc}", file=sys.stderr)
        return 1
    result = {
        "setup_s": marks["enter"] - t0,
        "batch_s": marks["exit"] - marks["enter"],
        "write_s": t_end - marks["exit"],
        "total_s": t_end - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_mb,
    }
    if tracer:
        result["trace"] = tracer.summary()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
