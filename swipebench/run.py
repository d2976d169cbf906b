"""Benchmark of `swipesim compare`: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 swipebench/run.py --workload matrix --seed 11 --seconds 35 --trace 0

The workload's input files are generated from the seed first. Then, for
``--seconds``, whole rounds are run: each round is one `compare` command in
a fresh interpreter (`child.py`). With ``--trace 0`` the rounds carry no
tracing and the end-to-end metrics are medians over them; with ``--trace 1``
untraced and traced rounds alternate and the per-layer metrics come from
the traced ones. The outputs are checked afterwards (`checks.py`). Metric
names and units are those BENCHMARK.json declares. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".swipebench"
MIN_UNTRACED_ROUNDS = 3
CHILD_TIMEOUT_S = 150


def _declared(kind: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class Rounds:
    """Runs `compare` rounds in fresh interpreters and keeps their results."""

    def __init__(self, work: Path, compare_args: list[str]):
        self.work = work
        self.compare_args = compare_args
        self.count = 0
        self.digests = set()
        self.last_out = {}

    def run(self, traced: bool) -> dict:
        self.count += 1
        out = self.work / f"round{self.count:03d}"
        result_path = self.work / f"round{self.count:03d}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), str(SRC),
               str(result_path), "1" if traced else "0", "--",
               *self.compare_args, "--out", str(out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"round {self.count} failed "
                               f"({proc.returncode}):\n{proc.stderr}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        text = (out / "sessions.csv").read_text()
        self.digests.add(hashlib.sha256(text.encode()).hexdigest())
        rows = [line.split(",") for line in text.splitlines()[1:]]
        result["rows"] = len(rows)
        result["ok_rows"] = sum(1 for r in rows if r[4] != "")
        result["report_bytes"] = sum(f.stat().st_size for f in out.iterdir())
        previous = self.last_out.get(traced)
        if previous is not None:
            shutil.rmtree(previous)
        self.last_out[traced] = out
        return result


def end_to_end(untraced: list[dict], dtaap) -> dict:
    med = statistics.median
    watched = sum(v.watched_chunks for r in dtaap for v in r.videos)
    watched_kbps = sum(sum(v.bitrates[:v.watched_chunks])
                       for r in dtaap for v in r.videos)
    return {
        "sessions_per_s": med(r["ok_rows"] / r["batch_s"] for r in untraced),
        "total_s": med(r["total_s"] for r in untraced),
        "setup_s": med(r["setup_s"] for r in untraced),
        "cpu_s": med(r["cpu_s"] for r in untraced),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
        "dtaap_waste_mbit": statistics.fmean(r.waste_mbit_total for r in dtaap),
        "dtaap_rebuffer_s": statistics.fmean(r.rebuffer_total_s for r in dtaap),
        "dtaap_bitrate_kbps": watched_kbps / watched,
    }


def _layers_of_round(r: dict, strategies) -> dict:
    from checks import nearest_rank

    tr = r["trace"]
    spans = tr["spans"]

    def count(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def busy(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        rec = spans.get(name, [0, 0.0, 0.0])
        return rec[1] - rec[2]

    sessions = count("engine.run_session")
    decisions = tr["decisions"]
    records = count("throughput.record")
    v = {
        "trace_io.finish_calls": count("trace_io.finish"),
        "trace_io.finish_s": busy("trace_io.finish"),
        "trace_io.segments_per_finish":
            tr["segments"] / max(tr["finite_finishes"], 1),
        "trace_io.parse_s": busy("trace_io.parse"),
        "retention.build_s": busy("retention.build"),
        "retention.profile_misses": count("retention.profile"),
        "retention.profile_s":
            busy("retention.profile") + busy("retention.profile_cdf"),
        "retention.profile_miss_ratio":
            count("retention.profile") / max(tr["videos_entered"], 1),
        "throughput.record_calls": records,
        "throughput.window_mean_calls": count("throughput.window_mean"),
        "throughput.means_per_record":
            count("throughput.window_mean") / max(records, 1),
    }
    for name in strategies:
        calls, downloads = decisions.get(name, [0, 0])
        v[f"strategy.{name}.decide_calls"] = calls
        v[f"strategy.{name}.decide_s"] = busy(f"strategy.{name}")
        v[f"strategy.{name}.download_ratio"] = downloads / max(calls, 1)
    v.update({
        "core.chunkref_create_calls": count("core.chunkref_create"),
        "core.record_download_calls": count("core.record_download"),
        "metrics.score_calls": count("metrics.score"),
        "metrics.score_s": busy("metrics.score"),
        "engine.session_ms_p50": nearest_rank(tr["session_ms"], 0.5),
        "engine.session_ms_p99": nearest_rank(tr["session_ms"], 0.99),
        "engine.decisions_per_session":
            sum(c for c, _ in decisions.values()) / sessions,
        "engine.downloads_per_session":
            sum(d for _, d in decisions.values()) / sessions,
        "engine.swipes_per_session": tr["videos_entered"] / sessions,
        "engine.self_s": own("engine.run_session"),
        "engine.batch_overhead_s": own("engine.run_batch"),
        "engine.report_s": busy("engine.report"),
        "cli.write_s": r["write_s"] - busy("engine.report"),
        "cli.report_bytes": r["report_bytes"],
    })
    return v


def per_layer(untraced: list[dict], traced: list[dict], strategies) -> dict:
    rounds = [_layers_of_round(r, strategies) for r in traced]
    values = {k: statistics.median_low(r[k] for r in rounds) for k in rounds[0]}
    values["tracing.overhead_s"] = (
        statistics.median(r["total_s"] for r in traced)
        - statistics.median(r["total_s"] for r in untraced))
    return values


def measure(rounds: Rounds, seconds: float, trace: bool):
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(rounds.run(traced=False))
        if trace:
            traced.append(rounds.run(traced=True))
        step = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        enough = trace or len(untraced) >= MIN_UNTRACED_ROUNDS
        if enough and elapsed + step > seconds:
            return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "swipesim" / "__init__.py").is_file():
        print(f"error: no swipesim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import check_outputs
    from inputs import STRATEGIES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"valid: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    make_inputs, n_scripts = WORKLOADS[args.workload]
    compare_args = make_inputs(inputs, args.seed)

    rounds = Rounds(work, compare_args)
    untraced, traced = measure(rounds, args.seconds, bool(args.trace))
    (work / "rounds.json").write_text(json.dumps(
        {"untraced": untraced, "traced": traced}) + "\n")
    last = rounds.last_out[bool(args.trace)]
    problems, failed, dtaap = check_outputs(
        inputs, last, STRATEGIES, n_scripts, args.seed)
    if len(rounds.digests) != 1:
        problems.append(f"sessions.csv differs across rounds of one seed: "
                        f"{len(rounds.digests)} digests")
    rows_per_round = untraced[0]["rows"]
    attempted = rows_per_round * rounds.count
    failed += sum(r["rows"] - r["ok_rows"] for r in untraced + traced)

    if args.trace:
        values = per_layer(untraced, traced, STRATEGIES)
        units = _declared("per_layer")
    else:
        values = end_to_end(untraced, dtaap)
        units = _declared("end_to_end")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {rounds.count} rounds "
          f"of {rows_per_round} sessions, checks "
          f"{'passed' if not problems else 'FAILED'}")
    print(f"  dtaap reference: mean qoe "
          f"{statistics.fmean(r.qoe_total for r in dtaap):.4f}, mean utility "
          f"{statistics.fmean(r.utility for r in dtaap):.4f} per session")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    if problems:
        return 1
    # the inputs are made again from the seed; keep them only to debug
    shutil.rmtree(inputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
