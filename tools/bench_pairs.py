"""Paired swipebench runs of two checkouts, written as one BENCH_*.json.

Usage, from the root of a checkout (the change), with the parent commit
unpacked in another directory:

    git archive --prefix=parent/ <parent-commit> | tar -x -C /tmp
    python3 tools/bench_pairs.py --parent /tmp/parent --change . \\
        --parent-commit <parent-commit> --claim swipe-storm --out BENCH_10.json

``--claim`` names the workload whose gain the change claims. For each seed
(11 and the held-out 1011), ten pairs of untraced `swipebench/run.py` runs
of that workload alternate between the two sides, the parent first in even
pairs and the change first in odd ones. Every other workload gets three
pairs per seed. On the claimed workload each side also gets one traced run
for the per-layer counts, and five rounds time each strategy's milliseconds
per full untraced session, in one fresh interpreter per side per round with
the order alternating as in the pairs; the change also gets one cProfile
top-20 of a `compare`. Each side runs its own `swipebench/` on its own
`src/`, which sets the run length. Runs are sequential; nothing else should
run on the machine meanwhile.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = (11, 1011)
CLAIM_PAIRS = 10
OTHER_PAIRS = 3
# host metrics summarised per side; the simulated ones must be equal
HOST_METRICS = ("sessions_per_s", "total_s", "setup_s", "cpu_s",
                "peak_rss_mb")

# the workload names, read from the change's own `swipebench/inputs.py`
WORKLOAD_NAMES = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/swipebench"]
from inputs import WORKLOADS
print(json.dumps(list(WORKLOADS)))
"""

PROFILE = """
import cProfile, io, pstats, sys, tempfile
from pathlib import Path
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/swipebench"]
from inputs import WORKLOADS
from swipesim import cli
with tempfile.TemporaryDirectory() as tmp:
    (Path(tmp) / "in").mkdir()
    args = WORKLOADS[sys.argv[3]][0](Path(tmp) / "in", int(sys.argv[2]))
    prof = cProfile.Profile()
    prof.enable()
    rc = cli.main(args + ["--out", str(Path(tmp) / "out")])
    prof.disable()
if rc:
    sys.exit(rc)
out = io.StringIO()
stats = pstats.Stats(prof, stream=out).strip_dirs().sort_stats("tottime")
stats.print_stats(20)
print(out.getvalue())
"""


# Milliseconds per full session of each strategy, untraced, in one fresh
# interpreter: after one warm-up `compare` of the whole workload, each
# strategy's part alone is run once and its batch time per session printed.
SESSION_MS = """
import contextlib, io, json, sys, tempfile, time
from pathlib import Path
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/swipebench"]
from inputs import STRATEGIES, WORKLOADS
from swipesim import cli
batches = []
run_batch = cli.run_batch
def timed(*args, **kwargs):
    t0 = time.perf_counter()
    report = run_batch(*args, **kwargs)
    batches.append((time.perf_counter() - t0, len(report.rows)))
    return report
cli.run_batch = timed
def compare(args, out):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(args + ["--out", out]):
            sys.exit(1)
with tempfile.TemporaryDirectory() as tmp:
    (Path(tmp) / "in").mkdir()
    args = WORKLOADS[sys.argv[3]][0](Path(tmp) / "in", int(sys.argv[2]))
    compare(args, str(Path(tmp) / "warm-up"))
    at = args.index("--strategy") + 1
    result = {}
    for name in STRATEGIES:
        compare(args[:at] + [name] + args[at + 1:], str(Path(tmp) / name))
        seconds, sessions = batches[-1]
        result[name] = 1000.0 * seconds / sessions
print(json.dumps(result))
"""
SESSION_MS_ROUNDS = 5


def sides(i: int) -> tuple[str, str]:
    """The order of the two sides in round ``i``: the parent first in even
    rounds, the change first in odd ones."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def bench(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One `swipebench/run.py` run; its metrics as name -> value."""
    proc = subprocess.run(
        [sys.executable, "swipebench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"]:
        raise SystemExit(f"{root} {workload} seed {seed}: run failed "
                         f"(exit {proc.returncode})\n{proc.stderr}")
    return {k: m["value"] for k, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def paired(parent: Path, change: Path, workload: str, seed: int,
           pairs: int) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        for side in sides(i):
            root = parent if side == "parent" else change
            runs[side].append(bench(root, workload, seed, 0))
            print(f"{workload} seed {seed} pair {i} {side}: "
                  f"{runs[side][-1]['sessions_per_s']:.1f} sessions/s",
                  file=sys.stderr, flush=True)
    out = {"pairs": pairs, "runs": runs}
    for name in HOST_METRICS:
        metric = {side: [r[name] for r in runs[side]] for side in runs}
        out[name] = {side: summary(v) for side, v in metric.items()}
        # sessions_per_s is better higher, the other host metrics lower
        sign = 1 if name == "sessions_per_s" else -1
        out[name]["change_better"] = sum(
            sign * (c - p) > 0
            for p, c in zip(metric["parent"], metric["change"]))
    return out


def session_ms(parent: Path, change: Path, workload: str, seed: int,
               rounds: int) -> dict:
    """Each side's milliseconds per session of each strategy: one fresh
    `SESSION_MS` interpreter per side per round, alternating as in
    `paired`; the median over the rounds and every round's value."""
    runs = {"parent": {}, "change": {}}
    for i in range(rounds):
        for side in sides(i):
            root = parent if side == "parent" else change
            out = subprocess.run(
                [sys.executable, "-c", SESSION_MS, str(root), str(seed),
                 workload],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            for name, ms in json.loads(out).items():
                runs[side].setdefault(name, []).append(ms)
    return {side: {name: {"median": statistics.median(ms), "runs": ms}
                   for name, ms in by_name.items()}
            for side, by_name in runs.items()}


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted((root / "src" / "swipesim").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--claim", required=True,
                        help="the workload whose gain the change claims")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    workloads = json.loads(subprocess.run(
        [sys.executable, "-c", WORKLOAD_NAMES, str(change)],
        stdout=subprocess.PIPE, text=True, check=True).stdout)
    claim = args.claim
    if claim not in workloads:
        parser.error(f"--claim: {claim!r} is not a workload of "
                     f"{change}/swipebench; choose one of {workloads}")
    report = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "parent_commit": args.parent_commit,
        "src_sha256": {"parent": src_digest(parent),
                       "change": src_digest(change)},
        "claim": claim, "claimed": {}, "other_workloads": {},
        "claimed_trace_1": {}, "session_ms": {},
    }
    for seed in SEEDS:
        report["claimed"][str(seed)] = paired(
            parent, change, claim, seed, CLAIM_PAIRS)
    for workload in workloads:
        if workload != claim:
            report["other_workloads"][workload] = {
                str(seed): paired(parent, change, workload, seed, OTHER_PAIRS)
                for seed in SEEDS}
    for side, root in (("parent", parent), ("change", change)):
        report["claimed_trace_1"][side] = bench(root, claim, SEEDS[0], 1)
    report["session_ms"] = session_ms(parent, change, claim, SEEDS[0],
                                      SESSION_MS_ROUNDS)
    profile = subprocess.run(
        [sys.executable, "-c", PROFILE, str(change), str(SEEDS[0]), claim],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    # the command's own output (the files it wrote) precedes the stats
    lines = profile.splitlines()
    start = next(i for i, line in enumerate(lines) if "function calls" in line)
    report["change_cprofile_top20"] = [
        line for line in lines[start:] if line.strip()]
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
