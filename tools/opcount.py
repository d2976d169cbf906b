"""Count the bytecodes a fixed slice of sessions executes.

Usage, from the root of a checkout:

    python3 tools/opcount.py [--src src]

The slice is 50 sessions: the five strategies, each over the first script
of `swipesim compare --seed 11` and the first five `medium` and five
`mixed` traces that `compare --seed 11` generates. Every session runs once
untraced first, so the per-video caches are warm, and then once under a
`sys.settrace` hook with opcode events on. The script prints the total
opcode count, the count per source module, each strategy's total over its
ten sessions and the summed session utility, which shows that a change
left the output alone. One more untraced pass runs the slice with
`record_timeline=True` and prints `timeline_sha256`, the SHA-256 of the
`repr` of each session's timeline in slice order. So a change to the
engine loop shows next to its opcode counts that it kept every event and
the raw order of the events, which the sorted timelines of the oracle
tests cannot see.

The slice runs trace by trace, each trace's five strategies back to back,
as `run_batch` runs a batch, and like `run_batch` it gives each trace's
sessions one shared dict of finish times, a new one in each pass. So the
count includes both the memo's cost and its savings: a trace's first
session computes its finishes and the four after it find the ones they
share. The utilities are added in strategy-major order, the order of the
batch's rows, so the sum does not depend on the execution order.

A bytecode count does not depend on the host's speed, so it can show that
a change removed work where paired timings are too noisy to. A call into
C counts as one opcode, so a count is read next to timings, never instead
of them. Tracing slows a session about 70 times; the slice stays small,
and nothing here runs in the tests or in the benchmark.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from collections import Counter
from pathlib import Path

SEED = 11
SCENARIOS = ("medium", "mixed")
TRACES_PER_SCENARIO = 5


def _module(filename: str) -> str:
    path = Path(filename)
    return path.stem if path.suffix == ".py" else filename


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory that holds the swipesim package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from swipesim import cli
    from swipesim.core import SessionConfig
    from swipesim.engine import run_session
    from swipesim.strategy import STRATEGY_NAMES, make_strategy

    opts = cli.build_parser().parse_args(
        ["compare", "--seed", str(SEED), "--out", "unused"])
    grouped = cli._behavior_by_category(opts)
    models = cli._resolve_models(opts, grouped)
    script = cli._build_scripts(opts, grouped, 1)[0]
    traces = cli._build_traces(opts, list(SCENARIOS), TRACES_PER_SCENARIO,
                               opts.duration)
    config = SessionConfig()
    strategies = [make_strategy(name) for name in STRATEGY_NAMES]
    for ref in traces:
        finishes: dict = {}
        for strategy in strategies:
            run_session(script, ref.trace, strategy, config, models,
                        finishes=finishes)

    ops: Counter = Counter()

    def tracer(frame, event, _arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            ops[frame.f_code.co_filename] += 1
        return tracer

    utilities: dict = {name: [] for name in STRATEGY_NAMES}
    per_strategy: Counter = Counter()
    for ref in traces:
        finishes = {}
        for strategy in strategies:
            before = sum(ops.values())
            sys.settrace(tracer)
            try:
                res = run_session(script, ref.trace, strategy, config, models,
                                  finishes=finishes)
            finally:
                sys.settrace(None)
            per_strategy[strategy.name] += sum(ops.values()) - before
            utilities[strategy.name].append(res.utility)
    utility = 0.0
    for name in STRATEGY_NAMES:
        for u in utilities[name]:
            utility += u

    timelines = hashlib.sha256()
    for ref in traces:
        finishes = {}
        for strategy in strategies:
            res = run_session(script, ref.trace, strategy, config, models,
                              record_timeline=True, finishes=finishes)
            timelines.update(repr(res.timeline).encode())

    per_module: Counter = Counter()
    for filename, n in ops.items():
        per_module[_module(filename)] += n
    print(f"sessions {len(traces) * len(strategies)}")
    print(f"opcodes {sum(per_module.values())}")
    for name, n in per_module.most_common():
        print(f"  {name} {n}")
    print(f"strategy_opcodes {len(traces)} sessions each")
    for name in STRATEGY_NAMES:
        print(f"  {name} {per_strategy[name]}")
    print(f"utility_sum {utility!r}")
    print(f"timeline_sha256 {timelines.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
