"""Command-line front end.

Subcommands:
  model build   build per-category retention models from a behavior CSV
  gen           generate synthetic throughput trace files
  run           simulate a single session and emit its result as JSON
  compare       run a strategy x scenario matrix and write report files

Inputs the user does not supply are synthesized deterministically from the
seed: a default video catalog, a default behavior population, and
per-scenario throughput traces. Every command is idempotent for identical
inputs and seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from pathlib import Path

from .core import (BitrateLadder, SessionConfig, VideoSpec, json_count,
                   json_fields, json_list, json_number, json_text)
from .engine import TraceRef, SessionScript, run_batch, run_session, sample_script
from .retention import build_model, model_from_dict, model_to_json
from .strategy import FIXB_CURRENT, FIXB_NEXT, STRATEGY_NAMES, make_strategy
from .trace_io import (
    SCENARIO_KINDS,
    BehaviorTrace,
    generate_scenario,
    parse_behavior_traces,
    parse_throughput_trace,
    serialize_throughput_trace,
)

# the label of a --traces file whose name holds no scenario kind; `run` and
# `compare --scenario` accept it, to select such files
CUSTOM_SCENARIO = "custom"
# every label `run` and `compare --scenario` accept, in report order
SCENARIO_LABELS = SCENARIO_KINDS + (CUSTOM_SCENARIO,)
DEFAULT_LADDER = (750, 1200, 1850)
DEFAULT_CATEGORIES = ("quick", "drama")
DEFAULT_VIDEOS_PER_SCRIPT = 8
DEFAULT_BEHAVIOR_PER_CATEGORY = 300

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2


class _CliError(Exception):
    """Input-level failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


DEFAULT_CHUNKS_MIN = 12
DEFAULT_CHUNKS_MAX = 45


def default_catalog(seed: int, n_videos: int = 24) -> list[VideoSpec]:
    """Deterministic synthetic video catalog spanning both categories."""
    rng = random.Random(f"catalog:{seed}")
    ladder = BitrateLadder(DEFAULT_LADDER)
    return [
        VideoSpec(id=f"v{i:03d}",
                  category=DEFAULT_CATEGORIES[i % len(DEFAULT_CATEGORIES)],
                  chunk_count=rng.randint(DEFAULT_CHUNKS_MIN, DEFAULT_CHUNKS_MAX),
                  chunk_duration_s=1.0, ladder=ladder)
        for i in range(n_videos)
    ]


def default_behavior(seed: int,
                     per_category: int = DEFAULT_BEHAVIOR_PER_CATEGORY) -> list[BehaviorTrace]:
    """Synthetic viewing population: 'quick' swipes early half the time,
    'drama' mostly plays out."""
    rng = random.Random(f"behavior:{seed}")
    traces = []
    n = 0
    for _ in range(per_category):
        total = rng.randint(DEFAULT_CHUNKS_MIN, DEFAULT_CHUNKS_MAX)
        roll = rng.random()
        if roll < 0.5:
            swipe = max(1, math.ceil(0.05 * total))
        elif roll < 0.8:
            swipe = rng.randint(1, total)
        else:
            swipe = total
        traces.append(BehaviorTrace(f"b{n:04d}", "quick", total, swipe))
        n += 1
    for _ in range(per_category):
        total = rng.randint(DEFAULT_CHUNKS_MIN, DEFAULT_CHUNKS_MAX)
        if rng.random() < 0.75:
            swipe = total
        else:
            swipe = rng.randint(1, max(1, total // 2))
        traces.append(BehaviorTrace(f"b{n:04d}", "drama", total, swipe))
        n += 1
    return traces


def _read_input(what: str, path, parse, json_type=None):
    """The one reader of the CLI's input files: ``parse`` the text, or the JSON
    of top-level ``json_type``; a failure exits 1 as ``<what> <path>: <detail>``."""
    try:
        data = Path(path).read_text()
        if json_type is not None:
            data = json.loads(data)
            if not isinstance(data, json_type):
                kind = "list" if json_type is list else "object"
                raise ValueError(f"expected a JSON {kind}")
        return parse(data)
    except (OSError, ValueError, TypeError) as exc:
        raise _CliError(f"{what} {path}: {exc}") from None


def _each(label: str, items, build) -> list:
    """``build`` of every item of a JSON list; an error names the item."""
    out = []
    for i, item in enumerate(items):
        try:
            out.append(build(item))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{label} {i}: {exc}") from None
    return out


def _load_config(path) -> SessionConfig:
    if path is None:
        return SessionConfig()
    return _read_input("config", path, lambda data: SessionConfig(**data), dict)


def _video_from_dict(entry) -> VideoSpec:
    vid, category, count, duration, levels = json_fields(entry, (
        "id", "category", "chunk_count", "chunk_duration_s", "ladder_kbps"))
    return VideoSpec(
        id=json_text(vid, "id"), category=json_text(category, "category"),
        chunk_count=json_count(count, "chunk_count"),
        chunk_duration_s=float(json_number(duration, "chunk_duration_s")),
        ladder=BitrateLadder(tuple(json_list(levels, "ladder_kbps",
                                             json_number))))


def _catalog(data, label: str = "entry", behavior=None) -> list[VideoSpec]:
    """The videos, each with a unique id and, if ``behavior`` is given, a
    category that has behavior traces in it."""
    videos = _each(label, data, _video_from_dict)
    if not videos:
        raise ValueError("no videos")
    seen = set()
    for i, video in enumerate(videos):
        if video.id in seen:
            raise ValueError(f"{label} {i}: repeated video id {video.id!r}")
        if behavior is not None and video.category not in behavior:
            raise ValueError(f"{label} {i}: no behavior traces for category "
                             f"{video.category!r}")
        seen.add(video.id)
    return videos


def _catalog_to_dicts(videos) -> list[dict]:
    return [{
        "id": v.id, "category": v.category, "chunk_count": v.chunk_count,
        "chunk_duration_s": v.chunk_duration_s,
        "ladder_kbps": list(v.ladder.levels),
    } for v in videos]


def _scripts(data, behavior=None) -> list[SessionScript]:
    """The scripts, each with a unique id; if ``behavior`` is given, each
    video's category has traces in it to build its retention model from."""
    catalog, scripts = json_fields(data, ("catalog", "scripts"))
    by_id = {spec.id: spec for spec in
             _catalog(json_list(catalog, "catalog"), "catalog entry")}
    seen = set()

    def script(entry) -> SessionScript:
        script_id, ids, points = json_fields(
            entry, ("id", "videos", "swipe_points"))
        script_id = json_text(script_id, "id")
        if script_id in seen:
            raise ValueError(f"repeated script id {script_id!r}")
        seen.add(script_id)
        ids = json_list(ids, "videos", json_text)
        unknown = [vid for vid in ids if vid not in by_id]
        if unknown:
            raise ValueError(f"video id {unknown[0]!r} is not in its catalog")
        lacking = [by_id[vid].category for vid in ids if behavior is not None
                   and by_id[vid].category not in behavior]
        if lacking:
            raise ValueError(
                f"no retention model for category {lacking[0]!r}")
        return SessionScript(
            script_id=script_id,
            videos=tuple(by_id[vid] for vid in ids),
            swipe_points=tuple(json_list(points, "swipe_points", json_count)))

    scripts = _each("script", json_list(scripts, "scripts"), script)
    if not scripts:
        raise ValueError("no scripts")
    return scripts


def _scripts_to_dict(scripts) -> dict:
    catalog = {}
    for s in scripts:
        for v in s.videos:
            catalog[v.id] = v
    return {
        "catalog": _catalog_to_dicts(catalog.values()),
        "scripts": [{
            "id": s.script_id,
            "videos": [v.id for v in s.videos],
            "swipe_points": list(s.swipe_points),
        } for s in scripts],
    }


def _build_scripts(args, grouped, n_scripts: int) -> list[SessionScript]:
    if args.scripts:
        # a --model serves every category
        behavior = None if args.model else grouped
        return _read_input("scripts", args.scripts,
                           lambda data: _scripts(data, behavior), dict)
    if n_scripts < 1:
        raise _CliError("--n-scripts must be >= 1")
    catalog = (_read_input("catalog", args.catalog,
                           lambda data: _catalog(data, behavior=grouped), list)
               if args.catalog else default_catalog(args.seed))
    rng = random.Random(f"scripts:{args.seed}")
    scripts = []
    for i in range(n_scripts):
        videos = [catalog[rng.randrange(len(catalog))]
                  for _ in range(DEFAULT_VIDEOS_PER_SCRIPT)]
        scripts.append(sample_script(f"s{i:03d}", videos, grouped, rng))
    return scripts


def _group_by_category(traces) -> dict[str, list[BehaviorTrace]]:
    """Behavior traces grouped by category in first-seen order, each group
    in file order."""
    grouped: dict[str, list[BehaviorTrace]] = {}
    for tr in traces:
        grouped.setdefault(tr.category, []).append(tr)
    return grouped


def _behavior_by_category(args) -> dict[str, list[BehaviorTrace]]:
    """The behavior population, grouped by category in first-seen order."""
    return _group_by_category(
        _read_input("behavior", args.behavior, parse_behavior_traces)
        if args.behavior else default_behavior(args.seed))


def _load_trace_dir(path) -> list[TraceRef]:
    files = sorted(Path(path).glob("*.csv"))
    if not files:
        raise _CliError(f"no .csv traces found in {path}")
    refs = []
    for f in files:
        trace = _read_input("trace", f, parse_throughput_trace)
        tokens = f.stem.split("_")
        scenario = next((k for k in SCENARIO_KINDS if k in tokens),
                        CUSTOM_SCENARIO)
        refs.append(TraceRef(trace_id=f.stem, scenario=scenario, trace=trace))
    return refs


def _build_traces(args, scenarios, n_traces: int, duration_s: float) -> list[TraceRef]:
    """The ``--traces`` files labelled with one of ``scenarios``, at least
    one per scenario, or ``n_traces`` generated traces of each scenario."""
    if args.traces:
        refs = [ref for ref in _load_trace_dir(args.traces)
                if ref.scenario in scenarios]
        missing = [k for k in scenarios if all(r.scenario != k for r in refs)]
        if missing:
            kinds = " or ".join(map(repr, missing))
            raise _CliError(f"traces {args.traces}: no trace labelled with "
                            f"scenario {kinds}")
        return refs
    if CUSTOM_SCENARIO in scenarios:
        raise _CliError(f"scenario {CUSTOM_SCENARIO!r} needs --traces")
    if n_traces < 1:
        raise _CliError("--n-traces must be >= 1")
    refs = []
    for kind in scenarios:
        for i in range(n_traces):
            refs.append(TraceRef(
                trace_id=f"{kind}_s{args.seed + i}",
                scenario=kind,
                trace=generate_scenario(kind, args.seed + i, duration_s)))
    return refs


def _parse_names(raw: str, valid, what: str) -> list[str]:
    names = [n.strip() for n in raw.split(",") if n.strip()]
    if not names:
        raise _CliError(f"no {what} given")
    for i, n in enumerate(names):
        if n not in valid:
            raise _CliError(f"unknown {what} {n!r}; valid: {', '.join(valid)}")
        if n in names[:i]:
            raise _CliError(f"repeated {what} {n!r}")
    return names


def _manifest_hash(manifest: dict) -> str:
    blob = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_json(path: Path, data: dict):
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


# -- subcommands -----------------------------------------------------------


def cmd_model_build(args) -> int:
    grouped = _group_by_category(
        _read_input("behavior", args.behavior_csv, parse_behavior_traces))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for cat in sorted(grouped):
        model = build_model(grouped[cat], cat)
        path = out_dir / f"retention_{cat}.json"
        path.write_text(model_to_json(model) + "\n")
        print(path)
    return EXIT_OK


def cmd_gen(args) -> int:
    kinds = _parse_names(args.scenario, SCENARIO_KINDS, "scenario")
    if args.count < 1:
        raise _CliError("count must be >= 1")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind in kinds:
        for i in range(args.count):
            seed = args.seed + i
            trace = generate_scenario(kind, seed, args.duration)
            path = out_dir / f"trace_{kind}_s{seed}_{i:03d}.csv"
            path.write_text(serialize_throughput_trace(trace))
            print(path)
    return EXIT_OK


def _resolve_models(args, grouped):
    """The per-category models, or the one ``--model`` that the engine then
    applies to every category."""
    if args.model:
        return _read_input("model", args.model, model_from_dict, dict)
    return {cat: build_model(traces, cat) for cat, traces in grouped.items()}


def cmd_run(args) -> int:
    strategy = make_strategy(args.strategy, args.fixb_current, args.fixb_next)
    config = _load_config(args.config)
    grouped = _behavior_by_category(args)
    models = _resolve_models(args, grouped)
    scripts = _build_scripts(args, grouped, n_scripts=1)
    trace = _build_traces(args, [args.scenario], 1, args.duration)[0]
    res = run_session(scripts[0], trace.trace, strategy, config, models)
    payload = {
        "strategy": strategy.name,
        "scenario": trace.scenario,
        "script_id": scripts[0].script_id,
        "trace_id": trace.trace_id,
        "qoe": res.qoe_total,
        "cost_mbit": res.cost_mbit_total,
        "waste_mbit": res.waste_mbit_total,
        "utility": res.utility,
        "rebuffer_s": res.rebuffer_total_s,
        "wall_time_s": res.wall_time_s,
        "videos": [{
            "id": v.video_id, "category": v.category,
            "chunks": v.chunk_count, "watched": v.watched_chunks,
            "downloaded": v.downloaded_chunks, "qoe": v.qoe,
            "cost_mbit": v.cost_mbit, "waste_mbit": v.waste_mbit,
            "rebuffer_s": v.rebuffer_total_s,
        } for v in res.videos],
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "session.json").write_text(text + "\n")
        print(out_dir / "session.json")
    else:
        print(text)
    return EXIT_OK


def cmd_compare(args) -> int:
    strategy_names = _parse_names(args.strategy, STRATEGY_NAMES, "strategy")
    scenarios = _parse_names(args.scenario, SCENARIO_LABELS, "scenario")
    scenarios.sort(key=SCENARIO_LABELS.index)
    strategies = [make_strategy(n, args.fixb_current, args.fixb_next)
                  for n in strategy_names]
    config = _load_config(args.config)
    grouped = _behavior_by_category(args)
    models = _resolve_models(args, grouped)
    scripts = _build_scripts(args, grouped, args.n_scripts)
    traces = _build_traces(args, scenarios, args.n_traces, args.duration)

    manifest = {
        "command": "compare",
        "strategies": strategy_names,
        "scenarios": scenarios,
        "seed": args.seed,
        "n_scripts": args.n_scripts,
        "n_traces": args.n_traces,
        "duration_s": args.duration,
        "fixb": [args.fixb_current, args.fixb_next],
        "config": vars(config).copy(),
        "inputs": {
            "config": args.config, "scripts": args.scripts,
            "traces": args.traces, "behavior": args.behavior,
            "catalog": args.catalog, "model": args.model,
        },
    }
    mhash = _manifest_hash(manifest)

    report = run_batch(scripts, traces, strategies, config, models,
                       seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sessions.csv").write_text(report.sessions_csv())
    (out_dir / "aggregates.csv").write_text(report.aggregates_csv())
    payload = report.to_json_dict()
    payload["manifest"] = manifest
    payload["manifest_hash"] = mhash
    _write_json(out_dir / "report.json", payload)
    _write_json(out_dir / "scripts.json", _scripts_to_dict(scripts))
    for name in ("sessions.csv", "aggregates.csv", "report.json", "scripts.json"):
        print(out_dir / name)
    starved = sum(1 for r in report.rows if r.status != "ok")
    if starved:
        print(f"note: {starved} session(s) starved", file=sys.stderr)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="swipesim",
                     description="Short-video preloading simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="retention model tools")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)
    p_build = model_sub.add_parser("build", help="build models from a behavior CSV")
    p_build.add_argument("behavior_csv")
    p_build.add_argument("--out", required=True, help="output directory")
    p_build.set_defaults(func=cmd_model_build)

    p_gen = sub.add_parser("gen", help="generate synthetic throughput traces")
    p_gen.add_argument("--scenario", required=True,
                       help="comma-separated scenario kinds")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--duration", type=float, default=300.0)
    p_gen.add_argument("--count", type=int, default=20)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    # the simulation inputs shared by run and compare
    session = argparse.ArgumentParser(add_help=False)
    session.add_argument("--seed", type=int, default=0)
    session.add_argument("--duration", type=float, default=300.0)
    for name in ("--config", "--scripts", "--traces", "--behavior",
                 "--catalog", "--model"):
        session.add_argument(name)
    session.add_argument("--fixb-current", type=int, default=FIXB_CURRENT)
    session.add_argument("--fixb-next", type=int, default=FIXB_NEXT)

    p_run = sub.add_parser("run", parents=[session],
                           help="simulate a single session")
    p_run.add_argument("--strategy", default="dtaap", choices=STRATEGY_NAMES)
    p_run.add_argument("--scenario", default="high",
                       choices=SCENARIO_LABELS)
    p_run.add_argument("--out")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", parents=[session],
                           help="run a strategy comparison matrix")
    p_cmp.add_argument("--strategy", default=",".join(STRATEGY_NAMES))
    p_cmp.add_argument("--scenario", default=",".join(SCENARIO_KINDS))
    p_cmp.add_argument("--n-scripts", type=int, default=50)
    p_cmp.add_argument("--n-traces", type=int, default=20)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - invariant violations map to exit 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
