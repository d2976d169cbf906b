"""Output checks of one `swipesim compare` run, against computations of the
benchmark's own and properties of the method. Nothing here is timed.

`check_outputs` returns the problems found (empty when the outputs are
right), the number of re-simulated sessions that failed a check, and the
re-simulated dtaap sessions from which the simulated end-to-end metrics
are taken.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

from swipesim.core import BitrateLadder, SessionConfig, VideoSpec
from swipesim.engine import SessionScript, run_session
from swipesim.retention import build_model
from swipesim.strategy import make_strategy
from swipesim.trace_io import BehaviorTrace, ThroughputTrace

SESSION_FIELDS = ("strategy", "scenario", "script_id", "trace_id", "qoe",
                  "cost_mbit", "waste_mbit", "utility", "rebuffer_s")
METRIC_FIELDS = ("qoe", "cost_mbit", "waste_mbit", "utility", "rebuffer_s")
AGGREGATE_FIELDS = ("strategy", "scenario", "sessions", "starved", "mean_qoe",
                    "mean_cost_mbit", "mean_waste_mbit", "mean_utility",
                    "mean_rebuffer_s", "p50_utility", "p90_utility")
# re-simulated sessions per baseline strategy; every dtaap session is re-run
SAMPLED_PER_BASELINE = 8
# sessions.csv holds 9 significant digits, so a mean recomputed from it
# agrees with the reported one to about 5e-9 of the values' magnitude
MEAN_RTOL = 1e-8
FLOAT_RTOL = 1e-9


def _g(x: float) -> str:
    return format(x, ".9g")


def nearest_rank(values, q: float):
    """The q-quantile of ``values`` by the nearest-rank method."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _read_csv(path: Path, fields) -> list[dict]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != ",".join(fields):
        raise ValueError(f"{path.name}: unexpected header {lines[:1]}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(fields):
            raise ValueError(f"{path.name}:{lineno}: {len(parts)} fields")
        rows.append(dict(zip(fields, parts)))
    return rows


def read_trace(path: Path) -> list[tuple[float, float]]:
    samples = []
    for line in path.read_text().splitlines()[1:]:
        t, bw = line.split(",")
        samples.append((float(t), float(bw)))
    return samples


def delivered_kbit(samples, end_s: float) -> float:
    """Kilobits the piecewise-constant channel carries over [0, end_s]."""
    total = 0.0
    for i, (t, bw) in enumerate(samples):
        if t >= end_s:
            break
        seg_end = samples[i + 1][0] if i + 1 < len(samples) else end_s
        total += bw * (min(seg_end, end_s) - t)
    return total


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _qoe(bitrates, rebuffer, cfg: SessionConfig) -> float:
    """README formula, linear quality q(r) = r / 1000."""
    q = [r / 1000.0 for r in bitrates]
    return (cfg.w1 * sum(q)
            - cfg.w2 * sum(abs(b - a) for a, b in zip(q, q[1:]))
            - cfg.w3 * sum(rebuffer))


def _session_problems(res, script, samples, row, cfg) -> list[str]:
    out = []
    for field, value in zip(METRIC_FIELDS,
                            (res.qoe_total, res.cost_mbit_total,
                             res.waste_mbit_total, res.utility,
                             res.rebuffer_total_s)):
        if row[field] != _g(value):
            out.append(f"{field} row {row[field]} != re-simulated {_g(value)}")
    watched_s = 0.0
    for v, spec, swipe in zip(res.videos, script.videos, script.swipe_points):
        if v.cost_kbit != v.watched_kbit + v.waste_kbit:
            out.append(f"{v.video_id}: cost != watched + waste")
        if not swipe == v.watched_chunks <= v.downloaded_chunks <= spec.chunk_count:
            out.append(f"{v.video_id}: watched {v.watched_chunks} downloaded "
                       f"{v.downloaded_chunks} of {spec.chunk_count}, "
                       f"swipe at {swipe}")
            continue
        dur = spec.chunk_duration_s
        watched = sum(r * dur for r in v.bitrates[:swipe])
        waste = sum(r * dur for r in v.bitrates[swipe:])
        if v.watched_kbit != watched or v.waste_kbit != waste:
            out.append(f"{v.video_id}: kilobits differ from the bitrates")
        if not _close(v.qoe, _qoe(v.bitrates[:swipe], v.rebuffer_s, cfg),
                      FLOAT_RTOL):
            out.append(f"{v.video_id}: QoE differs from the formula")
        watched_s += swipe * dur
    utility = sum(v.qoe - cfg.w4 * v.cost_kbit / 1000.0 for v in res.videos)
    if not _close(res.utility, utility, FLOAT_RTOL):
        out.append(f"utility {res.utility} != recomputed {utility}")
    if res.wall_time_s < watched_s + res.rebuffer_total_s - 1e-9:
        out.append(f"wall time {res.wall_time_s} < watched {watched_s} "
                   f"+ rebuffer {res.rebuffer_total_s}")
    downloaded = sum(v.cost_kbit for v in res.videos)
    capacity = delivered_kbit(samples, res.wall_time_s)
    if downloaded > capacity * (1 + FLOAT_RTOL) + 1e-6:
        out.append(f"downloaded {downloaded} kbit > channel {capacity} kbit")
    return out


def _aggregate_problems(sessions, aggregates) -> list[str]:
    cells = {}
    for r in sessions:
        cells.setdefault((r["strategy"], r["scenario"]), []).append(r)
    out = []
    if [(a["strategy"], a["scenario"]) for a in aggregates] != list(cells):
        return ["aggregates.csv cells differ from sessions.csv"]
    for a in aggregates:
        cell = cells[(a["strategy"], a["scenario"])]
        ok = [r for r in cell if r["qoe"] != ""]
        if int(a["sessions"]) != len(cell) or int(a["starved"]) != len(cell) - len(ok):
            out.append(f"{a['strategy']}/{a['scenario']}: session counts")
            continue
        for field in METRIC_FIELDS:
            vals = [float(r[field]) for r in ok]
            mean = sum(vals) / len(vals)
            scale = sum(abs(v) for v in vals) / len(vals)
            if abs(float(a["mean_" + field]) - mean) > MEAN_RTOL * scale + 1e-12:
                out.append(f"{a['strategy']}/{a['scenario']}: mean_{field} "
                           f"{a['mean_' + field]} != {mean!r}")
        utils = [float(r["utility"]) for r in ok]
        for q, field in ((0.5, "p50_utility"), (0.9, "p90_utility")):
            pick = nearest_rank(utils, q)
            if a[field] != _g(pick):
                out.append(f"{a['strategy']}/{a['scenario']}: {field} "
                           f"{a[field]} != {_g(pick)}")
    return out


def _load_scripts(path: Path) -> list[SessionScript]:
    data = json.loads(path.read_text())
    specs = {e["id"]: VideoSpec(e["id"], e["category"], e["chunk_count"],
                                e["chunk_duration_s"],
                                BitrateLadder(tuple(e["ladder_kbps"])))
             for e in data["catalog"]}
    return [SessionScript(s["id"], tuple(specs[v] for v in s["videos"]),
                          tuple(s["swipe_points"])) for s in data["scripts"]]


def _load_models(path: Path) -> dict:
    traces = []
    for line in path.read_text().splitlines()[1:]:
        tid, cat, total, swipe = line.split(",")
        traces.append(BehaviorTrace(tid, cat, int(total), int(swipe)))
    cats = sorted({t.category for t in traces})
    return {c: build_model(traces, c) for c in cats}


def check_outputs(inputs: Path, out: Path, strategies, n_scripts: int,
                  seed: int):
    """Check every output of one compare run in ``out``."""
    problems = []
    sessions = _read_csv(out / "sessions.csv", SESSION_FIELDS)
    aggregates = _read_csv(out / "aggregates.csv", AGGREGATE_FIELDS)
    scripts = _load_scripts(out / "scripts.json")
    trace_files = sorted((inputs / "traces").glob("*.csv"))
    expected = len(strategies) * n_scripts * len(trace_files)
    if len(scripts) != n_scripts:
        problems.append(f"{len(scripts)} scripts, expected {n_scripts}")
    if len(sessions) != expected:
        problems.append(f"{len(sessions)} session rows, expected {expected}")
    starved = sum(1 for r in sessions if r["qoe"] == "")
    if starved:
        problems.append(f"{starved} session rows are not ok")
    problems += _aggregate_problems(sessions, aggregates)

    rows = {(r["strategy"], r["script_id"], r["trace_id"]): r
            for r in sessions}
    samples = {f.stem: read_trace(f) for f in trace_files}
    traces = {k: ThroughputTrace(tuple(v)) for k, v in samples.items()}
    models = _load_models(inputs / "behavior.csv")
    cfg = SessionConfig()
    pairs = [(s, t) for s in scripts for t in sorted(traces)]
    rng = random.Random(f"check:{seed}")
    failed = 0
    dtaap = []
    for name in strategies:
        picked = pairs if name == "dtaap" else rng.sample(
            pairs, min(SAMPLED_PER_BASELINE, len(pairs)))
        strategy = make_strategy(name)
        for script, trace_id in picked:
            row = rows.get((name, script.script_id, trace_id))
            where = f"{name}/{script.script_id}/{trace_id}"
            if row is None:
                problems.append(f"{where}: no row")
                failed += 1
                continue
            if row["qoe"] == "":
                continue
            res = run_session(script, traces[trace_id], strategy, cfg, models)
            bad = _session_problems(res, script, samples[trace_id], row, cfg)
            if bad:
                failed += 1
                problems += [f"{where}: {b}" for b in bad]
            if name == "dtaap":
                dtaap.append(res)
    return problems, failed, dtaap
