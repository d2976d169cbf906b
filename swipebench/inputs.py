"""Input files of the three benchmark workloads, generated from a seed.

Every workload writes a directory that `swipesim compare` reads through its
file options, plus the list of command-line arguments that point at it.
Nothing here is timed.

Trace files are named ``<scenario>_<nn>.csv``: the CLI labels a trace's
scenario by the first scenario kind found in the file name, so a name that
held two kinds (``trace_highway_lowband``) would be mislabelled.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

from swipesim.cli import default_behavior, default_catalog
from swipesim.trace_io import generate_scenario

SCENARIOS = ("high", "medium", "low", "mixed")
STRATEGIES = ("dtaap", "fixb", "nextone", "network", "pdas_lite")
LADDER_KBPS = (750, 1200, 1850)
TRACE_DURATION_S = 300

# The criterion-6 world is fixed at its seed: catalog, population and the
# scripts `compare` samples from them. The workload seed picks the traces;
# on fine-trace only their sub-second jitter, the per-second levels being
# those of the world seed.
WORLD_SEED = 11

MATRIX_SCRIPTS = 2
MATRIX_TRACES_PER_SCENARIO = 20

FINE_SCRIPTS = 2
FINE_TRACES_PER_SCENARIO = 5
FINE_STEP_MS = 10
# sub-second jitter is +-FINE_JITTER of the per-second level, floored at
# FINE_FLOOR of it, so the channel never drops to zero and no session starves
FINE_JITTER = 0.6
FINE_FLOOR = 0.2

STORM_CATEGORIES = 12
STORM_BEHAVIOR_PER_CATEGORY = 5000
STORM_SCRIPTS = 4
STORM_TRACES_PER_SCENARIO = 4
STORM_LEN_MIN = 5
STORM_LEN_MAX = 90
# One storm script is a shuffle of fixed view slots, so every script holds
# the same video lengths and watched chunks whatever the seed: 36 quick
# exits after 1, 2 or 3 chunks of videos spread over all lengths, 3
# mid-video exits (chunk count, swipe chunk) and one short video watched to
# the end. The seed draws the categories and the order.
STORM_QUICK_SWIPES = (1, 2, 3, 1, 2, 1) * 6
STORM_QUICK_LENGTHS = tuple(
    STORM_LEN_MIN + round(j * (STORM_LEN_MAX - STORM_LEN_MIN) / 35)
    for j in range(36))
STORM_MID_VIEWS = ((12, 4), (25, 5), (40, 6))
STORM_FULL_VIEWS = (6,)


def _write_traces(out: Path, make_samples, per_scenario: int, seed: int):
    out.mkdir(parents=True)
    for kind in SCENARIOS:
        for i in range(per_scenario):
            samples = make_samples(kind, i, seed)
            lines = ["timestamp_s,bandwidth_kbps"]
            lines.extend(f"{t!r},{bw!r}" for t, bw in samples)
            (out / f"{kind}_{i:02d}.csv").write_text("\n".join(lines) + "\n")


def _per_second(kind: str, i: int, seed: int):
    return generate_scenario(kind, seed + i, TRACE_DURATION_S).samples


def _fine(kind: str, i: int, seed: int):
    """The per-second level of the world's trace with sub-second jitter.

    Fixing the levels keeps the stall time of 40 dtaap sessions from
    swinging by a tenth between seeds, as it does with seeded levels."""
    rng = random.Random(f"fine:{kind}:{seed}:{i}")
    steps_per_s = 1000 // FINE_STEP_MS
    samples = []
    for t_s, level in _per_second(kind, i, WORLD_SEED):
        for j in range(steps_per_s):
            bw = level * (1.0 + rng.uniform(-FINE_JITTER, FINE_JITTER))
            bw = round(max(bw, FINE_FLOOR * level), 1)
            samples.append(((int(t_s) * 1000 + j * FINE_STEP_MS) / 1000, bw))
    return samples


def _video_dict(vid, category, chunk_count):
    return {"id": vid, "category": category, "chunk_count": chunk_count,
            "chunk_duration_s": 1.0, "ladder_kbps": list(LADDER_KBPS)}


def _behavior_csv(rows) -> str:
    lines = ["trace_id,category,total_chunks,swipe_chunk"]
    lines.extend(f"{r[0]},{r[1]},{r[2]},{r[3]}" for r in rows)
    return "\n".join(lines) + "\n"


def _write_world(out: Path):
    catalog = [_video_dict(v.id, v.category, v.chunk_count)
               for v in default_catalog(WORLD_SEED)]
    (out / "catalog.json").write_text(json.dumps(catalog, indent=1) + "\n")
    rows = [(b.trace_id, b.category, b.total_chunks, b.swipe_chunk)
            for b in default_behavior(WORLD_SEED)]
    (out / "behavior.csv").write_text(_behavior_csv(rows))


def _common_args(out: Path, traces: Path) -> list[str]:
    return ["compare", "--strategy", ",".join(STRATEGIES),
            "--scenario", ",".join(SCENARIOS), "--traces", str(traces),
            "--behavior", str(out / "behavior.csv")]


def make_matrix(out: Path, seed: int) -> list[str]:
    _write_world(out)
    _write_traces(out / "traces", _per_second, MATRIX_TRACES_PER_SCENARIO, seed)
    return _common_args(out, out / "traces") + [
        "--catalog", str(out / "catalog.json"), "--seed", str(WORLD_SEED),
        "--n-scripts", str(MATRIX_SCRIPTS)]


def make_fine_trace(out: Path, seed: int) -> list[str]:
    _write_world(out)
    _write_traces(out / "traces", _fine, FINE_TRACES_PER_SCENARIO, seed)
    return _common_args(out, out / "traces") + [
        "--catalog", str(out / "catalog.json"), "--seed", str(WORLD_SEED),
        "--n-scripts", str(FINE_SCRIPTS)]


def _storm_behavior(rng: random.Random) -> list[tuple]:
    """Quick-swipe population: in every category most views end within the
    first three chunks; the early share differs per category."""
    rows = []
    for c in range(STORM_CATEGORIES):
        category = f"c{c:02d}"
        early = 0.5 + 0.2 * c / (STORM_CATEGORIES - 1)
        for _ in range(STORM_BEHAVIOR_PER_CATEGORY):
            total = rng.randint(STORM_LEN_MIN, STORM_LEN_MAX)
            roll = rng.random()
            if roll < early:
                swipe = rng.randint(1, 3)
            elif roll < early + 0.6 * (1 - early):
                swipe = rng.randint(1, total)
            else:
                swipe = total
            rows.append((f"b{len(rows):05d}", category, total, swipe))
    return rows


def _storm_scripts(rng: random.Random) -> dict:
    catalog = {}

    def video(chunk_count):
        category = f"c{rng.randrange(STORM_CATEGORIES):02d}"
        vid = f"{category}_{chunk_count:02d}_{rng.randrange(4)}"
        catalog[vid] = _video_dict(vid, category, chunk_count)
        return vid

    scripts = []
    for s in range(STORM_SCRIPTS):
        views = [(video(n), k)
                 for n, k in zip(STORM_QUICK_LENGTHS, STORM_QUICK_SWIPES)]
        views += [(video(n), k) for n, k in STORM_MID_VIEWS]
        views += [(video(n), n) for n in STORM_FULL_VIEWS]
        rng.shuffle(views)
        scripts.append({"id": f"storm{s:02d}",
                        "videos": [v for v, _ in views],
                        "swipe_points": [k for _, k in views]})
    return {"catalog": [catalog[k] for k in sorted(catalog)],
            "scripts": scripts}


def make_swipe_storm(out: Path, seed: int) -> list[str]:
    rng = random.Random(f"swipe-storm:{seed}")
    (out / "behavior.csv").write_text(_behavior_csv(_storm_behavior(rng)))
    (out / "scripts.json").write_text(
        json.dumps(_storm_scripts(rng), indent=1) + "\n")
    _write_traces(out / "traces", _per_second, STORM_TRACES_PER_SCENARIO, seed)
    return _common_args(out, out / "traces") + [
        "--scripts", str(out / "scripts.json"), "--seed", str(seed)]


# workload name -> (input maker, scripts per round)
WORKLOADS = {
    "matrix": (make_matrix, MATRIX_SCRIPTS),
    "fine-trace": (make_fine_trace, FINE_SCRIPTS),
    "swipe-storm": (make_swipe_storm, STORM_SCRIPTS),
}
