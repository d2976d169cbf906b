"""List the functions of the swipesim package that no CLI command reaches.

Usage, from the root of a checkout:

    python3 tools/reach.py [--src src]

Every command runs once, in this process, under the stdlib `trace` module
(`trace.Trace(count=1, trace=0)`): `gen`, `model build`, then `run` and
`compare` both on generated inputs and with every input option: `--traces`,
`--behavior`, `--catalog`, `--config`, `--scripts` and `--model`. The
package is imported under the tracer too, so code that runs at import
counts. The input files are written here as plain text, not through the
package, so preparing them reaches nothing.

A function counts as reached when any line of its body ran. The script
prints each unreached function as `<module>.<qualified name>:<line>`, then
how many functions there are and how many were reached. A function that
only the tests or the library API call shows up here; the census reports
them and deletes nothing. Tracing is slow, so the runs are small: a few
scripts, one trace per scenario, 30-second traces.
"""
from __future__ import annotations

import argparse
import ast
import json
import random
import sys
import tempfile
import trace
from pathlib import Path

DURATION = "30"
CATEGORIES = ("quick", "drama")


def _behavior_csv() -> str:
    rng = random.Random("reach")
    rows = ["trace_id,category,total_chunks,swipe_chunk"]
    for i in range(40):
        total = rng.randint(5, 30)
        rows.append(f"b{i:03d},{CATEGORIES[i % 2]},{total},"
                    f"{rng.randint(1, total)}")
    return "\n".join(rows) + "\n"


def _catalog() -> list[dict]:
    return [{"id": f"v{i}", "category": CATEGORIES[i % 2],
             "chunk_count": 8 + 3 * i, "chunk_duration_s": 1.0,
             "ladder_kbps": [750, 1200, 1850]} for i in range(6)]


def _commands(tmp: Path) -> list[list[str]]:
    """Every CLI command, generated inputs first, then one file per input
    option; later commands read what earlier ones wrote."""
    (tmp / "behavior.csv").write_text(_behavior_csv())
    (tmp / "catalog.json").write_text(json.dumps(_catalog()))
    (tmp / "config.json").write_text(json.dumps({"b0_startup_chunks": 2,
                                                 "w4": 0.4}))
    traces, models = str(tmp / "traces"), str(tmp / "models")
    small = ["--n-traces", "1", "--duration", DURATION]
    files = ["--traces", traces, "--behavior", str(tmp / "behavior.csv"),
             "--config", str(tmp / "config.json")]
    return [
        ["gen", "--scenario", "high,medium,low,mixed", "--count", "1",
         "--duration", DURATION, "--out", traces],
        ["model", "build", str(tmp / "behavior.csv"), "--out", models],
        ["run", "--duration", DURATION],
        ["compare", "--n-scripts", "2", *small, "--out", str(tmp / "c1")],
        ["run", *files, "--catalog", str(tmp / "catalog.json"),
         "--scenario", "mixed", "--out", str(tmp / "r1")],
        ["compare", *files, "--catalog", str(tmp / "catalog.json"),
         "--n-scripts", "2", "--out", str(tmp / "c2")],
        ["run", *files, "--scripts", str(tmp / "c2" / "scripts.json"),
         "--model", str(Path(models) / "retention_quick.json")],
        ["compare", *files, "--scripts", str(tmp / "c2" / "scripts.json"),
         "--model", str(Path(models) / "retention_drama.json"),
         "--out", str(tmp / "c3")],
    ]


def _run_all(commands) -> None:
    from swipesim import cli

    for argv in commands:
        code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"swipesim {' '.join(argv)} exited {code}")


def _functions(path: Path):
    """(qualified name, first line, body lines) of every function in a
    module, nested ones and methods included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                lines = set(range(child.body[0].lineno, child.end_lineno + 1))
                out.append((name, child.lineno, lines))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
    visit(ast.parse(path.read_text()), "")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(
        Path(__file__).resolve().parent.parent / "src"),
        help="directory that holds the swipesim package")
    args = parser.parse_args(argv)
    package = Path(args.src).resolve() / "swipesim"
    sys.path.insert(0, args.src)

    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory() as tmp, \
            open(Path(tmp) / "stdout.txt", "w") as sink:
        stdout, sys.stdout = sys.stdout, sink  # the commands print paths
        try:
            tracer.runfunc(_run_all, _commands(Path(tmp)))
        finally:
            sys.stdout = stdout
    ran: dict[str, set] = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(str(Path(filename).resolve()), set()).add(line)

    total = unreached = 0
    for path in sorted(package.glob("*.py")):
        lines = ran.get(str(path), set())
        for name, first, body in _functions(path):
            total += 1
            if not body & lines:
                unreached += 1
                print(f"{path.stem}.{name}:{first}")
    print(f"{total - unreached} of {total} functions reached; "
          f"{unreached} unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
