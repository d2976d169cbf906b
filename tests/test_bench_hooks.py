"""The benchmark's traced mode wraps named functions of every layer
(`swipebench/child.py`, `Tracer.install`). Renaming or deleting one of them
breaks only the traced rounds, so run one here, in a subprocess so that its
monkeypatching cannot reach other tests."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_compare_installs_every_hook(tmp_path):
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "swipebench" / "child.py"),
         str(ROOT / "src"), str(result), "1", "--",
         "compare", "--strategy", "dtaap,fixb", "--scenario", "high",
         "--seed", "3", "--n-scripts", "1", "--n-traces", "1",
         "--duration", "60", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(result.read_text())["trace"]["spans"]
    # a span that stays at zero means the program no longer calls the
    # hooked function, and the benchmark's metric of that layer reads 0
    for name in ("engine.run_session", "trace_io.finish",
                 "strategy.dtaap", "strategy.fixb", "metrics.score",
                 "throughput.record", "throughput.window_mean",
                 "retention.profile"):
        assert spans[name][0] > 0, name
