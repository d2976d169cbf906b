"""The reachability census: every package function that no CLI command
reaches is one this file names and explains. A function that becomes dead
fails here; deleting one passes."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED_UNREACHED = {
    # error paths, which valid input never takes
    "cli._Parser.error",
    "core._expected",
    "engine.StarvationError.__init__",
    "trace_io.TraceSampleError.__str__",
    "trace_io._check_sample_line",
    "trace_io._check_behavior_line",
    # protocol methods that no command calls: copy, pickle, compare, print
    "core.ChunkRef.__reduce__",
    "engine.VideoResult.__reduce__",
    "retention.RetentionModel.__reduce__",
    "strategy.Download.__reduce__",
    "trace_io.ThroughputTrace.__reduce__",
    "trace_io.ThroughputTrace.__eq__",
    "trace_io.ThroughputTrace.__hash__",
    "trace_io.ThroughputTrace.__repr__",
    "trace_io.ThroughputTrace.__setattr__",
    "trace_io.ThroughputTrace.__delattr__",
    "trace_io.ThroughputTrace._values",
    "trace_io.ThroughputTrace._from_columns",
    # library constructors and the library API that the commands build
    # around: criterion 3 reads bandwidth_at, which segment_index serves,
    # and serialize_behavior_traces is the behaviour parser's round trip
    "trace_io.ThroughputTrace.__init__",
    "trace_io.ThroughputTrace._set",
    "trace_io.BehaviorTrace._make",
    "core.PlayerBuffer.__init__",
    "trace_io.ThroughputTrace.segment_index",
    "trace_io.ThroughputTrace.bandwidth_at",
    "trace_io.serialize_behavior_traces",
    # wrapped by name in swipebench/child.py's traced mode
    "core.ChunkRef.create",
    "core.PlayerBuffer.record_download",
    "metrics.total_kilobits",
}


def test_every_unreached_function_is_allowed():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py")],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    *listed, summary = out.stdout.splitlines()
    assert summary.endswith(f"; {len(listed)} unreached"), summary
    unreached = {line.rsplit(":", 1)[0] for line in listed}
    assert unreached <= ALLOWED_UNREACHED, sorted(
        unreached - ALLOWED_UNREACHED)
