"""Trace-driven simulator and strategy library for short-video preloading."""

from .core import (
    BitrateLadder,
    ChunkRef,
    PlayerBuffer,
    SessionConfig,
    VideoSpec,
)
from .engine import (
    BatchReport,
    SessionResult,
    SessionScript,
    StarvationError,
    TraceRef,
    run_batch,
    run_session,
    sample_script,
)
from .metrics import QoEWeights, qoe_video, quality, utility
from .retention import (
    RetentionModel,
    RetentionThresholds,
    build_model,
    derive_thresholds,
    swipe_probability,
)
from .strategy import (
    STRATEGY_NAMES,
    Download,
    PlayerView,
    Sleep,
    StrategyContext,
    SwipeProfile,
    make_strategy,
    swipe_profile,
)
from .throughput import Regime, ThroughputHistory, classify_regime, min_smooth_throughput
from .trace_io import (
    BehaviorTrace,
    ThroughputTrace,
    TraceFormatError,
    download_finish_time,
    generate_scenario,
    parse_behavior_traces,
    parse_throughput_trace,
    serialize_throughput_trace,
)

__version__ = "0.1.0"
