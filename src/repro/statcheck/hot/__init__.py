"""fluxhot: profile-guided hot-path performance analysis.

Joins a measured profile of the scale workload (``statcheck-hotspots.json``,
regenerated with ``python -m repro.statcheck hotprofile``) with the fluxflow
call graph to rank every function by hotness, then runs the PRF perf rules
only where the profile says they matter (see docs/static_analysis.md).
"""

from .model import (
    DEFAULT_MANIFEST,
    HOT_THRESHOLD,
    HOTSPOTS_VERSION,
    HotFunction,
    HotModel,
    load_hotspots,
)
from .rules import (
    PerfContext,
    PerfEngine,
    PerfRule,
    render_hot_report,
)
from .workload import run_hotprofile

__all__ = [
    "DEFAULT_MANIFEST",
    "HOT_THRESHOLD",
    "HOTSPOTS_VERSION",
    "HotFunction",
    "HotModel",
    "load_hotspots",
    "PerfContext",
    "PerfEngine",
    "PerfRule",
    "render_hot_report",
    "run_hotprofile",
]
