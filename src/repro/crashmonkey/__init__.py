"""CrashMonkey — record/replay crash testing with automatic checking."""

from .checker import AutoChecker, CheckPipeline
from .checks import (
    DEFAULT_REGISTRY,
    LEGACY_CHECKS,
    Check,
    CheckContext,
    CheckRegistry,
    register,
)
from .crashplan import (
    PLAN_NAMES,
    CrashPlanner,
    CrashScenario,
    CrossWorkloadCache,
    GlobalDedupCache,
    MechanismPlanner,
    PrefixPlanner,
    ReorderPlanner,
    ScopedDedupCache,
    TornWritePlanner,
    describe_planners,
    make_planner,
)
from .harness import CrashMonkey
from .oracle import Oracle
from .recorder import WorkloadProfile, WorkloadRecorder
from .replayer import CrashState, CrashStateGenerator
from .report import BugReport, CrashTestResult, Mismatch, Severity
from .tracker import PersistenceTracker, TrackedDir, TrackedFile, TrackerView

__all__ = [
    "CrashMonkey",
    "AutoChecker",
    "CheckPipeline",
    "Check",
    "CheckContext",
    "CheckRegistry",
    "DEFAULT_REGISTRY",
    "LEGACY_CHECKS",
    "register",
    "Oracle",
    "WorkloadProfile",
    "WorkloadRecorder",
    "CrashState",
    "CrashStateGenerator",
    "CrashPlanner",
    "CrashScenario",
    "CrossWorkloadCache",
    "GlobalDedupCache",
    "MechanismPlanner",
    "PrefixPlanner",
    "ReorderPlanner",
    "ScopedDedupCache",
    "TornWritePlanner",
    "PLAN_NAMES",
    "describe_planners",
    "make_planner",
    "BugReport",
    "CrashTestResult",
    "Mismatch",
    "Severity",
    "PersistenceTracker",
    "TrackedFile",
    "TrackedDir",
    "TrackerView",
]
