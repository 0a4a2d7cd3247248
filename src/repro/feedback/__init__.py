"""Adaptive feedback: runtime statistics, learned hints, re-optimization.

The counterpart to the paper's *static* opening of UDF black boxes: the
engine already measures every operator's true cardinalities while
executing — this subsystem closes the loop by collecting those
measurements (:mod:`.observation`), aggregating them across runs with
decay over a transactional persistence layer (:mod:`.store` policy
over :mod:`.backends` — sqlite-WAL), preferring them over hinted
defaults during estimation (:mod:`.estimator`), and driving an
optimize -> execute -> learn -> re-optimize fixed-point loop
(:mod:`.adaptive`).  Every re-planning caller goes through one
:class:`~.session.PlanningSession` (:mod:`.session`).
"""

from .adaptive import (
    AdaptiveOptimizer,
    AdaptiveReport,
    AdaptiveRound,
    ExecutedRound,
)
from .backends import (
    BackendConflict,
    CommitDelta,
    SqliteBackend,
    StatsBackend,
)
from .estimator import FeedbackEstimator, QErrorReport, merge_hints, qerror, qerror_report
from .midquery import (
    DEFAULT_SWITCH_THRESHOLD,
    MidQueryExperiment,
    MidQueryReoptimizer,
    SwitchDecision,
    run_midquery,
)
from .observation import (
    ExecutionObservation,
    ObservationCollector,
    OpObservation,
    observe_plan,
    observe_stage,
)
from .session import PlanningSession
from .store import NodeStats, PlanStats, SourceObservation, StatisticsStore

__all__ = [
    "AdaptiveOptimizer",
    "AdaptiveReport",
    "AdaptiveRound",
    "BackendConflict",
    "CommitDelta",
    "DEFAULT_SWITCH_THRESHOLD",
    "ExecutedRound",
    "ExecutionObservation",
    "FeedbackEstimator",
    "MidQueryExperiment",
    "MidQueryReoptimizer",
    "NodeStats",
    "ObservationCollector",
    "OpObservation",
    "PlanStats",
    "PlanningSession",
    "QErrorReport",
    "SourceObservation",
    "SqliteBackend",
    "StatisticsStore",
    "StatsBackend",
    "SwitchDecision",
    "merge_hints",
    "observe_plan",
    "observe_stage",
    "qerror",
    "qerror_report",
    "run_midquery",
]
