"""repro: reproduction of "Opening the Black Boxes in Data Flow Optimization"
(Hueske et al., PVLDB 5(11), 2012).

A data flow optimizer that reorders operators with *black box* user-defined
functions: read/write sets are derived by static bytecode analysis
(Section 5), reorderings follow the ROC/KGP conditions (Section 4), plans
are enumerated by pairwise-reordering closure (Section 6), and a
cost-based physical optimizer plus a simulated parallel engine reproduce
the paper's experiments (Section 7).

Quickstart::

    from repro import (Source, MapOp, Sink, FieldMap, map_udf, node, chain,
                       Catalog, SourceStats, Optimizer)

    def keep_positive(rec, out):
        if rec.get_field(0) >= 0:
            out.emit(rec.copy())

See ``examples/quickstart.py`` for a complete program.
"""

from .core import (
    AnnotationMode,
    Attribute,
    Catalog,
    CoGroupOp,
    Collector,
    CrossOp,
    EmitBounds,
    FieldMap,
    FieldSet,
    InputRecord,
    KatBehavior,
    MapOp,
    MatchOp,
    Node,
    OutputRecord,
    PlanError,
    ReduceOp,
    Sink,
    Source,
    SourceStats,
    Udf,
    UdfProperties,
    attrs,
    binary_udf,
    body,
    chain,
    cogroup_udf,
    conservative_properties,
    datasets_equal,
    evaluate,
    map_udf,
    node,
    prefixed,
    projected_approx_equal,
    projected_equal,
    reduce_udf,
    render_tree,
    validate,
)
from .engine import Engine, ExecutionResult, execute_physical
from .feedback import (
    AdaptiveOptimizer,
    FeedbackEstimator,
    ObservationCollector,
    StatisticsStore,
)
from .optimizer import (
    CardinalityEstimator,
    CostParams,
    Hints,
    OptimizationResult,
    Optimizer,
    PlanContext,
    enum_alternatives_chain,
    enumerate_flows,
    optimize,
    optimize_physical,
)
from .sca import analyze_udf, compile_to_tac

__version__ = "1.0.0"

__all__ = [
    "AdaptiveOptimizer",
    "AnnotationMode",
    "Attribute",
    "CardinalityEstimator",
    "Catalog",
    "CoGroupOp",
    "Collector",
    "CostParams",
    "CrossOp",
    "EmitBounds",
    "Engine",
    "ExecutionResult",
    "FeedbackEstimator",
    "FieldMap",
    "FieldSet",
    "Hints",
    "InputRecord",
    "KatBehavior",
    "MapOp",
    "MatchOp",
    "Node",
    "ObservationCollector",
    "OptimizationResult",
    "Optimizer",
    "OutputRecord",
    "PlanContext",
    "PlanError",
    "ReduceOp",
    "Sink",
    "Source",
    "SourceStats",
    "StatisticsStore",
    "Udf",
    "UdfProperties",
    "analyze_udf",
    "attrs",
    "binary_udf",
    "body",
    "chain",
    "cogroup_udf",
    "compile_to_tac",
    "conservative_properties",
    "datasets_equal",
    "enum_alternatives_chain",
    "enumerate_flows",
    "evaluate",
    "execute_physical",
    "map_udf",
    "node",
    "optimize",
    "optimize_physical",
    "prefixed",
    "projected_approx_equal",
    "projected_equal",
    "reduce_udf",
    "render_tree",
    "validate",
]
