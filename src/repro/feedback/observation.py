"""Runtime observations: what the engine actually saw per operator.

The engine's :class:`~repro.engine.metrics.OpMetrics` already measure the
true per-operator cardinalities, UDF call counts, and IO of every
execution — and the seed system threw them away after reporting.  The
:class:`ObservationCollector` turns each execution into a set of
:class:`OpObservation` records keyed by the *logical* plan signature of
each operator's node (:func:`repro.core.plan.signature_key`), so an
observation made while executing one physical plan transfers to every
physically different plan that contains the same logical sub-flow —
across executions, optimizer rounds, and (via the JSON statistics store)
processes.

Only physical-plan-invariant quantities are used for learning:
``rows_out`` and ``udf_calls`` are properties of the logical operator
over its logical input (identical whether a join broadcast or
repartitioned), whereas ``rows_in`` counts post-ship records and is
recorded for diagnostics only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.operators import (
    CoGroupOp,
    CrossOp,
    MapOp,
    MatchOp,
    ReduceOp,
    Sink,
    Source,
)
from ..core.plan import Node, resolved_signature_key
from ..engine.executor import StageRun
from ..engine.metrics import ExecutionReport, OpMetrics
from ..optimizer.physical import PhysNode

#: Operator kinds whose ``udf_calls`` count key groups — for these, one
#: observation also yields a distinct-key count.
GROUPING_KINDS = frozenset({"reduce", "cogroup"})

_KIND_OF = {
    Source: "source",
    Sink: "sink",
    MapOp: "map",
    ReduceOp: "reduce",
    MatchOp: "match",
    CrossOp: "cross",
    CoGroupOp: "cogroup",
}


@dataclass(frozen=True, slots=True)
class OpObservation:
    """One operator's measured behavior in one execution."""

    key: str  # signature_key of the operator's logical node
    op_name: str
    kind: str  # "source" | "map" | "reduce" | "match" | "cross" | "cogroup"
    rows_in: int
    rows_out: int
    udf_calls: int
    cpu_per_call: float  # measured cost units per UDF call
    disk_bytes: float  # scan volume for sources (learned widths)

    @property
    def selectivity(self) -> float | None:
        """Observed records emitted per UDF call (None without calls)."""
        if self.udf_calls <= 0:
            return None
        return self.rows_out / self.udf_calls

    @property
    def distinct_keys(self) -> int | None:
        """Observed key-group count for grouping operators."""
        if self.kind in GROUPING_KINDS:
            return self.udf_calls
        return None


@dataclass(frozen=True, slots=True)
class ExecutionObservation:
    """Everything observed while executing one physical plan.

    ``run_id`` ties observations of the *same* engine execution together:
    a staged execution emits one partial observation per completed stage
    (ingested in flight) plus the usual whole-run observation at the end,
    and the statistics store counts each (signature, run) only once.
    ``partial`` marks stage deltas and switched hybrid runs, whose
    ``seconds`` are not a whole-plan runtime and must not enter the
    per-plan measured-runtime statistics.
    """

    plan_key: str  # signature_key of the executed plan's logical body
    seconds: float  # measured (simulated) runtime of the whole plan
    ops: tuple[OpObservation, ...]
    run_id: str | None = None  # shared by all observations of one execution
    partial: bool = False  # a stage delta / hybrid run, not a full plan
    # Measured wall-clock of the whole plan (0 = unknown).  Excluded from
    # equality: wall time is hardware noise, not part of the logical
    # observation (engine-mode parity compares observations directly).
    wall_seconds: float = field(default=0.0, compare=False)


def observe_plan(
    plan: PhysNode,
    report: ExecutionReport,
    true_costs: dict[str, float] | None = None,
    run_id: str | None = None,
    partial: bool = False,
    wall_seconds: float = 0.0,
) -> ExecutionObservation:
    """Pair an execution report with the plan's logical structure.

    Walks the physical plan once to map each (unique) operator name to
    its logical node, then lifts every reported :class:`OpMetrics` into a
    signature-keyed :class:`OpObservation`.  Works identically for fused
    chains, breakers and cache-replayed subtrees — the report is the
    single source of truth.
    """
    true_costs = true_costs or {}
    logical = {}
    stack = [plan]
    while stack:
        node = stack.pop()
        logical[node.logical.op.name] = node.logical
        stack.extend(node.children)
    ops = _lift_ops(logical, report.per_op, true_costs)
    # The sink contributes no metrics; key the plan by its logical body
    # (sink stripped) so optimizer-ranked bodies and executed plans agree.
    body = plan.logical
    if isinstance(body.op, Sink):
        body = body.only_child
    return ExecutionObservation(
        plan_key=resolved_signature_key(body),
        seconds=report.seconds,
        ops=tuple(ops),
        run_id=run_id,
        partial=partial,
        wall_seconds=wall_seconds,
    )


def _lift_ops(
    logical: dict[str, Node],
    per_op: list[OpMetrics] | tuple[OpMetrics, ...],
    true_costs: dict[str, float],
) -> list[OpObservation]:
    """Lift metrics rows into signature-keyed observations.

    Keys use :func:`~repro.core.plan.resolved_signature_key`, so a suffix
    node executed over a materialized stage boundary is recorded under the
    same key as the equivalent sub-flow of an ordinary plan (identical to
    the plain signature key when no boundaries are involved).
    """
    ops = []
    for metrics in per_op:
        node = logical.get(metrics.name)
        if node is None:  # a metrics row for an op outside this plan
            continue
        kind = _KIND_OF.get(type(node.op))
        if kind is None or kind == "sink":
            continue
        ops.append(
            OpObservation(
                key=resolved_signature_key(node),
                op_name=metrics.name,
                kind=kind,
                rows_in=metrics.rows_in,
                rows_out=metrics.rows_out,
                udf_calls=metrics.udf_calls,
                cpu_per_call=true_costs.get(metrics.name, 1.0),
                disk_bytes=metrics.disk_bytes if kind == "source" else 0.0,
            )
        )
    return ops


def observe_stage(
    stage: StageRun,
    true_costs: dict[str, float] | None = None,
    run_id: str | None = None,
) -> ExecutionObservation:
    """Partial observation of one executed pipeline stage.

    Covers exactly the stage's operators (breaker + fused chain) with the
    metrics that stage reported; ``seconds`` is the stage's elapsed
    simulated time, and the observation is marked ``partial`` so it never
    enters whole-plan runtime statistics.  This is what mid-query
    re-optimization ingests at each stage boundary.
    """
    true_costs = true_costs or {}
    logical = {node.logical.op.name: node.logical for node in stage.nodes}
    ops = _lift_ops(logical, stage.metrics, true_costs)
    top = stage.top.logical
    if isinstance(top.op, Sink):
        top = top.only_child
    return ExecutionObservation(
        plan_key=resolved_signature_key(top),
        seconds=sum(m.seconds for m in stage.metrics),
        ops=tuple(ops),
        run_id=run_id,
        partial=True,
    )


@dataclass(slots=True)
class ObservationCollector:
    """Accumulates per-execution observations for the statistics store.

    Attach to an engine (``Engine(collector=...)``); the engine calls
    :meth:`observe_execution` once per ``execute()`` with the finished
    report.
    """

    executions: list[ExecutionObservation] = field(default_factory=list)

    def observe_execution(
        self,
        plan: PhysNode,
        report: ExecutionReport,
        true_costs: dict[str, float] | None = None,
        run_id: str | None = None,
        partial: bool = False,
        wall_seconds: float = 0.0,
    ) -> ExecutionObservation:
        observation = observe_plan(
            plan, report, true_costs, run_id, partial, wall_seconds
        )
        self.executions.append(observation)
        return observation

    def observe_stage(
        self,
        stage: StageRun,
        true_costs: dict[str, float] | None = None,
        run_id: str | None = None,
    ) -> ExecutionObservation:
        """Record a partial observation of one executed pipeline stage."""
        observation = observe_stage(stage, true_costs, run_id)
        self.executions.append(observation)
        return observation

    def op_observations(self) -> dict[str, OpObservation]:
        """Latest observation per logical-node signature key."""
        out: dict[str, OpObservation] = {}
        for execution in self.executions:
            for op in execution.ops:
                out[op.key] = op
        return out

    def clear(self) -> None:
        self.executions.clear()
