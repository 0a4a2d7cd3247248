"""Mid-query re-optimization at pipeline-stage boundaries.

The paper's premise is that a-priori estimates for UDF data flows are
unreliable — which means the plan picked *before* execution can already
be wrong by the time the first pipeline stage finishes.  The adaptive
loop (:mod:`.adaptive`) closes the feedback loop *between* executions;
this module closes it *inside* one: the engine executes a plan
stage-by-stage (:meth:`Engine.execute_staged
<repro.engine.executor.Engine.execute_staged>`), and at every blocking
stage boundary a :class:`MidQueryReoptimizer`

1. **flushes** the finished stage's observation delta into the
   :class:`~repro.feedback.store.StatisticsStore` (keyed by run id, so
   the execution's final whole-run ingest cannot double-count it),
2. **diffs** the store's ``estimator_view`` to obtain the exact dirty
   operator set and invalidates just that spine of its carried
   :class:`~repro.optimizer.memo.Memo`,
3. **re-plans the unexecuted suffix**: every executed stage is pinned as
   a :class:`~repro.core.operators.MaterializedSource` — a zero-cost,
   exactly-counted, partitioning-preserving scan over the checkpointed
   partitions — and the optimizer enumerates and costs the remaining
   flow against those ground-truth leaves,
4. **switches** iff the best re-planned suffix beats the current one by
   the configured threshold.

Switch-threshold semantics
--------------------------
``switch_threshold`` is the minimum estimated-cost ratio (current
suffix / best re-planned suffix) required to abandon the running plan:

* ``1.0`` — switch on any strict improvement,
* ``1.1`` (default) — the new suffix must be at least 10% cheaper,
* ``math.inf`` — never switch; execution is bit-identical to the plain
  engine (pinned by the staged parity suite),
* values below ``1.0`` deliberately force a switch at every boundary
  even without improvement — a diagnostic/stress knob (the parity suite
  uses ``0.0`` to exercise the checkpoint-handoff machinery); note that
  switched runs are hybrids, so their whole-plan runtimes are never
  recorded in the statistics store.

The current suffix is priced *optimistically* — at the cost of the best
physical plan for its logical flow under the fresh statistics, which is
one of the ranked alternatives — so a switch only fires when the
re-planned suffix is a genuinely different (cheaper) flow, never on
estimation jitter against a strawman.  Consequence: the best re-planned
cost can never exceed the kept suffix's priced cost (it is the minimum
over a set containing it), which the suffix property test pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.catalog import Catalog
from ..core.dataset import datasets_equal
from ..core.errors import FeedbackError
from ..core.operators import MaterializedSource, UdfOperator
from ..core.plan import Node, resolved_signature
from ..core.schema import Attribute
from ..core.udf import AnnotationMode
from ..engine.executor import Engine, ExecutionResult, StageRun
from ..engine.partition import Partitions
from ..obs.tracer import NOOP_TRACER
from ..optimizer.cardinality import Hints
from ..optimizer.cost import CostParams
from ..optimizer.optimizer import OptimizationResult, RankedPlan
from ..optimizer.physical import PhysNode
from ..workloads.base import Workload, source_stats
from .observation import ObservationCollector, observe_stage
from .session import PlanningSession
from .store import StatisticsStore

#: Default minimum improvement ratio before a running plan is abandoned.
DEFAULT_SWITCH_THRESHOLD = 1.1


@dataclass(frozen=True, slots=True)
class SwitchDecision:
    """One boundary's re-optimization outcome."""

    run_id: str  # engine execution this boundary belonged to
    boundary: int  # stage index the boundary followed (execution order)
    stage_name: str  # stage-top operator that just finished
    changed_ops: frozenset[str]  # dirty set from the estimator-view diff
    current_cost: float  # est. remaining cost of the running suffix flow
    best_cost: float  # est. remaining cost of the best re-planned suffix
    switched: bool

    @property
    def improvement(self) -> float:
        """Estimated cost ratio current/best (>= 1.0 by construction)."""
        if self.best_cost <= 0.0:
            return 1.0 if self.current_cost <= 0.0 else math.inf
        return self.current_cost / self.best_cost


class MidQueryReoptimizer:
    """Stage-boundary controller for :meth:`Engine.execute_staged`.

    One instance may drive many staged executions (the adaptive loop
    reuses it across rounds).  The carried memo keeps entries warm
    across the boundaries of one run; per-run state — the memo, the
    boundary-leaf cache, and the overlay catalog's synthetic sources —
    is reset when a new run begins, because suffix entries are keyed on
    run-specific boundary leaves (no cross-run reuse) while their
    references would keep every stage's materialized partitions alive
    for the controller's lifetime.
    """

    def __init__(
        self,
        catalog: Catalog,
        hints: dict[str, Hints] | None = None,
        mode: AnnotationMode = AnnotationMode.SCA,
        params: CostParams | None = None,
        store: StatisticsStore | None = None,
        switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
        tracer=None,
    ) -> None:
        if not (switch_threshold >= 0.0):  # rejects NaN too
            raise FeedbackError(
                f"switch_threshold must be >= 0 (or inf), got {switch_threshold}"
            )
        self.store = store if store is not None else StatisticsStore()
        self.store.check_compatible(catalog)
        self.switch_threshold = switch_threshold
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        # Overlay catalog: synthetic boundary sources are registered here,
        # never on the caller's catalog.
        self.catalog = catalog.clone()
        self.session = PlanningSession(
            self.catalog, hints, mode, params, self.store, tracer=tracer
        )
        self.ctx = self.session.optimizer.ctx
        self.decisions: list[SwitchDecision] = []
        self._boundary_ops: dict[PhysNode, Node] = {}
        self._stage_sources: list[str] = []
        self._run_id: str | None = None
        self._seq = 0

    # -- engine callback ---------------------------------------------------

    def on_boundary(
        self,
        engine: Engine,
        plan: PhysNode,
        stage: StageRun,
        completed: dict[PhysNode, Partitions],
        run_id: str,
    ) -> PhysNode | None:
        """Ingest the stage delta, re-plan the suffix, decide the switch.

        Returns the replacement physical plan, or ``None`` to continue
        with the running one.
        """
        if run_id != self._run_id:
            self._begin_run(run_id)
        boundary_span = self.tracer.span(
            "feedback.boundary",
            category="feedback",
            stage=stage.top.name,
            boundary=stage.index,
        )
        with boundary_span:
            # 1. Flush the stage's observation delta into the store — and
            # into the engine's collector, so drivers that bulk-ingest
            # collected observations later see it too (deduped there by
            # run id).  A backend ingest folds foreign commits in first.
            observation = observe_stage(stage, engine.true_costs, run_id)
            if engine.collector is not None:
                engine.collector.executions.append(observation)
            if observation.ops:
                self.store.ingest(observation)

            # 2. Exact dirty set, foreign and local changes in one diff;
            # its spine is evicted from the run's memo.
            changed = self.session.refresh()

            # 3. Re-plan the unexecuted suffix over the pinned boundaries.
            suffix = self._suffix_body(plan, completed)
            result = self.session.plan(suffix)
            current = self._rank_of_flow(result.ranked, suffix)
            best = result.best

            # 4. Switch iff the improvement clears the threshold.
            switched = current.cost > self.switch_threshold * best.cost
            self.decisions.append(
                SwitchDecision(
                    run_id=run_id,
                    boundary=stage.index,
                    stage_name=stage.top.name,
                    changed_ops=changed,
                    current_cost=current.cost,
                    best_cost=best.cost,
                    switched=switched,
                )
            )
        # Kept-vs-replanned estimated costs on the decision span — the
        # trace alone answers "why did (n't) it switch here?".
        boundary_span.set(
            changed=len(changed),
            kept_cost=current.cost,
            best_cost=best.cost,
            switched=switched,
        )
        self.tracer.count("feedback.boundaries")
        if switched:
            self.tracer.count("feedback.switches")
        return best.physical if switched else None

    def decisions_for(self, run_id: str) -> list[SwitchDecision]:
        return [d for d in self.decisions if d.run_id == run_id]

    def _begin_run(self, run_id: str) -> None:
        """Retire the previous run's per-run state.

        Boundary leaves strongly reference their checkpointed partitions
        (through the memo's tables and the leaf cache); releasing them
        here bounds the controller's footprint to one run's checkpoints
        no matter how many staged executions it drives.
        """
        self._run_id = run_id
        self._boundary_ops.clear()
        self.session.reset()
        for name in self._stage_sources:
            self.catalog.remove_source(name)
        self._stage_sources.clear()

    # -- suffix construction -----------------------------------------------

    @staticmethod
    def _rank_of_flow(ranked: list[RankedPlan], flow: Node) -> RankedPlan:
        for plan in ranked:
            if plan.body is flow:  # interned: structural equality is identity
                return plan
        raise FeedbackError(
            "running suffix missing from its own enumerated plan space"
        )  # pragma: no cover - enumeration always includes the input flow

    def _suffix_body(
        self, plan: PhysNode, completed: dict[PhysNode, Partitions]
    ) -> Node:
        """The unexecuted remainder of ``plan`` as a logical flow whose
        leaves are the pinned stage boundaries."""

        def build(phys: PhysNode) -> Node:
            if phys in completed:
                return self._boundary_leaf(phys, completed[phys])
            return Node(
                phys.logical.op, tuple(build(c) for c in phys.children)
            )

        return build(plan)

    def _boundary_leaf(self, phys: PhysNode, parts: Partitions) -> Node:
        """A :class:`MaterializedSource` leaf pinning one executed stage."""
        logical = phys.logical
        if isinstance(logical.op, MaterializedSource):
            # A checkpoint-handoff stage from an earlier switch: already a
            # boundary leaf, reuse it verbatim.
            return logical
        cached = self._boundary_ops.get(phys)
        if cached is not None:
            return cached
        attrs = self.ctx.out_attrs(logical)
        schema = tuple(sorted(attrs, key=lambda a: a.name))
        self._seq += 1
        op = MaterializedSource(
            f"stage:{logical.op.name}:{self._seq}",
            schema,
            parts,
            origin_signature=resolved_signature(logical),
            partitioning=phys.partitioning,
            unique_keys=self.ctx.unique_keys(logical),
            preserves_rows=self.ctx.row_preserving(logical),
            written_attrs=self._written_below(logical),
        )
        rows = [r for part in parts for r in part]
        self.catalog.add_source(op.name, source_stats(rows))
        self._stage_sources.append(op.name)
        leaf = Node(op, ())
        self._boundary_ops[phys] = leaf
        return leaf

    def _written_below(self, node: Node) -> frozenset[Attribute]:
        """Write set of the executed subtree (nested boundaries included)."""
        out: set[Attribute] = set()
        stack = [node]
        while stack:
            n = stack.pop()
            op = n.op
            if isinstance(op, MaterializedSource):
                out |= op.written_attrs
            elif isinstance(op, UdfOperator):
                out |= self.ctx.props(op).writes
            stack.extend(n.children)
        return frozenset(out)


# ---------------------------------------------------------------------------
# Convenience driver (CLI / bench / tests)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class MidQueryExperiment:
    """Baseline-vs-mid-query comparison of one workload's picked plan."""

    workload: str
    plan_count: int
    pick_cost: float  # estimated cost of the initially picked plan
    baseline: ExecutionResult  # the pick executed to completion, no switching
    adaptive: ExecutionResult  # the pick executed with mid-query re-opt
    decisions: list[SwitchDecision] = field(default_factory=list)

    @property
    def baseline_seconds(self) -> float:
        return self.baseline.seconds

    @property
    def adaptive_seconds(self) -> float:
        return self.adaptive.seconds

    @property
    def switched(self) -> bool:
        return any(d.switched for d in self.decisions)

    @property
    def modeled_speedup(self) -> float:
        """End-to-end modeled-time ratio baseline/adaptive (1.0 = no gain)."""
        if self.adaptive_seconds <= 0.0:
            return 1.0
        return self.baseline_seconds / self.adaptive_seconds

    @property
    def records_match(self) -> bool:
        """Mid-query switching must never change the result set."""
        return datasets_equal(self.baseline.records, self.adaptive.records)

    def describe(self) -> str:
        lines = [
            f"mid-query re-optimization — {self.workload}",
            f"  initial pick: estimated cost {self.pick_cost:.3f}s "
            f"({self.plan_count} alternatives)",
            f"  baseline (no switching): {self.baseline_seconds:.3f}s modeled",
            f"  mid-query:               {self.adaptive_seconds:.3f}s modeled "
            f"({self.modeled_speedup:.2f}x)",
        ]
        for d in self.decisions:
            verdict = "SWITCHED" if d.switched else "kept"
            lines.append(
                f"  boundary {d.boundary} (after {d.stage_name}): "
                f"remaining est {d.current_cost:.3f}s vs re-planned "
                f"{d.best_cost:.3f}s -> {verdict}"
            )
        if not self.decisions:
            lines.append("  (no re-optimization boundaries fired)")
        return "\n".join(lines)


def run_midquery(
    workload: Workload,
    mode: AnnotationMode = AnnotationMode.SCA,
    params: CostParams | None = None,
    store: StatisticsStore | None = None,
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
    hints: dict[str, Hints] | None = None,
    optimization: "OptimizationResult | None" = None,
    baseline: ExecutionResult | None = None,
    tracer=None,
) -> MidQueryExperiment:
    """Optimize a workload, then race the pick with and without mid-query.

    ``hints`` overrides the workload's hints (benches mis-hint on purpose);
    ``store`` warm-starts both the initial optimization (through a
    :class:`FeedbackEstimator`; an empty store is bit-identical to plain
    hints) and the in-flight controller, and receives everything learned.
    Callers that already optimized the workload under the same hints —
    the experiment harness — can pass their ``optimization`` (and a
    plain execution of its rank-1 pick as ``baseline``) to skip the
    redundant re-enumeration and baseline run.
    """
    params = params or workload.params
    hints = hints if hints is not None else workload.hints
    controller = MidQueryReoptimizer(
        workload.catalog,
        hints,
        mode,
        params,
        store=store,
        switch_threshold=switch_threshold,
        tracer=tracer,
    )
    store = controller.store
    # The controller's session plans the initial pick too; its memo is
    # reset when the staged run reaches its first boundary.
    result = optimization or controller.session.plan(workload.plan)
    pick = result.best

    if baseline is None:
        baseline_engine = Engine(params, workload.true_costs, tracer=tracer)
        baseline = baseline_engine.execute(pick.physical, workload.data)

    staged_engine = Engine(
        params,
        workload.true_costs,
        collector=ObservationCollector(),
        tracer=tracer,
    )
    adaptive = staged_engine.execute_staged(
        pick.physical, workload.data, controller
    )
    for observation in staged_engine.collector.executions:
        store.ingest(observation)  # stage deltas dedupe by run id

    return MidQueryExperiment(
        workload=workload.name,
        plan_count=result.plan_count,
        pick_cost=pick.cost,
        baseline=baseline,
        adaptive=adaptive,
        decisions=list(controller.decisions),
    )
