"""Learned cardinality estimation and q-error accounting.

:class:`FeedbackEstimator` is a drop-in
:class:`~repro.optimizer.cardinality.CardinalityEstimator` whose
estimates prefer runtime observations, with precedence

    exact per-signature observation
      > learned per-operator hints (aggregated across positions)
        > user/SCA-provided hints
          > paper defaults (emit bounds + catalog statistics)

A node whose logical signature was executed before gets its *observed*
output cardinality and call count verbatim — correlation-proof, since
the observation is conditioned on exactly the operators below it.  A
node in a never-executed position falls back to hints whose selectivity
and CPU cost were *measured* (averaged over the positions the operator
was seen in) rather than guessed.  Without a store (or with an empty
one), behavior is identical to the base estimator by construction.

The q-error helpers quantify how wrong a set of estimates was against
what an execution then observed — ``max(est/actual, actual/est)``, the
standard optimizer-quality metric — so every feedback round can report
whether learning actually tightened the estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

from ..core.operators import Sink, Source, UdfOperator
from ..core.plan import Node, iter_nodes, resolved_signature_key
from ..optimizer.cardinality import CardinalityEstimator, EstStats, Hints
from ..optimizer.context import PlanContext
from .observation import ExecutionObservation
from .store import StatisticsStore


def merge_hints(
    base: dict[str, Hints], learned: dict[str, Hints]
) -> dict[str, Hints]:
    """Field-wise overlay: learned values win, absent fields fall back."""
    merged = dict(base)
    for name, new in learned.items():
        old = merged.get(name)
        if old is None:
            merged[name] = new
            continue
        merged[name] = Hints(
            selectivity=(
                new.selectivity if new.selectivity is not None else old.selectivity
            ),
            cpu_per_call=new.cpu_per_call,
            distinct_keys=(
                new.distinct_keys
                if new.distinct_keys is not None
                else old.distinct_keys
            ),
        )
    return merged


class FeedbackEstimator(CardinalityEstimator):
    """Cardinality estimator that prefers learned runtime statistics."""

    def __init__(
        self,
        ctx: PlanContext,
        hints: dict[str, Hints] | None = None,
        store: StatisticsStore | None = None,
    ) -> None:
        self.store = store or StatisticsStore()
        base = hints or {}
        super().__init__(ctx, merge_hints(base, self.store.learned_hints()))
        self.base_hints = base
        self._observations: dict[Node, object] = {}
        self._source_rows = {
            name: float(stats.row_count)
            for name, stats in self.store.source_overrides().items()
        }

    def source_rows(self, op: Source) -> float:
        observed = self._source_rows.get(op.name)
        if observed is not None:
            return observed
        return super().source_rows(op)

    def _observation(self, node: Node):
        """The store's fresh observation of exactly this sub-flow, if any;
        looked up once per node (estimating and :meth:`observed` both ask)."""
        try:
            return self._observations[node]
        except KeyError:
            pass
        stats = None
        if isinstance(node.op, UdfOperator):
            # Resolved keys make observations transfer both ways across
            # materialized stage boundaries (identical to the plain
            # signature key for ordinary plans).
            stats = self.store.node_stats(resolved_signature_key(node))
        self._observations[node] = stats
        return stats

    def observed(self, node: Node) -> bool:
        return self._observation(node) is not None

    def _estimate(self, node: Node) -> EstStats:
        stats = self._observation(node)
        if stats is not None:
            # Children still estimate normally (their own observations
            # apply recursively); the node's output is pinned to what
            # the engine measured for this exact logical sub-flow.
            for child in node.children:
                self.estimate(child)
            return EstStats(
                rows=stats.rows_out,
                width=self._width(node),
                calls=stats.udf_calls,
            )
        return super()._estimate(node)


# ---------------------------------------------------------------------------
# q-error
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class QErrorReport:
    """Estimate-vs-observation divergence for one set of executions."""

    per_node: dict[str, float]  # signature key -> q-error

    @property
    def count(self) -> int:
        return len(self.per_node)

    @property
    def max(self) -> float:
        return max(self.per_node.values(), default=1.0)

    @property
    def median(self) -> float:
        if not self.per_node:
            return 1.0
        return median(self.per_node.values())


def qerror(estimated: float, observed: float) -> float:
    """``max(est/actual, actual/est)``, safe at zero (floor of one row)."""
    est = max(float(estimated), 1.0)
    act = max(float(observed), 1.0)
    return max(est / act, act / est)


def qerror_report(
    estimator: CardinalityEstimator,
    executions: list[ExecutionObservation],
    bodies: dict[str, Node],
) -> QErrorReport:
    """Compare an estimator's row estimates against observed rows.

    ``bodies`` maps each execution's ``plan_key`` to the logical body
    that was optimized (sink stripped); estimates come from the same
    estimator instance the optimizer used, so cached values reflect
    exactly what the cost model believed when it ranked the plans.
    Sources and sinks are excluded — only UDF operators are estimated
    quantities.
    """
    per_node: dict[str, float] = {}
    for execution in executions:
        body = bodies.get(execution.plan_key)
        if body is None:
            continue
        estimates = {
            resolved_signature_key(n): estimator.estimate(n).rows
            for n in iter_nodes(body)
            if not isinstance(n.op, (Source, Sink))
        }
        for obs in execution.ops:
            if obs.kind == "source":
                continue
            est = estimates.get(obs.key)
            if est is None:
                continue
            per_node[obs.key] = qerror(est, obs.rows_out)
    return QErrorReport(per_node=per_node)
