"""The simulated shared-nothing execution engine (Nephele substitute).

Executes a physical plan over ``degree`` logical instances.  Data really
is partitioned, shipped, joined, and grouped partition-by-partition — the
output is exact — while a deterministic time model charges every byte
shipped and every UDF call, producing the simulated runtimes the
experiments report.

Estimated costs (optimizer) and measured times (engine) share
:class:`~repro.optimizer.cost.CostParams`; they diverge only through
cardinality-estimation error, hint error, and skew — the same reasons the
paper's estimates diverge from its cluster runtimes.

Pipeline-stage model
--------------------
The engine runs the plan as a DAG of *pipeline stages* (see
:meth:`PhysNode.pipeline_stages`): each stage is a pipeline breaker — a
source scan, an operator behind a non-forward ship, or a blocking local
strategy (sort-based Reduce/CoGroup, hash-join build, nested-loop cross)
— plus the maximal chain of forward-shipped Map operators (and the
collecting Sink) fused on top of it.  A fused chain streams each
partition through every Map in bounded record batches
(:data:`BATCH_ROWS`), so no intermediate partition list exists per Map:
peak transient memory is O(batch), not O(dataset), which is what lets
much larger datagen scales run in the same footprint.  The Map planner
emits forward ships only, so every Map runs fused.

Blocking stages still buffer whole partitions; when a blocking stage's
per-instance share exceeds ``CostParams.memory_per_instance``, the spill
to disk is charged via ``CostParams.spill_bytes``.  Per-operator
:class:`OpMetrics` are reported per logical operator, fused or not, and
the batch size changes neither records nor metrics.

Engine accounting
-----------------
One serial engine runs every plan: the ``degree`` instances exist in the
modeled seconds, which charge each instance's CPU units and bytes as if
it ran on its own node, not in the host's processes.  The engine's own
per-record work is done in bulk wherever that yields exactly the
per-record value: byte totals through :func:`~repro.core.record.rows_bytes`
(one total per shipped input; per-partition totals only for Reduce's
spill, which is charged per instance; a scan's total rides on its
:class:`~.partition.SizedPartitions`, so a ship right on the scan does
not size the rows again), hash routing through
:func:`~.partition.repartition_by_key` (inlined ``stable_hash``), the scan
split as list slices, and copy-on-write emits in
:class:`~repro.core.record.Collector`.  On the record path beside the
UDF, each step runs once and in C where it can: attributes hash in C
(they are interned, :class:`~repro.core.schema.Attribute`), keys are
read by one ``itemgetter`` per keyed input
(:func:`~repro.core.reference.key_getter`), a Match or Cross wraps
each right-side row once per partition, and each Reduce partition and CoGroup
input is grouped once.  Records, their order and every
``OpMetrics`` bit of reference plans are frozen in
``tests/fixtures/engine/`` and replayed by ``tests/engine/test_golden.py``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from ..core.errors import ExecutionError
from ..core.operators import (
    CoGroupOp,
    CrossOp,
    MapOp,
    MatchOp,
    MaterializedSource,
    ReduceOp,
    Sink,
    Source,
)
from ..core.record import RawRecord, rows_bytes
from ..core.reference import (
    apply_cross,
    apply_map,
    apply_match,
    cogroup_groups,
    group_by,
    reduce_groups,
)
from ..obs.tracer import NOOP_TRACER, clock
from ..optimizer.cost import CostParams
from ..optimizer.physical import (
    PhysNode,
    Ship,
    ShipKind,
    pipelineable,
)
from .metrics import ExecutionReport, OpMetrics
from .partition import (
    Partitions,
    SizedPartitions,
    broadcast,
    empty_partitions,
    gather,
    repartition_by_key,
    round_robin,
)

SourceData = dict[str, list[RawRecord]]

#: Records per batch a fused Map chain streams through at once.
BATCH_ROWS = 1024

_run_seq = 0


def _next_run_id() -> str:
    """Globally unique id for one engine execution.

    Ties a staged execution's in-flight stage-delta observations to its
    final whole-run observation, so the statistics store can refuse to
    count the same (signature, run) twice.  The pid qualifier keeps ids
    from concurrent processes distinct — the dedupe map is persisted by
    backend-attached stores, so a collision across writers would
    silently drop another process's observations."""
    global _run_seq
    _run_seq += 1
    return f"run-{os.getpid()}-{_run_seq}"


@dataclass(slots=True)
class ExecutionResult:
    records: list[RawRecord]
    report: ExecutionReport
    wall_seconds: float = 0.0  # measured wall-clock of the whole execution

    @property
    def seconds(self) -> float:
        return self.report.seconds


@dataclass(slots=True)
class StageRun:
    """One executed pipeline stage of a staged execution."""

    index: int  # 0-based position in execution order, across switches
    nodes: tuple[PhysNode, ...]  # (breaker, *fused chain), upstream-first
    metrics: tuple[OpMetrics, ...]  # this stage's slice of the report
    output: Partitions  # the stage's materialized output
    wall_seconds: float = 0.0  # measured wall-clock, not modeled time

    @property
    def top(self) -> PhysNode:
        return self.nodes[-1]

    @property
    def rows_out(self) -> int:
        return sum(len(p) for p in self.output)


def run_chain_partition(
    ops: list[MapOp], rows: list[RawRecord], batch: int
) -> tuple[list[RawRecord], list[int], list[int]]:
    """Stream one partition through a fused Map chain in bounded batches.

    Returns the collected output rows plus per-operator input/output row
    counts — the integer facts the chain's metric arithmetic consumes.
    """
    count = len(ops)
    in_rows = [0] * count
    out_rows = [0] * count
    collected: list[RawRecord] = []
    for start in range(0, len(rows), batch):
        cur = rows[start : start + batch]
        for k, op in enumerate(ops):
            if not cur:
                break
            in_rows[k] += len(cur)
            cur = apply_map(op, cur)
            out_rows[k] += len(cur)
        collected.extend(cur)
    return collected, in_rows, out_rows


def eval_local_partition(
    op, rows_by_input: tuple[list[RawRecord], ...]
) -> tuple[list[RawRecord], tuple]:
    """Evaluate one partition of a local strategy.

    Returns the output rows plus the auxiliary counts the metric
    arithmetic needs for this partition (Reduce groups, CoGroup keys),
    read off the one grouping the UDF calls run over.
    """
    if isinstance(op, ReduceOp):
        (rows,) = rows_by_input
        groups = group_by(rows, op.key_attr_tuple())
        return reduce_groups(op, groups), (len(groups),)
    if isinstance(op, MatchOp):
        l_rows, r_rows = rows_by_input
        return apply_match(op, l_rows, r_rows), ()
    if isinstance(op, CrossOp):
        l_rows, r_rows = rows_by_input
        return apply_cross(op, l_rows, r_rows), ()
    if isinstance(op, CoGroupOp):
        l_rows, r_rows = rows_by_input
        l_groups = group_by(l_rows, op.left_key_attrs())
        r_groups = group_by(r_rows, op.right_key_attrs())
        keys = len(l_groups.keys() | r_groups.keys())
        return cogroup_groups(op, l_groups, r_groups), (keys,)
    raise ExecutionError(f"cannot execute {op!r}")


class Engine:
    """Executes physical plans on partitioned in-memory data.

    Fused Map chains run as per-partition batched pipelines; blocking
    operators evaluate whole partitions.

    With ``reuse_subtree_results`` the engine memoizes the (deterministic)
    outcome of every executed physical subtree — output partitions plus
    the per-operator metrics — and replays it when another plan of the
    same experiment contains an identical subtree over the same source
    data.  The optimizer's cell tables hand structurally shared
    sub-plans to the engine as the *same* ``PhysNode`` objects, so
    the rank-picked plans of one experiment hit this cache heavily.  The
    cache keys on pipeline-stage boundaries (breakers and the chains
    fused onto them), not on every node.  Reported records and simulated
    times are bit-identical with the cache on or off.
    """

    def __init__(
        self,
        params: CostParams | None = None,
        true_costs: dict[str, float] | None = None,
        reuse_subtree_results: bool = False,
        collector: "ObservationCollector | None" = None,
        tracer=None,
    ) -> None:
        self.params = params or CostParams()
        self.true_costs = true_costs or {}
        self.reuse_subtree_results = reuse_subtree_results
        # Wall-clock observability (repro.obs).  Tracing reads the wall
        # clock only: records, OpMetrics, and modeled seconds are
        # bit-identical with the tracer on or off (pinned by the tracing
        # parity suite).  Default is the shared near-zero-overhead no-op.
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        # Measured (top node name, wall seconds) per stage of the most
        # recent execute_staged() run — the hardware-time axis; modeled
        # seconds live in the ExecutionReport.
        self.last_stage_walls: list[tuple[str, float]] = []
        # Optional runtime-statistics hook (the feedback subsystem's
        # ObservationCollector): notified once per execute() with the plan
        # and the finished report, covering every stage boundary — fused
        # chains, breakers, and cache-replayed subtrees alike.
        self.collector = collector
        self._subtree_cache: dict[
            PhysNode, tuple[Partitions, tuple[OpMetrics, ...]]
        ] = {}
        self._cache_data: SourceData | None = None
        # Stage-boundary checkpoints of the staged execution in flight:
        # stage-top PhysNode -> materialized output partitions.  Consulted
        # before any other resolution so already-executed stages are never
        # re-run (and their metrics never re-reported) after a plan switch.
        self._stage_results: dict[PhysNode, Partitions] | None = None

    def _cost_per_call(self, op_name: str) -> float:
        return self.true_costs.get(op_name, 1.0)

    # -- public -----------------------------------------------------------------

    def execute(self, plan: PhysNode, data: SourceData) -> ExecutionResult:
        report = ExecutionReport()
        if self.reuse_subtree_results and self._cache_data is not data:
            self._subtree_cache.clear()
            self._cache_data = data  # strong ref: no id-reuse hazard
        span = self.tracer.span("engine.execute", category="engine", plan=plan.name)
        wall_start = clock()
        with span:
            parts = self._run(plan, data, report)
            # Internally, records flow by reference (filter-style UDFs
            # forward the input dicts, the subtree cache replays
            # partitions); copy at the API boundary so callers that mutate
            # returned records cannot corrupt source data or cached
            # results.
            records = [dict(r) for r in gather(parts)]
        wall = clock() - wall_start
        span.set(rows_out=len(records), modeled_seconds=report.seconds)
        self.tracer.count("engine.executions")
        result = ExecutionResult(
            records=records, report=report, wall_seconds=wall
        )
        if self.collector is not None:
            self.collector.observe_execution(
                plan, report, self.true_costs, wall_seconds=wall
            )
        return result

    def execute_staged(
        self,
        plan: PhysNode,
        data: SourceData,
        controller=None,
    ) -> ExecutionResult:
        """Execute ``plan`` stage-by-stage with optional mid-query switching.

        The plan's :meth:`PhysNode.pipeline_stages` run one at a time in
        execution order; each stage's output is checkpointed.  After every
        stage that did real work (except the final one), ``controller.
        on_boundary(engine=, plan=, stage=, completed=, run_id=)`` may
        return a replacement physical plan for the *unexecuted suffix* —
        its leaves are :class:`~repro.core.operators.MaterializedSource`
        operators carrying the checkpointed partitions — and execution
        continues under the new plan.  Checkpoint-handoff stages (a bare
        materialized source) report no metrics and fire no boundary, so a
        switch decision always follows actual progress.

        With ``controller=None`` (or a controller that never switches)
        records, per-operator metrics, and simulated seconds are
        bit-identical to :meth:`execute` — pinned by the staged parity
        suite.  The cross-plan subtree cache is bypassed for the duration:
        stage checkpoints are this execution's only replay mechanism.
        """
        if self._stage_results is not None:
            raise ExecutionError("staged execution is not re-entrant")
        report = ExecutionReport()
        run_id = _next_run_id()
        self.last_stage_walls = []
        stage_outputs: dict[PhysNode, Partitions] = {}
        saved_reuse = self.reuse_subtree_results
        self.reuse_subtree_results = False
        self._stage_results = stage_outputs
        current = plan
        switched = False
        parts: Partitions = []
        root_span = self.tracer.span(
            "engine.execute_staged", category="engine", plan=plan.name
        )
        root_span.__enter__()
        try:
            stage_index = 0
            while True:
                pending = [
                    s
                    for s in current.pipeline_stages()
                    if s[-1] not in stage_outputs
                ]
                replanned = False
                for pos, stage in enumerate(pending):
                    top = stage[-1]
                    stage_report = ExecutionReport()
                    stage_span = self.tracer.span(
                        "engine.stage",
                        category="engine",
                        stage=top.name,
                        index=stage_index,
                    )
                    wall_start = clock()
                    with stage_span:
                        parts = self._run_subtree(top, data, stage_report)
                    wall = clock() - wall_start
                    stage_span.set(
                        rows_out=sum(len(p) for p in parts),
                        ops=len(stage_report.per_op),
                    )
                    self.tracer.count("engine.stages")
                    self.last_stage_walls.append((top.name, wall))
                    report.per_op.extend(stage_report.per_op)
                    stage_outputs[top] = parts
                    run = StageRun(
                        index=stage_index,
                        nodes=stage,
                        metrics=tuple(stage_report.per_op),
                        output=parts,
                        wall_seconds=wall,
                    )
                    stage_index += 1
                    last = pos == len(pending) - 1
                    if controller is None or last or not run.metrics:
                        continue
                    replacement = controller.on_boundary(
                        engine=self,
                        plan=current,
                        stage=run,
                        completed=stage_outputs,
                        run_id=run_id,
                    )
                    if replacement is not None:
                        current = replacement
                        switched = True
                        replanned = True
                        break
                if not replanned:
                    break
            records = [dict(r) for r in gather(parts)]
        finally:
            self._stage_results = None
            self.reuse_subtree_results = saved_reuse
            root_span.__exit__(None, None, None)
        root_span.set(
            stages=len(self.last_stage_walls),
            switched=switched,
            modeled_seconds=report.seconds,
        )
        self.tracer.count("engine.executions")
        total_wall = sum(wall for _, wall in self.last_stage_walls)
        result = ExecutionResult(
            records=records, report=report, wall_seconds=total_wall
        )
        if self.collector is not None:
            # A switched run is a hybrid of two plans: its metrics are
            # real per-op observations (already keyed transferably), but
            # its total seconds belong to no single plan — mark partial.
            self.collector.observe_execution(
                current, report, self.true_costs, run_id=run_id,
                partial=switched, wall_seconds=total_wall,
            )
        return result

    # -- recursion -----------------------------------------------------------------

    def _run(
        self,
        node: PhysNode,
        data: SourceData,
        report: ExecutionReport,
    ) -> Partitions:
        if self._stage_results is not None:
            # A completed stage of the staged execution: hand back the
            # checkpoint without replaying metrics — they were reported
            # once, when the stage actually ran.
            checkpoint = self._stage_results.get(node)
            if checkpoint is not None:
                return checkpoint
        if not self.reuse_subtree_results:
            return self._run_subtree(node, data, report)
        hit = self._subtree_cache.get(node)
        if hit is not None:
            parts, metrics = hit
            report.per_op.extend(metrics)
            return parts
        sub_report = ExecutionReport()
        parts = self._run_subtree(node, data, sub_report)
        self._subtree_cache[node] = (parts, tuple(sub_report.per_op))
        report.per_op.extend(sub_report.per_op)
        return parts

    def _run_subtree(
        self,
        node: PhysNode,
        data: SourceData,
        report: ExecutionReport,
    ) -> Partitions:
        if pipelineable(node):
            # Fused stage chain: collect the forward-shipped Maps (and
            # Sink) down to the stage's pipeline breaker, run the breaker,
            # then stream its output through the whole chain at once.  A
            # cached interior node (another plan's stage boundary) also
            # stops the descent, so shared chain prefixes replay instead
            # of re-executing.
            cache = self._subtree_cache if self.reuse_subtree_results else None
            staged = self._stage_results
            chain = [node]
            below = node.children[0]
            while (
                pipelineable(below)
                and (cache is None or below not in cache)
                and (staged is None or below not in staged)
            ):
                chain.append(below)
                below = below.children[0]
            base = self._run(below, data, report)
            chain.reverse()
            return self._run_chain(chain, base, report)
        return self._run_breaker(node, data, report)

    # -- fused map chains ---------------------------------------------------------

    def _run_chain(
        self,
        chain: list[PhysNode],
        base: Partitions,
        report: ExecutionReport,
    ) -> Partitions:
        """Stream partitions through a fused chain of Map operators.

        Each partition flows through every Map of the chain in bounded
        batches, so no intermediate partition list is ever built.  The
        per-operator accounting sums integer row counts per partition, so
        the batch size never changes the reported metrics.  A Sink in the
        chain collects without transforming or reporting.
        """
        stages = [
            (n, n.logical.op) for n in chain if not isinstance(n.logical.op, Sink)
        ]
        if not stages:
            return base
        degree = len(base)
        ops = [op for _, op in stages]
        tracer = self.tracer
        chain_span = tracer.span(
            "engine.chain",
            category="engine",
            first=ops[0].name,
            ops=len(stages),
        )
        in_rows = [[0] * degree for _ in stages]
        out_rows = [[0] * degree for _ in stages]
        out = empty_partitions(degree)
        with chain_span:
            for i, rows in enumerate(base):
                with tracer.span(
                    "engine.partition",
                    category="engine",
                    op=ops[0].name,
                    partition=i,
                ):
                    collected, part_in, part_out = run_chain_partition(
                        ops, rows, BATCH_ROWS
                    )
                out[i] = collected
                for k in range(len(stages)):
                    in_rows[k][i] = part_in[k]
                    out_rows[k][i] = part_out[k]
        params = self.params
        for k, (stage_node, op) in enumerate(stages):
            metrics = OpMetrics(name=op.name, strategy=stage_node.local.value)
            cost_call = self._cost_per_call(op.name)
            cpu_per_instance = [
                in_rows[k][i] * cost_call + out_rows[k][i] * params.record_overhead
                for i in range(degree)
            ]
            metrics.rows_in = sum(in_rows[k])
            metrics.rows_out = sum(out_rows[k])
            metrics.udf_calls = metrics.rows_in
            metrics.cpu_units_max = max(cpu_per_instance)
            metrics.cpu_units_total = sum(cpu_per_instance)
            metrics.local_seconds += metrics.cpu_units_max / params.cpu_rate
            report.per_op.append(metrics)
        return out

    # -- pipeline breakers --------------------------------------------------------

    def _run_breaker(
        self,
        node: PhysNode,
        data: SourceData,
        report: ExecutionReport,
    ) -> Partitions:
        op = node.logical.op
        params = self.params
        if isinstance(op, MaterializedSource):
            # Checkpointed stage handoff: the partitions were materialized
            # (and their production charged) when the original stage ran,
            # so re-reading them is free and reports no metrics.
            return op.partitions
        if isinstance(op, Source):
            try:
                rows = data[op.name]
            except KeyError:
                raise ExecutionError(f"no data bound for source {op.name!r}") from None
            with self.tracer.span(
                "engine.scan", category="engine", source=op.name
            ) as scan_span:
                parts = SizedPartitions(round_robin(rows, params.degree))
                parts.total_bytes = rows_bytes(rows)
                metrics = OpMetrics(name=op.name, strategy="scan")
                metrics.rows_out = len(rows)
                metrics.disk_bytes = float(parts.total_bytes)
                metrics.local_seconds = params.disk_seconds(metrics.disk_bytes)
                report.per_op.append(metrics)
            scan_span.set(rows_out=len(rows))
            return parts
        inputs = [self._run(child, data, report) for child in node.children]
        # The operator span covers shipping plus local evaluation only —
        # child recursion above traces under its own spans.
        op_span = self.tracer.span(
            "engine.op",
            category="engine",
            op=op.name,
            strategy=node.local.value,
        )
        with op_span:
            out = self._ship_and_local(node, op, inputs, report)
        op_span.set(
            rows_out=report.per_op[-1].rows_out,
            modeled_seconds=report.per_op[-1].seconds,
        )
        return out

    def _ship_and_local(
        self,
        node: PhysNode,
        op,
        inputs: list[Partitions],
        report: ExecutionReport,
    ) -> Partitions:
        """Ship the collected inputs and evaluate the local strategy.

        Split out of :meth:`_run_breaker` so the operator span cleanly
        covers exactly this region; the metric arithmetic is unchanged.
        """
        metrics = OpMetrics(
            name=op.name,
            strategy=node.local.value,
        )
        shipped = [
            self._ship(ship, inp, node, metrics)
            for ship, inp in zip(node.ships, inputs)
        ]
        out = self._local(node, shipped, metrics)
        metrics.rows_out = sum(len(p) for p in out)
        report.per_op.append(metrics)
        return out

    # -- shipping ----------------------------------------------------------------

    def _ship(
        self,
        ship: Ship,
        parts: Partitions,
        node: PhysNode,
        metrics: OpMetrics,
    ) -> Partitions:
        params = self.params
        if ship.kind is ShipKind.FORWARD:
            return parts
        rows = sum(len(p) for p in parts)
        # One byte total per input: the per-partition totals are integers,
        # so their float sum is exactly float(total); a scan's partitions
        # carry that total already.
        if isinstance(parts, SizedPartitions):
            total = parts.total_bytes
        else:
            total = sum(map(rows_bytes, parts))
        avg = float(total) / rows if rows else 0.0
        if ship.kind is ShipKind.PARTITION:
            if ship.key is None:
                raise ExecutionError(f"{node.name}: partition ship without key")
            out, moved = repartition_by_key(parts, ship.key, params.degree)
        elif ship.kind is ShipKind.BROADCAST:
            out, moved = broadcast(parts, params.degree)
        else:  # pragma: no cover - defensive
            raise ExecutionError(f"unknown ship kind {ship.kind}")
        moved_bytes = moved * avg
        metrics.net_bytes += moved_bytes
        metrics.ship_seconds += params.net_seconds(moved_bytes)
        return out

    # -- local strategies -------------------------------------------------------------

    def _local(
        self,
        node: PhysNode,
        inputs: list[Partitions],
        metrics: OpMetrics,
    ) -> Partitions:
        """Evaluate a local strategy partition-by-partition.

        The per-partition evaluation (:func:`eval_local_partition`) hands
        back output rows plus integer facts; every float operation
        happens here, in partition-index order.
        """
        op = node.logical.op
        params = self.params
        cost_call = self._cost_per_call(op.name)
        degree = params.degree
        cpu_per_instance = [0.0] * degree
        calls_total = 0

        tracer = self.tracer
        out = empty_partitions(degree)
        evaled = []
        for i in range(degree):
            with tracer.span(
                "engine.partition",
                category="engine",
                op=op.name,
                partition=i,
            ):
                result, aux = eval_local_partition(
                    op, tuple(inp[i] for inp in inputs)
                )
            out[i] = result
            evaled.append((len(result), aux))

        if isinstance(op, ReduceOp):
            (parts,) = inputs
            metrics.rows_in = sum(len(p) for p in parts)
            for i in range(degree):
                result_len, (groups,) = evaled[i]
                calls_total += groups
                n = len(parts[i])
                sort_units = n * math.log2(max(n, 2)) * params.sort_unit
                cpu_per_instance[i] = (
                    sort_units
                    + groups * cost_call
                    + result_len * params.record_overhead
                )
                # Spill is charged per instance, so Reduce is the one
                # consumer of per-partition byte totals.
                part_bytes = float(rows_bytes(parts[i]))
                spill = params.spill_bytes(part_bytes * degree) / degree
                metrics.disk_bytes += spill
                metrics.local_seconds += params.disk_seconds(spill)
        elif isinstance(op, MatchOp):
            left, right = inputs
            metrics.rows_in = sum(len(p) for p in left) + sum(len(p) for p in right)
            build = node.build_side if node.build_side is not None else 0
            for i in range(degree):
                pairs, _ = evaled[i]
                build_rows = left[i] if build == 0 else right[i]
                probe_rows = right[i] if build == 0 else left[i]
                calls_total += pairs
                cpu_per_instance[i] = (
                    len(build_rows) * params.build_unit
                    + len(probe_rows) * params.probe_unit
                    + pairs * cost_call
                    + pairs * params.record_overhead
                )
        elif isinstance(op, CrossOp):
            left, right = inputs
            metrics.rows_in = sum(len(p) for p in left) + sum(len(p) for p in right)
            for i in range(degree):
                result_len, _ = evaled[i]
                pairs = len(left[i]) * len(right[i])
                calls_total += pairs
                cpu_per_instance[i] = (
                    pairs * (params.cross_unit + cost_call)
                    + result_len * params.record_overhead
                )
        elif isinstance(op, CoGroupOp):
            left, right = inputs
            metrics.rows_in = sum(len(p) for p in left) + sum(len(p) for p in right)
            for i in range(degree):
                result_len, (keys,) = evaled[i]
                calls_total += keys
                n, m = len(left[i]), len(right[i])
                cpu_per_instance[i] = (
                    n * math.log2(max(n, 2)) * params.sort_unit
                    + m * math.log2(max(m, 2)) * params.sort_unit
                    + keys * cost_call
                    + result_len * params.record_overhead
                )
        else:  # pragma: no cover - defensive
            raise ExecutionError(f"cannot execute {op!r}")

        metrics.udf_calls = calls_total
        metrics.cpu_units_max = max(cpu_per_instance)
        metrics.cpu_units_total = sum(cpu_per_instance)
        metrics.local_seconds += metrics.cpu_units_max / params.cpu_rate
        return out


def execute_physical(
    plan: PhysNode,
    data: SourceData,
    params: CostParams | None = None,
    true_costs: dict[str, float] | None = None,
) -> ExecutionResult:
    """Convenience wrapper: run one physical plan on source data."""
    return Engine(params, true_costs).execute(plan, data)
