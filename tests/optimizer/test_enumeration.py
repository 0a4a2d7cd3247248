"""Enumeration: the memo's listing vs the paper's Algorithm 1; limits."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    AnnotationMode,
    Catalog,
    EmitBounds,
    FieldMap,
    FieldSet,
    MapOp,
    OptimizationError,
    PlanError,
    Sink,
    Source,
    SourceStats,
    UdfProperties,
    attrs,
    chain,
    map_udf,
    node,
    signature,
)
from repro.core.plan import Node, linearize
from repro.optimizer import (
    PlanContext,
    count_alternatives,
    enumerate_flows,
)
from tests.conftest import identity_udf
from tests.optimizer.algorithm1 import enum_alternatives_chain

ROOT = Path(__file__).resolve().parents[2]
WIDTH = 5
ATTRS = attrs(*(f"t.f{i}" for i in range(WIDTH)))
FMAP = FieldMap(ATTRS)


def make_ctx():
    catalog = Catalog()
    catalog.add_source("T", SourceStats(10))
    return PlanContext(catalog, AnnotationMode.MANUAL)


def annotated_map(name, reads=(), writes=()):
    props = UdfProperties(
        reads=FieldSet.of(*(((0, p)) for p in reads)),
        writes_modified=FieldSet.of(*writes),
        emit_bounds=EmitBounds.exactly(1),
    )
    return MapOp(name, map_udf(identity_udf, props), FMAP)


def build_chain(*ops):
    return chain(Source("T", ATTRS), *ops)


class TestClosureVsAlgorithm1:
    def cases(self):
        # (ops, expected order count): conflict structure varies
        yield [annotated_map("a", reads=(0,)), annotated_map("b", reads=(1,)),
               annotated_map("c", reads=(2,))], 6  # all commute
        yield [annotated_map("a", writes=(0,)), annotated_map("b", reads=(0,)),
               annotated_map("c", reads=(3,))], 3  # a<b fixed, c free
        # a must precede b and c (both read what a writes); b and c share
        # only a read of field 0, which never conflicts.
        yield [annotated_map("a", writes=(0,)), annotated_map("b", reads=(0,)),
               annotated_map("c", writes=(1,), reads=(0,))], 2

    def test_agreement_and_counts(self):
        ctx = make_ctx()
        for ops, expected in self.cases():
            flow = build_chain(*ops)
            closure = {signature(f) for f in enumerate_flows(flow, ctx)}
            alg1 = {signature(f) for f in enum_alternatives_chain(flow, ctx)}
            assert closure == alg1
            assert len(closure) == expected

    def test_closure_independent_of_start(self):
        ctx = make_ctx()
        ops = [annotated_map("a", reads=(0,)), annotated_map("b", reads=(1,)),
               annotated_map("c", writes=(2,))]
        flow = build_chain(*ops)
        all_flows = enumerate_flows(flow, ctx)
        reference = {signature(f) for f in all_flows}
        for other_start in all_flows:
            assert {signature(f) for f in enumerate_flows(other_start, ctx)} == reference


class TestAlgorithm1Details:
    def test_handles_sink(self):
        ctx = make_ctx()
        flow = node(Sink("out"), build_chain(annotated_map("a"), annotated_map("b")))
        results = enum_alternatives_chain(flow, ctx)
        assert len(results) == 2
        assert all(isinstance(r.op, Sink) for r in results)

    def test_rejects_binary_flows(self):
        from repro.core import MatchOp, binary_udf
        from tests.conftest import concat_udf

        ctx = make_ctx()
        other = attrs("u.x")
        match = MatchOp(
            "j",
            binary_udf(concat_udf, UdfProperties(emit_bounds=EmitBounds.exactly(1))),
            FMAP, FieldMap(other), (0,), (0,),
        )
        flow = node(match, build_chain(annotated_map("a")), node(Source("U", other)))
        with pytest.raises(PlanError):
            enum_alternatives_chain(flow, ctx)

    def test_original_flow_always_included(self):
        ctx = make_ctx()
        flow = build_chain(annotated_map("a", writes=(0,)),
                           annotated_map("b", reads=(0,)))
        results = enum_alternatives_chain(flow, ctx)
        assert signature(flow) in {signature(r) for r in results}


class TestClosureVsAlgorithm1Property:
    """Property-style check on random legal chains: the BFS closure and the
    paper's Algorithm 1 must agree on count and plan set after the
    interning rewrite."""

    def random_ops(self, rng, count):
        ops = []
        for k in range(count):
            reads = tuple(
                p for p in range(WIDTH) if rng.random() < 0.4
            )
            writes = tuple(
                p for p in range(WIDTH) if rng.random() < 0.25
            )
            ops.append(annotated_map(f"p{k}", reads=reads, writes=writes))
        return ops

    def test_random_chains_agree(self):
        import random

        rng = random.Random(20120830)  # the paper's PVLDB year, for luck
        ctx = make_ctx()
        for trial in range(25):
            ops = self.random_ops(rng, rng.randint(2, 5))
            flow = build_chain(*ops)
            closure = enumerate_flows(flow, ctx)
            alg1 = enum_alternatives_chain(flow, ctx)
            assert len(closure) == len(alg1)
            assert {signature(f) for f in closure} == {
                signature(f) for f in alg1
            }
            # interned plans: structurally equal alternatives are identical
            # objects, so the two enumerators return the very same nodes
            assert set(closure) == set(alg1)


class TestEnumerateFlows:
    def test_original_is_first(self):
        ctx = make_ctx()
        flow = build_chain(annotated_map("a"), annotated_map("b"))
        assert enumerate_flows(flow, ctx)[0] == flow

    def test_sink_rejected(self):
        ctx = make_ctx()
        plan = node(Sink("out"), build_chain(annotated_map("a")))
        with pytest.raises(PlanError):
            enumerate_flows(plan, ctx)

    def test_limit_enforced(self):
        ctx = make_ctx()
        ops = [annotated_map(f"m{i}", reads=(i % WIDTH,)) for i in range(5)]
        flow = build_chain(*ops)
        with pytest.raises(OptimizationError):
            enumerate_flows(flow, ctx, limit=10)

    def test_limit_is_checked_before_listing(self, monkeypatch):
        """The bound is read from the memo's cells while they are explored:
        9 commuting maps stand for 362 880 flows over 2 304 cell
        expressions, refused before 1 000 trees are built."""
        ctx = make_ctx()
        ops = [annotated_map(f"m{i}", reads=(i % WIDTH,)) for i in range(9)]
        flow = build_chain(*ops)
        built = []
        new = Node.__new__

        def counting(cls, *args, **kwargs):
            built.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Node, "__new__", counting)
        with pytest.raises(OptimizationError, match="exceeded 1000 alternatives"):
            enumerate_flows(flow, ctx, limit=1000)
        monkeypatch.undo()
        assert len(built) < 1000

    def test_count_helper(self):
        ctx = make_ctx()
        flow = build_chain(annotated_map("a"), annotated_map("b"))
        assert count_alternatives(flow, ctx) == 2

    def test_factorial_growth_of_commuting_maps(self):
        ctx = make_ctx()
        ops = [annotated_map(f"m{i}", reads=(i % WIDTH,)) for i in range(4)]
        flow = build_chain(*ops)
        assert count_alternatives(flow, ctx) == 24

    def test_orders_are_distinct_plans(self):
        ctx = make_ctx()
        ops = [annotated_map("a", reads=(0,)), annotated_map("b", reads=(1,))]
        flow = build_chain(*ops)
        orders = {linearize(f) for f in enumerate_flows(flow, ctx)}
        assert orders == {("a", "b"), ("b", "a")}


#: Q7 planned by each search with ``can_exchange_unary_binary`` skipped
#: (every unary/binary exchange legal), under a 3 GB address-space cap;
#: prints each search's error.
OVER_GENERATING = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from repro.core.errors import OptimizationError
from repro.optimizer import rules
from tests.optimizer.spaces import _build

rules.can_exchange_unary_binary = lambda *args: True
sp = _build("tpch_q7-sca")
for kwargs in ({"search": "guided", "top_k": 1}, {}):
    try:
        sp.optimizer(**kwargs).optimize(sp.plan)
    except OptimizationError as err:
        print(err)
"""


def test_an_over_generating_rule_fails_fast_in_every_search():
    """Every search explores under one tree limit: with the exchange rule
    skipped, Q7's cells stand for millions of trees, and planning stops at
    the limit (about 200 MB here) instead of growing the memo until the
    cap raises ``MemoryError`` (2.9 GB when guided explored unbounded)."""
    done = subprocess.run(
        [sys.executable, "-c", OVER_GENERATING],
        cwd=ROOT,
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        },
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    errors = done.stdout.splitlines()
    assert len(errors) == 2
    assert all(e.startswith("enumeration exceeded 1000000") for e in errors)
