"""Ablation: contribution of each swap family to plan space and plan
quality on TPC-H Q7.

DESIGN.md calls out three swap families (S1 unary/unary, S2 unary/binary,
S3 binary rotations).  This ablation disables each family and measures how
the enumerated space and the best reachable estimated cost degrade —
quantifying how much of the optimization potential each theorem family
contributes (rotations unlock the bushy join orders; the unary/binary
exchanges unlock selection push-down).
"""

from unittest import mock

from conftest import write_result

from repro.bench import render_table
from repro.core import AnnotationMode, body
from repro.optimizer import Optimizer, PlanContext, enumerate_flows
from repro.optimizer import rules as rules_module


def best_cost(workload):
    return Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params,
        search="guided",
    ).optimize(workload.plan).best.cost


def run_ablation(workload):
    flow = body(workload.plan)

    blocked = lambda *args, **kwargs: False  # noqa: E731
    variants = [
        ("full rule set", {}),
        ("no unary/unary swaps (Thm 1/2)", {"can_swap_unary_unary": blocked}),
        ("no unary/binary exchanges (Thm 3/4)", {"can_exchange_unary_binary": blocked}),
        ("no binary rotations (Lemma 1)", {"can_rotate": blocked}),
    ]
    rows = []
    for label, patches in variants:
        with mock.patch.multiple(rules_module, **patches) if patches else mock.patch.object(
            rules_module, "__doc__", rules_module.__doc__
        ):
            flows = enumerate_flows(flow, PlanContext(workload.catalog, AnnotationMode.SCA))
            cost = best_cost(workload)
        rows.append((label, len(flows), f"{cost:.1f} s"))
    return rows


def test_ablation_swap_families(benchmark, q7_workload, results_dir):
    rows = benchmark.pedantic(run_ablation, args=(q7_workload,), rounds=1, iterations=1)
    table = render_table(rows, ("rule set", "plans", "best est. cost"))
    write_result(
        results_dir,
        "ablation_rules.txt",
        "Ablation — swap-family contribution on TPC-H Q7\n" + table,
    )

    by_label = {r[0]: r for r in rows}
    full = by_label["full rule set"]
    assert full[1] == 442
    for label, plans, _ in rows[1:]:
        assert plans < full[1], f"{label} should shrink the plan space"
    # Rotations are what unlocks the bushy join space: removing them
    # collapses the space the most.
    no_rot = by_label["no binary rotations (Lemma 1)"]
    assert no_rot[1] == min(r[1] for r in rows[1:])
    # The full rule set reaches the cheapest plan.
    full_cost = float(full[2].split()[0])
    for label, _, cost_label in rows[1:]:
        assert float(cost_label.split()[0]) >= full_cost * 0.999, label
