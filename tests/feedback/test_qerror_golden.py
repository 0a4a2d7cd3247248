"""The adaptive loop's per-round q-error report, frozen for all workloads.

``tests/fixtures/feedback/qerror_rounds.json`` holds, for each of the
four paper workloads at its default scale, what two feedback rounds of
``AdaptiveOptimizer(picks=5)`` reported per round: the median, max and
count of the per-node q-errors, the pick's estimated-cost rank, its
modeled seconds and measured rank, the number of plans executed, and
the ``converged`` flag.  Floats are stored as ``float.hex()``, so a fresh
run must match to the last bit.

Beside the golden, the loop's own promises are checked on the fresh run:
feedback never deploys a measured-slower pick, never worsens the median
q-error, and on at least one workload round 1 tightens the median while
moving the pick to a better measured rank (or keeping the best one).

Regenerate (only when a change is *meant* to alter what the loop
learns) with ``PYTHONPATH=src python tests/feedback/test_qerror_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.feedback import AdaptiveOptimizer
from repro.workloads import ALL_WORKLOADS

FIXTURE = (
    Path(__file__).resolve().parents[1]
    / "fixtures"
    / "feedback"
    / "qerror_rounds.json"
)
FEEDBACK_ROUNDS = 2
PICKS = 5


def run_loop(name: str):
    workload = ALL_WORKLOADS[name]()
    return AdaptiveOptimizer(workload, picks=PICKS).run(
        feedback_rounds=FEEDBACK_ROUNDS
    )


def report_entry(outcome) -> dict:
    """One workload's adaptive report as the fixture records it."""
    return {
        "plan_count": outcome.final.optimization.plan_count,
        "rounds": [
            {
                "round": r.index,
                "qerror_median": r.qerror.median.hex(),
                "qerror_max": r.qerror.max.hex(),
                "qerror_nodes": r.qerror.count,
                "pick_est_rank": r.pick.rank,
                "pick_seconds": r.pick_seconds.hex(),
                "pick_measured_rank": r.pick_measured_rank,
                "plans_executed": len(r.executed),
                "converged": r.converged,
            }
            for r in outcome.rounds
        ],
    }


@pytest.fixture(scope="module")
def outcomes():
    return {name: run_loop(name) for name in sorted(ALL_WORKLOADS)}


def test_report_equals_the_frozen_fixture(outcomes):
    frozen = json.loads(FIXTURE.read_text())
    assert sorted(frozen) == sorted(outcomes)
    for name, outcome in outcomes.items():
        assert report_entry(outcome) == frozen[name], name


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_feedback_never_deploys_a_slower_pick(outcomes, name):
    outcome = outcomes[name]
    round0, final = outcome.rounds[0], outcome.final
    assert final.pick_seconds <= round0.pick_seconds
    assert final.pick_measured_rank <= round0.pick_measured_rank
    assert final.qerror.median <= round0.qerror.median


def test_feedback_improves_some_workload(outcomes):
    """Round 1 tightens the median q-error and moves the pick to a better
    measured rank (or keeps the best one) on at least one workload."""

    def improved(outcome) -> bool:
        if len(outcome.rounds) < 2:
            return False
        round0, round1 = outcome.rounds[:2]
        better_pick = (
            round1.pick_measured_rank < round0.pick_measured_rank
            or round0.pick_measured_rank == round1.pick_measured_rank == 1
        )
        return round1.qerror.median < round0.qerror.median and better_pick

    assert any(improved(outcome) for outcome in outcomes.values())


def _freeze() -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    entries = {name: report_entry(run_loop(name)) for name in sorted(ALL_WORKLOADS)}
    # One round per line keeps fixture diffs readable.
    blocks = []
    for name, entry in entries.items():
        rounds = ",\n".join("    " + json.dumps(r) for r in entry["rounds"])
        blocks.append(
            f'  "{name}": {{"plan_count": {entry["plan_count"]}, '
            f'"rounds": [\n{rounds}\n  ]}}'
        )
    FIXTURE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    for name, entry in entries.items():
        print(f"{name}: {len(entry['rounds'])} round(s)")


if __name__ == "__main__":
    _freeze()
