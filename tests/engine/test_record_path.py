"""Per-execution counts of the engine's record path, pinned without timing.

One execution of a golden case's rank-1 plan (``tests/engine/golden.py``)
runs with counting wrappers around the record path's per-record steps:

* ``key_of`` — keys are read through one ``itemgetter`` per keyed input;
  ``key_of`` runs only to raise a missing key's ``ExecutionError``.
* rows sized by the executor's ``rows_bytes`` — a scan's byte total is
  carried with its partitions, so a ship right on a scan does not size
  its rows again.
* ``InputRecord`` constructions — a Match wraps each right-side row once
  per partition, when its key is first probed, not once per pair.
* ``group_by`` calls and rows — each Reduce partition and CoGroup input
  is grouped once, by the grouping its UDF calls run over.

A count that grows means a per-record step came back; one that shrinks
is a change to record here on purpose.
"""

from functools import cache

import pytest

import repro.core.reference as reference
import repro.engine.executor as executor
import repro.engine.partition as partition
from repro.core.record import InputRecord
from repro.engine import Engine
from tests.engine.golden import planned

# Q7 at scale 10, clickstream at scale 1; rank 1 of the eager SCA ranking.
PINNED = {
    "tpch_q7": {
        "key_of": 0,
        "rows_sized": 92_443,
        "input_records": 91_731,
        "group_by_calls": 192,
        "group_by_rows": 20_617,
    },
    "clickstream": {
        "key_of": 0,
        "rows_sized": 22_658,
        "input_records": 12_092,
        "group_by_calls": 128,
        "group_by_rows": 11_221,
    },
}


@cache
def record_path_counts(name):
    """The counts of one execution, with the wrappers installed for it."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _count(monkeypatch, name)


def _count(monkeypatch, name):
    workload, ranked = planned(name)
    counts = dict.fromkeys(PINNED[name], 0)

    key_of = reference.key_of

    def counting_key_of(row, key_attrs):
        counts["key_of"] += 1
        return key_of(row, key_attrs)

    rows_bytes = executor.rows_bytes

    def counting_rows_bytes(rows):
        counts["rows_sized"] += len(rows)
        return rows_bytes(rows)

    group_by = reference.group_by

    def counting_group_by(rows, key_attrs):
        counts["group_by_calls"] += 1
        counts["group_by_rows"] += len(rows)
        return group_by(rows, key_attrs)

    init = InputRecord.__init__

    def counting_init(self, *args):
        counts["input_records"] += 1
        init(self, *args)

    monkeypatch.setattr(reference, "key_of", counting_key_of)
    monkeypatch.setattr(partition, "key_of", counting_key_of)
    monkeypatch.setattr(executor, "rows_bytes", counting_rows_bytes)
    monkeypatch.setattr(reference, "group_by", counting_group_by)
    monkeypatch.setattr(executor, "group_by", counting_group_by)
    monkeypatch.setattr(InputRecord, "__init__", counting_init)
    engine = Engine(workload.params, workload.true_costs)
    result = engine.execute(ranked[0].physical, workload.data)
    assert result.records
    return counts


@pytest.mark.parametrize(
    "name, count",
    [(name, count) for name in sorted(PINNED) for count in PINNED[name]],
)
def test_record_path_count(name, count):
    assert record_path_counts(name)[count] == PINNED[name][count]
