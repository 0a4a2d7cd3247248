"""Record API semantics: copy / projection / concat / pass-through."""

from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Collector, FieldMap, InputRecord, UdfError, attrs
from repro.core.record import (
    OutputPositionResolver,
    record_bytes,
    rows_bytes,
    value_bytes,
)
from repro.core.schema import NewAttributeFactory


def make_resolver(*maps):
    return OutputPositionResolver(maps, NewAttributeFactory("op"))


class TestValueBytes:
    def test_primitives(self):
        assert value_bytes(None) == 1
        assert value_bytes(True) == 1
        assert value_bytes(7) == 8
        assert value_bytes(1.5) == 8
        assert value_bytes("abcd") == 8

    def test_containers(self):
        assert value_bytes((1, 2)) == 4 + 16
        assert value_bytes([1]) == 4 + 8

    def test_record_bytes_counts_headers(self):
        a, b = attrs("a", "b")
        assert record_bytes({a: 1, b: "xy"}) == (2 + 8) + (2 + 6)


class TestInputRecord:
    def setup_method(self):
        self.a, self.b = attrs("a", "b")
        self.fmap = FieldMap((self.a, self.b))
        self.resolver = make_resolver(self.fmap)

    def record(self, values):
        return InputRecord(values, self.fmap, self.resolver)

    def test_get_field(self):
        rec = self.record({self.a: 1, self.b: 2})
        assert rec.get_field(0) == 1
        assert rec.get_field(1) == 2

    def test_get_missing_attr_raises(self):
        rec = self.record({self.a: 1})
        with pytest.raises(UdfError):
            rec.get_field(1)

    def test_copy_is_full_copy(self):
        rec = self.record({self.a: 1, self.b: 2})
        out = rec.copy()
        assert out.raw() == {self.a: 1, self.b: 2}
        out.set_field(0, 9)
        assert rec.raw()[self.a] == 1  # original untouched

    def test_new_record_projects_positional_space_only(self):
        other = attrs("pass.through")[0]
        rec = self.record({self.a: 1, self.b: 2, other: 42})
        out = rec.new_record()
        # a/b are in the operator's positional space: dropped.
        # `other` is unknown to the operator: passes through.
        assert out.raw() == {other: 42}

    def test_set_field_new_position_creates_attribute(self):
        rec = self.record({self.a: 1, self.b: 2})
        out = rec.copy()
        out.set_field(5, "new")
        created = [a for a in out.raw() if a.name == "op.f5"]
        assert created and out.raw()[created[0]] == "new"

    def test_set_field_none_is_projection(self):
        rec = self.record({self.a: 1, self.b: 2})
        out = rec.copy()
        out.set_field(1, None)
        assert self.b not in out.raw()

    def test_output_get_field(self):
        rec = self.record({self.a: 1, self.b: 2})
        out = rec.copy()
        out.set_field(0, 5)
        assert out.get_field(0) == 5
        out.set_field(1, None)
        with pytest.raises(UdfError):
            out.get_field(1)


class TestConcat:
    def test_concat_merges_both_sides(self):
        a, b = attrs("l.a", "r.b")
        left_map, right_map = FieldMap((a,)), FieldMap((b,))
        resolver = make_resolver(left_map, right_map)
        left = InputRecord({a: 1}, left_map, resolver)
        right = InputRecord({b: 2}, right_map, resolver)
        out = left.concat(right)
        assert out.raw() == {a: 1, b: 2}

    def test_concat_positions_cover_both_inputs(self):
        a, b = attrs("l.a", "r.b")
        resolver = make_resolver(FieldMap((a,)), FieldMap((b,)))
        assert resolver.attr_for(0) == a
        assert resolver.attr_for(1) == b
        assert resolver.attr_for(2).name == "op.f2"

    def test_concat_rejects_non_record(self):
        a = attrs("a")[0]
        fmap = FieldMap((a,))
        resolver = make_resolver(fmap)
        rec = InputRecord({a: 1}, fmap, resolver)
        with pytest.raises(UdfError):
            rec.concat("nope")


class TestCollector:
    def test_emit_output_and_input_records(self):
        a = attrs("a")[0]
        fmap = FieldMap((a,))
        resolver = make_resolver(fmap)
        rec = InputRecord({a: 1}, fmap, resolver)
        collector = Collector()
        collector.emit(rec)
        collector.emit(rec.copy())
        assert collector.records() == [{a: 1}, {a: 1}]

    def test_emit_rejects_non_records(self):
        collector = Collector()
        with pytest.raises(UdfError):
            collector.emit({"not": "a record"})

    def test_emitted_records_are_independent(self):
        a = attrs("a")[0]
        fmap = FieldMap((a,))
        resolver = make_resolver(fmap)
        rec = InputRecord({a: 1}, fmap, resolver)
        out = rec.copy()
        collector = Collector()
        collector.emit(out)
        out.set_field(0, 99)
        assert collector.records()[0] == {a: 1}


# -- rows_bytes: the bulk byte total equals the per-record definition -------


class Label(str):
    pass


class Level(IntEnum):
    LOW = 1
    HIGH = 2


ROW_ATTRS = attrs("r.a", "r.b", "r.c", "r.d")

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63),
    st.just(2**70),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.text(max_size=6).map(Label),
    st.sampled_from(list(Level)),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner), st.lists(inner, max_size=3)
    ),
    max_leaves=6,
)


def records_of(value_strategy):
    return st.dictionaries(st.sampled_from(ROW_ATTRS), value_strategy, max_size=4)


# Uniform runs are where the bulk path fires; mixed ones where it must not.
uniform = st.sampled_from(
    [st.integers(), st.floats(allow_nan=False), st.booleans(), st.none(),
     st.one_of(st.integers(), st.floats(allow_nan=False))]
).flatmap(lambda s: st.lists(records_of(s), max_size=20))
mixed = st.lists(records_of(values), max_size=20)


class TestRowsBytes:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(uniform, mixed))
    def test_equals_sum_of_record_bytes(self, rows):
        assert rows_bytes(rows) == sum(record_bytes(r) for r in rows)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(records_of(st.integers()), min_size=1, max_size=20), values)
    def test_one_odd_value_anywhere_falls_back(self, rows, odd):
        rows[-1] = {**rows[-1], ROW_ATTRS[0]: odd}
        assert rows_bytes(rows) == sum(record_bytes(r) for r in rows)

    def test_edges(self):
        a, b = ROW_ATTRS[:2]
        assert rows_bytes([]) == 0
        assert rows_bytes([{}, {}]) == 0
        assert rows_bytes([{}, {a: 1}]) == 10
        assert rows_bytes([{a: 1, b: 2.5}] * 3) == 3 * 20
        assert rows_bytes([{a: None}, {a: True}]) == 6
        # None and bool weigh 1, int 8: a mix is not one size
        assert rows_bytes([{a: 1}, {a: None}]) == 10 + 3
        assert rows_bytes([{a: 1}, {a: Level.LOW}]) == 20
        assert rows_bytes([{a: "ab"}, {a: Label("ab")}]) == 16


# -- copy-on-write emit: emitted snapshots never change ---------------------


class TestCopyOnWriteEmit:
    def setup_method(self):
        self.a, self.b = attrs("cow.a", "cow.b")
        self.fmap = FieldMap((self.a, self.b))
        self.resolver = make_resolver(self.fmap)
        self.source = {self.a: 1, self.b: 2}

    def record(self):
        return InputRecord(self.source, self.fmap, self.resolver)

    def test_emit_set_emit_gives_two_snapshots(self):
        out = self.record().copy()
        collector = Collector()
        collector.emit(out)
        out.set_field(0, 10)
        collector.emit(out)
        first, second = collector.records()
        assert first == {self.a: 1, self.b: 2}
        assert second == {self.a: 10, self.b: 2}
        assert first is not second
        assert self.source == {self.a: 1, self.b: 2}

    def test_double_emit_then_set_leaves_both(self):
        out = self.record().copy()
        collector = Collector()
        collector.emit(out)
        collector.emit(out)
        out.set_field(1, None)
        out.set_field(0, 7)
        assert collector.records() == [{self.a: 1, self.b: 2}] * 2
        assert out.raw() == {self.a: 7}

    def test_projection_after_emit_copies(self):
        out = self.record().copy()
        collector = Collector()
        collector.emit(out)
        out.set_field(0, None)  # explicit projection is a write too
        assert collector.records() == [{self.a: 1, self.b: 2}]
        assert out.raw() == {self.b: 2}

    def test_new_record_path(self):
        other = attrs("cow.pass")[0]
        rec = InputRecord({**self.source, other: 5}, self.fmap, self.resolver)
        out = rec.new_record()
        collector = Collector()
        out.set_field(0, 3)
        collector.emit(out)
        out.set_field(0, 4)
        out.set_field(2, "x")
        collector.emit(out)
        first, second = collector.records()
        assert first == {other: 5, self.a: 3}
        assert second[self.a] == 4 and len(second) == 3

    def test_concat_path(self):
        c = attrs("cow.c")[0]
        right_map = FieldMap((c,))
        resolver = make_resolver(self.fmap, right_map)
        left = InputRecord(self.source, self.fmap, resolver)
        right_values = {c: 3}
        right = InputRecord(right_values, right_map, resolver)
        out = left.concat(right)
        collector = Collector()
        collector.emit(out)
        out.set_field(2, 30)
        collector.emit(out)
        assert collector.records() == [
            {self.a: 1, self.b: 2, c: 3},
            {self.a: 1, self.b: 2, c: 30},
        ]
        assert right_values == {c: 3} and self.source == {self.a: 1, self.b: 2}

    def test_unwritten_record_is_not_copied(self):
        out = self.record().copy()
        collector = Collector()
        collector.emit(out)
        collector.emit(out)
        first, second = collector.records()
        assert first is second

    def test_raw_mutation_after_emit_leaves_snapshot(self):
        out = self.record().copy()
        collector = Collector()
        collector.emit(out)
        out.raw()[self.a] = 99
        del out.raw()[self.b]
        collector.emit(out)
        assert collector.records() == [{self.a: 1, self.b: 2}, {self.a: 99}]
        assert self.source == {self.a: 1, self.b: 2}
