"""Attribute / FieldMap / NewAttributeFactory behavior."""

import copy
import pickle
import sys
import threading
import time

import pytest

from repro.core import Attribute, FieldMap, SchemaError, attrs, prefixed
from repro.core import schema
from repro.core.schema import GlobalRecord, NewAttributeFactory


class TestAttribute:
    def test_equality_by_name(self):
        assert Attribute("x") == Attribute("x")
        assert Attribute("x") != Attribute("y")

    def test_hashable(self):
        assert len({Attribute("x"), Attribute("x"), Attribute("y")}) == 2

    def test_attrs_helper(self):
        a, b = attrs("a", "b")
        assert a.name == "a"
        assert b.name == "b"

    def test_prefixed_helper(self):
        a, b = prefixed("t", "x", "y")
        assert a.name == "t.x"
        assert b.name == "t.y"

    def test_immutable(self):
        a = Attribute("x")
        with pytest.raises(AttributeError):
            a.name = "y"
        assert a.name == "x"


class TestInterning:
    """One object per name: equality and hashing are identity, in C."""

    def test_same_name_same_object(self):
        assert Attribute("intern.same") is Attribute("intern.same")
        assert attrs("intern.same")[0] is Attribute("intern.same")
        assert prefixed("intern", "same")[0] is Attribute("intern.same")

    def test_hash_and_equality_are_objects(self):
        assert Attribute.__hash__ is object.__hash__
        assert Attribute.__eq__ is object.__eq__

    @pytest.mark.parametrize(
        "clone",
        [
            lambda a: pickle.loads(pickle.dumps(a)),
            copy.copy,
            copy.deepcopy,
            lambda a: copy.deepcopy({a: [a]}),
        ],
        ids=["pickle", "copy", "deepcopy", "deepcopy-nested"],
    )
    def test_clones_keep_identity(self, clone):
        a = Attribute("intern.clone")
        cloned = clone(a)
        if isinstance(cloned, dict):
            ((key, [value]),) = cloned.items()
            assert key is a and value is a
        else:
            assert cloned is a

    def test_threads_constructing_one_new_name_get_one_object(self, monkeypatch):
        """8 threads (more than cores) race on each of 20 new names.  The
        intern table's lookup sleeps, so every thread misses before any
        inserts: only an atomic insert hands all of them one object."""

        class SlowLookup(dict):
            def get(self, key, default=None):
                found = dict.get(self, key, default)
                time.sleep(0.001)
                return found

        monkeypatch.setattr(schema, "_INTERNED", SlowLookup())
        rounds = 20
        start = threading.Barrier(8, timeout=10)
        made = [[] for _ in range(rounds)]

        def construct():
            for i in range(rounds):
                start.wait()
                made[i].append(Attribute(f"intern.threads.{i}"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=construct) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, objects in enumerate(made):
            assert len(objects) == 8
            assert all(a is objects[0] for a in objects)
            assert Attribute(f"intern.threads.{i}") is objects[0]


class TestFieldMap:
    def test_positions(self):
        fm = FieldMap(attrs("a", "b", "c"))
        assert fm.attr_at(0).name == "a"
        assert fm.attr_at(2).name == "c"
        assert fm.position_of(Attribute("b")) == 1
        assert len(fm) == 3

    def test_out_of_range(self):
        fm = FieldMap(attrs("a"))
        with pytest.raises(SchemaError):
            fm.attr_at(1)
        with pytest.raises(SchemaError):
            fm.attr_at(-1)

    def test_unknown_attribute(self):
        fm = FieldMap(attrs("a"))
        with pytest.raises(SchemaError):
            fm.position_of(Attribute("zz"))

    def test_duplicates_rejected(self):
        with pytest.raises(SchemaError):
            FieldMap(attrs("a", "a"))

    def test_as_set_and_iter(self):
        fm = FieldMap(attrs("a", "b"))
        assert fm.as_set() == frozenset(attrs("a", "b"))
        assert [a.name for a in fm] == ["a", "b"]


class TestNewAttributeFactory:
    def test_deterministic(self):
        factory = NewAttributeFactory("op1")
        first = factory.attr_for(5)
        second = factory.attr_for(5)
        assert first is second
        assert first.name == "op1.f5"

    def test_distinct_positions(self):
        factory = NewAttributeFactory("op1")
        assert factory.attr_for(5) != factory.attr_for(6)
        assert set(factory.created()) == {5, 6}


class TestGlobalRecord:
    def test_union_and_contains(self):
        a, b, c = attrs("a", "b", "c")
        gr = GlobalRecord(frozenset({a, b}))
        assert a in gr
        assert c not in gr
        grown = gr.union(frozenset({c}))
        assert c in grown
        assert len(grown) == 3
