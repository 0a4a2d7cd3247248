"""Shared fixtures and small flow-building helpers for the test suite."""

from __future__ import annotations

import itertools
import linecache
import random

import pytest
from hypothesis import note
from hypothesis.control import currently_in_test_context

from repro.core import (
    Catalog,
    FieldMap,
    MapOp,
    MatchOp,
    ReduceOp,
    Source,
    SourceStats,
    attrs,
    binary_udf,
    map_udf,
    reduce_udf,
)


@pytest.fixture
def ab_attrs():
    return attrs("I.A", "I.B")


@pytest.fixture
def ab_source(ab_attrs):
    return Source("I", ab_attrs)


@pytest.fixture
def ab_map(ab_attrs):
    return FieldMap(ab_attrs)


def make_map(name, fn, field_map, annotations=None):
    return MapOp(name, map_udf(fn, annotations), field_map)


def make_reduce(name, fn, field_map, key_positions, annotations=None):
    return ReduceOp(name, reduce_udf(fn, annotations), field_map, key_positions)


def make_match(name, fn, left_map, right_map, lk, rk, annotations=None):
    return MatchOp(name, binary_udf(fn, annotations), left_map, right_map, lk, rk)


def simple_catalog(*source_rows: tuple[str, int]) -> Catalog:
    catalog = Catalog()
    for name, rows in source_rows:
        catalog.add_source(name, SourceStats(row_count=rows))
    return catalog


_GENERATED_UDFS = itertools.count()


def compile_udf(source: str):
    """The one function that generated Python ``source`` defines.

    Each source compiles under a file name of its own, registered with
    ``linecache`` so a traceback shows the UDF's lines.  Inside a
    hypothesis test the source is also noted, so a failing example
    prints the UDF it ran.
    """
    filename = f"<generated-udf-{next(_GENERATED_UDFS)}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    (fn,) = (value for name, value in namespace.items() if name != "__builtins__")
    if currently_in_test_context():
        note(source)
    return fn


def random_rows(attributes, count, seed=0, lo=-10, hi=10):
    rng = random.Random(seed)
    return [{a: rng.randint(lo, hi) for a in attributes} for _ in range(count)]


# Commonly reused UDFs ---------------------------------------------------------


def paper_f1(rec, out):
    """Section 3: replace B with |B|."""
    b = rec.get_field(1)
    r = rec.copy()
    if b < 0:
        r.set_field(1, -b)
    out.emit(r)


def paper_f2(rec, out):
    """Section 3: keep records with A >= 0."""
    a = rec.get_field(0)
    if a < 0:
        return
    out.emit(rec.copy())


def paper_f3(rec, out):
    """Section 3: replace A with A + B."""
    a = rec.get_field(0)
    b = rec.get_field(1)
    r = rec.copy()
    r.set_field(0, a + b)
    out.emit(r)


def identity_udf(rec, out):
    out.emit(rec.copy())


def concat_udf(left, right, out):
    out.emit(left.concat(right))
