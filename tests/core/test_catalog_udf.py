"""Catalog metadata and Udf wrapper behavior."""

import pytest

from repro.core import (
    AnnotationMode,
    Catalog,
    EmitBounds,
    SchemaError,
    SourceStats,
    Udf,
    UdfError,
    UdfProperties,
    attrs,
    map_udf,
)
from repro.core.udf import ParamKind
from tests.conftest import paper_f2

A, B, C = attrs("t.a", "t.b", "u.c")


class TestCatalog:
    def make(self):
        catalog = Catalog()
        catalog.add_source("t", SourceStats(100, distinct={A: 10}, attr_bytes={A: 8.0}))
        return catalog

    def test_duplicate_source_rejected(self):
        catalog = self.make()
        with pytest.raises(SchemaError):
            catalog.add_source("t", SourceStats(1))

    def test_unknown_source(self):
        with pytest.raises(SchemaError):
            Catalog().stats("missing")

    def test_unique_keys_and_supersets(self):
        catalog = self.make()
        catalog.declare_unique(A)
        assert catalog.is_unique(frozenset({A}))
        assert catalog.is_unique(frozenset({A, B}))  # superset of a key
        assert not catalog.is_unique(frozenset({B}))

    def test_source_unique_keys_filtered_by_schema(self):
        catalog = self.make()
        catalog.declare_unique(A)
        catalog.declare_unique(C)
        assert catalog.source_unique_keys(frozenset({A, B})) == {frozenset({A})}

    def test_references(self):
        catalog = self.make()
        catalog.declare_reference((B,), (A,), total=True)
        ref = catalog.reference_between(frozenset({B}), frozenset({A}))
        assert ref is not None and ref.total
        assert catalog.reference_between(frozenset({A}), frozenset({B})) is None

    def test_stats_lookups(self):
        catalog = self.make()
        assert catalog.stats("t").row_count == 100
        assert catalog.distinct_of(A) == 10
        assert catalog.distinct_of(B) is None
        assert catalog.attr_width(A) == 8.0
        assert catalog.attr_width(B, default=4.0) == 4.0

    def test_empty_unique_key_rejected(self):
        with pytest.raises(SchemaError):
            Catalog().declare_unique()


class TestUdf:
    def test_arity(self):
        assert map_udf(paper_f2).arity == 1

    def test_manual_mode_needs_annotation(self):
        udf = map_udf(paper_f2)
        with pytest.raises(UdfError):
            udf.properties(AnnotationMode.MANUAL)

    def test_manual_annotation_returned(self):
        props = UdfProperties(emit_bounds=EmitBounds.exactly(1))
        udf = map_udf(paper_f2, props)
        assert udf.properties(AnnotationMode.MANUAL) is props

    def test_sca_mode_analyzes_and_caches(self):
        udf = map_udf(paper_f2)
        first = udf.properties(AnnotationMode.SCA)
        second = udf.properties(AnnotationMode.SCA)
        assert first is second
        assert first.origin == "sca"

    def test_sca_never_raises(self):
        def weird(rec, out):
            eval("1+1")  # unresolvable dynamic behavior
            out.emit(rec.copy())

        udf = Udf(weird, (ParamKind.RECORD,))
        props = udf.properties(AnnotationMode.SCA)
        assert props.is_conservative()

    def test_zero_params_rejected(self):
        with pytest.raises(UdfError):
            Udf(paper_f2, ())

    def test_non_callable_rejected(self):
        # At construction, not when a plan first calls it.
        with pytest.raises(UdfError, match="callable"):
            Udf("def f(rec, out): pass", (ParamKind.RECORD,))
        with pytest.raises(UdfError, match="callable"):
            map_udf(None)
