"""Property analyzer over TAC: the Section 3 example and edge cases.

Each UDF is Python and reaches the analyzer through the bytecode
front-end, so an escape the translator already refuses (an emit of a
constant, say) is written in a form the translator passes on.
"""

import pytest

from repro.core import KatBehavior
from repro.core.udf import ParamKind
from repro.sca import AnalysisEscape, analyze_tac, compile_to_tac
from tests.conftest import paper_f1, paper_f2, paper_f3

REC = (ParamKind.RECORD,)
LST = (ParamKind.RECORD_LIST,)


def helper(value):
    return value


def analyze(fn, kinds=REC):
    return analyze_tac(compile_to_tac(fn, kinds), kinds)


class TestPaperExample:
    """Section 3: R_f1={B}, W_f1={B}; R_f2={A}, W_f2={}; R_f3={A,B}, W_f3={A}."""

    def test_f1(self):
        props = analyze(paper_f1)
        assert props.reads.finite_items() == frozenset({(0, 1)})
        assert props.writes_modified.finite_items() == frozenset({1})
        assert (props.emit_bounds.lo, props.emit_bounds.hi) == (1, 1)

    def test_f2(self):
        props = analyze(paper_f2)
        assert props.reads.finite_items() == frozenset({(0, 0)})
        assert props.writes_modified.is_empty()
        assert props.branch_reads.finite_items() == frozenset({(0, 0)})
        assert (props.emit_bounds.lo, props.emit_bounds.hi) == (0, 1)

    def test_f3(self):
        props = analyze(paper_f3)
        assert props.reads.finite_items() == frozenset({(0, 0), (0, 1)})
        assert props.writes_modified.finite_items() == frozenset({0})
        assert props.branch_reads.is_empty()


class TestReadUsage:
    def test_unused_getfield_not_a_read(self):
        def f(ir, out):
            ir.get_field(0)
            out.emit(ir.copy())

        assert analyze(f).reads.is_empty()

    def test_pure_copy_not_a_read(self):
        def f(ir, out):
            a = ir.get_field(0)
            r = ir.new_record()
            r.set_field(0, a)
            out.emit(r)

        props = analyze(f)
        assert props.reads.is_empty()
        assert (0, 0, 0) in props.copies

    def test_copy_to_other_position_recorded(self):
        def f(ir, out):
            a = ir.get_field(0)
            r = ir.copy()
            r.set_field(1, a)
            out.emit(r)

        assert (1, 0, 0) in analyze(f).copies

    def test_mixed_copy_and_modify_degrades_copy_source_to_read(self):
        # Hypothesis-found soundness hole: a constant write followed by a
        # copy write to the same position left the output depending on
        # the copy's source field with neither a `copies` entry nor a
        # read — the copy-through exemption only holds for pure copies.
        def f(ir, out):
            a = ir.get_field(1)
            r = ir.copy()
            r.set_field(0, 0)
            r.set_field(0, a)
            out.emit(r)

        props = analyze(f)
        assert (0, 1) in props.reads.finite_items()
        assert not props.copies
        assert 0 in props.writes_modified.finite_items()

    def test_dynamic_write_site_degrades_static_copy_to_read(self):
        # Same exemption failure on the dynamic-write path: the site skips
        # per-position accounting entirely, so its static copy writes must
        # fall back to plain reads of their sources.
        def f(ir, out):
            a = ir.get_field(1)
            i = ir.get_field(0)
            r = ir.copy()
            r.set_field(2, a)
            r.set_field(i, 7)
            out.emit(r)

        props = analyze(f)
        assert (0, 1) in props.reads.finite_items()
        assert not props.copies

    def test_taint_through_assignment_and_call(self):
        def f(ir, out):
            a = ir.get_field(0)
            b = a
            c = abs(b)
            if c:
                out.emit(ir.copy())

        props = analyze(f)
        assert (0, 0) in props.reads.finite_items()
        assert (0, 0) in props.branch_reads.finite_items()

    def test_dynamic_position_widens_to_all(self):
        def f(ir, out):
            i = ir.get_field(0)
            v = ir.get_field(i)
            r = ir.copy()
            r.set_field(1, v)
            out.emit(r)

        assert analyze(f).reads.is_all()


class TestWriteSets:
    def test_implicit_projection(self):
        def f(ir, out):
            r = ir.new_record()
            r.set_field(0, 7)
            out.emit(r)

        props = analyze(f)
        assert 0 in props.writes_modified.finite_items()
        assert props.writes_projected.cofinite
        assert 0 not in props.writes_projected.resolve(range(4))

    def test_conditional_set_on_projection_also_projected(self):
        def f(ir, out):
            a = ir.get_field(0)
            r = ir.new_record()
            if a >= 0:
                r.set_field(1, 5)
            out.emit(r)

        props = analyze(f)
        # position 1 written on one path, dropped on the other
        assert 1 in props.writes_modified.finite_items()
        assert 1 in props.writes_projected.resolve(range(4))

    def test_explicit_null_projection(self):
        def f(ir, out):
            r = ir.copy()
            r.set_field(1, None)
            out.emit(r)

        assert 1 in analyze(f).writes_projected.finite_items()

    def test_unemitted_record_contributes_nothing(self):
        def f(ir, out):
            scratch = ir.copy()
            scratch.set_field(0, 1)
            out.emit(ir.copy())

        assert analyze(f).writes_modified.is_empty()

    def test_dynamic_write_position_widens(self):
        def f(ir, out):
            i = ir.get_field(1)
            r = ir.copy()
            r.set_field(i, 3)
            out.emit(r)

        assert analyze(f).writes_modified.is_all()


class TestEmitBounds:
    def test_emit_in_loop_unbounded(self):
        def f(recs, out):
            for r in recs:
                out.emit(r.copy())

        props = analyze(f, LST)
        assert props.emit_bounds.hi is None
        assert props.emit_bounds.lo == 0

    def test_two_exclusive_emits(self):
        def f(ir, out):
            a = ir.get_field(0)
            r = ir.copy()
            if a < 0:
                out.emit(r)
                return
            out.emit(r)

        props = analyze(f)
        assert (props.emit_bounds.lo, props.emit_bounds.hi) == (1, 1)

    def test_sequential_emits_add(self):
        def f(ir, out):
            r = ir.copy()
            out.emit(r)
            out.emit(r)

        props = analyze(f)
        assert (props.emit_bounds.lo, props.emit_bounds.hi) == (2, 2)

    def test_kat_one_per_group(self):
        def f(recs, out):
            out.emit(recs[0].copy())

        assert analyze(f, LST).kat_behavior is KatBehavior.ONE_PER_GROUP


class TestEscapes:
    def test_record_into_opaque_call(self):
        def f(ir, out):
            helper(ir)

        with pytest.raises(AnalysisEscape):
            analyze(f)

    def test_list_into_opaque_call(self):
        def f(recs, out):
            helper(recs)

        with pytest.raises(AnalysisEscape):
            analyze(f, LST)

    def test_len_of_list_is_safe(self):
        def f(recs, out):
            n = len(recs)
            o = recs[0].copy()
            o.set_field(1, n)
            out.emit(o)

        props = analyze(f, LST)
        assert props.origin == "sca"
        assert 1 in props.writes_modified.finite_items()

    def test_record_in_arithmetic(self):
        def f(ir, out):
            return ir + 1

        with pytest.raises(AnalysisEscape):
            analyze(f)

    def test_emit_non_record(self):
        def f(ir, out):
            out.emit(ir.get_field(0))

        with pytest.raises(AnalysisEscape):
            analyze(f)
