"""Property-based soundness of the static analyzer (Section 5).

The paper's safety argument: discovered property sets are *supersets* of
the true properties for any input.  We generate random Python UDFs, which
reach the analyzer through the bytecode front-end like every real UDF,
run them on random records, and check every observable behavior against
the analysis:

* emit counts lie within the derived bounds;
* any observed value change or drop of an input field is covered by the
  derived write set;
* any observed input-field influence on the output (Definition 3) is
  covered by the derived read set, and influence on the emit *count* by
  the branch-read set.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnnotationMode, Collector, FieldMap, InputRecord, attrs, map_udf
from repro.core.operators import MapOp
from repro.core.udf import ParamKind
from repro.sca import analyze_tac, compile_to_tac
from tests.conftest import compile_udf

WIDTH = 4
ATTRS = attrs(*(f"t.f{i}" for i in range(WIDTH)))
FMAP = FieldMap(ATTRS)


@st.composite
def udf_sources(draw) -> str:
    """A random Map UDF as Python source: 0-3 field reads, a copy or a
    projection of the input, 0-3 writes (constant, read value, read
    value plus one, or ``None``), maybe a filter on a read value, and
    one or two emits."""
    lines = ["def f(ir, out):"]
    temps: list[str] = []
    for i in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, WIDTH - 1))
        lines.append(f"g{i} = ir.get_field({pos})")
        temps.append(f"g{i}")
    ctor = draw(st.sampled_from(["copy", "new_record"]))
    lines.append(f"r = ir.{ctor}()")
    for i in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, WIDTH + 1))
        kind = draw(st.integers(0, 3))
        if kind == 0 or not temps:
            value = draw(st.integers(-3, 3))
        elif kind == 1:
            value = draw(st.sampled_from(temps))
        elif kind == 2:
            lines.append(f"d{i} = {draw(st.sampled_from(temps))} + 1")
            value = f"d{i}"
        else:
            value = None
        lines.append(f"r.set_field({pos}, {value})")
    if temps and draw(st.booleans()):
        guard = draw(st.sampled_from(temps))
        lines.append(f"if {guard} < {draw(st.integers(-2, 2))}:")
        lines.append("    return")
    lines.append("out.emit(r)")
    if draw(st.booleans()):
        lines.append("out.emit(r)")
    return "\n    ".join(lines) + "\n"


def run_udf(op: MapOp, values: dict) -> list[dict]:
    collector = Collector()
    rec = InputRecord(values, FMAP, op.resolver)
    op.udf.fn(rec, collector)
    return collector.records()


def record_values(draw_ints) -> dict:
    return {a: v for a, v in zip(ATTRS, draw_ints)}


@settings(max_examples=120, deadline=None)
@given(
    source=udf_sources(),
    base=st.lists(st.integers(-3, 3), min_size=WIDTH, max_size=WIDTH),
    flip_pos=st.integers(0, WIDTH - 1),
    flip_val=st.integers(-3, 3),
)
def test_analysis_covers_observed_behavior(source, base, flip_pos, flip_val):
    op = MapOp("probe", map_udf(compile_udf(source)), FMAP)
    props = op.bound_props(AnnotationMode.SCA)

    values = record_values(base)
    outputs = run_udf(op, dict(values))

    # 1. Emit bounds hold.
    raw = op.udf.properties(AnnotationMode.SCA)
    assert not raw.is_conservative(), raw.notes
    assert raw.emit_bounds.contains(len(outputs)), (
        f"emitted {len(outputs)} outside bounds {raw.emit_bounds}"
    )

    # 2. Every observed change/drop of an input attribute is in the write set.
    for out_rec in outputs:
        for attr in ATTRS:
            if attr not in out_rec:
                assert attr in props.writes, f"dropped {attr} not in write set"
            elif out_rec[attr] != values[attr]:
                assert attr in props.writes, f"changed {attr} not in write set"
        for attr in out_rec:
            if attr not in ATTRS:
                assert attr in props.new_attrs, f"created {attr} unnoticed"

    # 3. Definition 3: flip one field; any influence must be covered.
    flip_attr = ATTRS[flip_pos]
    flipped = dict(values)
    flipped[flip_attr] = flip_val
    if flipped[flip_attr] == values[flip_attr]:
        return
    outputs_flipped = run_udf(op, flipped)
    if len(outputs_flipped) != len(outputs):
        assert flip_attr in props.branch_reads | props.reads
        return
    # Compare outputs ignoring the flipped attribute itself (and anything
    # the write set owns whose value may legitimately differ because it is
    # derived from the flipped field -- that derivation is exactly a read).
    influenced = False
    for left, right in zip(outputs, outputs_flipped):
        for attr in set(left) | set(right):
            if attr == flip_attr:
                continue
            if left.get(attr) != right.get(attr):
                influenced = True
    if influenced:
        assert flip_attr in props.reads, (
            f"{flip_attr} influences output but is not in the read set"
        )


@settings(max_examples=60, deadline=None)
@given(source=udf_sources())
def test_analysis_is_deterministic(source):
    fn = compile_udf(source)
    kinds = (ParamKind.RECORD,)
    assert analyze_tac(compile_to_tac(fn, kinds), kinds) == analyze_tac(
        compile_to_tac(fn, kinds), kinds
    )
