"""Lowering of Python UDFs to TAC, CFG construction, reaching definitions,
and chains over the TAC that the bytecode front-end makes."""

import pytest

from repro.core import AnalysisError, UnsupportedBytecode
from repro.core.udf import ParamKind
from repro.sca import ControlFlowGraph, build_chains, compile_to_tac, reaching_definitions
from repro.sca.tac import (
    Assign,
    BinOp,
    Const,
    CopyRec,
    Emit,
    GetField,
    Goto,
    IfFalse,
    Lit,
    Return,
    SetField,
    TACFunction,
    Var,
)
from tests.conftest import paper_f2

REC = (ParamKind.RECORD,)


def loopy(recs, out):
    for r in recs:
        out.emit(r.copy())


def f2_tac():
    return compile_to_tac(paper_f2, REC)


def first_index(fn, predicate):
    return next(i for i, ins in enumerate(fn.instructions) if predicate(ins))


def block_of(cfg, index):
    return next(b.index for b in cfg.blocks if index in b.instruction_indices())


def kinds(fn):
    """Instruction kinds without the stack bookkeeping (``Assign``/``Const``)."""
    return [type(i) for i in fn.instructions if not isinstance(i, (Assign, Const))]


class TestLowering:
    def test_paper_f2_shape(self):
        fn = f2_tac()
        assert kinds(fn) == [GetField, BinOp, IfFalse, Return, CopyRec, Emit, Return]
        branch = fn.instructions[first_index(fn, lambda i: isinstance(i, IfFalse))]
        early_return = first_index(fn, lambda i: isinstance(i, Return))
        assert branch.target == early_return + 1  # skips the filter's return

    def test_comparison_sugar_lowered(self):
        fn = f2_tac()
        compare = fn.instructions[first_index(fn, lambda i: isinstance(i, BinOp))]
        assert compare.op == "<"
        assert compare.right == Lit(0)

    def test_unknown_label_rejected(self):
        with pytest.raises(AnalysisError):
            TACFunction("f", ("r",), (Goto(5), Return()))

    def test_operand_kinds(self):
        def f(r, out):
            x = 3
            y = "abc"
            z = True
            n = None
            o = r.copy()
            o.set_field(0, x)
            o.set_field(1, y)
            o.set_field(2, z)
            o.set_field(3, n)
            out.emit(o)

        fn = compile_to_tac(f, REC)
        values = [i.value for i in fn.instructions if isinstance(i, SetField)]
        assert values == [Lit(3), Lit("abc"), Lit(True), Lit(None)]

    def test_setfield_and_arith(self):
        def f(r, out):
            a = r.get_field(1)
            b = a * 2
            o = r.copy()
            o.set_field(1, b)
            out.emit(o)

        fn = compile_to_tac(f, REC)
        assert kinds(fn) == [GetField, BinOp, CopyRec, SetField, Emit, Return]
        times = fn.instructions[first_index(fn, lambda i: isinstance(i, BinOp))]
        assert times.op == "*" and times.right == Lit(2)
        store = fn.instructions[first_index(fn, lambda i: isinstance(i, SetField))]
        assert store.pos == Lit(1) and isinstance(store.value, Var)

    def test_unsupported_construct_rejected(self):
        def f(r, out):
            out.emit(eval("r"))

        with pytest.raises(UnsupportedBytecode, match="eval"):
            compile_to_tac(f, REC)

    def test_goto(self):
        def spin(r, out):
            while True:
                pass

        fn = compile_to_tac(spin, REC)
        assert fn.instructions == (Goto(0),)

    def test_pretty(self):
        lines = f2_tac().pretty().splitlines()
        assert lines[0] == "paper_f2(rec):"
        assert len(lines) == 1 + len(f2_tac().instructions)
        assert "GetField" in lines[1 + first_index(f2_tac(), lambda i: isinstance(i, GetField))]


class TestCFG:
    def test_blocks_of_f2(self):
        fn = f2_tac()
        cfg = ControlFlowGraph(fn)
        # blocks: [get, cmp, if] [return] [copy, emit, return]
        assert len(cfg.blocks) == 3
        assert cfg.blocks[0].successors == [1, 2]
        assert cfg.exit_blocks == [1, 2]
        assert block_of(cfg, first_index(fn, lambda i: isinstance(i, Emit))) == 2

    def test_loop_has_back_edge(self):
        cfg = ControlFlowGraph(compile_to_tac(loopy, (ParamKind.RECORD_LIST,)))
        sccs = cfg.sccs()
        cyclic = [i for i in range(len(sccs)) if cfg.scc_is_cyclic(i)]
        assert len(cyclic) == 1

    def test_dominators(self):
        cfg = ControlFlowGraph(f2_tac())
        dom = cfg.dominators()
        assert 0 in dom[2]  # entry dominates the emit block
        assert 1 not in dom[2]  # the early return does not dominate the emit

    def test_instr_dominates_same_block(self):
        fn = f2_tac()
        cfg = ControlFlowGraph(fn)
        get = first_index(fn, lambda i: isinstance(i, GetField))
        branch = first_index(fn, lambda i: isinstance(i, IfFalse))
        assert block_of(cfg, get) == block_of(cfg, branch)
        assert cfg.instr_dominates(get, branch)
        assert not cfg.instr_dominates(branch, get)


class TestDataflow:
    def test_reaching_definitions(self):
        def f(r, out):
            x = 1
            if r.get_field(0):
                x = 2
            o = r.copy()
            o.set_field(1, x)
            out.emit(o)

        fn = compile_to_tac(f, REC)
        reaching = reaching_definitions(ControlFlowGraph(fn))
        use_index = first_index(fn, lambda i: isinstance(i, Assign) and i.src == Var("x"))
        defs_of_x = {d for d in reaching.reach_in[use_index] if d[1] == "x"}
        assert len(defs_of_x) == 2  # both definitions of x reach the join

    def test_chains(self):
        fn = f2_tac()
        chains = build_chains(ControlFlowGraph(fn))
        # a is stored once and loaded once, for the comparison
        define = first_index(fn, lambda i: isinstance(i, Assign) and i.dst == "a")
        use = first_index(fn, lambda i: isinstance(i, Assign) and i.src == Var("a"))
        assert chains.uses_of(define, "a") == frozenset({use})
        assert (define, "a") in chains.defs_for(use, "a")

    def test_param_definitions_reach_uses(self):
        chains = build_chains(ControlFlowGraph(f2_tac()))
        defs = chains.defs_for(0, "rec")
        assert any(idx < 0 for idx, _ in defs)  # parameter pseudo-definition
