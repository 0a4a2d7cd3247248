"""Three-address code (TAC) intermediate representation.

The paper's static code analysis operates on typed three-address code
produced from Java bytecode (Section 5).  We define the equivalent IR here:

* a small instruction set covering assignments, arithmetic, branches,
  iteration, opaque value calls, and the record API
  (``getField``/``setField``/copy/projection/concat constructors/``emit``);
* :class:`TACFunction`, the unit the CPython bytecode front-end
  (:mod:`repro.sca.pybytecode`) produces and the analyzer consumes.

TAC is only the analyzer's IR: every UDF is a Python callable, and the
engine and the reference evaluator run it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.errors import AnalysisError

# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Var:
    """A TAC variable reference."""

    name: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True, slots=True)
class Lit:
    """A literal constant operand."""

    value: Any

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self.value)


Operand = Var | Lit


@dataclass(frozen=True, slots=True)
class FuncRef:
    """Compile-time reference to an opaque helper callable."""

    name: str


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Instr:
    """Base class for TAC instructions."""

    def defined_var(self) -> str | None:
        return getattr(self, "dst", None)

    def used_operands(self) -> tuple[Operand, ...]:
        return ()


@dataclass(frozen=True, slots=True)
class Const(Instr):
    dst: str
    value: Any


@dataclass(frozen=True, slots=True)
class Assign(Instr):
    dst: str
    src: Operand

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.src,)


@dataclass(frozen=True, slots=True)
class BinOp(Instr):
    dst: str
    op: str
    left: Operand
    right: Operand

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, slots=True)
class UnOp(Instr):
    dst: str
    op: str
    operand: Operand

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.operand,)


@dataclass(frozen=True, slots=True)
class GetField(Instr):
    """``dst := getField(rec, pos)`` — the record API read accessor."""

    dst: str
    rec: Var
    pos: Operand

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.rec, self.pos)


@dataclass(frozen=True, slots=True)
class SetField(Instr):
    """``setField(rec, pos, value)`` — the record API write accessor."""

    rec: Var
    pos: Operand
    value: Operand

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.rec, self.pos, self.value)


@dataclass(frozen=True, slots=True)
class CopyRec(Instr):
    """``dst := copy(src)`` — implicit-copy output record constructor."""

    dst: str
    src: Var

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.src,)


@dataclass(frozen=True, slots=True)
class NewRec(Instr):
    """``dst := newrec(src)`` — implicit-projection output constructor."""

    dst: str
    src: Var

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.src,)


@dataclass(frozen=True, slots=True)
class ConcatRec(Instr):
    """``dst := concat(a, b)`` — binary concatenation constructor."""

    dst: str
    left: Var
    right: Var

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, slots=True)
class Emit(Instr):
    rec: Var

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.rec,)


@dataclass(frozen=True, slots=True)
class Call(Instr):
    """Opaque value-level call; ``dst`` may be ``None`` for discarded results."""

    dst: str | None
    func: str
    args: tuple[Operand, ...]

    def defined_var(self) -> str | None:
        return self.dst

    def used_operands(self) -> tuple[Operand, ...]:
        return self.args


@dataclass(frozen=True, slots=True)
class GetItem(Instr):
    dst: str
    seq: Var
    index: Operand

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.seq, self.index)


@dataclass(frozen=True, slots=True)
class IterNew(Instr):
    dst: str
    src: Operand

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.src,)


@dataclass(frozen=True, slots=True)
class IterNext(Instr):
    """Advance an iterator; jump to ``exhausted_target`` when done."""

    dst: str
    iterator: Var
    exhausted_target: int

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.iterator,)


@dataclass(frozen=True, slots=True)
class IfTrue(Instr):
    cond: Operand
    target: int

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.cond,)


@dataclass(frozen=True, slots=True)
class IfFalse(Instr):
    cond: Operand
    target: int

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.cond,)


@dataclass(frozen=True, slots=True)
class Goto(Instr):
    target: int


@dataclass(frozen=True, slots=True)
class Return(Instr):
    pass


def jump_targets(instr: Instr) -> tuple[int, ...]:
    if isinstance(instr, (IfTrue, IfFalse)):
        return (instr.target,)
    if isinstance(instr, IterNext):
        return (instr.exhausted_target,)
    if isinstance(instr, Goto):
        return (instr.target,)
    return ()


def falls_through(instr: Instr) -> bool:
    return not isinstance(instr, (Goto, Return))


# ---------------------------------------------------------------------------
# TACFunction
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TACFunction:
    """A UDF in three-address-code form.

    ``params`` are the record-bearing parameters (the collector is implicit:
    emission is the ``Emit`` instruction).
    """

    name: str
    params: tuple[str, ...]
    instructions: tuple[Instr, ...]

    def __post_init__(self) -> None:
        n = len(self.instructions)
        for idx, instr in enumerate(self.instructions):
            for target in jump_targets(instr):
                if target < 0 or target > n:
                    raise AnalysisError(
                        f"{self.name}: instruction {idx} jumps to invalid "
                        f"target {target}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TACFunction({self.name}, {len(self.instructions)} instrs)"

    def pretty(self) -> str:
        lines = [f"{self.name}({', '.join(self.params)}):"]
        for i, instr in enumerate(self.instructions):
            lines.append(f"  {i:3d}: {instr}")
        return "\n".join(lines)
