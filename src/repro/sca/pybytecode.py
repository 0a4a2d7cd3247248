"""CPython bytecode front-end: translate UDF bytecode to TAC.

The paper analyzes the Java bytecode of UDFs through the Soot framework
(Section 5 / 7.1).  This module plays Soot's role for Python: it walks the
CPython 3.11 bytecode of a UDF with ``dis``, simulates the value stack
(one TAC variable per stack depth), and emits the three-address code the
analyzer consumes.

Mirroring the paper's restriction to "field accesses with literals and
final variables", module-level constants referenced by ``LOAD_GLOBAL`` are
resolved and folded, so ``rec.get_field(L_SHIPDATE)`` is statically
analyzable.  Anything the translator cannot model — exception handling,
closures, records escaping into unknown calls, dynamic callees — raises
:class:`UnsupportedBytecode`; the caller then falls back to conservative
properties, preserving safety.
"""

from __future__ import annotations

import builtins
import dis
from typing import Any, Callable

from ..core.errors import UnsupportedBytecode
from ..core.udf import ParamKind
from .tac import (
    Assign,
    BinOp,
    Call,
    ConcatRec,
    Const,
    CopyRec,
    Emit,
    FuncRef,
    GetField,
    GetItem,
    Goto,
    IfFalse,
    IfTrue,
    Instr,
    IterNew,
    IterNext,
    Lit,
    NewRec,
    Operand,
    Return,
    SetField,
    TACFunction,
    UnOp,
    Var,
)

_RECORD_METHODS = {"get_field", "copy", "new_record", "concat", "set_field", "emit"}

_SIMPLE_CONSTS = (int, float, str, bool, bytes, type(None))

# Reflective or stateful builtins break the "opaque calls are pure value
# functions" assumption; code using them cannot be modeled.
_UNSAFE_GLOBALS = {
    "eval", "exec", "compile", "globals", "locals", "vars", "setattr",
    "delattr", "getattr", "__import__", "open", "input", "id", "memoryview",
}

_BIN_SYMBOLS = {
    "+", "-", "*", "/", "//", "%", "**", "&", "|", "^", "<<", ">>", "@",
}


def _const_ok(value: Any) -> bool:
    if isinstance(value, _SIMPLE_CONSTS):
        return True
    if isinstance(value, tuple):
        return all(_const_ok(v) for v in value)
    return False


class _CT:
    """Compile-time metadata for one stack slot or local."""

    __slots__ = ("kind", "value", "name")

    def __init__(self, kind: str, value: Any = None, name: str = "") -> None:
        self.kind = kind  # 'const' | 'func' | 'method' | 'null'
        self.value = value
        self.name = name


class _Translator:
    def __init__(self, fn: Callable, param_kinds: tuple[ParamKind, ...]) -> None:
        self.fn = fn
        self.param_kinds = param_kinds
        self.code = fn.__code__
        self._check_code_object()
        self.instructions: list[dis.Instruction] = list(
            dis.get_instructions(self.code)
        )
        self.tac: list[Instr] = []
        self.tac_index_of_offset: dict[int, int] = {}
        self.pending_jumps: list[tuple[int, int, str]] = []  # (tac_idx, offset, field)
        self.depth_at: dict[int, int] = {}
        self.slot_ct: dict[int, _CT] = {}
        self.local_ct: dict[str, _CT] = {}
        self.boundaries: set[int] = set()

    # -- guards ---------------------------------------------------------------

    def _check_code_object(self) -> None:
        code = self.code
        if code.co_exceptiontable:
            raise UnsupportedBytecode("try/except blocks are not modeled")
        if code.co_freevars or code.co_cellvars:
            raise UnsupportedBytecode("closures are not modeled")
        flags = code.co_flags
        if flags & (0x20 | 0x80 | 0x100 | 0x200):  # generator/coroutine variants
            raise UnsupportedBytecode("generators/coroutines are not modeled")
        if flags & 0x04 or flags & 0x08:  # *args / **kwargs
            raise UnsupportedBytecode("varargs UDF signatures are not modeled")

    # -- small helpers ----------------------------------------------------------

    def _bail(self, message: str) -> None:
        raise UnsupportedBytecode(f"{self.fn.__name__}: {message}")

    def _slot(self, depth: int) -> str:
        return f"$s{depth}"

    def _operand_at(self, depth: int) -> Operand:
        ct = self.slot_ct.get(depth)
        if ct is not None and ct.kind == "const":
            return Lit(ct.value)
        return Var(self._slot(depth))

    def _emit(self, instr: Instr) -> None:
        self.tac.append(instr)

    def _emit_jump(self, instr: Instr, target_offset: int, field_name: str) -> None:
        self.pending_jumps.append((len(self.tac), target_offset, field_name))
        self.tac.append(instr)

    def _set_ct(self, depth: int, ct: _CT | None) -> None:
        if ct is None:
            self.slot_ct.pop(depth, None)
        else:
            self.slot_ct[depth] = ct

    def _resolve_global(self, name: str) -> _CT:
        if name in _UNSAFE_GLOBALS:
            self._bail(f"use of unsafe global {name!r}")
        namespace = self.fn.__globals__
        if name in namespace:
            value = namespace[name]
        elif hasattr(builtins, name):
            value = getattr(builtins, name)
        else:
            self._bail(f"unresolvable global {name!r}")
        if _const_ok(value):
            return _CT("const", value=value)
        if callable(value):
            return _CT("func", value=value, name=name)
        self._bail(f"global {name!r} is neither a constant nor a callable")
        raise AssertionError  # unreachable

    # -- stack depth computation -------------------------------------------------

    def _compute_depths(self) -> None:
        offsets = [i.offset for i in self.instructions]
        index_of = {off: k for k, off in enumerate(offsets)}
        self.depth_at[offsets[0]] = 0
        work = [offsets[0]]
        while work:
            off = work.pop()
            k = index_of[off]
            instr = self.instructions[k]
            depth = self.depth_at[off]
            name = instr.opname
            if name == "RETURN_VALUE":
                continue
            targets: list[tuple[int, int]] = []
            if instr.opcode in dis.hasjabs or instr.opcode in dis.hasjrel:
                effect = dis.stack_effect(instr.opcode, instr.arg, jump=True)
                targets.append((instr.argval, depth + effect))
                if name not in ("JUMP_FORWARD", "JUMP_BACKWARD"):
                    effect = dis.stack_effect(instr.opcode, instr.arg, jump=False)
                    if k + 1 < len(self.instructions):
                        targets.append((offsets[k + 1], depth + effect))
            else:
                effect = dis.stack_effect(instr.opcode, instr.arg, jump=False)
                if k + 1 < len(self.instructions):
                    targets.append((offsets[k + 1], depth + effect))
            for t_off, t_depth in targets:
                if t_off not in self.depth_at:
                    self.depth_at[t_off] = t_depth
                    work.append(t_off)
                elif self.depth_at[t_off] != t_depth:
                    self._bail(f"inconsistent stack depth at offset {t_off}")

    # -- main translation ---------------------------------------------------------

    def translate(self) -> TACFunction:
        self._compute_depths()
        self.boundaries = {
            i.argval
            for i in self.instructions
            if i.opcode in dis.hasjabs or i.opcode in dis.hasjrel
        }
        for instr in self.instructions:
            if instr.offset in self.boundaries or instr.is_jump_target:
                self.slot_ct.clear()
                self.local_ct.clear()
            self.tac_index_of_offset[instr.offset] = len(self.tac)
            if instr.offset not in self.depth_at:
                continue  # unreachable bytecode
            self._translate_one(instr)

        resolved: list[Instr] = []
        patch: dict[int, int] = {}
        for tac_idx, target_offset, _ in self.pending_jumps:
            if target_offset not in self.tac_index_of_offset:
                self._bail(f"jump to unknown offset {target_offset}")
            patch[tac_idx] = self.tac_index_of_offset[target_offset]
        import dataclasses

        for idx, instr in enumerate(self.tac):
            if idx in patch:
                if isinstance(instr, (IfTrue, IfFalse, Goto)):
                    instr = dataclasses.replace(instr, target=patch[idx])
                elif isinstance(instr, IterNext):
                    instr = dataclasses.replace(instr, exhausted_target=patch[idx])
            resolved.append(instr)

        code = self.code
        n_params = code.co_argcount
        if n_params != len(self.param_kinds) + 1:
            self._bail(
                f"expected {len(self.param_kinds)} record parameters plus a "
                f"collector, found {n_params} parameters"
            )
        record_params = tuple(code.co_varnames[: n_params - 1])
        return TACFunction(self.fn.__name__, record_params, tuple(resolved))

    def _translate_one(self, instr: dis.Instruction) -> None:
        name = instr.opname
        depth = self.depth_at[instr.offset]
        handler = getattr(self, f"_op_{name}", None)
        if handler is None:
            self._bail(f"unsupported opcode {name}")
        handler(instr, depth)

    # -- opcode handlers -----------------------------------------------------------
    # Each handler receives the dis instruction and the stack depth *before*
    # the instruction executes.

    def _op_RESUME(self, instr, depth) -> None:
        pass

    def _op_NOP(self, instr, depth) -> None:
        pass

    def _op_PRECALL(self, instr, depth) -> None:
        pass

    def _op_PUSH_NULL(self, instr, depth) -> None:
        self._emit(Const(self._slot(depth), None))
        self._set_ct(depth, _CT("null"))

    def _op_LOAD_CONST(self, instr, depth) -> None:
        if not _const_ok(instr.argval):
            self._bail(f"unsupported constant {instr.argval!r}")
        self._emit(Const(self._slot(depth), instr.argval))
        self._set_ct(depth, _CT("const", value=instr.argval))

    def _op_LOAD_FAST(self, instr, depth) -> None:
        self._emit(Assign(self._slot(depth), Var(instr.argval)))
        self._set_ct(depth, self.local_ct.get(instr.argval))

    def _op_STORE_FAST(self, instr, depth) -> None:
        self._emit(Assign(instr.argval, self._operand_at(depth - 1)))
        ct = self.slot_ct.get(depth - 1)
        if ct is not None and ct.kind == "const":
            self.local_ct[instr.argval] = ct
        else:
            self.local_ct.pop(instr.argval, None)
        self._set_ct(depth - 1, None)

    def _op_LOAD_GLOBAL(self, instr, depth) -> None:
        push_null = bool(instr.arg & 1)
        ct = self._resolve_global(instr.argval)
        slot = depth
        if push_null:
            self._emit(Const(self._slot(depth), None))
            self._set_ct(depth, _CT("null"))
            slot = depth + 1
        if ct.kind == "const":
            self._emit(Const(self._slot(slot), ct.value))
        else:
            self._emit(Const(self._slot(slot), FuncRef(ct.name)))
        self._set_ct(slot, ct)

    def _op_LOAD_METHOD(self, instr, depth) -> None:
        # Receiver is at depth-1; afterwards: marker at depth-1, self at depth.
        receiver_ct = self.slot_ct.get(depth - 1)
        self._emit(Assign(self._slot(depth), Var(self._slot(depth - 1))))
        self._set_ct(depth, receiver_ct)
        self._emit(Const(self._slot(depth - 1), FuncRef(f"method:{instr.argval}")))
        self._set_ct(depth - 1, _CT("method", name=instr.argval))

    def _op_CALL(self, instr, depth) -> None:
        # CPython 3.11 accounting splits the pops between PRECALL (-argc)
        # and CALL (-1); the *true* layout at this point is
        #   marker/null @ depth-2, receiver/callable @ depth-1,
        #   args @ depth .. depth+argc-1
        # and the result lands in slot depth-2.
        argc = instr.arg
        args = [self._operand_at(depth + k) for k in range(argc)]
        callee_a = self.slot_ct.get(depth - 2)
        callee_b = self.slot_ct.get(depth - 1)
        result_depth = depth - 2
        dst = self._slot(result_depth)

        if callee_a is not None and callee_a.kind == "method":
            receiver = Var(self._slot(depth - 1))
            self._translate_method_call(callee_a.name, receiver, args, dst)
        elif (
            callee_a is not None
            and callee_a.kind == "null"
            and callee_b is not None
            and callee_b.kind == "func"
        ):
            self._emit(Call(dst, callee_b.name, tuple(args)))
        else:
            self._bail("cannot statically resolve call target")
        for d in range(result_depth, depth + argc):
            self._set_ct(d, None)

    def _translate_method_call(
        self, method: str, receiver: Var, args: list[Operand], dst: str
    ) -> None:
        if method == "get_field":
            if len(args) != 1:
                self._bail("get_field takes one argument")
            self._emit(GetField(dst, receiver, args[0]))
        elif method == "copy":
            if args:
                self._bail("copy takes no arguments")
            self._emit(CopyRec(dst, receiver))
        elif method == "new_record":
            if args:
                self._bail("new_record takes no arguments")
            self._emit(NewRec(dst, receiver))
        elif method == "concat":
            if len(args) != 1 or not isinstance(args[0], Var):
                self._bail("concat takes one record argument")
            self._emit(ConcatRec(dst, receiver, args[0]))
        elif method == "set_field":
            if len(args) != 2:
                self._bail("set_field takes two arguments")
            self._emit(SetField(receiver, args[0], args[1]))
            self._emit(Const(dst, None))
        elif method == "emit":
            if len(args) != 1 or not isinstance(args[0], Var):
                self._bail("emit takes one record argument")
            self._emit(Emit(args[0]))
            self._emit(Const(dst, None))
        else:
            # Opaque method on a value (e.g. str.startswith); keep the
            # receiver as the first argument so taint flows through.
            self._emit(Call(dst, f"method:{method}", (receiver, *args)))

    def _op_BINARY_OP(self, instr, depth) -> None:
        symbol = instr.argrepr.rstrip("=") or instr.argrepr
        if symbol not in _BIN_SYMBOLS:
            self._bail(f"unsupported binary operator {instr.argrepr!r}")
        self._emit(
            BinOp(
                self._slot(depth - 2),
                symbol,
                self._operand_at(depth - 2),
                self._operand_at(depth - 1),
            )
        )
        self._set_ct(depth - 2, None)
        self._set_ct(depth - 1, None)

    def _op_COMPARE_OP(self, instr, depth) -> None:
        self._emit(
            BinOp(
                self._slot(depth - 2),
                instr.argval,
                self._operand_at(depth - 2),
                self._operand_at(depth - 1),
            )
        )
        self._set_ct(depth - 2, None)
        self._set_ct(depth - 1, None)

    def _op_IS_OP(self, instr, depth) -> None:
        op = "is not" if instr.arg else "is"
        self._emit(
            BinOp(
                self._slot(depth - 2),
                op,
                self._operand_at(depth - 2),
                self._operand_at(depth - 1),
            )
        )
        self._set_ct(depth - 2, None)
        self._set_ct(depth - 1, None)

    def _op_CONTAINS_OP(self, instr, depth) -> None:
        op = "not in" if instr.arg else "in"
        self._emit(
            BinOp(
                self._slot(depth - 2),
                op,
                self._operand_at(depth - 2),
                self._operand_at(depth - 1),
            )
        )
        self._set_ct(depth - 2, None)
        self._set_ct(depth - 1, None)

    def _op_UNARY_NEGATIVE(self, instr, depth) -> None:
        self._emit(UnOp(self._slot(depth - 1), "neg", self._operand_at(depth - 1)))
        self._set_ct(depth - 1, None)

    def _op_UNARY_NOT(self, instr, depth) -> None:
        self._emit(UnOp(self._slot(depth - 1), "not", self._operand_at(depth - 1)))
        self._set_ct(depth - 1, None)

    def _op_UNARY_POSITIVE(self, instr, depth) -> None:
        self._emit(UnOp(self._slot(depth - 1), "pos", self._operand_at(depth - 1)))
        self._set_ct(depth - 1, None)

    def _op_BINARY_SUBSCR(self, instr, depth) -> None:
        self._emit(
            GetItem(
                self._slot(depth - 2),
                Var(self._slot(depth - 2)),
                self._operand_at(depth - 1),
            )
        )
        self._set_ct(depth - 2, None)
        self._set_ct(depth - 1, None)

    def _op_GET_ITER(self, instr, depth) -> None:
        self._emit(IterNew(self._slot(depth - 1), self._operand_at(depth - 1)))
        self._set_ct(depth - 1, None)

    def _op_FOR_ITER(self, instr, depth) -> None:
        self._emit_jump(
            IterNext(self._slot(depth), Var(self._slot(depth - 1)), -1),
            instr.argval,
            "exhausted_target",
        )
        self._set_ct(depth, None)

    def _op_POP_TOP(self, instr, depth) -> None:
        self._set_ct(depth - 1, None)

    def _op_SWAP(self, instr, depth) -> None:
        i = instr.arg
        a, b = self._slot(depth - 1), self._slot(depth - i)
        tmp = f"$swap{len(self.tac)}"
        self._emit(Assign(tmp, Var(a)))
        self._emit(Assign(a, Var(b)))
        self._emit(Assign(b, Var(tmp)))
        ct_a, ct_b = self.slot_ct.get(depth - 1), self.slot_ct.get(depth - i)
        self._set_ct(depth - 1, ct_b)
        self._set_ct(depth - i, ct_a)

    def _op_COPY(self, instr, depth) -> None:
        i = instr.arg
        self._emit(Assign(self._slot(depth), Var(self._slot(depth - i))))
        self._set_ct(depth, self.slot_ct.get(depth - i))

    def _op_RETURN_VALUE(self, instr, depth) -> None:
        self._emit(Return())

    def _op_JUMP_FORWARD(self, instr, depth) -> None:
        self._emit_jump(Goto(-1), instr.argval, "target")

    def _op_JUMP_BACKWARD(self, instr, depth) -> None:
        self._emit_jump(Goto(-1), instr.argval, "target")

    def _op_JUMP_BACKWARD_NO_INTERRUPT(self, instr, depth) -> None:
        self._emit_jump(Goto(-1), instr.argval, "target")

    def _branch(self, instr, depth, cls) -> None:
        self._emit_jump(cls(self._operand_at(depth - 1), -1), instr.argval, "target")
        self._set_ct(depth - 1, None)

    def _op_POP_JUMP_FORWARD_IF_FALSE(self, instr, depth) -> None:
        self._branch(instr, depth, IfFalse)

    def _op_POP_JUMP_FORWARD_IF_TRUE(self, instr, depth) -> None:
        self._branch(instr, depth, IfTrue)

    def _op_POP_JUMP_BACKWARD_IF_FALSE(self, instr, depth) -> None:
        self._branch(instr, depth, IfFalse)

    def _op_POP_JUMP_BACKWARD_IF_TRUE(self, instr, depth) -> None:
        self._branch(instr, depth, IfTrue)

    def _none_branch(self, instr, depth, jump_if_none: bool) -> None:
        tmp = f"$isnone{len(self.tac)}"
        self._emit(BinOp(tmp, "is", self._operand_at(depth - 1), Lit(None)))
        cls = IfTrue if jump_if_none else IfFalse
        self._emit_jump(cls(Var(tmp), -1), instr.argval, "target")
        self._set_ct(depth - 1, None)

    def _op_POP_JUMP_FORWARD_IF_NONE(self, instr, depth) -> None:
        self._none_branch(instr, depth, True)

    def _op_POP_JUMP_FORWARD_IF_NOT_NONE(self, instr, depth) -> None:
        self._none_branch(instr, depth, False)

    def _op_POP_JUMP_BACKWARD_IF_NONE(self, instr, depth) -> None:
        self._none_branch(instr, depth, True)

    def _op_POP_JUMP_BACKWARD_IF_NOT_NONE(self, instr, depth) -> None:
        self._none_branch(instr, depth, False)

    def _op_JUMP_IF_TRUE_OR_POP(self, instr, depth) -> None:
        self._emit_jump(
            IfTrue(self._operand_at(depth - 1), -1), instr.argval, "target"
        )
        self._set_ct(depth - 1, None)

    def _op_JUMP_IF_FALSE_OR_POP(self, instr, depth) -> None:
        self._emit_jump(
            IfFalse(self._operand_at(depth - 1), -1), instr.argval, "target"
        )
        self._set_ct(depth - 1, None)

    def _op_BUILD_TUPLE(self, instr, depth) -> None:
        self._build(instr, depth, "__build_tuple__")

    def _op_BUILD_LIST(self, instr, depth) -> None:
        self._build(instr, depth, "__build_list__")

    def _build(self, instr, depth, name) -> None:
        n = instr.arg
        args = tuple(self._operand_at(depth - n + k) for k in range(n))
        self._emit(Call(self._slot(depth - n), name, args))
        for d in range(depth - n, depth):
            self._set_ct(d, None)

    def _op_LIST_APPEND(self, instr, depth) -> None:
        i = instr.arg
        self._emit(
            Call(
                None,
                "__list_append__",
                (Var(self._slot(depth - 1 - i)), self._operand_at(depth - 1)),
            )
        )
        self._set_ct(depth - 1, None)


def compile_to_tac(fn: Callable, param_kinds: tuple[ParamKind, ...]) -> TACFunction:
    """Translate a Python UDF's bytecode into TAC (raises UnsupportedBytecode)."""
    if not callable(fn) or not hasattr(fn, "__code__"):
        raise UnsupportedBytecode("not a plain Python function")
    return _Translator(fn, param_kinds).translate()
