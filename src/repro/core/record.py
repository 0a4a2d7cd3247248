"""Runtime records and the record API exposed to user-defined functions.

The paper's UDFs access record fields positionally through a small record
API (``getField``, ``setField``, copy/default/concat constructors, ``emit``;
Section 5).  We mirror that API:

* :class:`InputRecord` — read-only positional view of a record; ``copy()``
  is the *implicit copy* constructor, ``new_record()`` the *implicit
  projection* constructor, and ``concat(other)`` the binary concatenation
  constructor.
* :class:`OutputRecord` — write handle with ``set_field``.
* :class:`Collector` — receives emitted records.

Runtime records are dictionaries keyed by global :class:`Attribute`.  This
is what makes reordering sound: an operator only manipulates attributes in
its own positional space (its field maps); every other attribute passes
through untouched, which is exactly the pi_W-complement preservation the
paper's proofs rely on.

The API sits on the engine's per-record path, so each step is one
C-level lookup where it can be: attributes are interned and hash in C,
an :class:`InputRecord` keeps its field map's attribute tuple, and
:meth:`OutputPositionResolver.attr_for` reads input positions from one
flat tuple over all input maps.  A view is shared wherever the UDF
cannot tell: a Match hands the same right-side view to every left row
that probes its key, a Cross to every left row.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable

from .errors import UdfError
from .schema import Attribute, FieldMap, NewAttributeFactory

RawRecord = dict[Attribute, Any]


# Exact-type fast path: sizing runs once per value per ship/spill, so it
# sits on the engine's hot path.  Subclasses fall through to the
# isinstance chain, preserving the original semantics (bool before int).
_SCALAR_BYTES: dict[type, int] = {
    type(None): 1,
    bool: 1,
    int: 8,
    float: 8,
}


def value_bytes(value: Any) -> int:
    """Estimated serialized size of a single value, in bytes."""
    kind = type(value)
    size = _SCALAR_BYTES.get(kind)
    if size is not None:
        return size
    if kind is str:
        return 4 + len(value)
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return 4 + len(value)
    if isinstance(value, (tuple, list)):
        return 4 + sum(value_bytes(v) for v in value)
    return 16


def record_bytes(record: RawRecord) -> int:
    """Estimated serialized size of a record (values plus per-field header)."""
    total = 2 * len(record)
    scalar = _SCALAR_BYTES
    for value in record.values():
        size = scalar.get(type(value))
        if size is not None:
            total += size
        elif type(value) is str:
            total += 4 + len(value)
        else:
            total += value_bytes(value)
    return total


def rows_bytes(rows: list[RawRecord]) -> int:
    """``sum(record_bytes(r) for r in rows)``, exactly, without the
    per-value Python loop where the rows allow it.

    When every value is a fixed-size scalar of one size ``s`` (all-int or
    all-float data, say) each record weighs ``(2 + s) * len(record)``, so
    the total is one multiplication.  The first record proposes ``s``;
    the set of value types over all rows confirms it (a C-level pass that
    never materializes the values).  Any other mix — strings, nesting,
    ``None`` beside ints, subclasses — takes the per-record loop.
    """
    if not rows:
        return 0
    sizes = set(map(_SCALAR_BYTES.get, map(type, rows[0].values())))
    if len(sizes) == 1 and None not in sizes:
        (size,) = sizes
        kinds = set(map(type, chain.from_iterable(map(dict.values, rows))))
        if all(_SCALAR_BYTES.get(kind) == size for kind in kinds):
            return (2 + size) * sum(map(len, rows))
    return sum(map(record_bytes, rows))


class OutputPositionResolver:
    """Resolves UDF *output* positions to global attributes.

    For a unary operator with input width ``w``, output positions ``0..w-1``
    address the input attributes and positions ``>= w`` create new
    attributes.  For a binary operator the concatenated widths are used, as
    with the paper's two-input record constructor.
    """

    def __init__(
        self, input_maps: tuple[FieldMap, ...], factory: NewAttributeFactory
    ) -> None:
        self._factory = factory
        # the input positions of all maps, concatenated, as one flat tuple
        self._inputs = tuple(chain.from_iterable(m.attributes for m in input_maps))
        self._positional = frozenset(self._inputs)
        self._total_width = len(self._inputs)

    @property
    def total_width(self) -> int:
        return self._total_width

    def attr_for(self, output_position: int) -> Attribute:
        if output_position < 0:
            raise UdfError(f"negative field position {output_position}")
        if output_position < self._total_width:
            return self._inputs[output_position]
        return self._factory.attr_for(output_position)

    def positional_attrs(self) -> frozenset[Attribute]:
        """All attributes inside this operator's positional space."""
        return self._positional


class InputRecord:
    """Read-only positional view handed to UDFs."""

    __slots__ = ("_values", "_field_map", "_attrs", "_resolver")

    def __init__(
        self,
        values: RawRecord,
        field_map: FieldMap,
        resolver: OutputPositionResolver,
    ) -> None:
        self._values = values
        self._field_map = field_map
        self._attrs = field_map.attributes
        self._resolver = resolver

    def get_field(self, position: int) -> Any:
        try:
            # fast path: in-range position, attribute present
            if position >= 0:
                return self._values[self._attrs[position]]
        except KeyError:
            attr = self._field_map.attr_at(position)
            raise UdfError(
                f"attribute {attr.name} absent at runtime; the plan projects "
                "it away before this operator"
            ) from None
        except IndexError:
            pass
        return self._values[self._field_map.attr_at(position)]  # raises

    def copy(self) -> "OutputRecord":
        """Implicit-copy constructor: output starts as a full copy."""
        return OutputRecord(dict(self._values), self._resolver)

    def new_record(self) -> "OutputRecord":
        """Implicit-projection constructor.

        Attributes inside the operator's own positional space are dropped;
        attributes the operator does not know about pass through (global
        record semantics).
        """
        positional = self._resolver.positional_attrs()
        passthrough = {a: v for a, v in self._values.items() if a not in positional}
        return OutputRecord(passthrough, self._resolver)

    def concat(self, other: "InputRecord") -> "OutputRecord":
        """Binary concatenation constructor (implicit copy of both inputs)."""
        if not isinstance(other, InputRecord):
            raise UdfError("concat expects another input record")
        merged = dict(self._values)
        merged.update(other._values)
        return OutputRecord(merged, self._resolver)

    def raw(self) -> RawRecord:
        """The underlying attribute-keyed values (library internal)."""
        return self._values


class OutputRecord:
    """Mutable record under construction by a UDF.

    Emitting hands the collector this record's dict itself, not a copy,
    and marks the record *emitted*; the next ``set_field`` or ``raw`` call
    copies the dict first (copy-on-write), so every emitted snapshot stays
    exactly as it was when emitted.
    """

    __slots__ = ("_values", "_resolver", "_emitted")

    def __init__(self, values: RawRecord, resolver: OutputPositionResolver) -> None:
        self._values = values
        self._resolver = resolver
        self._emitted = False

    def set_field(self, position: int, value: Any) -> None:
        """Set an output field.

        Following the paper's record API, setting a field to ``None`` is an
        *explicit projection* (the attribute is removed).
        """
        attr = self._resolver.attr_for(position)
        if self._emitted:
            self._unshare()
        if value is None:
            self._values.pop(attr, None)
        else:
            self._values[attr] = value

    def get_field(self, position: int) -> Any:
        """Read back a field previously present on the output record."""
        attr = self._resolver.attr_for(position)
        try:
            return self._values[attr]
        except KeyError:
            raise UdfError(f"output field {position} ({attr.name}) not set") from None

    def raw(self) -> RawRecord:
        """The record's own dict; after an emit, a fresh copy of it, since
        the caller may mutate what it gets."""
        if self._emitted:
            self._unshare()
        return self._values

    def _unshare(self) -> None:
        self._values = dict(self._values)
        self._emitted = False


class Collector:
    """Receives records emitted by a UDF invocation."""

    __slots__ = ("_out",)

    def __init__(self) -> None:
        self._out: list[RawRecord] = []

    def emit(self, record: InputRecord | OutputRecord) -> None:
        if isinstance(record, OutputRecord):
            # The UDF may keep mutating the output record after emitting
            # it; set_field copies the dict first once it is emitted.
            self._out.append(record._values)
            record._emitted = True
        elif isinstance(record, InputRecord):
            # Emitting an input record is an implicit full copy; the view
            # is read-only and records are never mutated once emitted, so
            # the underlying dict can be shared instead of copied.
            self._out.append(record.raw())
        else:
            raise UdfError(f"emit() expects a record, got {type(record).__name__}")

    def records(self) -> list[RawRecord]:
        return self._out


def wrap_inputs(
    rows: Iterable[RawRecord],
    field_map: FieldMap,
    resolver: OutputPositionResolver,
) -> list[InputRecord]:
    """Wrap raw rows into :class:`InputRecord` views for one operator input."""
    return [InputRecord(r, field_map, resolver) for r in rows]
