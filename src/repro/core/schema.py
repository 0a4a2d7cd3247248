"""Attributes, schemas, and the *global record* abstraction.

The paper (Definition 1) names every base and intermediate attribute of a
data flow uniquely; the *global record* is the collection of all such
attributes, and a redirection map ``alpha(D, n)`` maps the n-th field of a
data set to its global attribute.

In this implementation:

* :class:`Attribute` objects are the global names, one interned object per
  name.  Two scans of the same base table use *distinct* attributes (the
  paper prefixes attributes with the data set they belong to).
* Each operator carries a :class:`FieldMap` per input — the redirection map
  alpha fixed when the flow was authored.  Reordering never changes these
  maps, which is exactly how the paper preserves positional UDF access under
  reordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SchemaError


_INTERNED: dict[str, "Attribute"] = {}


class Attribute:
    """A uniquely named member of the global record.

    Attributes are interned by name: ``Attribute(name)`` returns the one
    object for that name, so name equality is identity.  Equality and hash
    are therefore ``object``'s, both computed in C: runtime records are
    dictionaries keyed by attributes, so attribute hashing sits on the
    engine's innermost loops.  The intern table is filled with
    ``dict.setdefault``, so threads constructing one new name at once all
    get the object that won.  Pickle, ``copy`` and ``deepcopy`` return the
    interned object too.

    Sets of attributes iterate in an order that follows object addresses;
    code whose output depends on such an order must sort by name.
    """

    __slots__ = ("name",)

    name: str

    def __new__(cls, name: str) -> "Attribute":
        attr = _INTERNED.get(name)
        if attr is None:
            attr = object.__new__(cls)
            object.__setattr__(attr, "name", name)
            attr = _INTERNED.setdefault(name, attr)
        return attr

    def __setattr__(self, key: str, value) -> None:
        raise AttributeError(f"Attribute {self.name!r} is immutable")

    def __delattr__(self, key: str) -> None:
        raise AttributeError(f"Attribute {self.name!r} is immutable")

    def __reduce__(self):
        # pickle, copy and deepcopy all rebuild through the intern table
        return (Attribute, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Attr({self.name})"


def attrs(*names: str) -> tuple[Attribute, ...]:
    """Convenience constructor: ``attrs('a', 'b')`` -> tuple of Attributes."""
    return tuple(Attribute(n) for n in names)


def prefixed(prefix: str, *names: str) -> tuple[Attribute, ...]:
    """Create attributes named ``prefix.name`` — one scan instance's schema."""
    return tuple(Attribute(f"{prefix}.{n}") for n in names)


@dataclass(frozen=True, slots=True)
class FieldMap:
    """Positional field-index -> global-attribute mapping (the map alpha).

    A ``FieldMap`` is fixed per operator input when the data flow is written
    and never changes under reordering.
    """

    attributes: tuple[Attribute, ...]

    def __post_init__(self) -> None:
        seen: set[Attribute] = set()
        for a in self.attributes:
            if a in seen:
                raise SchemaError(f"duplicate attribute in field map: {a.name}")
            seen.add(a)

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self):
        return iter(self.attributes)

    def attr_at(self, position: int) -> Attribute:
        if position < 0 or position >= len(self.attributes):
            raise SchemaError(
                f"field position {position} out of range (width {len(self.attributes)})"
            )
        return self.attributes[position]

    def position_of(self, attribute: Attribute) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise SchemaError(f"attribute {attribute.name} not in field map") from None

    def as_set(self) -> frozenset[Attribute]:
        return frozenset(self.attributes)


class NewAttributeFactory:
    """Deterministic factory for attributes an operator *creates*.

    The paper adds an attribute to the global record when a UDF sets a field
    at a position beyond the width of its input (Section 5).  The factory
    guarantees that analysis time and execution time agree on the attribute
    object for a given output position of a given operator.
    """

    def __init__(self, owner_name: str) -> None:
        self._owner_name = owner_name
        self._created: dict[int, Attribute] = {}

    def attr_for(self, output_position: int) -> Attribute:
        if output_position not in self._created:
            self._created[output_position] = Attribute(
                f"{self._owner_name}.f{output_position}"
            )
        return self._created[output_position]

    def created(self) -> dict[int, Attribute]:
        return dict(self._created)


@dataclass(frozen=True, slots=True)
class GlobalRecord:
    """The set of all base and intermediate attributes of a plan."""

    attributes: frozenset[Attribute] = field(default_factory=frozenset)

    def __contains__(self, attribute: Attribute) -> bool:
        return attribute in self.attributes

    def __len__(self) -> int:
        return len(self.attributes)

    def union(self, more: frozenset[Attribute]) -> "GlobalRecord":
        return GlobalRecord(self.attributes | more)
