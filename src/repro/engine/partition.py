"""Deterministic partitioning primitives for the simulated cluster.

Python's built-in ``hash`` is randomized per process for strings, which
would make simulated runtimes non-reproducible; we use a small stable
hash instead.
"""

from __future__ import annotations

import zlib
from decimal import Decimal
from fractions import Fraction
from typing import Any

from ..core.record import RawRecord
from ..core.reference import key_getter, key_of
from ..core.schema import Attribute

Partitions = list[list[RawRecord]]


class SizedPartitions(list):
    """Partitions that carry the exact integer byte total of their rows
    (:func:`~repro.core.record.rows_bytes`): a scan's output, so that a
    ship right on the scan reuses the total instead of sizing the rows
    again.  The total lives exactly as long as the partitions."""

    __slots__ = ("total_bytes",)


_MASK = 0xFFFFFFFF

# Value types among which dict equality implies equal ``stable_hash``
# (``1 == 1.0 == True`` all hash as the int): a key built only of these
# can be memoised by value.  Other types are hashed per row.
_MEMO_SAFE = frozenset({int, float, bool, str, type(None)})


def stable_hash(value: Any) -> int:
    """Deterministic, process-independent hash for record values.

    Values that compare equal as Python dict keys must hash equally here,
    mirroring the builtin ``hash`` invariant: ``True == 1 == 1.0``, so all
    three must land in the same hash bucket, and so must
    ``Fraction(1, 2) == Decimal("0.5") == 0.5``.  Group-by and join
    semantics key on dict equality, so if equal keys hashed differently a
    hash repartition would split an equal-key group across instances and
    the engine would silently diverge from the reference oracle.
    """
    if value is None:
        return 0x9E3779B1
    if isinstance(value, bool):
        value = int(value)  # bools equal their int value as dict keys
    elif isinstance(value, float):
        if value.is_integer():
            value = int(value)  # int-valued floats equal their int value
        else:
            return zlib.crc32(repr(value).encode())
    if isinstance(value, int):
        return (value * 0x9E3779B1) & 0xFFFFFFFF
    if isinstance(value, str):
        return zlib.crc32(value.encode())
    if isinstance(value, (Fraction, Decimal)):
        return _exact_hash(value)
    if isinstance(value, (tuple, list)):
        acc = 0x811C9DC5
        for item in value:
            acc = ((acc ^ stable_hash(item)) * 0x01000193) & 0xFFFFFFFF
        return acc
    return zlib.crc32(repr(value).encode())


def _exact_hash(value: Fraction | Decimal) -> int:
    """Hash a ``Fraction``/``Decimal`` as the int or float it equals, if
    any; otherwise by its exact ratio, so ``Decimal("0.1")`` and
    ``Fraction(1, 10)`` (equal to each other, to no float) collide."""
    if isinstance(value, Decimal) and not value.is_finite():
        if value.is_nan():  # equal to nothing, itself included
            return zlib.crc32(repr(value).encode())
        return stable_hash(float(value))  # +-Infinity equal the floats
    exact = Fraction(value)
    if exact.denominator == 1:
        return stable_hash(exact.numerator)
    try:
        as_float = float(exact)
    except OverflowError:  # beyond every float, so equal to none
        pass
    else:
        if Fraction(as_float) == exact:
            return stable_hash(as_float)
    return zlib.crc32(f"{exact.numerator}/{exact.denominator}".encode())


def hash_key(row: RawRecord, key: tuple[Attribute, ...]) -> int:
    """Stable hash of a record's key tuple; a missing key attribute raises
    the same ``ExecutionError`` as the reference oracle's ``key_of``."""
    return stable_hash(key_of(row, key))


def empty_partitions(degree: int) -> Partitions:
    return [[] for _ in range(degree)]


def round_robin(rows: list[RawRecord], degree: int) -> Partitions:
    """Row ``i`` goes to partition ``i % degree``, in input order."""
    return [rows[i::degree] for i in range(degree)]


def repartition_by_key(
    parts: Partitions, key: tuple[Attribute, ...], degree: int
) -> tuple[Partitions, int]:
    """Hash-repartition; returns the new partitions and the number of
    records that crossed instance boundaries.

    Routes every row exactly as ``hash_key(row, key) % degree`` would,
    keeping origin order within each target, with the per-row calls
    taken out: one :func:`~repro.core.reference.key_getter` reads the
    key; a single exact-``int`` key gets ``stable_hash``'s arithmetic for
    a one-tuple inline; any other key goes through ``stable_hash``,
    memoised per distinct key when the key's value types allow it.
    """
    out = empty_partitions(degree)
    append = [part.append for part in out]
    get = key_getter(key)
    single = len(key) == 1
    memo: dict = {}
    moved = 0
    for origin, rows in enumerate(parts):
        for row in rows:
            try:
                value = get(row)
            except KeyError:
                key_of(row, key)  # raises the oracle's ExecutionError
                raise
            if single and type(value) is int:
                h = (
                    (0x811C9DC5 ^ ((value * 0x9E3779B1) & _MASK)) * 0x01000193
                ) & _MASK
            else:
                h = _key_hash((value,) if single else value, memo)
            target = h % degree
            if target != origin:
                moved += 1
            append[target](row)
    return out, moved


def _key_hash(key: tuple, memo: dict) -> int:
    """``stable_hash(key)``, looked up in ``memo`` when that is exact."""
    if set(map(type, key)) <= _MEMO_SAFE:
        h = memo.get(key)
        if h is None:
            h = memo[key] = stable_hash(key)
        return h
    return stable_hash(key)


def broadcast(parts: Partitions, degree: int) -> tuple[Partitions, int]:
    """Replicate every record to every instance; returns partitions and the
    number of records that crossed instance boundaries."""
    all_rows = [row for rows in parts for row in rows]
    out = [list(all_rows) for _ in range(degree)]
    moved = len(all_rows) * (degree - 1)
    return out, moved


def gather(parts: Partitions) -> list[RawRecord]:
    return [row for rows in parts for row in rows]
