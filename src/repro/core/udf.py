"""User-defined function wrappers.

A :class:`Udf` bundles the executable first-order function with its
black-box properties.  Properties come from one of two places, mirroring the
paper's prototype (Section 7.1):

* **manual annotations** supplied by the flow author, or
* the **static code analyzer** (SCA), which derives them from the UDF's
  bytecode (Python bytecode here; Java bytecode via Soot in the paper).

The executable is a Python callable; the engine and the reference
evaluator call it directly, and the SCA analyzes its bytecode.
"""

from __future__ import annotations

import enum
from typing import Callable

from .errors import UdfError
from .properties import UdfProperties, conservative_properties


class ParamKind(enum.Enum):
    """Kind of each record-bearing UDF parameter (before the collector)."""

    RECORD = "record"
    RECORD_LIST = "record_list"


class AnnotationMode(enum.Enum):
    """Where operator properties come from (Table 1 compares these)."""

    MANUAL = "manual"
    SCA = "sca"


class Udf:
    """A first-order function plus (possibly derived) properties."""

    def __init__(
        self,
        fn: Callable,
        param_kinds: tuple[ParamKind, ...],
        annotations: UdfProperties | None = None,
        name: str | None = None,
    ) -> None:
        if not callable(fn):
            raise UdfError(f"a UDF must be callable, not {type(fn).__name__}")
        if not param_kinds:
            raise UdfError("a UDF needs at least one record parameter")
        self.fn = fn
        self.param_kinds = param_kinds
        self.annotations = annotations
        self.name = name or getattr(fn, "__name__", "udf")
        self._sca_cache: UdfProperties | None = None

    @property
    def arity(self) -> int:
        return len(self.param_kinds)

    def properties(self, mode: AnnotationMode) -> UdfProperties:
        """Resolve properties under the given annotation mode.

        MANUAL mode requires author annotations; SCA mode always runs the
        analyzer (falling back to conservative properties when the code
        cannot be modeled), which is the comparison Table 1 makes.
        """
        if mode is AnnotationMode.MANUAL:
            if self.annotations is None:
                raise UdfError(
                    f"UDF {self.name!r} has no manual annotations; "
                    "use AnnotationMode.SCA or annotate it"
                )
            return self.annotations
        if self._sca_cache is None:
            self._sca_cache = self._analyze()
        return self._sca_cache

    def _analyze(self) -> UdfProperties:
        from ..sca.api import analyze_udf  # local import to avoid a cycle

        try:
            return analyze_udf(self.fn, self.param_kinds)
        except Exception as exc:  # safety net: never fail, degrade instead
            return conservative_properties(f"analysis failed: {exc}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Udf({self.name})"


def map_udf(fn: Callable, annotations: UdfProperties | None = None) -> Udf:
    """A UDF for Map operators: ``fn(record, collector)``."""
    return Udf(fn, (ParamKind.RECORD,), annotations)


def reduce_udf(fn: Callable, annotations: UdfProperties | None = None) -> Udf:
    """A UDF for Reduce operators: ``fn(records, collector)``."""
    return Udf(fn, (ParamKind.RECORD_LIST,), annotations)


def binary_udf(fn: Callable, annotations: UdfProperties | None = None) -> Udf:
    """A UDF for Cross/Match operators: ``fn(left, right, collector)``."""
    return Udf(fn, (ParamKind.RECORD, ParamKind.RECORD), annotations)


def cogroup_udf(fn: Callable, annotations: UdfProperties | None = None) -> Udf:
    """A UDF for CoGroup operators: ``fn(left_records, right_records, collector)``."""
    return Udf(fn, (ParamKind.RECORD_LIST, ParamKind.RECORD_LIST), annotations)
