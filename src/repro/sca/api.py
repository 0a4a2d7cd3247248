"""Public entry point of the static code analysis component."""

from __future__ import annotations

import weakref
from typing import Any

from ..core.errors import AnalysisError, UnsupportedBytecode
from ..core.properties import UdfProperties, conservative_properties
from ..core.udf import ParamKind
from .analyzer import AnalysisEscape, analyze_tac
from .pybytecode import compile_to_tac


# A UDF's bytecode is immutable, so analysis is a pure function of the
# function object and its parameter kinds; memoize it module-wide.  The
# same UDF is analyzed once per process no matter how many operators,
# plan contexts, or repeated passes reference it.  Keys are held weakly
# so dropped UDFs (and their captured closures) are reclaimed instead of
# pinned for the process lifetime.
_analysis_cache: "weakref.WeakKeyDictionary[Any, dict[tuple[ParamKind, ...], UdfProperties]]" = (
    weakref.WeakKeyDictionary()
)


def analyze_udf(fn: Any, param_kinds: tuple[ParamKind, ...]) -> UdfProperties:
    """Derive black-box properties for a UDF (Section 5).

    The function's bytecode is translated to TAC and analyzed.  Never
    raises for unanalyzable code: the result degrades to the conservative
    read-all/write-all properties, exactly as the paper's safety argument
    requires.
    """
    try:
        per_fn = _analysis_cache.get(fn)
        if per_fn is None:
            per_fn = {}
            _analysis_cache[fn] = per_fn
    except TypeError:  # unhashable or non-weakrefable fn: skip caching
        return _analyze_udf(fn, param_kinds)
    result = per_fn.get(param_kinds)
    if result is None:
        result = _analyze_udf(fn, param_kinds)
        per_fn[param_kinds] = result
    return result


def _analyze_udf(fn: Any, param_kinds: tuple[ParamKind, ...]) -> UdfProperties:
    try:
        return analyze_tac(compile_to_tac(fn, param_kinds), param_kinds)
    except (UnsupportedBytecode, AnalysisEscape) as exc:
        return conservative_properties(str(exc))
    except AnalysisError as exc:
        return conservative_properties(f"analysis error: {exc}")
