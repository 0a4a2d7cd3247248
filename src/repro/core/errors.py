"""Exception hierarchy for the repro library."""


class ReproError(Exception):
    """Base class for all library errors."""


class SchemaError(ReproError):
    """Raised for invalid attribute/schema usage (bad positions, duplicates)."""


class PlanError(ReproError):
    """Raised for structurally invalid data flow plans."""


class UdfError(ReproError):
    """Raised for invalid UDF definitions or runtime misuse of the record API."""


class AnalysisError(ReproError):
    """Raised by the static code analyzer for malformed TAC programs."""


class UnsupportedBytecode(AnalysisError):
    """Raised when the CPython bytecode front-end meets code it cannot model.

    Callers catch this and fall back to conservative (read-all / write-all)
    properties, preserving safety exactly as described in Section 5 of the
    paper.
    """


class OptimizationError(ReproError):
    """Raised when the optimizer is misconfigured or cannot produce a plan."""


class OptimizationConfigError(OptimizationError, ValueError):
    """Raised for invalid optimizer configuration values (non-positive job
    counts, unknown search modes, bad sampling limits).

    Also a :class:`ValueError`, so callers validating user input can catch
    it without importing the library hierarchy.
    """


class ExecutionError(ReproError):
    """Raised by the execution engine for runtime failures."""


class FeedbackError(ReproError):
    """Raised by the adaptive feedback subsystem (corrupt statistics
    stores, invalid round configurations)."""
