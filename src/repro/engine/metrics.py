"""Execution metrics and the simulated-time report.

One :class:`OpMetrics` is reported per *logical* operator regardless of
how the engine schedules it: operators fused into one streaming pipeline
stage still report individually.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class OpMetrics:
    """Measured behavior of one physical operator."""

    name: str
    strategy: str = ""
    rows_in: int = 0
    rows_out: int = 0
    udf_calls: int = 0
    net_bytes: float = 0.0
    disk_bytes: float = 0.0
    cpu_units_max: float = 0.0  # max over instances (makespan driver)
    cpu_units_total: float = 0.0
    ship_seconds: float = 0.0
    local_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.ship_seconds + self.local_seconds


@dataclass(slots=True)
class ExecutionReport:
    """Simulated execution outcome of one plan."""

    per_op: list[OpMetrics] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(m.seconds for m in self.per_op)

    @property
    def net_bytes(self) -> float:
        return sum(m.net_bytes for m in self.per_op)

    @property
    def disk_bytes(self) -> float:
        return sum(m.disk_bytes for m in self.per_op)

    @property
    def udf_calls(self) -> int:
        return sum(m.udf_calls for m in self.per_op)

    @property
    def rows_scanned(self) -> int:
        """Rows read by all source scans — the plan's input volume."""
        return sum(m.rows_out for m in self.per_op if m.strategy == "scan")

    def op_by_name(self) -> dict[str, OpMetrics]:
        """Per-operator metrics keyed by operator name.

        Plan validation guarantees unique operator names within one plan,
        so the mapping is lossless for a single execution's report.
        """
        return {m.name: m for m in self.per_op}

    def minutes_label(self) -> str:
        """Human label like the paper's bar annotations, e.g. ``6:23 min``."""
        total = self.seconds
        minutes = int(total // 60)
        seconds = int(round(total - minutes * 60))
        if seconds == 60:
            minutes, seconds = minutes + 1, 0
        return f"{minutes}:{seconds:02d} min"

    def describe(self) -> str:
        lines = [f"total simulated time: {self.minutes_label()}"]
        for m in self.per_op:
            lines.append(
                f"  {m.name:<28} {m.strategy:<18} rows_out={m.rows_out:<9} "
                f"net={m.net_bytes / 1e6:8.2f}MB  time={m.seconds:8.3f}s"
            )
        return "\n".join(lines)
