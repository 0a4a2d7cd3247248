"""Experiment harness and reporting (the Section 7.3 protocol)."""

from .harness import ExecutedPlan, ExperimentOutcome, run_experiment
from .reporting import render_figure, render_table

__all__ = [
    "ExecutedPlan",
    "ExperimentOutcome",
    "render_figure",
    "render_table",
    "run_experiment",
]
