"""Declarative scenario sweeps over the unified :class:`~repro.spec.JobSpec`.

One TOML/JSON config describes a cartesian grid (model family x size x
method x workers x replicas x rounds x seed replicates);
:func:`expand_grid` freezes it into per-cell specs with deterministic
``SeedSequence``-derived seeds, and :func:`run_sweep` executes the cells
in-process, on a :class:`~repro.exec.jobs.JobRunner` pool, or against a
running ``repro.serve`` daemon — deduping repeated cells by
``cache_key()``, isolating failures, attaching statistical checks, and
emitting one machine-readable ``repro.sweep/v1`` result table.

The CLI front door is ``python -m repro sweep --config grid.toml``.
"""

from repro.sweep.checks import (
    DEFAULT_ALPHA,
    MAX_CHECK_STATES,
    empirical_tv_bound,
    equivalence_check,
    stationarity_check,
)
from repro.sweep.grid import (
    SweepCell,
    SweepGrid,
    expand_grid,
    load_grid,
    load_grid_config,
)
from repro.sweep.runner import SCHEMA, SweepResult, run_sweep

__all__ = [
    "DEFAULT_ALPHA",
    "MAX_CHECK_STATES",
    "SCHEMA",
    "SweepCell",
    "SweepGrid",
    "SweepResult",
    "empirical_tv_bound",
    "equivalence_check",
    "expand_grid",
    "load_grid",
    "load_grid_config",
    "run_sweep",
    "stationarity_check",
]
