"""Execute an expanded :class:`~repro.sweep.grid.SweepGrid`.

Three execution modes, one result table:

* ``mode="local"`` — each cell's spec runs in-process through
  :func:`repro.api.run_spec` (the bit-identical reference);
* ``mode="jobs"`` — cells are scheduled onto a
  :class:`~repro.exec.jobs.JobRunner` worker pool via
  :meth:`~repro.exec.jobs.JobRunner.run_all` (failure-isolating: one
  broken cell never discards the rest); the determinism contract makes
  every cell's result bit-identical to the local mode;
* ``mode="serve"`` — cells are submitted to a running ``repro.serve``
  daemon, whose LRU cache dedups repeated requests across sweeps.

Within one sweep, duplicate cells (same ``cache_key()``) are executed
once: later occurrences are marked ``status="dedup"`` pointing at the
executing cell.  Per-cell :mod:`repro.sweep.checks` verdicts (stationarity
against the exact Gibbs law where enumerable; placement equivalence between
an unsharded cell and the sharded cells of the same coordinate) are
attached to the table, which is plain JSON under the ``repro.sweep/v1``
schema.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError, ReproError
from repro.sweep.checks import (
    DEFAULT_ALPHA,
    MAX_CHECK_STATES,
    equivalence_check,
    stationarity_check,
)
from repro.sweep.grid import SweepGrid

__all__ = ["SweepResult", "run_sweep"]

SCHEMA = "repro.sweep/v1"

_MODES = ("local", "jobs", "serve")


@dataclass
class SweepResult:
    """The machine-readable sweep outcome.

    ``rows[i]`` describes ``grid.cells[i]``; ``results`` maps the indices
    of executed (non-dedup) cells to their raw in-memory results, so
    callers can post-process without re-running.
    """

    grid: SweepGrid
    rows: list[dict] = field(default_factory=list)
    results: dict[int, object] = field(default_factory=dict)

    @property
    def counts(self) -> dict:
        tally = {"total": len(self.rows), "ok": 0, "error": 0, "dedup": 0}
        for row in self.rows:
            tally[row["status"]] += 1
        return tally

    @property
    def table(self) -> dict:
        """The ``repro.sweep/v1`` JSON document."""
        return {
            "schema": SCHEMA,
            "name": self.grid.name,
            "kind": self.grid.kind,
            "base_seed": self.grid.base_seed,
            "counts": self.counts,
            "cells": self.rows,
        }


def _summarise(spec, result) -> dict:
    if spec.kind == "sample_many":
        batch = np.asarray(result)
        feasible = float(
            np.mean([bool(spec.model.is_feasible(row)) for row in batch])
        )
        return {
            "replicas": int(batch.shape[0]),
            "n": int(batch.shape[1]),
            "feasible_fraction": feasible,
        }
    if spec.kind == "tv_curve":
        curve = [[int(rounds), float(tv)] for rounds, tv in result]
        return {"curve": curve, "final_tv": curve[-1][1] if curve else None}
    return {"rounds": int(result)}


def _exact_reference(spec, cache: dict):
    """The exact Gibbs law for checks, or None when not enumerable."""
    model = spec.model
    token = id(model)
    if token not in cache:
        if model.q**model.n > MAX_CHECK_STATES:
            cache[token] = None
        else:
            from repro import api

            cache[token] = api._exact_distribution(model)
    return cache[token]


def _attach_checks(grid, rows, results, alpha: float) -> None:
    """Fold stationarity and placement-equivalence verdicts into the rows."""
    exact_cache: dict = {}
    sampled = [
        cell
        for cell in grid.cells
        if cell.spec.kind == "sample_many" and rows[cell.index]["status"] == "ok"
    ]
    for cell in sampled:
        exact = _exact_reference(cell.spec, exact_cache)
        if exact is None:
            verdict = {"applicable": False, "reason": "state space too large"}
        else:
            verdict = stationarity_check(results[cell.index], exact, alpha=alpha)
        rows[cell.index]["checks"]["stationarity"] = verdict

    # Placement equivalence: cells identical up to placement must share a
    # distribution.  An unsharded cell (workers < 0) and a sharded one run
    # different shard plans, so their bits differ but their law must not;
    # the first unsharded cell of each group anchors the comparison.
    groups: dict = {}
    for cell in sampled:
        token = tuple(
            (key, value) for key, value in sorted(cell.coords.items()) if key != "workers"
        )
        groups.setdefault(token, []).append(cell)
    for members in groups.values():
        if len(members) < 2:
            continue
        members.sort(key=lambda cell: (cell.coords["workers"] >= 0, cell.index))
        reference = members[0]
        for other in members[1:]:
            verdict = equivalence_check(
                results[other.index],
                results[reference.index],
                other.spec.model.q,
                alpha=alpha,
            )
            verdict["reference_cell"] = reference.index
            rows[other.index]["checks"]["placement_equivalence"] = verdict


def _execute_local(cells) -> list[tuple[object, str | None, float | None]]:
    outcomes = []
    for cell in cells:
        start, result, error = time.perf_counter(), None, None
        try:
            result = cell.spec.run()
        except ReproError as failure:  # messages as the job workers write them
            error = f"{type(failure).__name__}: {failure}"
        except Exception:
            error = traceback.format_exc()
        outcomes.append((result, error, time.perf_counter() - start))
    return outcomes


def _execute_jobs(cells, workers: int) -> list[tuple[object, str | None, float | None]]:
    from repro.exec import JobRunner

    with JobRunner(workers=workers) as runner:
        return runner.run_all([cell.spec for cell in cells])


def _execute_serve(cells, server: str) -> list[tuple[object, str | None, float | None]]:
    from repro.errors import ServeError
    from repro.serve import ServeClient

    host, _, port = str(server).rpartition(":")
    if not host or not port.isdigit():
        raise ModelError(f"server must be HOST:PORT, got {server!r}")
    outcomes = []
    with ServeClient(host, int(port)) as client:
        for cell in cells:
            start = time.perf_counter()
            try:
                document = client.submit(cell.spec)
                outcomes.append((document["result"], None, time.perf_counter() - start))
            except ServeError as error:
                outcomes.append(
                    (None, f"{type(error).__name__}: {error}", time.perf_counter() - start)
                )
    return outcomes


def run_sweep(
    grid: SweepGrid,
    mode: str = "local",
    workers: int = 2,
    server: str | None = None,
    checks: bool = True,
    alpha: float = DEFAULT_ALPHA,
) -> SweepResult:
    """Run every cell of ``grid``; return the :class:`SweepResult`.

    Duplicate cells (equal ``cache_key()``) execute once.  A failing cell
    is recorded as ``status="error"`` with its message — never raised —
    so a sweep always yields a complete table.
    """
    if mode not in _MODES:
        raise ModelError(f"sweep mode must be one of {_MODES}, got {mode!r}")
    if mode == "serve" and server is None:
        raise ModelError('mode="serve" needs server="HOST:PORT"')

    to_run = []
    dedup_of: dict[int, int] = {}
    key_owner: dict[str, int] = {}
    for cell in grid.cells:
        key = cell.spec.cache_key()
        if key is not None and key in key_owner:
            dedup_of[cell.index] = key_owner[key]
            continue
        if key is not None:
            key_owner[key] = cell.index
        to_run.append(cell)

    if mode == "local":
        outcomes = _execute_local(to_run)
    elif mode == "jobs":
        outcomes = _execute_jobs(to_run, workers)
    else:
        outcomes = _execute_serve(to_run, server)

    sweep = SweepResult(grid=grid)
    by_index = {
        cell.index: outcome for cell, outcome in zip(to_run, outcomes)
    }
    for cell in grid.cells:
        row = {
            "index": cell.index,
            "coords": dict(cell.coords),
            "cache_key": cell.spec.cache_key(),
            "status": "ok",
            "elapsed_s": None,
            "summary": None,
            "checks": {},
            "error": None,
            "dedup_of": None,
        }
        if cell.index in dedup_of:
            row["status"] = "dedup"
            row["dedup_of"] = dedup_of[cell.index]
        else:
            result, error, elapsed = by_index[cell.index]
            row["elapsed_s"] = elapsed
            if error is not None:
                row["status"] = "error"
                row["error"] = error
            else:
                sweep.results[cell.index] = result
                row["summary"] = _summarise(cell.spec, result)
        sweep.rows.append(row)

    if checks:
        _attach_checks(grid, sweep.rows, sweep.results, alpha)
    return sweep
