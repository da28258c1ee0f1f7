"""Declarative sweep grids: a TOML/JSON config expanded into frozen JobSpecs.

A sweep config describes a cartesian experiment grid — model family x size
x method x workers x replicas x rounds x seed replicate — in one document::

    [sweep]
    name = "lb-squeeze"
    kind = "sample_many"          # or tv_curve / mixing_time
    base_seed = 20170625
    seeds = 2                     # seed replicates per coordinate

    [[sweep.models]]
    family = "coloring"           # a repro.families.FAMILIES name
    graph = "cycle"               # path | cycle | grid | torus | regular
    q = 5                         # the family's parameters; defaults otherwise

    [sweep.axes]
    size = [8, 16]
    method = ["glauber", "luby-glauber"]
    replicas = [64]

Each model entry is built by :func:`repro.families.build_model`, as the
CLI's ``--model`` flags are; a key that is not ``family``, ``graph``,
``degree``, ``name`` or one of the family's parameters is refused.

:func:`expand_grid` turns that into a :class:`SweepGrid` of
:class:`SweepCell` entries, each carrying a frozen
:class:`~repro.spec.JobSpec` ready for :func:`repro.api.run_spec`, a
:class:`~repro.exec.jobs.JobRunner` or a running ``repro.serve`` daemon.

Seed discipline: every distinct *coordinate* (everything but the worker
count, which is pure placement) gets its own child of
``SeedSequence(base_seed)`` in first-seen expansion order, reduced to a
canonical int so the spec stays cacheable (a spawned ``SeedSequence``
itself has no canonical wire form).  Repeating a coordinate — duplicated
axis values, or two worker counts over the same shard plan — therefore
reproduces the *same* spec, which the runner dedups via ``cache_key()``.
"""

from __future__ import annotations

import itertools
import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ModelError
from repro.families import build_model
from repro.serialize import wire_int, wire_number
from repro.spec import JOB_KINDS, JobSpec

__all__ = ["SweepCell", "SweepGrid", "load_grid_config", "expand_grid", "load_grid"]

#: Cartesian axes in expansion order (models vary slowest, seeds fastest).
AXIS_ORDER = ("size", "method", "workers", "replicas", "rounds")


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: its coordinates and the frozen spec that runs it."""

    index: int
    coords: dict
    spec: JobSpec

    @property
    def label(self) -> str:
        parts = [f"{key}={self.coords[key]}" for key in sorted(self.coords)]
        return " ".join(parts)


@dataclass
class SweepGrid:
    """The expanded grid plus the header metadata the result table carries."""

    name: str
    kind: str
    base_seed: int
    cells: list[SweepCell] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cells)


def load_grid_config(path: str | Path) -> dict:
    """Read a sweep config file (``.toml`` or ``.json``) into a plain dict."""
    path = Path(path)
    if not path.exists():
        raise ModelError(f"sweep config {path} does not exist")
    if path.suffix == ".toml":
        with open(path, "rb") as handle:
            return tomllib.load(handle)
    if path.suffix == ".json":
        with open(path) as handle:
            return json.load(handle)
    raise ModelError(
        f"sweep config must be a .toml or .json file, got {path.name!r}"
    )


def _model_label(entry: dict) -> str:
    if "name" in entry:
        return str(entry["name"])
    return f"{entry.get('family')}-{entry.get('graph', 'cycle')}"


def _seed_for_coordinate(coord_key, seed_map: dict, root: np.random.SeedSequence) -> int:
    """The canonical int seed of a coordinate, spawned in first-seen order.

    Each new coordinate consumes the next child of ``root`` (spawn order is
    deterministic state on the SeedSequence, so re-expanding the same
    config always reproduces the same assignment); the child's first two
    state words form the int seed ``JobSpec`` can canonicalise.
    """
    if coord_key not in seed_map:
        child = root.spawn(1)[0]
        seed_map[coord_key] = int.from_bytes(
            child.generate_state(2).tobytes(), "little"
        )
    return seed_map[coord_key]


def _checked(check, value, key: str):
    """``check(value, key)`` (``wire_int`` or ``wire_number``); a refusal is a ModelError."""
    try:
        return check(value, key)
    except (TypeError, ValueError) as error:
        raise ModelError(f"sweep config: {error}") from None


def _set_keys(sweep: dict, **checks) -> dict:
    """The ``[sweep]`` values the config sets, checked; the rest keep the ``JobSpec`` defaults."""
    return {key: _checked(check, sweep[key], key) for key, check in checks.items() if key in sweep}


def _cell_spec(
    sweep: dict,
    model,
    method: str,
    workers,
    replicas: int,
    rounds,
    seed: int,
    name: str,
) -> JobSpec:
    kind = sweep.get("kind", "sample_many")
    parallel = None if workers is None or workers < 0 else workers
    if kind == "sample_many":
        return JobSpec.sample_many(
            model,
            replicas,
            method=method,
            rounds=rounds,
            seed=seed,
            name=name,
            parallel=parallel,
            **_set_keys(sweep, eps=wire_number),
        )
    if kind == "tv_curve":
        checkpoints = sweep.get("checkpoints")
        if not checkpoints:
            raise ModelError("a tv_curve sweep needs [sweep] checkpoints = [...]")
        return JobSpec.tv_curve(
            model,
            [_checked(wire_int, c, "checkpoints") for c in checkpoints],
            method=method,
            replicas=replicas,
            seed=seed,
            name=name,
            parallel=parallel,
        )
    return JobSpec.mixing_time(
        model,
        method=method,
        replicas=replicas,
        seed=seed,
        name=name,
        parallel=parallel,
        **_set_keys(sweep, eps=wire_number, max_rounds=wire_int, stride=wire_int),
    )


def expand_grid(config: dict) -> SweepGrid:
    """Expand a sweep config dict into the full :class:`SweepGrid`.

    The cell count is ``len(models) * prod(len(axis) for axis in axes) *
    seeds``; cells are emitted with models varying slowest and the seed
    replicate fastest (the order is part of the contract — cell indices
    and seed assignment are stable across runs).
    """
    sweep = config.get("sweep")
    if not isinstance(sweep, dict):
        raise ModelError("sweep config needs a [sweep] table")
    kind = sweep.get("kind", "sample_many")
    if kind not in JOB_KINDS:
        raise ModelError(f"unknown sweep kind {kind!r}; choose from {JOB_KINDS}")
    models = sweep.get("models")
    if not models:
        raise ModelError("sweep config needs at least one [[sweep.models]] entry")
    labels = [_model_label(entry) for entry in models]
    if len(set(labels)) < len(labels):
        raise ModelError(f"[[sweep.models]] labels must differ (set name = ...), got {labels}")
    seeds = _checked(wire_int, sweep.get("seeds", 1), "seeds")
    if seeds < 1:
        raise ModelError(f"[sweep] seeds must be >= 1, got {seeds}")
    base_seed = _checked(wire_int, sweep.get("base_seed", 0), "base_seed")
    axes = dict(sweep.get("axes") or {})
    unknown = set(axes) - set(AXIS_ORDER)
    if unknown:
        raise ModelError(
            f"unknown sweep axes {sorted(unknown)}; choose from {AXIS_ORDER}"
        )
    values = {
        "size": [_checked(wire_int, v, "size") for v in axes.get("size", [sweep.get("size", 16)])],
        "method": [str(v) for v in axes.get("method", [sweep.get("method", "local-metropolis")])],
        # A null worker or round count (JSON) keeps its default meaning.
        "workers": [None if v is None else _checked(wire_int, v, "workers")
                    for v in axes.get("workers", [sweep.get("workers", -1)])],
        "replicas": [_checked(wire_int, v, "replicas")
                     for v in axes.get("replicas", [sweep.get("replicas", 64)])],
        "rounds": [None if v is None else _checked(wire_int, v, "rounds")
                   for v in axes.get("rounds", [sweep.get("rounds")])],
    }
    for axis, entries in values.items():
        if not entries:
            raise ModelError(f"sweep axis {axis!r} must not be empty")

    grid = SweepGrid(
        name=str(sweep.get("name", "sweep")), kind=kind, base_seed=base_seed
    )
    root = np.random.SeedSequence(base_seed)
    seed_map: dict = {}
    model_cache: dict = {}
    index = 0
    for entry, label in zip(models, labels):
        for size, method, workers, replicas, rounds in itertools.product(
            *(values[axis] for axis in AXIS_ORDER)
        ):
            cache_token = (label, size)
            if cache_token not in model_cache:
                model_cache[cache_token] = build_model(entry, size, base_seed)
            model = model_cache[cache_token]
            for seed_index in range(seeds):
                # The coordinate identifies the result bits; the worker
                # count is placement and deliberately left out, so sweeps
                # over worker counts share one seed (and one cache key
                # when the shard plan matches).
                coord_key = (
                    label,
                    size,
                    method,
                    workers is not None and workers >= 0,  # sharded?
                    replicas,
                    rounds,
                    seed_index,
                )
                seed = _seed_for_coordinate(coord_key, seed_map, root)
                coords = {
                    "model": label,
                    "size": size,
                    "method": method,
                    "workers": -1 if workers is None else workers,
                    "replicas": replicas,
                    "rounds": rounds,
                    "seed_index": seed_index,
                }
                spec = _cell_spec(
                    sweep,
                    model,
                    method,
                    workers,
                    replicas,
                    rounds,
                    seed,
                    name=f"{grid.name}[{index}]",
                )
                grid.cells.append(SweepCell(index=index, coords=coords, spec=spec))
                index += 1
    return grid


def load_grid(path: str | Path) -> SweepGrid:
    """Convenience: :func:`load_grid_config` then :func:`expand_grid`."""
    return expand_grid(load_grid_config(path))
