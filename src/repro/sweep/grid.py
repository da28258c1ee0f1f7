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

Besides its own keys (:data:`GRID_KEYS`: the ones above, plus a scalar
for each axis), ``[sweep]`` holds job parameters of its kind, as
:data:`repro.spec.JOB_PARAMS` declares them: ``rounds`` and ``eps`` for
``sample_many``, ``checkpoints`` for ``tv_curve``, and ``eps``,
``max_rounds`` and ``stride`` for ``mixing_time`` (``replicas`` is an
axis of every kind, ``rounds`` one of ``sample_many``).

:func:`expand_grid` turns that into a :class:`SweepGrid` of
:class:`SweepCell` entries, each carrying a frozen
:class:`~repro.spec.JobSpec` ready for :func:`repro.api.run_spec`, a
:class:`~repro.exec.jobs.JobRunner` or a running ``repro.serve`` daemon.
:meth:`~repro.spec.JobSpec.from_params` builds each spec, so a key the
kind does not take (a misspelt one too) is refused by name, and a
parameter the config leaves unset takes the ``JobSpec`` constructor's
default.

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
from repro.serialize import wire_int
from repro.spec import JobSpec

__all__ = ["SweepCell", "SweepGrid", "load_grid_config", "expand_grid", "load_grid"]

#: Cartesian axes in expansion order (models vary slowest, seeds fastest).
AXIS_ORDER = ("size", "method", "workers", "replicas", "rounds")

#: The ``[sweep]`` keys of the grid itself.  Every other key is a job
#: parameter of the sweep's kind (:data:`repro.spec.JOB_PARAMS`), and
#: :meth:`~repro.spec.JobSpec.from_params` refuses one the kind does not take.
GRID_KEYS = ("name", "kind", "base_seed", "seeds", "models", "axes", *AXIS_ORDER)


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


def _checked(value, key: str, least: int | None = None) -> int:
    """``value`` as an int (:func:`~repro.serialize.wire_int`), at least ``least``."""
    try:
        value = wire_int(value, key)
    except TypeError as error:
        raise ModelError(f"sweep config: {error}") from None
    if least is not None and value < least:
        raise ModelError(f"sweep config: {key} must be >= {least}, got {value}")
    return value


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
    models = sweep.get("models")
    if not models:
        raise ModelError("sweep config needs at least one [[sweep.models]] entry")
    labels = [_model_label(entry) for entry in models]
    if len(set(labels)) < len(labels):
        raise ModelError(f"[[sweep.models]] labels must differ (set name = ...), got {labels}")
    seeds = _checked(sweep.get("seeds", 1), "seeds", least=1)
    base_seed = _checked(sweep.get("base_seed", 0), "base_seed", least=0)
    axes = dict(sweep.get("axes") or {})
    unknown = set(axes) - set(AXIS_ORDER)
    if unknown:
        raise ModelError(
            f"unknown sweep axes {sorted(unknown)}; choose from {AXIS_ORDER}"
        )
    values = {
        "size": [_checked(v, "size") for v in axes.get("size", [sweep.get("size", 16)])],
        "method": [str(v) for v in axes.get("method", [sweep.get("method", "local-metropolis")])],
        # A null worker or round count (JSON) keeps its default meaning;
        # workers = -1 runs unsharded.
        "workers": [None if v is None else _checked(v, "workers", least=-1)
                    for v in axes.get("workers", [sweep.get("workers", -1)])],
        "replicas": [_checked(v, "replicas")
                     for v in axes.get("replicas", [sweep.get("replicas", 64)])],
        "rounds": [None if v is None else _checked(v, "rounds")
                   for v in axes.get("rounds", [sweep.get("rounds")])],
    }
    for axis, entries in values.items():
        if not entries:
            raise ModelError(f"sweep axis {axis!r} must not be empty")
    params = {key: value for key, value in sweep.items() if key not in GRID_KEYS}

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
                coords = {
                    "model": label,
                    "size": size,
                    "method": method,
                    "workers": -1 if workers is None else workers,
                    "replicas": replicas,
                    "rounds": rounds,
                    "seed_index": seed_index,
                }
                # The coordinate identifies the result bits; the worker
                # count is placement and deliberately left out (only
                # whether the cell is sharded counts), so sweeps over
                # worker counts share one seed (and one cache key when
                # the shard plan matches).
                coord_key = tuple(dict(coords, workers=coords["workers"] >= 0).values())
                seed = _seed_for_coordinate(coord_key, seed_map, root)
                cell_params = dict(params, replicas=replicas)
                if rounds is not None:  # unset: the kind's default, or no rounds at all
                    cell_params["rounds"] = rounds
                spec = JobSpec.from_params(
                    kind,
                    model,
                    cell_params,
                    method=method,
                    seed=seed,
                    name=f"{grid.name}[{index}]",
                    parallel=None if workers is None or workers < 0 else workers,
                )
                grid.cells.append(SweepCell(index=index, coords=coords, spec=spec))
                index += 1
    return grid


def load_grid(path: str | Path) -> SweepGrid:
    """Convenience: :func:`load_grid_config` then :func:`expand_grid`."""
    return expand_grid(load_grid_config(path))
