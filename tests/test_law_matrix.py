"""The law matrix: every family, under every method it allows, on every path.

The cells are generated from the two tables of :mod:`repro.families`:
each registry family (``FAMILIES``) on a 4-vertex path, under each method
the dispatch table (``DISPATCH``) runs on its model kind, along three
paths —

* ``advance``: the in-process engine :func:`repro.make_ensemble` builds;
* ``region``: the same engine's ``advance_region`` over vertices 0-2 with
  vertex 3 clamped at the start, against the clamped exact law;
* ``sharded``: the sharded engine (``parallel=0``, in process), in two
  shards with their own spawned streams.

Each cell checks the final batch against the exact Gibbs distribution with
:func:`statutils.assert_stationary`.  A new family or dispatch row gets its
cells here with no edit.  The round count is explicit and leaves a margin
over mixing: LocalMetropolis on hardcore with lambda = 1.5 on the 4-cycle
still reads TV 0.11 at 60 rounds (its default budget is 36) and 0.015 at
200.
"""

from __future__ import annotations

import zlib

import pytest
from statutils import assert_stationary, clamped

import repro
from repro.api import _exact_distribution
from repro.families import FAMILIES, build_model, methods_for

REPLICAS = 4000
ROUNDS = 200
SIZE = 4
REGION = [0, 1, 2]
PATHS = ("advance", "region", "sharded")

#: Parameter values that keep exact enumeration small: four colours give
#: at most 4**4 states on the path and list colourings lists of three (with
#: two, a path's lists can split its colourings into classes that no move
#: connects).  Every other parameter takes the registry default.
SMALL = {"q": 4}

MIS_FROZEN = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="MIS is frozen: every one-vertex change of a maximal independent "
    "set has zero weight, so the chains never leave their start",
)


def family_model(name: str):
    """Family ``name`` on a 4-vertex path, with the :data:`SMALL` values it takes."""
    params = {param.name for param in FAMILIES[name].params}
    entry = {"family": name, "graph": "path"}
    entry.update({key: value for key, value in SMALL.items() if key in params})
    return build_model(entry, SIZE, seed=0)


CELLS = [
    pytest.param(
        name, method, path,
        id=f"{name}-{method}-{path}",
        marks=MIS_FROZEN if name == "mis" else (),
    )
    for name, family in FAMILIES.items()
    for method in methods_for(family.kind)
    for path in PATHS
]


def test_every_family_builds_its_kind():
    for name, family in FAMILIES.items():
        model = family_model(name)
        assert (family.kind == "csp") == isinstance(model, repro.LocalCSP), name


@pytest.mark.parametrize("name, method, path", CELLS)
def test_law(name, method, path):
    seed = zlib.crc32(f"{name}-{method}-{path}".encode())  # one stream per cell
    model = family_model(name)
    exact = _exact_distribution(model)
    if path == "sharded":
        with repro.make_ensemble(
            model, REPLICAS, method=method, seed=seed, parallel=0, shard_size=REPLICAS // 2
        ) as ensemble:
            batch = ensemble.run(ROUNDS)
    else:
        ensemble = repro.make_ensemble(model, REPLICAS, method=method, seed=seed)
        if path == "advance":
            batch = ensemble.run(ROUNDS)
        else:
            start = ensemble.config[0]
            exact = clamped(exact, start, REGION)
            batch = ensemble.advance_region(ROUNDS, REGION).config
    assert_stationary(batch, exact)
