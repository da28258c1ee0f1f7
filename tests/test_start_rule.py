"""One start rule: without ``initial`` every path starts at the greedy start.

Algorithms 1 and 2 start from an arbitrary configuration (line 1).  Here
that configuration is ``model.compiled().greedy_start`` — the smallest
allowed spin per vertex, in vertex order — reached through
:func:`repro.chains.base.start_config`, and it draws no random number.
Every :data:`~repro.families.DISPATCH` row is checked on the families it
runs, at zero rounds: its batched engine unsharded and at ``parallel=0``
with several shards, its sequential chain and its LOCAL protocol.  So a
sharded run, an unsharded run and the oracles of one model start alike.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.families import DISPATCH, FAMILIES, build_model, dispatch, methods_for

REPLICAS = 8
SHARD_SIZE = 3
SEED = 2701

CELLS = [
    pytest.param(name, method, id=f"{name}-{method}")
    for name, family in FAMILIES.items()
    for method in methods_for(family.kind)
]


def _model(name: str):
    params = {param.name for param in FAMILIES[name].params}
    return build_model({"family": name, "graph": "cycle", **({"q": 4} if "q" in params else {})},
                       12, seed=0)


def _fresh_state(seed: int) -> dict:
    return np.random.default_rng(seed).bit_generator.state


def test_cells_cover_every_dispatch_row():
    rows = {dispatch(_model(name), method) for name, method in (cell.values for cell in CELLS)}
    assert rows == set(DISPATCH)


@pytest.mark.parametrize("name, method", CELLS)
def test_every_path_starts_at_the_greedy_start(name, method):
    model = _model(name)
    row = dispatch(model, method)
    start = model.compiled().greedy_start
    batch = np.tile(start, (REPLICAS, 1))

    engine = repro.make_ensemble(model, REPLICAS, method, seed=SEED)
    assert type(engine) is row.ensemble
    np.testing.assert_array_equal(engine.config, batch)
    assert engine.rng.bit_generator.state == _fresh_state(SEED), "the start drew a number"

    with repro.make_ensemble(
        model, REPLICAS, method, seed=SEED, parallel=0, shard_size=SHARD_SIZE
    ) as sharded:
        assert sharded.num_shards >= 2
        np.testing.assert_array_equal(sharded.config, batch)

    chain = row.chain(model, seed=SEED)
    np.testing.assert_array_equal(chain.config, start)
    assert chain.rng.bit_generator.state == _fresh_state(SEED), "the start drew a number"

    if row.local is not None:
        config, stats = row.local_runner()(model, 0, seed=SEED)
        assert stats.rounds == 0
        np.testing.assert_array_equal(config, start)
