"""Same-seed engine twins: the grand coupling every coalescence claim rests on.

Two engines built with the same seed draw the same numbers, whatever
their state: the number of draws per round depends only on the model's
size, the replica count and the Luby ranks.  So two such engines started
apart ("twins") run a grand coupling — for LocalMetropolis, Lemma 4.4's
identical-proposal coupling — and replica ``r`` of one is coupled with
replica ``r`` of the other.  Every :data:`~repro.families.DISPATCH` row is
checked on the families it runs: the twins' generators stay in equal
states, and a replica pair that agrees keeps agreeing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chains.ensemble import EnsembleLocalMetropolisColoring
from repro.families import DISPATCH, FAMILIES, build_model, dispatch, methods_for
from repro.graphs import cycle_graph, torus_graph
from repro.mrf import proper_coloring_mrf

REPLICAS = 32
ROUNDS = 40
SEED = 4401

CELLS = [
    pytest.param(name, method, id=f"{name}-{method}")
    for name, family in FAMILIES.items()
    for method in methods_for(family.kind)
]


def _model(name: str):
    params = {param.name for param in FAMILIES[name].params}
    return build_model({"family": name, "graph": "cycle", **({"q": 4} if "q" in params else {})},
                       6, seed=0)


def _twins(row, model, starts, seed=SEED):
    return [row.ensemble(model, REPLICAS, initial=start, seed=seed) for start in starts]


def test_cells_cover_every_dispatch_row():
    rows = {dispatch(_model(name), method) for name, method in (cell.values for cell in CELLS)}
    assert rows == set(DISPATCH)


@pytest.mark.parametrize("name, method", CELLS)
def test_twins_share_draws_and_stay_coalesced(name, method):
    model = _model(name)
    row = dispatch(model, method)
    # Feasible starts (a heat-bath move from an infeasible one may have no
    # positive-mass spin): each twin's is a short run of its own seed.
    starts = [row.ensemble(model, REPLICAS, seed=seed).run(8) for seed in (1, 2)]
    starts[1][0] = starts[0][0]  # one pair agrees from the start
    first, second = _twins(row, model, starts)
    agreed = np.zeros(REPLICAS, dtype=bool)
    agreed[0] = True
    for _ in range(ROUNDS):
        first.advance(1)
        second.advance(1)
        assert first.rng.bit_generator.state == second.rng.bit_generator.state
        agree = (first.config == second.config).all(axis=1)
        assert agree[agreed].all(), "a coalesced replica pair separated"
        agreed |= agree


def test_colouring_twins_coalesce_on_the_torus():
    """q/Delta = 4.5: tens of rounds; each twin is a proper colouring by round 100."""
    mrf = proper_coloring_mrf(torus_graph(16, 16), 18)
    row = dispatch(mrf, "local-metropolis")
    assert row.ensemble is EnsembleLocalMetropolisColoring
    twins = _twins(row, mrf, [np.zeros(mrf.n, dtype=int), np.ones(mrf.n, dtype=int)], 0)
    step = 0
    while step < 500 and not np.array_equal(twins[0].config, twins[1].config):
        for twin in twins:
            twin.advance(1)
        step += 1
    assert step < 500
    for twin in twins:
        twin.advance(max(100 - step, 0))
        assert twin.is_feasible().all()


def test_colouring_twins_coalesce_on_a_long_cycle():
    mrf = proper_coloring_mrf(cycle_graph(64), 9)
    row = dispatch(mrf, "local-metropolis")
    first, second = _twins(row, mrf, [np.zeros(64, dtype=int), np.ones(64, dtype=int)], 2)
    first.advance(400)
    second.advance(400)
    assert np.array_equal(first.config, second.config)
