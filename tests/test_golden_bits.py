"""Golden result digests: seeded results pinned across commits.

The determinism suite compares two runs of *one* commit; nothing there
notices a refactor that changes which bits a seed produces.  This file
pins the sha256 digest of seeded :func:`repro.run_spec` results (and of a
few region-restricted engine runs) so that a change to engine set-up,
kernel arithmetic, RNG draw order or exact enumeration that moves a bit
fails here.  A change that *means* to move bits re-pins the digests and
says so in CHANGES.md.

The digests are numpy-backend bits, so the module is skipped when
``$REPRO_BACKEND`` resolves to another backend.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro
from repro import JobSpec
from repro.backend import resolve_backend_name
from repro.chains.ensemble import (
    EnsembleGlauberDynamics,
    EnsembleLocalMetropolisCSP,
    EnsembleLubyGlauberMRF,
)
from repro.csp import (
    dominating_set_csp,
    maximal_independent_set_csp,
    not_all_equal_csp,
)
from repro.errors import ReproError
from repro.graphs import cycle_graph, grid_graph, torus_graph
from repro.mrf import MRF, hardcore_mrf, ising_mrf


def _numpy_default() -> bool:
    try:
        return resolve_backend_name() == "numpy"
    except ReproError:
        return False


pytestmark = pytest.mark.skipif(
    not _numpy_default(), reason="golden digests are numpy-backend bits"
)

REPLICAS = 8
ROUNDS = 12


def digest(result) -> str:
    """sha256 of a result's exact bits: int64 array bytes, else its repr."""
    if isinstance(result, np.ndarray):
        data = np.ascontiguousarray(result, dtype=np.int64).tobytes()
    else:
        data = repr(result).encode()
    return hashlib.sha256(data).hexdigest()


def per_edge_mrf() -> MRF:
    """Ising-like MRF with a distinct random symmetric table on every edge."""
    graph = grid_graph(3, 4)
    rng = np.random.default_rng(5)
    tables = {}
    for u, v in graph.edges():
        raw = rng.uniform(0.2, 2.0, size=(3, 3))
        tables[(u, v)] = (raw + raw.T) / 2.0
    return MRF(graph, 3, tables, rng.uniform(0.5, 1.5, size=(12, 3)), name="per-edge")


def nae_mixed() -> object:
    """NAE hypergraph colouring with interleaved arities 2, 3 and 4."""
    scopes = [(0, 1, 2), (2, 3), (3, 4, 5, 6), (1, 5), (6, 7, 0), (4, 7)]
    return not_all_equal_csp(scopes, n=8, q=3)


def _sample(model, method, seed):
    return JobSpec.sample_many(model, REPLICAS, method=method, rounds=ROUNDS, seed=seed)


MODELS = {
    "hardcore": lambda: hardcore_mrf(torus_graph(4, 4), 0.7),
    "ising": lambda: ising_mrf(torus_graph(4, 4), 0.3, 1.2),
    "per-edge": per_edge_mrf,
    "domset": lambda: dominating_set_csp(torus_graph(4, 4)),
    "domset-weighted": lambda: dominating_set_csp(torus_graph(4, 4), 0.6),
    "nae": nae_mixed,
    "mis": lambda: maximal_independent_set_csp(cycle_graph(9)),
}

SPECS = {
    "hardcore-lg": lambda: _sample(MODELS["hardcore"](), "luby-glauber", 11),
    "hardcore-glauber": lambda: _sample(MODELS["hardcore"](), "glauber", 12),
    "ising-lg": lambda: _sample(MODELS["ising"](), "luby-glauber", 13),
    "ising-glauber": lambda: _sample(MODELS["ising"](), "glauber", 14),
    "ising-lm": lambda: _sample(MODELS["ising"](), "local-metropolis", 28),
    "per-edge-lg": lambda: _sample(MODELS["per-edge"](), "luby-glauber", 15),
    "per-edge-glauber": lambda: _sample(MODELS["per-edge"](), "glauber", 16),
    "per-edge-lm": lambda: _sample(MODELS["per-edge"](), "local-metropolis", 29),
    "domset-lm": lambda: _sample(MODELS["domset"](), "local-metropolis", 17),
    "domset-lg": lambda: _sample(MODELS["domset"](), "luby-glauber", 18),
    "domset-weighted-lm": lambda: _sample(MODELS["domset-weighted"](), "local-metropolis", 19),
    "domset-weighted-lg": lambda: _sample(MODELS["domset-weighted"](), "luby-glauber", 20),
    "nae-lm": lambda: _sample(MODELS["nae"](), "local-metropolis", 21),
    "nae-lg": lambda: _sample(MODELS["nae"](), "luby-glauber", 22),
    # Changing one vertex of a maximal independent set always gives a
    # zero-weight configuration, so both MIS chains stay at the greedy
    # start: these two pin the start and the filter / marginal evaluation
    # (their digests are equal), not a walk.
    "mis-lm": lambda: _sample(MODELS["mis"](), "local-metropolis", 23),
    "mis-lg": lambda: _sample(MODELS["mis"](), "luby-glauber", 24),
    "hardcore-lm-fallback": lambda: _sample(MODELS["hardcore"](), "local-metropolis", 25),
    # Convergence kinds also pin the exact enumeration of the target.
    "hardcore-mix": lambda: JobSpec.mixing_time(
        hardcore_mrf(grid_graph(3, 3), 0.5), eps=0.1, method="luby-glauber",
        replicas=512, seed=26,
    ),
    "nae-tv": lambda: JobSpec.tv_curve(
        nae_mixed(), [1, 2, 4, 8], method="local-metropolis", replicas=512, seed=27
    ),
}

GOLDEN = {
    "hardcore-lg": "6eac0d4eaa389bc2eac47606168218573a9783de820921061dc8063707f2a37f",
    "hardcore-glauber": "08681804ee6ade035f9a5b8e709b099ece3f910d90032f5ed30d85d187eee70e",
    "ising-lg": "187228002054df6465a9bb0015b405a5d3f961969dc99fe7ff30086bd2c218ba",
    "ising-glauber": "0b5464cecd73a772aafea618d7b44f985088bd87d4dd3cdea1e7e0f7ddbc4bdb",
    "ising-lm": "1d485827807bd2a39eeb4a56c6d1b52aee61259737dafa4506b60f745373647e",
    "per-edge-lg": "384fc01fa8487eac8c2bf524d6631f7cceeaa797519e976d6d238ba69e753b8a",
    "per-edge-glauber": "8846b396d6e4706af6acef59419d1f26650b83201e017f36ca037c829cfda251",
    "per-edge-lm": "42132922e0c1483a9923d8807eb339ceffea45e132df6c93c9a4bee5308515a0",
    "domset-lm": "53532c8c2c8b3e71ce5a9179c53d39f39b32249742c92ad38424bfafc9d0fd40",
    "domset-lg": "59969eb3d91472cee6ffa4ee0f0b1da97edd80c8c6f4adbce600253272dadfba",
    "domset-weighted-lm": "858fc8a08e8e7e37d1e39366fbfaae5cec4d88816817847f681923380be7f2dd",
    "domset-weighted-lg": "eadfc0210f16346b8ce90c7c5e51a5526fb85a6ecd7cc9268046e88669ab35e4",
    "nae-lm": "677421a84d604c89094fae9128a890d18d4b69d2293ae91755a2eb19a19426b2",
    "nae-lg": "1d39b4a840790b28404ee6dbefa2483bc5f696e7c470992884f406dd464c9989",
    "mis-lm": "4a305b401ef20371bc777b792953084d86248cda00f5bc089974e4b12bebd843",
    "mis-lg": "4a305b401ef20371bc777b792953084d86248cda00f5bc089974e4b12bebd843",
    "hardcore-lm-fallback": "2daa495dab7de1e31411064787cbb7d2f5a94696d420ebad374c5f0b9c2db523",
    "hardcore-mix": "031b4af5197ec30a926f48cf40e11a7dbc470048a21e4003b7a3c07c5dab1baa",
    "nae-tv": "569320bd81e23de737332d72241ed88bbaaaaff55512f415f0d197dc13c13fd5",
}

# Region-restricted advances: the heat-bath kernels on a clamped boundary,
# including the LocalMetropolis CSP engine's lazily built heat-bath path.
REGION = [1, 2, 5, 6, 7]
REGION_RUNS = {
    "glauber-region": lambda: EnsembleGlauberDynamics(
        MODELS["per-edge"](), REPLICAS, seed=31
    ).advance_region(ROUNDS, REGION).config,
    "lg-mrf-region": lambda: EnsembleLubyGlauberMRF(
        MODELS["per-edge"](), REPLICAS, seed=32
    ).advance_region(ROUNDS, REGION).config,
    "lm-csp-region": lambda: EnsembleLocalMetropolisCSP(
        nae_mixed(), REPLICAS, seed=33
    ).advance(3).advance_region(ROUNDS, REGION).config,
}

REGION_GOLDEN = {
    "glauber-region": "bf6927b832aa89719114c94037b63f71abc861a9a62db86aec01c30dfcda6905",
    "lg-mrf-region": "7cca218f52ee08b7f4902a33c5c884cfa5e85a1bc0866cca64071f5695a22d04",
    "lm-csp-region": "aaabe521bff3b1bda6ecf2805472ea4155eeb4fc1ec52c65075fab6381cee67d",
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_run_spec_digest_is_pinned(name):
    assert digest(repro.run_spec(SPECS[name]())) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(REGION_RUNS))
def test_region_advance_digest_is_pinned(name):
    assert digest(REGION_RUNS[name]()) == REGION_GOLDEN[name]
