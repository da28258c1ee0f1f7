"""Golden result digests: seeded results pinned across commits.

The determinism suite compares two runs of *one* commit; nothing there
notices a refactor that changes which bits a seed produces.  This file
pins the sha256 digest of seeded :func:`repro.run_spec` results (and of a
few region-restricted engine runs) so that a change to engine set-up,
kernel arithmetic, RNG draw order or exact enumeration that moves a bit
fails here.  A change that *means* to move bits re-pins the digests and
says so in CHANGES.md.  Every row of the dispatch table
(:data:`repro.families.DISPATCH`) must run at least one pinned spec.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro
from repro import JobSpec
from repro.chains.ensemble import (
    EnsembleGlauberDynamics,
    EnsembleLocalMetropolisColoring,
    EnsembleLocalMetropolisCSP,
    EnsembleLubyGlauberMRF,
)
from repro.csp import (
    dominating_set_csp,
    maximal_independent_set_csp,
    not_all_equal_csp,
)
from repro.distributed import (
    run_local_metropolis_csp_protocol,
    run_local_metropolis_protocol,
    run_luby_glauber_csp_protocol,
    run_luby_glauber_protocol,
)
from repro.families import DISPATCH, dispatch
from repro.graphs import cycle_graph, grid_graph, torus_graph
from repro.mrf import MRF, hardcore_mrf, ising_mrf, proper_coloring_mrf

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
    "coloring": lambda: proper_coloring_mrf(torus_graph(4, 4), 5),
    "hardcore": lambda: hardcore_mrf(torus_graph(4, 4), 0.7),
    "ising": lambda: ising_mrf(torus_graph(4, 4), 0.3, 1.2),
    "per-edge": per_edge_mrf,
    "domset": lambda: dominating_set_csp(torus_graph(4, 4)),
    "domset-weighted": lambda: dominating_set_csp(torus_graph(4, 4), 0.6),
    "nae": nae_mixed,
    "mis": lambda: maximal_independent_set_csp(cycle_graph(9)),
}

SPECS = {
    # Uniform colourings: the colouring engine runs LocalMetropolis, the
    # general MRF engines the other two methods.
    "coloring-lm": lambda: _sample(MODELS["coloring"](), "local-metropolis", 34),
    "coloring-lg": lambda: _sample(MODELS["coloring"](), "luby-glauber", 35),
    "coloring-glauber": lambda: _sample(MODELS["coloring"](), "glauber", 36),
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
    "coloring-lm": "4127db8f0e1954cdf337653854eb209ed08017eb3948a0796a68827552cfed27",
    "coloring-lg": "95d3a8c09279d75f1e1744dee087f73b214f32b083547e1d7f6ad762fd7c9142",
    "coloring-glauber": "aa6c3528c64758f7f9cb6456f5996de818308e828f1ca83af9985901de24ccdf",
    "hardcore-lg": "42ac45eeb31c23b8ff3292e1163e8405569966aefbc41bad2dab52d85e843b6b",
    "hardcore-glauber": "67b165781c7810851272c796341732b115a90736ec549fedc908e44bb0d81af0",
    "ising-lg": "198dac1953650cf0483191082b157efe3a9e40b40a630ba21f6910924355fbf8",
    "ising-glauber": "e25cbc69fc502117456ebb61076bf9e919d2ebfe2024d096c42d3da22565dfde",
    "ising-lm": "0fdf2f13917d1cea83f8762e86d60c56e658faa2d4a2bfce68873ce4d83bcb7d",
    "per-edge-lg": "2c781f7d421622d95c12e4a3352f49b69cd0e7fcaf1d78abe664ba422fabf89c",
    "per-edge-glauber": "1c3b935ad7510efca972b45520718cb08efb011cd83a44700cb64575f4b09c8c",
    "per-edge-lm": "e65f2e6bc82f8f25ab7d46d1b0768cb34b0656e3c9fddd6388d33fe1b17bf7f3",
    "domset-lm": "53532c8c2c8b3e71ce5a9179c53d39f39b32249742c92ad38424bfafc9d0fd40",
    "domset-lg": "59969eb3d91472cee6ffa4ee0f0b1da97edd80c8c6f4adbce600253272dadfba",
    "domset-weighted-lm": "858fc8a08e8e7e37d1e39366fbfaae5cec4d88816817847f681923380be7f2dd",
    "domset-weighted-lg": "eadfc0210f16346b8ce90c7c5e51a5526fb85a6ecd7cc9268046e88669ab35e4",
    "nae-lm": "677421a84d604c89094fae9128a890d18d4b69d2293ae91755a2eb19a19426b2",
    "nae-lg": "1d39b4a840790b28404ee6dbefa2483bc5f696e7c470992884f406dd464c9989",
    "mis-lm": "4a305b401ef20371bc777b792953084d86248cda00f5bc089974e4b12bebd843",
    "mis-lg": "4a305b401ef20371bc777b792953084d86248cda00f5bc089974e4b12bebd843",
    "hardcore-lm-fallback": "7c97f815462850e22309eac7985eb2bbadf161e5813fe8e0518b9acd210b9d51",
    "hardcore-mix": "76a50887d8f1c2e9301755428990ad81479ee21c25b43215cf524541e0503269",
    "nae-tv": "569320bd81e23de737332d72241ed88bbaaaaff55512f415f0d197dc13c13fd5",
}

# Region-restricted advances: the heat-bath kernels on a clamped boundary,
# including the LocalMetropolis engines' lazily built heat-bath paths.
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
    "lm-coloring-region": lambda: EnsembleLocalMetropolisColoring(
        MODELS["coloring"](), REPLICAS, seed=37
    ).advance(3).advance_region(ROUNDS, REGION).config,
}

REGION_GOLDEN = {
    "glauber-region": "457769449b7d10fb909a2e202af473e3e5b1b5f211b5c475ba0a14c1d299a4e1",
    "lg-mrf-region": "f02835b1567057ba774d301f7c7b03d56b3cd44d62b2784e46f17016ceffc53e",
    "lm-csp-region": "aaabe521bff3b1bda6ecf2805472ea4155eeb4fc1ec52c65075fab6381cee67d",
    "lm-coloring-region": "37127004b4c3822b7f3f3dc5b23e8d6ce3c873e7c868a92bb78f7becb055a7fa",
}

# The reference LOCAL protocols: the per-node runtime's output bits and its
# measured round, message and payload accounting.
PROTOCOL_RUNS = {
    "lg-protocol": lambda: run_luby_glauber_protocol(per_edge_mrf(), ROUNDS, seed=39),
    "lm-protocol": lambda: run_local_metropolis_protocol(per_edge_mrf(), ROUNDS, seed=40),
    "lg-csp-protocol": lambda: run_luby_glauber_csp_protocol(nae_mixed(), ROUNDS, seed=41),
    "lm-csp-protocol": lambda: run_local_metropolis_csp_protocol(
        nae_mixed(), ROUNDS, seed=42
    ),
}

# name -> (digest, rounds, messages, max_message_atoms)
PROTOCOL_GOLDEN = {
    "lg-protocol": (
        "e1cdeba9728021054395d256aedf67458742af8271a86e5a822a51fb46444672", 12, 408, 2
    ),
    "lm-protocol": (
        "9b7c61a3cc34fcb617f57532b7bd0e2427e28ae09b8c2c7d9a2a6290f3f41292", 12, 408, 3
    ),
    "lg-csp-protocol": (
        "db9e984b6b1c1a032e86361963a6fd004b4e74708ef37e47835851731c8b64ca", 12, 360, 2
    ),
    "lm-csp-protocol": (
        "8fec26667daddc44300d096b81a507bdbf8a6c45dfd59d91eac4d8dde07f221a", 12, 360, 6
    ),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_run_spec_digest_is_pinned(name):
    assert digest(repro.run_spec(SPECS[name]())) == GOLDEN[name]


def test_every_dispatch_row_has_a_pinned_digest():
    """A new :data:`repro.families.DISPATCH` row fails here until a SPECS entry pins it."""
    pinned = {dispatch(spec.model, spec.method) for spec in (make() for make in SPECS.values())}
    missing = [
        f"{row.kind}/{row.method}/{row.ensemble.__name__} when={row.when}"
        for row in DISPATCH
        if row not in pinned
    ]
    assert not missing, f"dispatch rows with no pinned digest: {missing}"


@pytest.mark.parametrize("name", sorted(REGION_RUNS))
def test_region_advance_digest_is_pinned(name):
    assert digest(REGION_RUNS[name]()) == REGION_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(PROTOCOL_RUNS))
def test_reference_protocol_digest_is_pinned(name):
    config, stats = PROTOCOL_RUNS[name]()
    assert (
        digest(config), stats.rounds, stats.messages, stats.max_message_atoms
    ) == PROTOCOL_GOLDEN[name]
