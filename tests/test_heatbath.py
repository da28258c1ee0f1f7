"""The shared heat-bath kernel: padded weight loop and inverse-CDF sampler.

Glauber and LubyGlauber, on MRFs and CSPs alike, assemble conditional
weights by walking padded neighbour (or constraint-incidence) positions,
with pad slots reading all-ones factor rows, and all draw spins with one
column-by-column inverse-CDF sampler.  The LocalMetropolis engines run the
same kernel in their region advances, and the general one draws an MRF's
``b_v`` proposals with the same sampler.  The benchmark models are regular,
so these tests use models whose padded tables are mostly pads: an
isolated vertex, leaves and a hub, per-edge tables with zero entries, and
a CSP vertex in no constraint.
"""

from __future__ import annotations

import numpy as np
import pytest
from statutils import assert_stationary, clamped

from repro.chains.cftp import _inverse_cdf_spin
from repro.chains.coupling import CoupledLocalMetropolis
from repro.chains.ensemble import (
    EnsembleGlauberDynamics,
    EnsembleLocalMetropolis,
    EnsembleLubyGlauber,
    _heatbath_spins,
)
from repro.chains.glauber import sample_spin
from repro.chains.local_metropolis import LocalMetropolisChain
from repro.csp import (
    Constraint,
    LocalCSP,
    dominating_set_csp,
    maximal_independent_set_csp,
    mrf_as_csp,
)
from repro.csp.model import exact_csp_gibbs_distribution
from repro.distributed.sampling_protocols import LocalMetropolisProtocol, SamplingInput
from repro.dynamic import sequential_region_glauber
from repro.errors import ModelError
from repro.graphs import cycle_graph, grid_graph, path_graph, star_graph, torus_graph
from repro.local.protocol import NodeContext
from repro.mrf import MRF, hardcore_mrf, ising_mrf, list_coloring_mrf, proper_coloring_mrf
from repro.mrf.distribution import exact_gibbs_distribution
from repro.mrf.marginals import conditional_marginal_unnormalized

REPLICAS = 4000
NEAR_ONE = np.nextafter(1.0, 0.0)


def uneven_mrf() -> MRF:
    """Hub 0 with leaves 1 and 2, a path 0-3-4, and isolated vertex 5.

    Every edge has its own symmetric table with zero entries among spins
    1 and 2; spin 0 is compatible with everything, so every conditional
    marginal is defined.
    """
    graph = star_graph(3)
    graph.add_edge(3, 4)
    graph.add_node(5)
    rng = np.random.default_rng(41)
    tables = {}
    for u, v in graph.edges():
        raw = rng.uniform(0.3, 2.0, size=(3, 3))
        table = raw + raw.T
        table[1, 2] = table[2, 1] = 0.0
        if u == 0:
            table[2, 2] = 0.0
        tables[(u, v)] = table
    return MRF(graph, 3, tables, rng.uniform(0.5, 1.5, size=(6, 3)), name="uneven")


def uneven_csp() -> LocalCSP:
    """Arities 1-3 with vertex 0 in three constraints and vertex 3 in none.

    Every table vanishes where all of its scope reads spin 2, so spin 0 is
    always allowed.
    """
    rng = np.random.default_rng(42)
    constraints = []
    for scope in [(0, 1), (2, 0, 4), (0,), (1, 4)]:
        table = rng.uniform(0.2, 1.5, size=(3,) * len(scope))
        if len(scope) > 1:
            table[(2,) * len(scope)] = 0.0
        constraints.append(Constraint(scope, table))
    return LocalCSP(5, 3, constraints)


#: Models whose heat-bath rows are compared with the sequential oracles.
MRF_ROW_CASES = {
    "uneven": uneven_mrf,
    "ising-grid": lambda: ising_mrf(grid_graph(3, 4), 0.6, 0.4),  # pads at the border
}
CSP_ROW_CASES = {
    "uneven": uneven_csp,
    # Arity-5 covers, then one unary weight factor per vertex.
    "weighted-domset": lambda: dominating_set_csp(torus_graph(4, 4), 0.6),
    # Independence pairs, then covers of arity 3 to 5.
    "mis-grid": lambda: maximal_independent_set_csp(grid_graph(3, 4)),
    # The edges, then one unary factor per vertex.
    "ising-as-csp": lambda: mrf_as_csp(ising_mrf(grid_graph(3, 3), 0.6, 0.4)),
}


#: MRFs that LubyGlauber must sample bit for bit alike as ``mrf_as_csp`` of themselves.
TWIN_RECORD_CASES = {
    "hardcore-torus": lambda: hardcore_mrf(torus_graph(6, 6), 0.7),
    "ising-field-grid": lambda: ising_mrf(grid_graph(5, 4), 1.3, 0.6),
    "coloring-c7": lambda: proper_coloring_mrf(cycle_graph(7), 4),
    "list-coloring-c5": lambda: list_coloring_mrf(
        cycle_graph(5), 4, {v: [v % 4, (v + 1) % 4, (v + 3) % 4] for v in range(5)}
    ),
}


class FixedUniforms:
    """Delegating RNG whose float64 uniforms all equal ``value``."""

    def __init__(self, inner, value=NEAR_ONE):
        self._inner = inner
        self._value = value

    def random(self, size=None, dtype=np.float64):
        if dtype == np.float64:
            return self._value if size is None else np.full(size, self._value)
        return self._inner.random(size, dtype=dtype)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestLawAgainstExactGibbs:
    def test_padded_models_exercise_pads(self):
        for model, n in ((uneven_mrf(), 6), (uneven_csp(), 5)):
            slots = model.compiled().heatbath_slots
            assert len(slots) == 3 and all(starts.shape == (n,) for starts, _ in slots)

    def test_glauber(self):
        mrf = uneven_mrf()
        ensemble = EnsembleGlauberDynamics(mrf, REPLICAS, seed=101)
        assert_stationary(ensemble.run(250), exact_gibbs_distribution(mrf))

    def test_luby_glauber_mrf(self):
        mrf = uneven_mrf()
        ensemble = EnsembleLubyGlauber(mrf, REPLICAS, seed=102)
        assert_stationary(ensemble.run(80), exact_gibbs_distribution(mrf))

    def test_luby_glauber_csp(self):
        csp = uneven_csp()
        ensemble = EnsembleLubyGlauber(csp, REPLICAS, seed=103)
        assert_stationary(ensemble.run(80), exact_csp_gibbs_distribution(csp))

    @pytest.mark.parametrize(
        "cls, steps",
        [
            (EnsembleGlauberDynamics, 200),
            (EnsembleLubyGlauber, 80),
            (EnsembleLocalMetropolis, 80),
        ],
    )
    def test_mrf_region_advance_samples_the_clamped_law(self, cls, steps):
        mrf = uneven_mrf()
        start = np.array([0, 1, 2, 1, 0, 2])
        region = [0, 1, 4]  # the hub, a leaf, and a leaf whose neighbour is clamped
        ensemble = cls(mrf, REPLICAS, initial=start, seed=104)
        batch = ensemble.advance_region(steps, region).config
        assert_stationary(batch, clamped(exact_gibbs_distribution(mrf), start, region))

    @pytest.mark.parametrize("cls", [EnsembleLubyGlauber, EnsembleLocalMetropolis])
    def test_csp_region_advance_samples_the_clamped_law(self, cls):
        csp = uneven_csp()
        start = np.array([0, 2, 1, 2, 0])
        region = [0, 3, 4]  # vertex 3 is in no constraint
        ensemble = cls(csp, REPLICAS, initial=start, seed=105)
        batch = ensemble.advance_region(80, region).config
        assert_stationary(batch, clamped(exact_csp_gibbs_distribution(csp), start, region))


class TestWeightRows:
    @pytest.mark.parametrize("make", list(MRF_ROW_CASES.values()), ids=list(MRF_ROW_CASES))
    @pytest.mark.parametrize(
        "cls", [EnsembleGlauberDynamics, EnsembleLubyGlauber, EnsembleLocalMetropolis]
    )
    def test_mrf_rows_equal_the_sequential_oracle(self, cls, make):
        """((b_v * A_1) * A_2) ... over ascending neighbours, pads multiplying by one."""
        mrf = make()
        replicas = 32
        configs = np.random.default_rng(7).integers(0, mrf.q, size=(replicas, mrf.n))
        ensemble = cls(mrf, replicas, initial=configs, seed=0)
        ensemble._ensure_heatbath_structures()
        rows = np.arange(replicas)
        for v in range(mrf.n):
            got = ensemble._heatbath_weights(np.full(replicas, v), rows)
            expected = np.array(
                [conditional_marginal_unnormalized(mrf, configs[r], v) for r in range(replicas)]
            )
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("make", list(CSP_ROW_CASES.values()), ids=list(CSP_ROW_CASES))
    @pytest.mark.parametrize("cls", [EnsembleLubyGlauber, EnsembleLocalMetropolis])
    def test_csp_rows_equal_the_sequential_marginal(self, cls, make):
        csp = make()
        replicas = 32
        configs = np.random.default_rng(8).integers(0, csp.q, size=(replicas, csp.n))
        ensemble = cls(csp, replicas, initial=configs, seed=0)
        ensemble._ensure_heatbath_structures()
        rows = np.arange(replicas)
        defined = 0
        for v in range(csp.n):
            got = ensemble._heatbath_weights(np.full(replicas, v), rows)
            for r in range(replicas):
                if not got[r].any():  # a hard constraint leaves no spin
                    with pytest.raises(ModelError, match="zero mass"):
                        csp.conditional_marginal(configs[r], v)
                    continue
                expected = csp.conditional_marginal(configs[r], v)
                np.testing.assert_array_equal(got[r] / got[r].sum(), expected)
                defined += 1
        assert defined >= replicas

    @pytest.mark.parametrize(
        "make", [uneven_mrf, lambda: proper_coloring_mrf(torus_graph(4, 4), 5)],
        ids=["per-edge-tables", "one-table"],
    )
    def test_mrf_rows_hold_one_block_per_palette_table(self, make):
        """Both ends of an edge read its symmetric table's one block: the palette's columns."""
        compiled = make().compiled()
        tables, q = compiled.palette.shape[0], compiled.q
        rows = compiled.heatbath_rows
        assert rows.shape == (tables * q + 1, q)
        np.testing.assert_array_equal(
            rows[:-1].reshape(tables, q, q), compiled.palette.transpose(0, 2, 1)
        )
        np.testing.assert_array_equal(rows[-1], np.ones(q))


class TestOneEngineOnBothRecords:
    @pytest.mark.parametrize(
        "make", list(TWIN_RECORD_CASES.values()), ids=list(TWIN_RECORD_CASES)
    )
    def test_luby_glauber_bits_equal_on_an_mrf_and_its_csp(self, make):
        """``b_v`` comes from the record: the MRF's activities, or its CSP's unary constraints.

        Both records give the same start, conflict graph and conditional
        weights, so the bits agree; an engine that dropped ``b_v`` on either
        record fails the hardcore, Ising and list-colouring cases.
        """
        mrf = make()
        batches = []
        for model in (mrf, mrf_as_csp(mrf)):
            ensemble = EnsembleLubyGlauber(model, 16, seed=17)
            batches.append(ensemble.run(30))
            batches.append(ensemble.advance_region(20, range(1, mrf.n, 2)).config)
        np.testing.assert_array_equal(batches[0], batches[2])
        np.testing.assert_array_equal(batches[1], batches[3])


class TestSampler:
    # Ten equal masses and a zero: the cumulative sum of ten 0.1s rounds to
    # just below 1, so a near-one uniform passes every cumulative entry.
    TAIL = np.array([1.0] * 10 + [0.0])

    def test_sequential_sample_spin_skips_a_zero_mass_tail(self):
        rng = FixedUniforms(np.random.default_rng(0))
        assert np.cumsum(self.TAIL / 10)[-1] <= NEAR_ONE
        assert sample_spin(self.TAIL / 10, rng) == 9

    def test_shared_sampler_skips_a_zero_mass_tail(self):
        weights = np.array([self.TAIL, self.TAIL[::-1], np.r_[self.TAIL[:5], 0.0, self.TAIL[5:-1]]])
        spins = _heatbath_spins(
            FixedUniforms(np.random.default_rng(0)), weights, np.arange(3), ModelError
        )
        # Largest positive-mass spin of each row.
        assert spins.tolist() == [9, 10, 10]

    def test_glauber_ensemble_skips_a_zero_mass_tail(self):
        mrf = MRF(path_graph(1), 11, np.ones((11, 11)), self.TAIL)
        ensemble = EnsembleGlauberDynamics(mrf, 4, seed=0)
        ensemble.rng = FixedUniforms(ensemble.rng)
        ensemble.step()
        np.testing.assert_array_equal(ensemble.config, 9)

    def test_local_metropolis_proposals_skip_a_zero_mass_tail(self):
        """The sequential, coupled and LOCAL oracles and the batched engine."""
        mrf = MRF(path_graph(1), 11, np.ones((11, 11)), self.TAIL)

        def near_one(owner):
            owner.rng = FixedUniforms(owner.rng)
            return owner

        assert near_one(LocalMetropolisChain(mrf, seed=0))._propose().tolist() == [9]
        coupled = near_one(CoupledLocalMetropolis(mrf, [0], [0], seed=0))
        assert coupled._shared_proposals().tolist() == [9]
        node = NodeContext(
            0, (), FixedUniforms(np.random.default_rng(0)),
            SamplingInput(11, self.TAIL, {}, 0), 1, 0,
        )
        protocol = LocalMetropolisProtocol()
        protocol.initialize(node)
        protocol.compose(node, 0)
        assert node.state["proposal"] == 9
        ensemble = near_one(EnsembleLocalMetropolis(mrf, 4, seed=0))
        ensemble.step()
        np.testing.assert_array_equal(ensemble.config, 9)

    def test_sequential_region_glauber_skips_a_zero_mass_head(self):
        """A uniform of exactly 0 must not draw the zero-mass spin 0."""
        mrf = MRF(path_graph(1), 2, np.ones((2, 2)), np.array([[0.0, 1.0]]))
        rng = FixedUniforms(np.random.default_rng(0), 0.0)
        batch = sequential_region_glauber(mrf, np.zeros((3, 1), dtype=np.int64), [0], 1, rng)
        assert batch.tolist() == [[1], [1], [1]]

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 11])
    def test_shared_sampler_follows_the_scalar_rule(self, q):
        """Column-by-column draws == the sequential inverse CDF, one uniform per row."""
        rng = np.random.default_rng(q)
        weights = rng.random((500, q)) * (rng.random((500, q)) < 0.7)
        weights[:, 0] += 0.1  # every row has positive mass
        uniforms = np.random.default_rng(99).random(500)
        spins = _heatbath_spins(np.random.default_rng(99), weights, np.arange(500), ModelError)
        expected = [
            _inverse_cdf_spin(row / row.sum(), u) for row, u in zip(weights, uniforms)
        ]
        assert spins.tolist() == expected

    def test_zero_weight_row_names_its_vertex(self):
        weights = np.array([[1.0, 2.0], [0.0, 0.0]])

        def undefined(vertex):
            return ModelError(f"vertex {vertex}")

        with pytest.raises(ModelError, match="vertex 7"):
            _heatbath_spins(np.random.default_rng(0), weights, np.array([3, 7]), undefined)
