"""Dynamic graphs: mutation API, influenced regions, incremental resampling.

The headline claim — resampling only a mutation's influenced region (with
the boundary clamped) is *distributionally equivalent* to a full re-run on
the mutated model — is checked per engine family with the statutils
two-sample chi-square test on models built so the influenced region covers
the entire mutated component: the untouched component keeps its exact
marginal (its factors did not change), and the region re-mixes to the
exact conditional given the clamp, so the incremental batch and a
from-scratch batch on the mutated model must share one law.

The rest of the file pins down the mechanics: copy-on-write model
mutations (fresh fingerprints, frozen originals), influenced-region
geometry over the union adjacency, region round budgets, the sequential
oracle, boundary clamping of the batched ``advance_region`` kernels, and
the :func:`repro.api.mutate` / :func:`repro.api.resample_region` facades.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import MUTATIONS, mutate, resample_region
from repro.csp.builders import coloring_csp
from repro.csp.model import Constraint, LocalCSP
from repro.dynamic import (
    DynamicEnsemble,
    influenced_region,
    region_round_budget,
    sequential_region_glauber,
)
from repro.errors import ModelError
from repro.graphs import cycle_graph, path_graph
from repro.mrf import ising_mrf, proper_coloring_mrf

from statutils import assert_same_distribution

SEED = 20170625


def _two_components(second_edge: bool) -> nx.Graph:
    """Vertices 0..3 with edge (0, 1); edge (2, 3) only when asked."""
    graph = nx.Graph()
    graph.add_nodes_from(range(4))
    graph.add_edge(0, 1)
    if second_edge:
        graph.add_edge(2, 3)
    return graph


def _coloring_pair():
    return (
        proper_coloring_mrf(_two_components(False), 3),
        proper_coloring_mrf(_two_components(True), 3),
    )


def _ising_pair(field: float = 1.0):
    return (
        ising_mrf(_two_components(False), beta=2.0, field=field),
        ising_mrf(_two_components(True), beta=2.0, field=field),
    )


def _csp_pair():
    neq = np.ones((3, 3)) - np.eye(3)
    base = [Constraint((0, 1), neq)]
    extra = Constraint((2, 3), neq)
    return (
        LocalCSP(4, 3, base),
        LocalCSP(4, 3, [*base, extra]),
        extra,
    )


def _add_edge(dyn: DynamicEnsemble) -> None:
    dyn.add_edge(2, 3)


# One case per engine family: (models, mutation, method).
EQUIVALENCE_CASES = {
    "coloring-luby-glauber": (_coloring_pair, _add_edge, "luby-glauber"),
    "coloring-local-metropolis": (_coloring_pair, _add_edge, "local-metropolis"),
    "mrf-glauber": (_ising_pair, _add_edge, "glauber"),
    "mrf-luby-glauber": (_ising_pair, _add_edge, "luby-glauber"),
    "mrf-local-metropolis": (
        lambda: _ising_pair(field=0.6),
        _add_edge,
        "local-metropolis",
    ),
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
def test_incremental_resampling_matches_full_rerun(name):
    make_pair, apply_mutation, method = EQUIVALENCE_CASES[name]
    initial, mutated = make_pair()
    dyn = DynamicEnsemble(initial, 1200, method=method, radius=2, seed=SEED)
    dyn.mix()
    apply_mutation(dyn)
    assert dyn.model_fingerprint() == mutated.model_fingerprint()
    dyn.resample()
    full = repro.sample_many(mutated, 1200, method=method, seed=SEED + 1)
    assert_same_distribution(dyn.config, full, initial.q)


@pytest.mark.parametrize("method", ["luby-glauber", "local-metropolis"])
def test_incremental_resampling_matches_full_rerun_csp(method):
    initial, mutated, extra = _csp_pair()
    dyn = DynamicEnsemble(initial, 1200, method=method, radius=2, seed=SEED)
    dyn.mix()
    dyn.add_constraint(extra)
    assert dyn.model_fingerprint() == mutated.model_fingerprint()
    dyn.resample()
    full = repro.sample_many(mutated, 1200, method=method, seed=SEED + 1)
    assert_same_distribution(dyn.config, full, initial.q)


def test_incremental_removal_matches_full_rerun():
    """The reverse direction: deleting a factor, not adding one."""
    mutated, initial = _coloring_pair()  # initial HAS edge (2,3); remove it
    dyn = DynamicEnsemble(initial, 1200, method="luby-glauber", seed=SEED)
    dyn.mix()
    dyn.remove_edge(2, 3)
    assert dyn.model_fingerprint() == mutated.model_fingerprint()
    dyn.resample()
    full = repro.sample_many(mutated, 1200, method="luby-glauber", seed=SEED + 1)
    assert_same_distribution(dyn.config, full, initial.q)


# ----------------------------------------------------------------------
# copy-on-write model mutations
# ----------------------------------------------------------------------
class TestModelMutationAPI:
    def test_mrf_with_edge_is_copy_on_write(self):
        initial, mutated = _coloring_pair()
        fingerprint = initial.model_fingerprint()
        grown = initial.with_edge(2, 3, mutated.edge_activity(0, 1))
        assert grown.model_fingerprint() == mutated.model_fingerprint()
        # the original is untouched
        assert initial.model_fingerprint() == fingerprint
        assert (2, 3) not in [tuple(e) for e in initial.edges]

    def test_mrf_without_edge_round_trips(self):
        initial, mutated = _coloring_pair()
        activity = mutated.edge_activity(2, 3)
        assert (
            mutated.without_edge(2, 3).model_fingerprint()
            == initial.model_fingerprint()
        )
        assert (
            initial.with_edge(2, 3, activity).model_fingerprint()
            == mutated.model_fingerprint()
        )

    def test_mrf_with_edge_activity_requires_existing_edge(self):
        initial, _ = _coloring_pair()
        with pytest.raises(ModelError):
            initial.with_edge_activity(2, 3, np.ones((3, 3)))
        updated = initial.with_edge_activity(0, 1, np.ones((3, 3)))
        assert updated.model_fingerprint() != initial.model_fingerprint()

    def test_mrf_without_missing_edge_raises(self):
        initial, _ = _coloring_pair()
        with pytest.raises(ModelError):
            initial.without_edge(2, 3)

    def test_mrf_with_vertex_activity(self):
        initial, _ = _coloring_pair()
        pinned = initial.with_vertex_activity(2, [1.0, 0.0, 0.0])
        assert pinned.model_fingerprint() != initial.model_fingerprint()
        assert pinned.vertex_activity[2, 1] == 0.0
        assert initial.vertex_activity[2, 1] == 1.0

    def test_csp_with_and_without_constraint(self):
        initial, mutated, extra = _csp_pair()
        grown = initial.with_constraint(extra)
        assert grown.model_fingerprint() == mutated.model_fingerprint()
        assert (
            mutated.without_constraint(1).model_fingerprint()
            == initial.model_fingerprint()
        )
        with pytest.raises(ModelError):
            initial.without_constraint(5)

    def test_api_mutate_dispatch(self):
        initial, mutated, extra = _csp_pair()
        assert (
            mutate(initial, "add_constraint", extra).model_fingerprint()
            == mutated.model_fingerprint()
        )
        mrf_a, mrf_b = _coloring_pair()
        assert (
            mutate(mrf_b, "remove_edge", 2, 3).model_fingerprint()
            == mrf_a.model_fingerprint()
        )
        with pytest.raises(ModelError):
            mutate(mrf_a, "add_constraint", extra)  # CSP op on an MRF
        with pytest.raises(ModelError):
            mutate(mrf_a, "frobnicate")
        assert set(MUTATIONS) == {"mrf", "csp"}


# ----------------------------------------------------------------------
# influenced regions and round budgets
# ----------------------------------------------------------------------
def _ball(adjacency: list[set[int]], touched: set[int], radius: int) -> list[int]:
    """Breadth-first ball of ``radius`` around ``touched``: the reference region."""
    region, frontier = set(touched), set(touched)
    for _ in range(radius):
        frontier = {u for w in frontier for u in adjacency[w]} - region
        region |= frontier
    return sorted(region)


class TestInfluencedRegion:
    def test_ball_growth_on_a_path(self):
        model = proper_coloring_mrf(path_graph(7), 3)
        same = model.with_edge_activity(3, 4, np.ones((3, 3)))
        assert influenced_region(model, same, (3,), radius=0).tolist() == [3]
        assert influenced_region(model, same, (3,), radius=1).tolist() == [2, 3, 4]
        assert influenced_region(model, same, (3,), radius=2).tolist() == [
            1, 2, 3, 4, 5,
        ]

    def test_union_adjacency_covers_removed_edge(self):
        initial, mutated = _coloring_pair()
        # removal: (2,3) adjacent only in the OLD model, still in the ball
        region = influenced_region(mutated, initial, (2,), radius=1)
        assert region.tolist() == [2, 3]

    def test_validation(self):
        initial, mutated = _coloring_pair()
        other = proper_coloring_mrf(path_graph(5), 3)
        with pytest.raises(ModelError):
            influenced_region(initial, other, (0,))
        with pytest.raises(ModelError):
            influenced_region(initial, mutated, ())
        with pytest.raises(ModelError):
            influenced_region(initial, mutated, (9,))
        with pytest.raises(ModelError):
            influenced_region(initial, mutated, (0,), radius=-1)

    def test_csp_region_uses_co_scope_adjacency(self):
        initial, mutated, _ = _csp_pair()
        region = influenced_region(initial, mutated, (2, 3), radius=2)
        assert region.tolist() == [2, 3]  # (0,1) is a separate component

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), radius=st.integers(0, 3))
    def test_mrf_region_is_the_union_graph_ball(self, seed, radius):
        rng = np.random.default_rng(seed)
        old = ising_mrf(nx.gnm_random_graph(9, int(rng.integers(0, 15)), seed=seed), 0.4)
        u, v = (int(x) for x in rng.choice(9, size=2, replace=False))
        new = old.without_edge(u, v) if (min(u, v), max(u, v)) in old.edges else (
            old.with_edge(u, v, np.ones((2, 2)))
        )
        adjacency = [set(old.graph[w]) | set(new.graph[w]) for w in range(9)]
        touched = {u, v, int(rng.integers(9))}
        assert influenced_region(old, new, touched, radius).tolist() == _ball(
            adjacency, touched, radius
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), radius=st.integers(0, 3))
    def test_csp_region_is_the_union_co_scope_ball(self, seed, radius):
        rng = np.random.default_rng(seed)
        scopes = [
            tuple(int(x) for x in rng.choice(9, size=int(rng.integers(1, 4)), replace=False))
            for _ in range(int(rng.integers(1, 6)))
        ]
        old = LocalCSP(9, 2, [Constraint(scope, np.ones((2,) * len(scope))) for scope in scopes])
        if rng.random() < 0.5:
            index = int(rng.integers(len(scopes)))
            new, touched = old.without_constraint(index), set(scopes[index])
        else:
            scope = (int(rng.integers(9)), int(rng.integers(9)))
            scope = tuple(sorted(set(scope)))
            new = old.with_constraint(Constraint(scope, np.ones((2,) * len(scope))))
            touched = set(scope)
            scopes.append(scope)
        # The co-scope adjacency of every scope the old or the new model has.
        adjacency = [set() for _ in range(9)]
        for scope in scopes:
            for w in scope:
                adjacency[w] |= set(scope) - {w}
        assert influenced_region(old, new, touched, radius).tolist() == _ball(
            adjacency, touched, radius
        )

    def test_region_round_budget_shapes(self):
        model = proper_coloring_mrf(cycle_graph(8), 4)
        luby = region_round_budget(model, "luby-glauber", 4)
        assert luby == region_round_budget(model, "local-metropolis", 4)
        assert region_round_budget(model, "glauber", 4) > luby
        assert region_round_budget(model, "glauber", 1) >= 1
        with pytest.raises(ModelError):
            region_round_budget(model, "glauber", 0)
        with pytest.raises(ModelError):
            region_round_budget(model, "glauber", 4, eps=1.5)
        with pytest.raises(ModelError):
            region_round_budget(model, "warp-drive", 4)


# ----------------------------------------------------------------------
# region kernels clamp the boundary
# ----------------------------------------------------------------------
REGION_ENGINES = {
    "coloring": lambda: repro.make_ensemble(
        proper_coloring_mrf(cycle_graph(8), 4), 16, method="luby-glauber", seed=SEED
    ),
    "glauber": lambda: repro.make_ensemble(
        ising_mrf(cycle_graph(8), beta=1.4), 16, method="glauber", seed=SEED
    ),
    "mrf": lambda: repro.make_ensemble(
        ising_mrf(cycle_graph(8), beta=1.4), 16, method="luby-glauber", seed=SEED
    ),
    "csp": lambda: repro.make_ensemble(
        coloring_csp(cycle_graph(8), 4), 16, method="luby-glauber", seed=SEED
    ),
}


@pytest.mark.parametrize("name", sorted(REGION_ENGINES))
def test_advance_region_freezes_the_complement(name):
    engine = REGION_ENGINES[name]()
    engine.advance(8)
    region = [2, 3, 4]
    before = engine.config
    engine.advance_region(12, region)
    after = engine.config
    complement = [v for v in range(8) if v not in region]
    assert np.array_equal(before[:, complement], after[:, complement])
    assert not np.array_equal(before[:, region], after[:, region])
    assert engine.steps_taken == 20


@pytest.mark.parametrize("name", sorted(REGION_ENGINES))
def test_advance_region_validates_input(name):
    engine = REGION_ENGINES[name]()
    with pytest.raises(ModelError):
        engine.advance_region(1, [])
    with pytest.raises(ModelError):
        engine.advance_region(1, [99])


def test_sequential_region_glauber_is_the_same_law():
    """The batched region kernel agrees with the per-replica oracle."""
    model = proper_coloring_mrf(_two_components(True), 3)
    region = [2, 3]
    rng = np.random.default_rng(SEED)
    batch = np.asarray(
        repro.sample_many(model, 1200, method="luby-glauber", seed=SEED), dtype=np.int64
    )
    oracle = sequential_region_glauber(model, batch.copy(), region, 40, rng)
    engine = repro.make_ensemble(
        model, 1200, method="luby-glauber", seed=SEED + 2, initial=batch.copy()
    )
    batched = engine.advance_region(40, region).config
    assert_same_distribution(oracle, batched, model.q)


def test_sequential_region_glauber_validation():
    model = proper_coloring_mrf(_two_components(True), 3)
    rng = np.random.default_rng(0)
    with pytest.raises(ModelError):
        sequential_region_glauber(model, np.zeros((4,)), [0], 1, rng)
    batch = np.zeros((2, 4), dtype=np.int64)
    with pytest.raises(ModelError):
        sequential_region_glauber(model, batch, [], 1, rng)
    with pytest.raises(ModelError):
        sequential_region_glauber(model, batch, [7], 1, rng)


# ----------------------------------------------------------------------
# DynamicEnsemble mechanics
# ----------------------------------------------------------------------
class TestDynamicEnsemble:
    def test_pending_region_accumulates_and_clears(self):
        initial, _ = _coloring_pair()
        dyn = DynamicEnsemble(initial, 8, method="luby-glauber", radius=1, seed=1)
        assert dyn.pending_region.size == 0
        dyn.add_edge(2, 3)
        assert dyn.pending_region.tolist() == [2, 3]
        dyn.remove_edge(0, 1)
        assert dyn.pending_region.tolist() == [0, 1, 2, 3]
        assert dyn.mutations == 2
        dyn.resample()
        assert dyn.pending_region.size == 0
        assert dyn.resamples == 1
        # resample with nothing pending is a no-op
        before = dyn.config
        dyn.resample()
        assert dyn.resamples == 1
        assert np.array_equal(before, dyn.config)

    def test_homogeneous_edge_activity_is_inferred(self):
        initial, mutated = _coloring_pair()
        dyn = DynamicEnsemble(initial, 4, seed=1)
        dyn.add_edge(2, 3)  # no activity argument: inferred from (0, 1)
        assert dyn.model_fingerprint() == mutated.model_fingerprint()

    def test_heterogeneous_edges_need_explicit_activity(self):
        initial, _ = _coloring_pair()
        lopsided = initial.with_edge(1, 2, np.ones((3, 3)))
        dyn = DynamicEnsemble(lopsided, 4, seed=1)
        with pytest.raises(ModelError):
            dyn.add_edge(2, 3)
        dyn.add_edge(2, 3, np.ones((3, 3)) - np.eye(3))  # explicit is fine

    def test_kind_mismatch_and_bad_radius(self):
        mrf, _ = _coloring_pair()
        csp, _, extra = _csp_pair()
        with pytest.raises(ModelError):
            DynamicEnsemble(mrf, 4, radius=-1)
        with pytest.raises(ModelError):
            DynamicEnsemble(mrf, 4, seed=1).add_constraint(extra)
        with pytest.raises(ModelError):
            DynamicEnsemble(csp, 4, seed=1).remove_edge(0, 1)
        with pytest.raises(ModelError):
            DynamicEnsemble(csp, 4, seed=1).remove_constraint(3)

    def test_engine_family_follows_the_model(self):
        """A mutation that changes the dispatch family rebuilds accordingly."""
        uniform, _ = _coloring_pair()
        dyn = DynamicEnsemble(uniform, 4, method="local-metropolis", seed=1)
        assert type(dyn.engine).__name__ == "EnsembleLocalMetropolisColoring"
        dyn.update_factor(0, 1, np.ones((3, 3)))  # no longer a colouring
        assert type(dyn.engine).__name__ == "EnsembleLocalMetropolisMRF"

    def test_mix_and_run_advance_the_full_model(self):
        initial, _ = _coloring_pair()
        dyn = DynamicEnsemble(initial, 8, method="luby-glauber", seed=3)
        batch = dyn.run(5)
        assert batch.shape == (8, 4)
        assert dyn.steps_taken == 5
        dyn.mix()
        assert dyn.steps_taken > 5


# ----------------------------------------------------------------------
# the api facade
# ----------------------------------------------------------------------
class TestResampleRegionFacade:
    def test_batched_path_matches_engine(self):
        model = proper_coloring_mrf(cycle_graph(8), 4)
        batch = np.asarray(
            repro.sample_many(model, 64, method="luby-glauber", seed=SEED)
        )
        out = resample_region(
            model, batch, [2, 3, 4], rounds=6, method="luby-glauber", seed=SEED
        )
        engine = repro.make_ensemble(
            model, 64, method="luby-glauber", seed=SEED, initial=batch
        )
        expected = engine.advance_region(6, [2, 3, 4]).config
        assert np.array_equal(out, expected)

    def test_general_mrf_local_metropolis_path(self):
        model = ising_mrf(path_graph(4), beta=0.7, field=0.5)
        batch = np.zeros((8, 4), dtype=np.int64)
        out = resample_region(
            model, batch, [1, 2], rounds=4, method="local-metropolis", seed=SEED
        )
        assert out.shape == (8, 4)
        assert np.array_equal(out[:, [0, 3]], batch[:, [0, 3]] * 0)

    def test_batch_validation(self):
        model = proper_coloring_mrf(cycle_graph(8), 4)
        with pytest.raises(ModelError):
            resample_region(model, np.zeros((8, 5)), [0], rounds=1, seed=1)
