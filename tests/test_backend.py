"""Tests for the pluggable array-backend layer (:mod:`repro.backend`).

Three layers of contract:

* **registry dispatch** — name resolution (explicit > ``$REPRO_BACKEND`` >
  numpy), clear errors for unknown names, construction-time (not mid-run)
  failure for registered-but-unusable backends, and custom registration;
* **cache-key / wire invariance** — ``backend in (None, "numpy")`` must
  hash and serialise exactly like a pre-backend-field spec (numpy is the
  bit-identical reference), while non-numpy backends enter both;
* **kernel parity** — fuzzed numpy-vs-torch agreement for every
  :class:`~repro.backend.base.ArrayBackend` operation the engines' advance
  paths use (skipped with a clear reason when torch is not installed).
"""

import importlib.util

import numpy as np
import pytest
import scipy.sparse as sp

import repro.backend as backend_mod
from repro.api import make_ensemble
from repro.backend import (
    ArrayBackend,
    NumpyBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from repro.errors import BackendError, BackendUnavailableError
from repro.graphs import cycle_graph
from repro.mrf import ising_mrf
from repro.spec import JobSpec

HAVE_TORCH = importlib.util.find_spec("torch") is not None

needs_torch = pytest.mark.skipif(
    not HAVE_TORCH, reason="torch is not installed (pip install 'repro-local-sampling[gpu]')"
)


@pytest.fixture
def scratch_backend():
    """Register a throwaway backend name and clean it up afterwards."""
    names = []

    def register(name, factory):
        register_backend(name, factory)
        names.append(name)

    yield register
    for name in names:
        backend_mod._FACTORIES.pop(name, None)
        backend_mod._INSTANCES.pop(name, None)


class TestRegistry:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_name(None) == "numpy"
        assert get_backend(None).name == "numpy"
        assert get_backend(None).bitwise_reference

    def test_env_var_resolves(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_backend_name(None) == "numpy"
        # An explicit argument beats the environment.
        monkeypatch.setenv("REPRO_BACKEND", "torch")
        assert resolve_backend_name("numpy") == "numpy"

    def test_empty_env_var_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert resolve_backend_name(None) == "numpy"

    def test_unknown_name_lists_available(self):
        with pytest.raises(BackendError, match="unknown array backend 'cupy'"):
            resolve_backend_name("cupy")
        with pytest.raises(BackendError, match="numpy") as info:
            get_backend("cupy")
        # The message enumerates every registered backend.
        for name in available_backends():
            assert name in str(info.value)

    def test_unknown_env_backend_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "no-such-backend")
        with pytest.raises(BackendError, match="no-such-backend"):
            get_backend(None)

    def test_builtin_names_registered(self):
        assert {"numpy", "torch", "torch-cpu", "torch-cuda"} <= set(available_backends())

    def test_instance_passthrough_and_caching(self):
        instance = NumpyBackend()
        assert get_backend(instance) is instance
        assert get_backend("numpy") is get_backend("numpy")

    def test_register_custom_backend(self, scratch_backend):
        scratch_backend("my-numpy", NumpyBackend)
        assert "my-numpy" in available_backends()
        assert get_backend("my-numpy").name == "numpy"

    def test_unusable_backend_fails_at_construction(self, scratch_backend):
        """A registered-but-unusable backend raises from get_backend, not mid-run."""

        def factory():
            raise BackendUnavailableError("backend 'broken' needs a library you lack")

        scratch_backend("broken", factory)
        with pytest.raises(BackendUnavailableError, match="broken"):
            get_backend("broken")
        # The same failure surfaces from engine construction, before any
        # sampling work starts.
        from repro.mrf import proper_coloring_mrf

        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        with pytest.raises(BackendUnavailableError, match="broken"):
            make_ensemble(mrf, 3, method="local-metropolis", seed=1, backend="broken")

    def test_general_mrf_local_metropolis_rejects_unknown_backend(self):
        mrf = ising_mrf(cycle_graph(6), beta=0.4)
        with pytest.raises(BackendError, match="unknown array backend"):
            make_ensemble(mrf, 3, method="local-metropolis", seed=1, backend="nope")

    @pytest.mark.skipif(HAVE_TORCH, reason="torch is installed here")
    def test_torch_unavailable_raises_at_construction(self):
        with pytest.raises(BackendUnavailableError, match="torch"):
            get_backend("torch")

    @needs_torch
    def test_torch_cpu_constructs(self):
        xp = get_backend("torch-cpu")
        assert xp.name == "torch-cpu"
        assert not xp.bitwise_reference


class TestSpecBackendField:
    def _spec(self, backend):
        mrf = ising_mrf(cycle_graph(5), beta=0.3)
        return JobSpec.sample_many(mrf, 4, rounds=3, seed=7, backend=backend)

    def test_numpy_and_none_share_pre_backend_cache_key(self):
        """backend=None and backend='numpy' hash identically (bit-identical
        reference), and neither puts a 'backend' entry on the wire."""
        plain = self._spec(None)
        explicit = self._spec("numpy")
        assert plain.cache_key() == explicit.cache_key()
        assert "backend" not in plain.params_dict()
        assert "backend" not in explicit.params_dict()
        assert "backend" not in plain.to_wire()["params"]

    def test_non_numpy_backend_changes_cache_key(self):
        plain = self._spec(None)
        torchy = self._spec("torch")
        assert torchy.params_dict()["backend"] == "torch"
        assert plain.cache_key() != torchy.cache_key()

    def test_backend_round_trips_on_the_wire(self):
        spec = self._spec("torch")
        rebuilt = JobSpec.from_wire(spec.to_wire())
        assert rebuilt.backend == "torch"
        assert rebuilt.cache_key() == spec.cache_key()
        assert JobSpec.from_wire(self._spec(None).to_wire()).backend is None

    def test_unknown_backend_rejected_at_spec_construction(self):
        with pytest.raises(BackendError, match="unknown array backend"):
            self._spec("cupy")


class TestJobExecutorBackend:
    """The exec/serve job executor must forward ``spec.backend``.

    Regression: a spec submitted with a torch backend once executed
    silently on numpy server-side.
    """

    def _run(self, spec):
        from repro.exec.jobs import _execute_job

        events = []
        _execute_job(0, spec, events.append)
        return next(e.payload for e in events if e.kind == "result")

    def _spec(self, kind, backend):
        from repro.graphs import torus_graph
        from repro.mrf import proper_coloring_mrf

        if kind == "sample_many":
            mrf = proper_coloring_mrf(torus_graph(4, 4), 8)
            return JobSpec.sample_many(mrf, 8, rounds=6, seed=11, backend=backend)
        # tv_curve computes the exact Gibbs target first — keep it tiny.
        mrf = proper_coloring_mrf(cycle_graph(5), 3)
        return JobSpec.tv_curve(mrf, (1, 2), replicas=8, seed=11, backend=backend)

    @pytest.mark.parametrize("kind", ["sample_many", "tv_curve"])
    def test_unusable_backend_reaches_the_engine(self, kind):
        if HAVE_TORCH:
            pytest.skip("needs a registered-but-unusable builtin backend")
        with pytest.raises(BackendUnavailableError, match="torch"):
            self._run(self._spec(kind, "torch-cpu"))

    @needs_torch
    def test_torch_spec_executes_on_torch(self):
        from repro.api import run_spec

        spec = self._spec("sample_many", "torch-cpu")
        assert np.array_equal(self._run(spec), run_spec(spec))


def _random_csr(rng, nrows, ncols, density=0.3):
    mask = rng.random((nrows, ncols)) < density
    data = rng.integers(1, 4, size=mask.sum())
    matrix = sp.csr_matrix(
        (data, np.nonzero(mask)), shape=(nrows, ncols), dtype=np.int64
    )
    return matrix


@needs_torch
class TestTorchKernelParity:
    """Fuzzed parity: every backend op agrees with the numpy reference.

    Integer ops must agree exactly; float reductions to 1 ulp-ish
    (``rtol=1e-12`` on float64 — the op sequences are identical, only the
    kernel implementations differ).
    """

    @pytest.fixture(scope="class")
    def backends(self):
        return NumpyBackend(), get_backend("torch-cpu")

    @pytest.mark.parametrize("trial", range(10))
    def test_elementwise_and_indexing_ops(self, backends, trial):
        ref, alt = backends
        rng = np.random.default_rng(1000 + trial)
        n, r = int(rng.integers(3, 40)), int(rng.integers(1, 9))
        ints = rng.integers(0, 5, size=(n, r))
        floats = rng.random((n, r))
        rows = rng.integers(0, n, size=int(rng.integers(1, 2 * n)))
        counts = rng.integers(0, 3, size=len(rows))
        flat_pairs = rng.integers(0, n * r, size=(len(rows), 3))

        def both(op):
            return op(ref), alt.to_numpy(op(alt))

        for op, exact in [
            (lambda xp: xp.take_rows(xp.asarray(ints), xp.asarray(rows)), True),
            (lambda xp: xp.take(xp.asarray(ints), xp.asarray(rows * r)), True),
            (lambda xp: xp.take(xp.asarray(floats), xp.asarray(flat_pairs)), True),
            (lambda xp: xp.where(xp.asarray(ints % 2 == 0), xp.asarray(ints), 0), True),
            (lambda xp: xp.clip(xp.asarray(ints) - 2, 0, 3), True),
            (lambda xp: xp.sum(xp.asarray(ints <= 2), axis=1), True),
            (lambda xp: xp.cumsum(xp.asarray(floats), axis=1), False),
            (lambda xp: xp.prod(xp.asarray(floats), axis=0), False),
            (lambda xp: xp.prod(xp.asarray(floats), axis=1), False),
            (lambda xp: xp.argmax_axis(xp.asarray(ints) > 1, axis=1), True),
            (lambda xp: xp.bincount(xp.asarray(rows), minlength=n), True),
            (lambda xp: xp.repeat(xp.asarray(rows), xp.asarray(counts)), True),
            (lambda xp: xp.astype(xp.asarray(ints), np.int16), True),
        ]:
            got_ref, got_alt = both(op)
            if exact:
                np.testing.assert_array_equal(got_ref, got_alt)
            else:
                np.testing.assert_allclose(got_ref, got_alt, rtol=1e-12)

    @pytest.mark.parametrize("trial", range(10))
    def test_sparse_and_segment_ops(self, backends, trial):
        ref, alt = backends
        rng = np.random.default_rng(2000 + trial)
        nrows, ncols, r = (
            int(rng.integers(2, 20)),
            int(rng.integers(2, 20)),
            int(rng.integers(1, 7)),
        )
        matrix = _random_csr(rng, nrows, ncols)
        mask = rng.random((ncols, r)) < 0.5

        got = alt.to_numpy(alt.spmm_count(alt.csr(matrix), alt.asarray(mask)))
        np.testing.assert_array_equal(ref.spmm_count(ref.csr(matrix), mask), got)

    @pytest.mark.parametrize("trial", range(5))
    def test_neighbour_expansion_and_nonzero(self, backends, trial):
        ref, alt = backends
        rng = np.random.default_rng(3000 + trial)
        n = int(rng.integers(2, 25))
        degrees = rng.integers(0, 4, size=n)
        indptr = np.concatenate([[0], np.cumsum(degrees)])
        vertices = rng.integers(0, n, size=int(rng.integers(1, 2 * n)))
        ref_pair, ref_slots = ref.expand_neighbour_slots(vertices, degrees, indptr)
        alt_pair, alt_slots = alt.expand_neighbour_slots(
            alt.asarray(vertices), alt.asarray(degrees), alt.asarray(indptr)
        )
        np.testing.assert_array_equal(ref_pair, alt.to_numpy(alt_pair))
        np.testing.assert_array_equal(ref_slots, alt.to_numpy(alt_slots))
        flags = rng.random((n, 3)) < 0.4
        ref_rows, ref_cols = ref.nonzero_pairs(flags)
        alt_rows, alt_cols = alt.nonzero_pairs(alt.asarray(flags))
        np.testing.assert_array_equal(ref_rows, alt.to_numpy(alt_rows))
        np.testing.assert_array_equal(ref_cols, alt.to_numpy(alt_cols))
        np.testing.assert_array_equal(
            ref.nonzero1d(flags[:, 0]), alt.to_numpy(alt.nonzero1d(alt.asarray(flags[:, 0])))
        )

    def test_rng_bridge_is_stream_identical(self, backends):
        """Both backends consume the SAME numpy Generator draws, in order."""
        ref, alt = backends
        for draw in [
            lambda xp, rng: xp.uniform_spins(rng, 5, (4, 3), np.int8),
            lambda xp, rng: xp.random(rng, (4, 3)),
            lambda xp, rng: xp.random_f32(rng, (2, 6)),
            lambda xp, rng: xp.integers(rng, 7, (5,)),
        ]:
            got_ref = draw(ref, np.random.default_rng(42))
            got_alt = alt.to_numpy(draw(alt, np.random.default_rng(42)))
            np.testing.assert_array_equal(np.asarray(got_ref), got_alt)


@needs_torch
class TestTorchEngineParity:
    """Whole-engine checks on the torch backend (cheap smoke; the CI
    backend-parity job runs the full equivalence suites under
    ``REPRO_BACKEND=torch``)."""

    def test_torch_ensemble_is_deterministic_and_feasible(self):
        from repro.graphs import grid_graph
        from repro.mrf import proper_coloring_mrf

        mrf = proper_coloring_mrf(grid_graph(3, 3), 8)
        runs = [
            make_ensemble(mrf, 5, seed=11, backend="torch-cpu").run(6) for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0], runs[1])
        assert all(mrf.is_feasible(row) for row in runs[0])

    def test_luby_glauber_matches_numpy_bitwise(self):
        """LubyGlauber colouring only *compares* transferred floats, so even
        the torch backend reproduces the numpy trajectory bit-for-bit."""
        from repro.graphs import grid_graph
        from repro.chains.ensemble import EnsembleLubyGlauberColoring

        reference = EnsembleLubyGlauberColoring(grid_graph(3, 3), 8, 5, seed=11).run(8)
        torchy = EnsembleLubyGlauberColoring(
            grid_graph(3, 3), 8, 5, seed=11, backend="torch-cpu"
        ).run(8)
        np.testing.assert_array_equal(reference, torchy)
