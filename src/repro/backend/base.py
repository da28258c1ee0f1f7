"""The array-ops interface every execution backend implements.

The replica-ensemble engines (:mod:`repro.chains.ensemble`) express their
hot loops as a small set of kernel primitives — row and flat gathers,
sparse count matmuls (the edge-to-vertex scatter), elementwise selects,
sums and products — over ``(n, R)``-batched arrays.  :class:`ArrayBackend`
names exactly those primitives, so the same engine code runs on any array
library that can implement them: numpy (the default, bit-identical
reference), torch CPU/CUDA, and in principle CuPy or JAX.

Design contract
---------------

* **Backend arrays are opaque.**  Engines hold whatever a backend's
  :meth:`ArrayBackend.asarray` returns and only ever combine such values
  through (a) the methods below, (b) Python arithmetic/comparison/bitwise
  operators (``+ - * / % == != <= >= < > ~ & |``), and (c) numpy-style
  basic and advanced indexing (integer arrays, boolean masks, ``None``
  axes, scalar assignment).  Both numpy ``ndarray`` and torch ``Tensor``
  satisfy (b) and (c) with matching semantics, which keeps the method
  surface small.
* **The RNG bridge is shared.**  Every engine owns one
  :class:`numpy.random.Generator` (built from its ``SeedSequence`` — see
  the seed contract in :mod:`repro.chains.ensemble`), and *all* backends
  draw their randomness from that generator through the ``uniform_spins``
  / ``random`` / ``random_f32`` / ``integers`` bridge methods.  Non-numpy
  backends transfer the drawn arrays to the device.  The proposal stream
  is therefore identical across backends; results can still differ at the
  bit level wherever floating-point arithmetic enters (reduction order is
  backend-specific), which is why non-default backends participate in
  :meth:`repro.spec.JobSpec.cache_key`.
* **The numpy backend is the reference.**  Its methods compute exactly
  the numpy expressions the engines used before the shim existed, so the
  default path stays bit-identical to the pre-backend implementation.
  Other backends promise *distributional* equivalence, validated by the
  ``tests/statutils.py`` harness and the fuzzed kernel-parity tests.

Setup/precompute code (CSR construction, table flattening, greedy starts)
stays plain numpy/scipy and hands the finished structures to
:meth:`asarray` / :meth:`csr` once; only advance-path kernels go through
the shim.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = ["ArrayBackend"]


class ArrayBackend(ABC):
    """Kernel primitives over one array library (numpy, torch, ...).

    Instances are stateless and shared freely across engines and threads;
    per-engine state (RNG, arrays) lives in the engines themselves.
    """

    #: Registry name (``"numpy"``, ``"torch"``, ...).
    name: str = "abstract"

    #: True iff this backend reproduces the reference numpy kernels bit for
    #: bit.  Only the numpy backend guarantees it; everything else is
    #: distributionally equivalent and must be cache-keyed separately.
    bitwise_reference: bool = False

    # ------------------------------------------------------------------
    # construction and transfer
    # ------------------------------------------------------------------
    @abstractmethod
    def asarray(self, x, dtype=None):
        """Device array from ``x`` (numpy array, list or backend array).

        ``dtype`` is a numpy dtype token; backends map it to their own
        dtype system.  For the numpy backend this is ``np.asarray`` — a
        no-copy passthrough whenever ``x`` already matches.
        """

    @abstractmethod
    def to_numpy(self, x):
        """``x`` as a numpy ndarray (may share memory — copy to keep)."""

    @abstractmethod
    def astype(self, a, dtype):
        """``a`` converted to the backend dtype for numpy token ``dtype``."""

    @abstractmethod
    def zeros(self, shape, dtype=float):
        """Zero-filled device array."""

    @abstractmethod
    def ones(self, shape, dtype=float):
        """One-filled device array."""

    @abstractmethod
    def arange(self, n):
        """``0..n-1`` as an int64 device array."""

    # ------------------------------------------------------------------
    # RNG bridge (rng is always the engine's numpy Generator)
    # ------------------------------------------------------------------
    @abstractmethod
    def uniform_spins(self, rng, q, size, dtype):
        """Uniform spins in ``0..q-1`` with shape ``size`` in ``dtype``.

        Must consume the generator exactly like the reference
        implementation (int16 bounded-integer path for sub-16-bit dtypes),
        so every backend sees the same proposal stream.
        """

    @abstractmethod
    def random(self, rng, size):
        """Uniform float64 draws with shape ``size``."""

    @abstractmethod
    def random_f32(self, rng, size):
        """Uniform float32 draws with shape ``size`` (Luby ranks)."""

    @abstractmethod
    def integers(self, rng, high, size):
        """Uniform int64 draws in ``0..high-1`` with shape ``size``."""

    # ------------------------------------------------------------------
    # gathers, scatters and index plumbing
    # ------------------------------------------------------------------
    @abstractmethod
    def take_rows(self, a, idx):
        """Row gather ``a[idx]`` along axis 0 (always a fresh array)."""

    @abstractmethod
    def take(self, a, idx):
        """Flat gather: entries ``idx`` of ``a`` read in row-major order.

        The result has the shape of ``idx``.  A pair ``(i, j)`` of an
        ``(n, R)`` array reads flat index ``i * R + j``; this is cheaper
        than two-array advanced indexing on both numpy and torch.
        """

    @abstractmethod
    def nonzero_pairs(self, mask):
        """Row-major ``(i, j)`` index arrays of the True entries of a 2-D mask."""

    @abstractmethod
    def nonzero1d(self, mask):
        """Indices of the True entries of a 1-D mask."""

    # ------------------------------------------------------------------
    # sparse CSR
    # ------------------------------------------------------------------
    @abstractmethod
    def csr(self, matrix):
        """Device handle for a ``scipy.sparse.csr_matrix`` with int data."""

    @abstractmethod
    def spmm_count(self, handle, mask):
        """Counts ``handle @ mask`` for a boolean ``(m, R)`` mask.

        The edge/constraint-to-vertex "how many incident checks failed"
        reduction; only the comparisons ``== 0`` / ``> 0`` of the result
        are relied upon.
        """

    # ------------------------------------------------------------------
    # elementwise and reductions
    # ------------------------------------------------------------------
    @abstractmethod
    def where(self, cond, a, b):
        """Elementwise select (broadcasting)."""

    @abstractmethod
    def sum(self, a, axis=None):
        """Sum (bool inputs count as int)."""

    @abstractmethod
    def any(self, a) -> bool:
        """Python bool: any entry truthy."""

    @abstractmethod
    def argmax(self, a) -> int:
        """Python int: first index of the maximum of a 1-D array."""

    @abstractmethod
    def argmax_axis(self, a, axis):
        """Index array of first maxima along ``axis``."""

    @abstractmethod
    def prod(self, a, axis):
        """Product along ``axis``.

        The mixing-axis reduction of the LocalMetropolis CSP filter.  The
        numpy backend multiplies in index order, left to right, so its
        result equals a sequential product loop bit for bit; other
        backends may reassociate.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
