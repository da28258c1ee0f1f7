"""The default numpy/scipy backend — the bit-identical reference.

Every method is the numpy expression the engines used before the backend
shim existed, or one with equal results (``take_rows`` is ``np.take``), so
selecting ``backend="numpy"`` (or selecting nothing at all) reproduces the
pre-shim trajectories bit for bit — the
seeded-determinism suite is the oracle for this claim.  ``asarray`` is a
no-copy passthrough and :meth:`NumpyBackend.csr` returns the scipy matrix
itself, so the shim adds no per-round overhead on the default path.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """Reference backend over numpy ndarrays and scipy CSR matrices."""

    name = "numpy"
    bitwise_reference = True

    # ------------------------------------------------------------------
    # construction and transfer
    # ------------------------------------------------------------------
    def asarray(self, x, dtype=None):
        return np.asarray(x, dtype=dtype)

    def to_numpy(self, x):
        return np.asarray(x)

    def astype(self, a, dtype):
        return np.asarray(a).astype(dtype)

    def zeros(self, shape, dtype=float):
        return np.zeros(shape, dtype=dtype)

    def ones(self, shape, dtype=float):
        return np.ones(shape, dtype=dtype)

    def arange(self, n):
        return np.arange(n)

    # ------------------------------------------------------------------
    # RNG bridge
    # ------------------------------------------------------------------
    def uniform_spins(self, rng, q, size, dtype):
        # int8 bounded-integer generation is measurably slower in numpy, so
        # sub-16-bit dtypes draw via int16 — part of the stream contract.
        dtype = np.dtype(dtype)
        if dtype.itemsize < 2:
            return rng.integers(0, q, size=size, dtype=np.int16).astype(dtype)
        return rng.integers(0, q, size=size, dtype=dtype)

    def random(self, rng, size):
        return rng.random(size)

    def random_f32(self, rng, size):
        return rng.random(size, dtype=np.float32)

    def integers(self, rng, high, size):
        return rng.integers(high, size=size)

    # ------------------------------------------------------------------
    # gathers, scatters and index plumbing
    # ------------------------------------------------------------------
    def take_rows(self, a, idx):
        # Same values as a[idx], far faster on narrow rows.
        return np.take(a, idx, axis=0)

    def take(self, a, idx):
        return np.take(a, idx)

    def nonzero_pairs(self, mask):
        return np.nonzero(mask)

    def nonzero1d(self, mask):
        return np.nonzero(mask)[0]

    # ------------------------------------------------------------------
    # sparse CSR
    # ------------------------------------------------------------------
    def csr(self, matrix):
        return matrix

    def spmm_count(self, handle, mask):
        return handle @ mask.view(np.uint8)

    # ------------------------------------------------------------------
    # elementwise and reductions
    # ------------------------------------------------------------------
    def where(self, cond, a, b):
        return np.where(cond, a, b)

    def sum(self, a, axis=None):
        return np.sum(a, axis=axis)

    def any(self, a) -> bool:
        return bool(np.any(a))

    def argmax(self, a) -> int:
        return int(np.argmax(a))

    def argmax_axis(self, a, axis):
        return np.argmax(a, axis=axis)

    def prod(self, a, axis):
        return np.prod(a, axis=axis)
