"""Exact Gibbs distributions over small configuration spaces.

:class:`GibbsDistribution` materialises ``mu`` as a dense probability vector
over the ``q**n`` configurations in lexicographic order.  It is the ground
truth every sampling experiment compares against: total-variation distances,
marginals, conditional distributions and exact sampling all read off this
vector.  The class is also used for *arbitrary* distributions over ``[q]^V``
(e.g. the empirical output distribution of a chain), not just Gibbs measures.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import ModelError, StateSpaceTooLargeError
from repro.mrf.model import MRF, Config
from repro.mrf.partition import DEFAULT_MAX_STATES

__all__ = [
    "GibbsDistribution",
    "exact_gibbs_distribution",
    "config_index",
    "index_config",
    "spin_blocks",
]

#: Configurations per block of the exact enumerations: their spin arrays
#: take O(block * n) memory whatever the size of the state space.
ENUMERATION_BLOCK = 1 << 15


def config_index(config: Sequence[int], q: int) -> int:
    """Return the lexicographic index of ``config`` in ``[q]^n``.

    Vertex 0 is the most significant digit, so enumeration order matches
    ``itertools.product(range(q), repeat=n)``.
    """
    index = 0
    for spin in config:
        index = index * q + int(spin)
    return index


def index_config(index: int, q: int, n: int) -> Config:
    """Inverse of :func:`config_index`."""
    spins = [0] * n
    for position in range(n - 1, -1, -1):
        spins[position] = index % q
        index //= q
    return tuple(spins)


def spin_blocks(n: int, q: int):
    """Enumerate ``[q]^n`` in :func:`config_index` order, in blocks.

    Yields ``(start, spins)`` for consecutive blocks of at most
    :data:`ENUMERATION_BLOCK` configurations: ``spins[v, j]`` is the spin
    of vertex ``v`` in configuration ``start + j`` (vertex-major, so each
    vertex's spins are one contiguous row).
    """
    size = q**n
    block = ENUMERATION_BLOCK
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, size, block):
        index = np.arange(start, min(start + block, size), dtype=np.int64)
        yield start, (index[None, :] // powers[:, None]) % q


class GibbsDistribution:
    """A dense distribution over ``[q]^n`` configurations.

    Parameters
    ----------
    n, q:
        Number of vertices and spins.
    probabilities:
        Length ``q**n`` non-negative vector; it is normalised on entry.
    """

    def __init__(self, n: int, q: int, probabilities: np.ndarray) -> None:
        self.n = int(n)
        self.q = int(q)
        probs = np.asarray(probabilities, dtype=float)
        if probs.shape != (self.q**self.n,):
            raise ModelError(
                f"probability vector must have length {self.q**self.n}, got {probs.shape}"
            )
        if np.any(probs < -1e-15):
            raise ModelError("probabilities must be non-negative")
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if not math.isfinite(total) or total <= 0.0:
            raise ModelError("probability vector must have positive finite mass")
        self.probs = probs / total
        self.probs.setflags(write=False)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def prob(self, config: Sequence[int]) -> float:
        """Return ``P(config)``."""
        return float(self.probs[config_index(config, self.q)])

    def support(self) -> list[Config]:
        """Return all configurations with positive probability."""
        return [
            index_config(i, self.q, self.n)
            for i in np.nonzero(self.probs > 0.0)[0]
        ]

    def configurations(self) -> Iterable[Config]:
        """Iterate over all ``q**n`` configurations in index order."""
        return itertools.product(range(self.q), repeat=self.n)

    def marginal(self, v: int) -> np.ndarray:
        """Return the marginal distribution of vertex ``v`` as a length-q vector."""
        shaped = self.probs.reshape([self.q] * self.n)
        axes = tuple(axis for axis in range(self.n) if axis != v)
        return shaped.sum(axis=axes)

    def pair_marginal(self, u: int, v: int) -> np.ndarray:
        """Return the joint marginal of ``(u, v)`` as a ``(q, q)`` matrix.

        ``result[a, b] = P(sigma_u = a, sigma_v = b)``.
        """
        if u == v:
            raise ModelError("pair_marginal needs two distinct vertices")
        shaped = self.probs.reshape([self.q] * self.n)
        axes = tuple(axis for axis in range(self.n) if axis not in (u, v))
        joint = shaped.sum(axis=axes)
        if u > v:
            joint = joint.T
        return joint

    def restrict(self, vertices: Sequence[int]) -> "GibbsDistribution":
        """Return the marginal joint distribution of ``vertices`` (in the given order)."""
        vertices = list(vertices)
        if len(set(vertices)) != len(vertices):
            raise ModelError("restrict needs distinct vertices")
        shaped = self.probs.reshape([self.q] * self.n)
        axes = tuple(axis for axis in range(self.n) if axis not in set(vertices))
        joint = shaped.sum(axis=axes)
        # ``joint`` axes are the kept vertices in increasing order; permute to
        # the caller's order.
        kept_sorted = sorted(vertices)
        perm = [kept_sorted.index(v) for v in vertices]
        joint = np.transpose(joint, axes=perm)
        return GibbsDistribution(len(vertices), self.q, joint.reshape(-1))

    def condition(self, assignment: dict[int, int]) -> "GibbsDistribution":
        """Return the distribution conditioned on ``sigma_v = spin`` for each item.

        The result is still a distribution over all ``n`` vertices (the fixed
        vertices become deterministic).
        """
        shaped = self.probs.reshape([self.q] * self.n).copy()
        for v, spin in assignment.items():
            index = [slice(None)] * self.n
            for other in range(self.q):
                if other != spin:
                    index[v] = other
                    shaped[tuple(index)] = 0.0
        flat = shaped.reshape(-1)
        if flat.sum() <= 0.0:
            raise ModelError(f"conditioning event {assignment} has probability zero")
        return GibbsDistribution(self.n, self.q, flat)

    # ------------------------------------------------------------------
    # distances and sampling
    # ------------------------------------------------------------------
    def tv_distance(self, other: "GibbsDistribution | np.ndarray") -> float:
        """Return the total-variation distance to ``other`` (paper Section 2.3)."""
        if isinstance(other, GibbsDistribution):
            if (other.n, other.q) != (self.n, self.q):
                raise ModelError("tv_distance needs distributions on the same space")
            other_probs = other.probs
        else:
            other_probs = np.asarray(other, dtype=float)
            if other_probs.shape != self.probs.shape:
                raise ModelError("tv_distance needs vectors of identical length")
        return float(0.5 * np.abs(self.probs - other_probs).sum())

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw exact samples; returns one :data:`Config` or a list of them."""
        if size is None:
            index = int(rng.choice(len(self.probs), p=self.probs))
            return index_config(index, self.q, self.n)
        indices = rng.choice(len(self.probs), p=self.probs, size=size)
        return [index_config(int(i), self.q, self.n) for i in indices]

    def entropy(self) -> float:
        """Return the Shannon entropy in nats."""
        positive = self.probs[self.probs > 0.0]
        return float(-(positive * np.log(positive)).sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GibbsDistribution(n={self.n}, q={self.q}, support={int((self.probs > 0).sum())})"


def exact_gibbs_distribution(mrf: MRF, max_states: int = DEFAULT_MAX_STATES) -> GibbsDistribution:
    """Materialise the exact Gibbs distribution of ``mrf``.

    Enumerates all ``q**n`` configurations in blocks (:func:`spin_blocks`);
    guarded by ``max_states``.  Each weight multiplies the same factors in
    the same order as :meth:`MRF.weight` — vertex activities, then edges in
    canonical order — so it equals that method's value bit for bit.
    """
    size = mrf.q ** mrf.n
    if size > max_states:
        raise StateSpaceTooLargeError(
            f"state space {mrf.q}**{mrf.n} = {size} exceeds max_states={max_states}"
        )
    weights = np.empty(size)
    edges = list(zip(mrf.edges, mrf.edge_tables()))
    for start, spins in spin_blocks(mrf.n, mrf.q):
        block = np.ones(spins.shape[1])
        for v in range(mrf.n):
            block *= mrf.vertex_activity[v, spins[v]]
        for (u, v), table in edges:
            block *= table[spins[u], spins[v]]
        weights[start : start + block.size] = block
    if weights.sum() <= 0.0:
        raise ModelError("MRF has no feasible configuration (Z = 0)")
    return GibbsDistribution(mrf.n, mrf.q, weights)
