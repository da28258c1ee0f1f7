"""Common infrastructure for Markov chains over ``[q]^V``.

A :class:`Chain` owns an MRF, a current configuration (numpy int array) and a
private RNG; ``step()`` advances one transition.  Chains are deliberately
*mutable and cheap*: mixing experiments run ensembles of thousands of chains.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.errors import ModelError
from repro.mrf.model import MRF, Config, as_config

__all__ = [
    "Chain",
    "SeedLike",
    "as_generator",
    "as_seed_sequence",
    "checked_initial",
    "greedy_feasible_config",
    "random_config",
]

#: Everything the chains and replica-ensemble engines accept as a seed.
#: ``np.random.SeedSequence`` is the spawnable form the sharded execution
#: subsystem (:mod:`repro.exec`) relies on: ``root.spawn(k)`` derives ``k``
#: independent child streams deterministically, so a run partitioned into
#: shards is reproducible from the root sequence alone.
SeedLike = int | np.random.SeedSequence | np.random.Generator | None


def as_generator(
    seed: int | np.random.SeedSequence | np.random.Generator | None,
) -> np.random.Generator:
    """Resolve a seed of any accepted form into a ``numpy.random.Generator``.

    A Generator is passed through (shared-stream semantics: the caller keeps
    ownership of the stream); an int, a :class:`numpy.random.SeedSequence`
    or ``None`` seeds a fresh PCG64 Generator.  Because
    ``default_rng(SeedSequence(x))`` and ``default_rng(x)`` build the same
    stream, integer-seeded runs are bit-identical to runs seeded with the
    equivalent SeedSequence.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_seed_sequence(
    seed: SeedLike, *, allow_generator: bool = True
) -> np.random.SeedSequence:
    """Resolve a :data:`SeedLike` into a root ``numpy.random.SeedSequence``.

    The one shared seed-coercion helper: every public entry point that
    needs a *spawnable* root (per-node streams, per-replica streams, shard
    plans) funnels through here, so all of them accept the same
    ``int | SeedSequence | Generator | None`` surface with the same
    semantics:

    * a ``SeedSequence`` is passed through unchanged, so
      ``SeedSequence(x)`` and the int ``x`` build the same root;
    * ``None`` or an int seeds a fresh root;
    * a ``Generator`` draws one int63 to form the root — a live stream
      cannot be split deterministically, so passing the same Generator
      twice intentionally gives two different roots.  Callers for whom
      that non-reproducibility would be a silent footgun (sharded
      execution, result caching) pass ``allow_generator=False`` to reject
      Generators with a :class:`~repro.errors.ModelError` instead.
    """
    if isinstance(seed, np.random.Generator):
        if not allow_generator:
            raise ModelError(
                "this entry point needs an int or numpy.random.SeedSequence seed "
                "(a live Generator cannot be split into spawned streams), got "
                f"{type(seed).__name__}"
            )
        seed = int(seed.integers(np.iinfo(np.int64).max))
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(seed if seed is None else int(seed))
    raise ModelError(
        f"unsupported seed type {type(seed).__name__}; expected "
        "int | numpy.random.SeedSequence | numpy.random.Generator | None"
    )


def checked_initial(
    initial: Sequence[int] | np.ndarray, n: int, q: int, replicas: int | None = None
) -> np.ndarray:
    """Return a start configuration as a fresh int64 array, or raise.

    The one start check of the sequential chains, the LOCAL protocol
    runners, the batched engines and :class:`~repro.spec.JobSpec`, for MRFs
    and CSPs alike: ``initial`` must hold integral spins, each in
    ``0..q-1``, in shape ``(n,)`` or, when ``replicas`` is given, also
    ``(replicas, n)`` (one start per replica).  Anything else raises
    :class:`~repro.errors.ModelError`; a fractional spin is refused, never
    truncated.
    """
    try:
        config = np.asarray(initial)
    except (TypeError, ValueError) as error:
        raise ModelError(f"initial configuration is not an array of spins: {error}") from None
    shapes = [(n,)] if replicas is None else [(n,), (replicas, n)]
    if config.shape not in shapes:
        expected = " or ".join(str(shape) for shape in shapes)
        raise ModelError(
            f"initial configuration must have shape {expected}, got {config.shape}"
        )
    if config.dtype.kind not in "biuf" or (
        config.dtype.kind == "f" and not np.all(np.floor(config) == config)
    ):
        raise ModelError("initial spins must be integers")
    if np.any(config < 0) or np.any(config >= q):
        raise ModelError(f"initial spins must lie in 0..{q - 1}")
    return config.astype(np.int64)


def random_config(mrf: MRF, rng: np.random.Generator) -> np.ndarray:
    """Return a uniformly random (not necessarily feasible) configuration."""
    return rng.integers(0, mrf.q, size=mrf.n, dtype=np.int64)


def _bitmasks(flags: np.ndarray) -> list:
    """Python-int bitmask of each row of a boolean ``(rows, q)`` array.

    Bit ``s`` of mask ``i`` is ``flags[i, s]``.
    """
    rows, q = flags.shape
    words = max(-(-q // 64), 1)
    padded = np.zeros((rows, 64 * words), dtype=bool)
    padded[:, :q] = flags
    packed = np.packbits(padded, axis=1, bitorder="little").view("<u8").tolist()
    if words == 1:
        return [row[0] for row in packed]
    return [sum(word << (64 * k) for k, word in enumerate(row)) for row in packed]


def greedy_feasible_config(mrf: MRF, rng: np.random.Generator | None = None) -> np.ndarray:
    """Construct a configuration greedily, preferring feasibility.

    Vertices are assigned in order; each vertex picks a spin with positive
    vertex activity that is compatible (positive edge activity) with all
    already-assigned neighbours, chosen at random among such spins when an
    RNG is supplied, else the smallest.  If no compatible spin exists the
    vertex falls back to its highest-activity spin — the chains of this paper
    tolerate infeasible starts (they are absorbing towards feasible
    configurations), so a best-effort start is fine.

    For proper colourings with ``q >= Delta + 1`` and for occupancy models
    (hardcore, vertex cover) the result is always feasible; without an RNG
    it is the first-fit colouring.  Reads the model's compiled edge and
    palette arrays (:meth:`MRF.compiled`) as Python-int bitmasks of the
    allowed spins: one per vertex, and one per (palette table, neighbour
    spin) of the spins compatible with that neighbour.
    """
    compiled = mrf.compiled()
    activity = compiled.vertex_activity
    q = mrf.q
    allowed = _bitmasks(activity > 0)
    # compatible[t * q + c] holds the spins s with palette[t, s, c] > 0.
    compatible = _bitmasks((compiled.palette > 0).transpose(0, 2, 1).reshape(-1, q))
    fallback = np.argmax(activity, axis=1).tolist()
    # Edges are sorted with edge_u < edge_v, so grouped by edge_v they list
    # the already-assigned (smaller) neighbours of each vertex.
    order = np.argsort(compiled.edge_v, kind="stable")
    lower = compiled.edge_u[order].tolist()
    rows = (compiled.edge_table[order] * q).tolist()
    bounds = np.searchsorted(compiled.edge_v[order], np.arange(mrf.n + 1)).tolist()
    config = [0] * mrf.n
    # Inherently sequential (each choice reads the earlier ones), so the
    # loop runs on Python ints: one AND per already-assigned neighbour.
    for v in range(mrf.n):
        spins = allowed[v]
        for k in range(bounds[v], bounds[v + 1]):
            spins &= compatible[rows[k] + config[lower[k]]]
        if not spins:
            config[v] = fallback[v]
            continue
        if rng is not None:
            # Drop the lowest set bits to reach the drawn candidate.
            for _ in range(int(rng.integers(spins.bit_count()))):
                spins &= spins - 1
        config[v] = (spins & -spins).bit_length() - 1
    return np.asarray(config, dtype=np.int64)


class Chain(ABC):
    """A Markov chain over configurations of an MRF.

    Parameters
    ----------
    mrf:
        The target model; the stationary distribution should be its Gibbs
        distribution (verified exactly in the test-suite via transition
        matrices).
    initial:
        Starting configuration; ``None`` uses :func:`greedy_feasible_config`.
    seed:
        Seed, :class:`numpy.random.SeedSequence` or Generator for the
        chain's private randomness (see :func:`as_generator`).
    """

    def __init__(
        self,
        mrf: MRF,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ) -> None:
        self.mrf = mrf
        self.rng = as_generator(seed)
        if initial is None:
            self.config = greedy_feasible_config(mrf, self.rng)
        else:
            self.config = checked_initial(initial, mrf.n, mrf.q)
        self.steps_taken = 0

    @abstractmethod
    def step(self) -> None:
        """Advance the chain by one transition."""

    def run(self, steps: int) -> np.ndarray:
        """Advance ``steps`` transitions and return the current configuration."""
        for _ in range(steps):
            self.step()
        return self.config

    def trajectory(self, steps: int, record_every: int = 1) -> list[Config]:
        """Run ``steps`` transitions, recording the state every ``record_every``.

        The initial state is included as the first entry.
        """
        if record_every < 1:
            raise ModelError("record_every must be >= 1")
        states: list[Config] = [as_config(self.config)]
        for t in range(1, steps + 1):
            self.step()
            if t % record_every == 0:
                states.append(as_config(self.config))
        return states

    @property
    def current(self) -> Config:
        """Return the current configuration as an immutable tuple."""
        return as_config(self.config)

    def is_feasible(self) -> bool:
        """Return True iff the current configuration has positive Gibbs mass."""
        return self.mrf.is_feasible(self.config)
