"""Common infrastructure for Markov chains over ``[q]^V``.

A :class:`Chain` owns an MRF, a current configuration (numpy int array) and a
private RNG; ``step()`` advances one transition.  Chains are deliberately
*mutable and cheap*: mixing experiments run ensembles of thousands of chains.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.csp.model import LocalCSP
from repro.errors import ModelError
from repro.mrf.model import MRF, Config, as_config

__all__ = [
    "Chain",
    "SeedLike",
    "as_generator",
    "as_seed_sequence",
    "checked_initial",
    "random_config",
    "start_config",
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


def start_config(
    model: MRF | LocalCSP,
    initial: Sequence[int] | np.ndarray | None = None,
    replicas: int | None = None,
) -> np.ndarray:
    """The start of a run: ``initial`` checked, else the model's greedy start.

    The one start rule of the batched engines, their shards, the
    sequential chains and the LOCAL protocol runners, for MRFs and CSPs
    alike: a given ``initial`` goes through :func:`checked_initial`;
    ``None`` gives a fresh copy of ``model.compiled().greedy_start``, the
    smallest allowed spin per vertex in vertex order.  It draws no random
    number, so every replica, shard and oracle of one model starts from
    the same configuration.  For hardcore that start is the empty set: a
    mixing estimate from a far start needs ``initial``.
    """
    if initial is None:
        return model.compiled().greedy_start.copy()
    return checked_initial(initial, model.n, model.q, replicas)


def random_config(mrf: MRF, rng: np.random.Generator) -> np.ndarray:
    """Return a uniformly random (not necessarily feasible) configuration."""
    return rng.integers(0, mrf.q, size=mrf.n, dtype=np.int64)


class Chain(ABC):
    """A Markov chain over configurations of an MRF.

    Parameters
    ----------
    mrf:
        The target model; the stationary distribution should be its Gibbs
        distribution (verified exactly in the test-suite via transition
        matrices).
    initial:
        Starting configuration; ``None`` uses the greedy start
        (:func:`start_config`).
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
        self.config = start_config(mrf, initial)
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
