"""`JobSpec` — the one description of a sampling request.

Every layer that accepts work speaks this dataclass: the facade
(``sample_many``/``tv_curve``/``mixing_time`` build a spec and
:meth:`JobSpec.run` it through :func:`repro.api.run_spec`), the job
scheduler (:class:`repro.exec.jobs.JobRunner`), the CLI (``repro
submit``) and the serving daemon (:mod:`repro.serve`).  A spec is:

* **validated at construction** — a bad method, method/model pairing,
  replica count, round count or checkpoint list raises
  :class:`~repro.errors.ModelError` before any work is scheduled;
* **self-contained and picklable** — workers execute it with no other
  context;
* **wire-serialisable** (:meth:`to_wire` / :meth:`from_wire`) — the model
  travels as its stored arrays in the array codec of :mod:`repro.serialize`
  (as does an ``initial`` start), so a request submitted over HTTP rebuilds
  a model with the same arrays on the server, or as a fingerprint
  (:meth:`to_wire_fingerprint`) that the receiver resolves through its
  registry of decoded models;
* **content-addressable** (:meth:`cache_key`) — the key hashes the model
  fingerprint, method, seed and every parameter that can influence a
  sampled bit, and *nothing else*.  Because results are bit-identical for
  any worker count, placement (``parallel``) is excluded, but *whether*
  the run is sharded (and the shard size) is included — shard plans change
  the RNG streams.

Requests without a reproducible seed (``seed=None`` or a live Generator)
have no cache key: their results are honest fresh randomness and must
never be replayed.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from repro.chains.base import SeedLike, checked_initial
from repro.chains.ensemble import canonical_checkpoints
from repro.errors import ModelError, UnknownModelError
from repro.families import validate_method
from repro.serialize import (
    canonical_json, decode_array, encode_array, model_from_dict, model_to_dict, wire_int,
    wire_number,
)

__all__ = ["JOB_KINDS", "JOB_PARAMS", "JobSpec"]


def _or_none(check):
    """``check``, letting an explicit ``None`` (JSON ``null``) through."""
    return lambda value, what: None if value is None else check(value, what)


def _int_list(value, what: str) -> list[int]:
    """A list of integers, each checked by :func:`~repro.serialize.wire_int`."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{what} must be a list of integers, got {value!r}")
    return [wire_int(item, what) for item in value]


#: Each job kind's ``params`` keys, with the check a given value passes
#: (a ``TypeError`` or ``ValueError`` naming the key).  The one declaration
#: of which parameters a kind takes: :meth:`JobSpec.from_params` refuses any
#: other key and leaves an absent one to the kind's constructor default, and
#: :meth:`JobSpec.params_dict` emits exactly these.
JOB_PARAMS = {
    "sample_many": {
        "replicas": wire_int, "rounds": _or_none(wire_int), "eps": _or_none(wire_number),
    },
    "tv_curve": {"replicas": wire_int, "checkpoints": _int_list},
    "mixing_time": {
        "replicas": wire_int, "eps": wire_number, "max_rounds": wire_int, "stride": wire_int,
    },
}
JOB_KINDS = tuple(JOB_PARAMS)

#: The plain cast :meth:`JobSpec.params_dict` gives each parameter that is not an int.
_PLAIN = {"eps": float, "checkpoints": list}


#: Wire-format version; bumped on incompatible changes so a client and a
#: long-running daemon from different releases fail loudly, not subtly.
#: Version 3 returned sample batches as base64 arrays; version 4 carries
#: models and ``initial`` starts in the same array codec
#: (:mod:`repro.serialize`), with the fingerprint over the stored bytes;
#: version 5 ships a model as exactly its name, ``n``, ``q`` and arrays.
WIRE_VERSION = 5

#: A model fingerprint: the SHA-256 hex digest of its stored arrays.
_FINGERPRINT = re.compile(r"[0-9a-f]{64}")


def _canonical_seed(seed, strict: bool):
    """Reduce a seed to its canonical wire/cache form (an int or ``None``).

    An int is itself; a fresh :class:`numpy.random.SeedSequence` with int
    entropy reduces to that entropy (``default_rng(SeedSequence(x))`` and
    ``default_rng(x)`` are the same stream); anything else — ``None``, a
    live Generator, a SeedSequence that has already spawned children or
    carries a composite entropy — is not canonically reproducible.  With
    ``strict=False`` those return ``None`` (meaning: uncacheable); with
    ``strict=True`` they raise, because a wire payload silently dropping
    the seed would turn a deterministic request into a random one.
    """
    if seed is None:
        value = None
    elif isinstance(seed, (int, np.integer)):
        value = int(seed)
    elif (
        isinstance(seed, np.random.SeedSequence)
        and isinstance(seed.entropy, int)
        and seed.spawn_key == ()
        and seed.n_children_spawned == 0
    ):
        value = int(seed.entropy)
    else:
        value = None
    if value is None and seed is not None and strict:
        raise ModelError(
            "this JobSpec's seed cannot be canonically serialised; use an int "
            "or a fresh integer-entropy numpy.random.SeedSequence, got "
            f"{type(seed).__name__}"
        )
    return value


def _wire_model(payload, models: Mapping[str, object] | None):
    """Decode a wire model, or resolve a fingerprint reference via ``models``."""
    if not (isinstance(payload, dict) and payload.get("type") == "fingerprint"):
        return model_from_dict(payload)
    fingerprint = payload.get("fingerprint")
    if not (isinstance(fingerprint, str) and _FINGERPRINT.fullmatch(fingerprint)):
        raise ModelError(
            "a model sent by fingerprint needs a 'fingerprint' of 64 lowercase "
            "hex characters"
        )
    model = None if models is None else models.get(fingerprint)
    if model is None:
        raise UnknownModelError(
            f"unknown model fingerprint {fingerprint[:16]}...; "
            "resubmit with the full model payload"
        )
    return model


@dataclass(frozen=True)
class JobSpec:
    """One sampling request, self-contained and picklable.

    Build instances with the :meth:`sample_many`, :meth:`tv_curve` and
    :meth:`mixing_time` constructors — their signatures mirror the
    :mod:`repro.api` functions whose results they reproduce — or, from a
    mapping of a kind's :data:`JOB_PARAMS`, with :meth:`from_params`.
    ``name`` labels the job in streamed events (defaults to ``kind:method``).

    ``parallel``/``shard_size`` request sharded execution
    (:mod:`repro.exec`): the *shard plan* is part of the result bits (it
    fixes the RNG streams), the worker count is pure placement.  The cache
    key and the wire form therefore carry "sharded + shard_size", never
    the worker count.
    """

    kind: str
    model: object
    method: str = "local-metropolis"
    replicas: int = 1
    rounds: int | None = None
    eps: float | None = None
    checkpoints: tuple[int, ...] | None = None
    max_rounds: int = 10_000
    stride: int = 1
    seed: SeedLike = None
    initial: object = None
    name: str | None = None
    parallel: int | None = None
    shard_size: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ModelError(f"unknown job kind {self.kind!r}; choose from {JOB_KINDS}")
        validate_method(self.model, self.method)
        if self.replicas < 1:
            raise ModelError(f"job needs r >= 1 replicas, got {self.replicas}")
        if self.initial is not None:
            # Checked here, not first in a worker: a bad start is a 400.
            checked_initial(self.initial, self.model.n, self.model.q, self.replicas)
        if self.rounds is not None and self.rounds < 0:
            raise ModelError(f"rounds must be >= 0, got {self.rounds}")
        if self.kind == "tv_curve":
            # Frozen dataclass: store the canonical tuple the one allowed way.
            checkpoints = canonical_checkpoints(self.checkpoints, error=ModelError)
            object.__setattr__(self, "checkpoints", checkpoints)
        if self.kind == "mixing_time":
            # The probe loop checks these too, but only once a worker runs
            # the job; rejecting them here keeps bad requests off the pool.
            if self.eps is None:
                raise ModelError("a mixing_time job needs eps")
            if self.stride < 1:
                raise ModelError(f"stride must be >= 1, got {self.stride}")
            if self.max_rounds < 1:
                raise ModelError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.parallel is not None and self.parallel < 0:
            raise ModelError(f"parallel must be >= 0 workers, got {self.parallel}")
        if self.shard_size is not None and self.parallel is None:
            raise ModelError("shard_size only applies to sharded runs; pass parallel=")

    @property
    def label(self) -> str:
        """Display name used in streamed :class:`~repro.exec.jobs.JobUpdate` events."""
        return self.name or f"{self.kind}:{self.method}"

    # ------------------------------------------------------------------
    # constructors (signatures mirror the repro.api facade)
    # ------------------------------------------------------------------
    @classmethod
    def sample_many(
        cls,
        model,
        replicas: int,
        method: str = "local-metropolis",
        eps: float = 0.05,
        rounds: int | None = None,
        seed: SeedLike = None,
        initial=None,
        name: str | None = None,
        parallel: int | None = None,
        shard_size: int | None = None,
    ) -> JobSpec:
        """A spec whose result is ``repro.api.sample_many(...)`` — an ``(R, n)`` batch."""
        return cls(
            kind="sample_many",
            model=model,
            method=method,
            replicas=replicas,
            eps=eps,
            rounds=rounds,
            seed=seed,
            initial=initial,
            name=name,
            parallel=parallel,
            shard_size=shard_size,
        )

    @classmethod
    def tv_curve(
        cls,
        model,
        checkpoints,
        method: str = "local-metropolis",
        replicas: int = 1024,
        seed: SeedLike = None,
        initial=None,
        name: str | None = None,
        parallel: int | None = None,
        shard_size: int | None = None,
    ) -> JobSpec:
        """A spec whose result is ``repro.api.tv_curve(...)``; checkpoints stream live."""
        return cls(
            kind="tv_curve",
            model=model,
            method=method,
            replicas=replicas,
            checkpoints=checkpoints,
            seed=seed,
            initial=initial,
            name=name,
            parallel=parallel,
            shard_size=shard_size,
        )

    @classmethod
    def mixing_time(
        cls,
        model,
        eps: float = 0.125,
        method: str = "local-metropolis",
        replicas: int = 2048,
        max_rounds: int = 10_000,
        stride: int = 1,
        seed: SeedLike = None,
        initial=None,
        name: str | None = None,
        parallel: int | None = None,
        shard_size: int | None = None,
    ) -> JobSpec:
        """A spec whose result is ``repro.api.mixing_time(...)``; TV probes stream live."""
        return cls(
            kind="mixing_time",
            model=model,
            method=method,
            replicas=replicas,
            eps=eps,
            max_rounds=max_rounds,
            stride=stride,
            seed=seed,
            initial=initial,
            name=name,
            parallel=parallel,
            shard_size=shard_size,
        )

    @classmethod
    def from_params(cls, kind: str, model, params: Mapping, **options) -> JobSpec:
        """A ``kind`` spec from a mapping of its :data:`JOB_PARAMS` keys.

        The one builder behind :meth:`from_wire`, sweep cells and the CLI.
        Each value passes its key's check (numbers are checked, never
        coerced), then a key the kind does not take is refused by name, and
        the kind's constructor gets the rest with ``options`` (``method``,
        ``seed``, ``initial``, ``name``, ``parallel``, ``shard_size``): an
        absent parameter takes that constructor's default.  Every refusal
        is a :class:`~repro.errors.ModelError`.
        """
        if kind not in JOB_KINDS:
            raise ModelError(f"unknown job kind {kind!r}; choose from {JOB_KINDS}")
        checks = JOB_PARAMS[kind]
        try:
            values = {key: check(params[key], key) for key, check in checks.items()
                      if key in params}
        except (TypeError, ValueError) as error:
            raise ModelError(str(error)) from None
        stray = [key for key in params if key not in checks]
        if stray:
            raise ModelError(
                f"unknown {kind} param(s) {', '.join(map(repr, stray))}; "
                f"a {kind} job takes {', '.join(checks)}"
            )
        try:
            return getattr(cls, kind)(model, **values, **options)
        except TypeError as error:  # a parameter without a constructor default is absent
            raise ModelError(f"{error}; a {kind} job takes {', '.join(checks)}") from None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, target=None, on_checkpoint=None):
        """Execute this spec; equivalent to :func:`repro.api.run_spec`.

        ``target`` optionally supplies a pre-computed exact distribution
        for the convergence kinds (a runtime convenience — it is not part
        of the spec); ``on_checkpoint(round, tv)`` is called at every TV
        probe, which is how the job workers stream progress.
        """
        from repro import api

        return api.run_spec(self, target=target, on_checkpoint=on_checkpoint)

    # ------------------------------------------------------------------
    # canonical forms
    # ------------------------------------------------------------------
    def params_dict(self) -> dict:
        """The kind-specific parameters, canonically normalised.

        Exactly the values (beyond model/method/seed) that can influence
        the result bits — this dict is hashed into :meth:`cache_key` and
        embedded verbatim in :meth:`to_wire`: the kind's
        :data:`JOB_PARAMS`, ``initial`` and the sharding keys.  The worker
        count is placement, not parameters; sharding and shard size change
        the RNG streams, so they are parameters.
        """
        initial = self.initial
        params: dict = {
            "initial": None if initial is None else encode_array(np.asarray(initial, np.int64)),
        }
        for key in JOB_PARAMS[self.kind]:
            value = getattr(self, key)
            params[key] = None if value is None else _PLAIN.get(key, int)(value)
        params["sharded"] = self.parallel is not None
        if self.parallel is not None:
            params["shard_size"] = (
                None if self.shard_size is None else int(self.shard_size)
            )
        return params

    def cache_key(self) -> str | None:
        """Content address of this request's result, or ``None`` if uncacheable.

        ``sha256(model_fingerprint, kind, method, canonical seed, params)``.
        Returns ``None`` for requests whose randomness is not reproducible
        (no seed, a live Generator, a spent SeedSequence) — caching those
        would replay entropy the caller asked to be fresh.
        """
        seed = _canonical_seed(self.seed, strict=False)
        if seed is None:
            return None
        fingerprint = getattr(self.model, "model_fingerprint", None)
        if fingerprint is None:
            return None
        request = {
            "model": fingerprint(),
            "kind": self.kind,
            "method": self.method,
            "seed": seed,
            "params": self.params_dict(),
        }
        return hashlib.sha256(canonical_json(request).encode("ascii")).hexdigest()

    def _wire(self, model: dict) -> dict:
        """The wire envelope of this spec around an encoded ``model``."""
        return {
            "version": WIRE_VERSION,
            "kind": self.kind,
            "method": self.method,
            "model": model,
            "seed": _canonical_seed(self.seed, strict=True),
            "name": self.name,
            "params": self.params_dict(),
        }

    def to_wire(self) -> dict:
        """Serialise into a plain-JSON payload; inverse of :meth:`from_wire`.

        Raises :class:`~repro.errors.ModelError` if the seed or model has
        no canonical form.  The worker count is deliberately absent: a
        sharded request travels as ``sharded + shard_size`` and executes
        server-side with the bit-identical in-process reference.
        """
        return self._wire(model_to_dict(self.model))

    def to_wire_fingerprint(self) -> dict | None:
        """A :meth:`to_wire` payload with the model sent *by fingerprint*.

        The model field — typically the overwhelming bulk of the wire
        payload — is replaced by ``{"type": "fingerprint", "fingerprint":
        <hex>}``.  Only a server that has already seen the full model can
        resolve it (it answers HTTP 409 otherwise, and the client falls
        back to :meth:`to_wire`).  Returns ``None`` when the model has no
        fingerprint and the fast path does not apply.
        """
        fingerprint = getattr(self.model, "model_fingerprint", None)
        if fingerprint is None:
            return None
        return self._wire({"type": "fingerprint", "fingerprint": fingerprint()})

    @classmethod
    def from_wire(
        cls, payload: dict, models: Mapping[str, object] | None = None
    ) -> JobSpec:
        """Rebuild a :class:`JobSpec` from a :meth:`to_wire` payload.

        A model sent by fingerprint (:meth:`to_wire_fingerprint`) resolves
        through ``models``, a mapping from fingerprint to decoded model
        (the sampling server passes its registry), at the cost of one
        lookup: nothing is decoded or hashed.  A well-formed fingerprint
        missing from ``models`` raises
        :class:`~repro.errors.UnknownModelError`; every other malformed
        field raises :class:`~repro.errors.ModelError`.  Besides
        ``initial`` and ``sharded``/``shard_size``, the ``params`` go to
        :meth:`from_params`: a key the kind does not take is refused (a
        misspelt parameter must not run at its default), and an absent one
        takes the kind's constructor default.  Numbers are checked, never
        coerced (:func:`~repro.serialize.wire_int`,
        :func:`~repro.serialize.wire_number`).
        """
        if not isinstance(payload, dict):
            raise ModelError(f"job payload must be a dict, got {type(payload).__name__}")
        version = payload.get("version", WIRE_VERSION)
        if version != WIRE_VERSION:
            raise ModelError(
                f"unsupported JobSpec wire version {version!r}; this build "
                f"speaks version {WIRE_VERSION}"
            )
        kind = payload.get("kind")
        if kind not in JOB_KINDS:
            raise ModelError(f"unknown job kind {kind!r}; choose from {JOB_KINDS}")
        try:
            model = _wire_model(payload["model"], models)
            params = dict(payload.get("params") or {})
            seed = payload.get("seed")
            if seed is not None:
                seed = wire_int(seed, "seed")
                if seed < 0:
                    raise ModelError(f"seed must be a non-negative integer, got {seed}")
            name = payload.get("name")
            initial = params.pop("initial", None)
            if initial is not None:
                initial = decode_array(initial, "int", what="initial")
            sharded = params.pop("sharded", False)
            if not isinstance(sharded, bool):
                raise TypeError(f"sharded must be true or false, got {sharded!r}")
            # An unsharded payload's shard_size stays in params, to be refused.
            shard_size = params.pop("shard_size", None) if sharded else None
            return cls.from_params(
                kind,
                model,
                params,
                method=str(payload.get("method", "local-metropolis")),
                seed=seed,
                initial=initial,
                name=None if name is None else str(name),
                parallel=0 if sharded else None,
                shard_size=None if shard_size is None else wire_int(shard_size, "shard_size"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise ModelError(f"malformed JobSpec payload: {error}") from None

    def with_placement(
        self, parallel: int | None = None, shard_size: int | None = None
    ) -> JobSpec:
        """A copy of this spec with different execution placement.

        ``parallel=None`` returns to single-process execution.  Note that
        placement is *not* free for result bits: switching between sharded
        and unsharded execution (or changing ``shard_size``) changes the
        RNG shard plan and therefore the cache key; changing only the
        worker count of an already-sharded spec does not.
        """
        return replace(self, parallel=parallel, shard_size=shard_size)
