"""Canonical model serialization and content fingerprints.

The serving layer (:mod:`repro.serve`) caches sampling results keyed by
*what was requested*, not by which in-memory objects happened to describe
it.  That requires a canonical, identity-free form for models:

* :meth:`repro.mrf.model.MRF.to_dict` / :meth:`repro.csp.model.LocalCSP.to_dict`
  emit a plain-JSON *palette form*.  Every distinct factor table appears
  once, deduplicated by its float64 bytes in first-use order along the
  canonical (sorted) edge order or the constraint order, and each edge or
  constraint carries an index into that palette; an MRF's vertex
  activities travel the same way, as a palette of rows plus one index per
  vertex.  A colouring, hardcore or Ising model therefore ships one
  ``q x q`` table instead of ``m`` copies.  ``from_dict`` rebuilds an
  equivalent model whose factors share one frozen array per palette entry;
* ``model_fingerprint()`` hashes the *distribution-defining* part of that
  payload (names are cosmetic and excluded), so two independently built
  copies of the same model share one fingerprint — and therefore one cache
  line.  Models are immutable (mutations return new instances), so each
  instance computes its fingerprint on the first call and memoizes it.

Fingerprint contract: equal fingerprints guarantee bit-identical sampling
results for equal requests.  Everything that can change a sampled bit
(edge/constraint order, activity values, ``n``, ``q``) is part of the
hashed payload; everything that cannot (model/constraint names, object
identity, whether equal tables are shared or copied, array dtypes beyond
their float values) is not.

This module deliberately has no model imports at module level — the model
classes import the helpers below, and :func:`model_from_dict` resolves the
concrete class lazily by payload ``type``.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence

import numpy as np

from repro.errors import ModelError

__all__ = [
    "canonical_json",
    "payload_fingerprint",
    "table_palette",
    "frozen_table",
    "palette_index",
    "model_to_dict",
    "model_from_dict",
]


def canonical_json(payload) -> str:
    """Serialise ``payload`` into its canonical JSON text.

    Sorted keys, no whitespace, ``allow_nan=False`` — two structurally
    equal payloads always produce the same bytes, which is what makes the
    fingerprint (and hence every cache key built on it) stable across
    processes and sessions.  Floats rely on ``repr``-style shortest
    round-trip formatting, so distinct float64 values never collide and
    equal values never diverge.
    """
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as error:
        raise ModelError(f"payload is not canonically serialisable: {error}") from None


def payload_fingerprint(payload) -> str:
    """SHA-256 hex digest of :func:`canonical_json` of ``payload``."""
    text = canonical_json(payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table_palette(tables: Sequence[np.ndarray]) -> tuple[list[np.ndarray], list[int]]:
    """Deduplicate float64 tables by value, in first-use order.

    Returns ``(palette, index)``: the distinct tables (each represented by
    the first array seen with its shape and bytes) and, for every input
    table, its position in ``palette``.  Object identity is tried before
    the bytes, so tables shared by reference — the usual case, since
    builders, :meth:`from_dict` and copy-on-write mutations all share
    frozen arrays — cost one dict lookup each.  ``tables`` is a sequence,
    not an iterator: every array stays alive for the whole call, which is
    what makes ``id`` a safe key.
    """
    palette: list[np.ndarray] = []
    index: list[int] = []
    by_id: dict[int, int] = {}
    by_value: dict[tuple, int] = {}
    for table in tables:
        position = by_id.get(id(table))
        if position is None:
            key = (table.shape, table.tobytes())
            position = by_value.get(key)
            if position is None:
                position = by_value[key] = len(palette)
                palette.append(table)
            by_id[id(table)] = position
        index.append(position)
    return palette, index


def frozen_table(values) -> np.ndarray:
    """A read-only float64 copy of one palette entry, shared by its factors."""
    table = np.array(values, dtype=float)
    table.setflags(write=False)
    return table


def palette_index(values, size: int, count: int, what: str) -> np.ndarray:
    """Validate payload palette indices: ``count`` integers in ``0..size-1``, as int64.

    Raises :class:`~repro.errors.ModelError` on a count mismatch or an
    out-of-range index.  Non-integer entries raise ``TypeError`` or
    ``ValueError``, which the caller reports as a malformed payload.
    """
    index = np.asarray(values, dtype=np.int64)
    if index.ndim != 1:
        raise ValueError(f"{what} palette index must be a list of integers")
    if index.size != count:
        raise ModelError(
            f"{what} palette index has {index.size} entries; expected {count}"
        )
    if index.size and (index.min() < 0 or index.max() >= size):
        raise ModelError(f"{what} palette index outside 0..{size - 1}")
    return index


def model_to_dict(model) -> dict:
    """Serialise an :class:`~repro.mrf.model.MRF` or :class:`~repro.csp.model.LocalCSP`."""
    to_dict = getattr(model, "to_dict", None)
    if to_dict is None:
        raise ModelError(
            f"cannot serialise model of type {type(model).__name__}; expected an "
            "object with to_dict() (MRF or LocalCSP)"
        )
    return to_dict()


def model_from_dict(payload: dict):
    """Rebuild a model from a :func:`model_to_dict` payload.

    Dispatches on ``payload["type"]`` (``"mrf"`` or ``"csp"``); the inverse
    of :func:`model_to_dict` up to object identity — the rebuilt model has
    the same fingerprint as the original.
    """
    if not isinstance(payload, dict):
        raise ModelError(f"model payload must be a dict, got {type(payload).__name__}")
    kind = payload.get("type")
    if kind == "mrf":
        from repro.mrf.model import MRF

        return MRF.from_dict(payload)
    if kind == "csp":
        from repro.csp.model import LocalCSP

        return LocalCSP.from_dict(payload)
    raise ModelError(f"unknown model payload type {kind!r}; expected 'mrf' or 'csp'")
