"""Model serialization, the array codec and content fingerprints.

The serving layer (:mod:`repro.serve`) caches sampling results keyed by
*what was requested*, not by which in-memory objects happened to describe
it.  A model is its stored arrays (:class:`~repro.compiled.CompiledMRF`,
:class:`~repro.compiled.CompiledCSP`), and both its identity and its wire
form are those arrays:

* :func:`encode_array` / :func:`decode_array` are the one array codec.
  An array travels as ``{"dtype", "shape", "b64"}``: its little-endian
  bytes, base64-encoded, in the smallest of ``|i1``/``<i2``/``<i4``/``<i8``
  that holds every entry of an integer array, or in ``<f8``.  Decoding
  checks the dtype, rank, extents and byte count and returns a fresh int64
  or float64 array.  Model fields, ``initial`` starts and ``sample_many``
  batches all travel this way;
* :meth:`repro.mrf.model.MRF.to_dict` / :meth:`repro.csp.model.LocalCSP.to_dict`
  emit the model's ``type``, ``name``, ``n``, ``q`` and every stored field
  through the codec; ``from_dict`` refuses any other key, decodes them and
  hands them to the model's one constructor, which validates them like
  any other entry path;
* :func:`model_fingerprint` hashes the stored fields directly.

Fingerprint recipe: the SHA-256 of the ASCII header ``"{kind} {n} {q}\\n"``
(``kind`` is ``mrf`` or ``csp``) followed by one line
``"{field} {dtype} {shape}\\n"`` per stored array in field order (``dtype``
the little-endian ``dtype.str``, ``<i8`` or ``<f8``; ``shape`` the extents
joined by commas), then the arrays' little-endian bytes in the same order.
A CSP's palette contributes one ``palette`` line and one array per table.
Each record computes it on first use and memoizes it; pickles leave it out.

Fingerprint contract: equal fingerprints guarantee bit-identical sampling
results for equal requests.  Everything that can change a sampled bit
(``n``, ``q``, edge or constraint order, every index and table entry) is
hashed; the model name is not.

This module deliberately has no model imports at module level — the model
classes import the helpers below, and :func:`model_from_dict` resolves the
concrete class lazily by payload ``type``.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import ModelError

__all__ = [
    "MAX_COUNT",
    "MODEL_KEYS",
    "canonical_json",
    "decode_array",
    "decode_fields",
    "encode_array",
    "model_fingerprint",
    "table_palette",
    "frozen_table",
    "model_to_dict",
    "model_from_dict",
    "wire_int",
]

#: The wire dtypes of an integer array, smallest first, and of a float array.
INT_DTYPES = ("|i1", "<i2", "<i4", "<i8")
FLOAT_DTYPES = ("<f8",)

#: Bound on every count a payload declares: a model's ``n`` and the
#: entries of a decoded array (a zero extent counting as one) stay below
#: it, so ``lo * n + hi`` vertex-pair keys cannot wrap in int64.
MAX_COUNT = 1 << 31

#: The keys of a model payload: a model is its name, ``n``, ``q`` and arrays.
MODEL_KEYS = ("type", "name", "n", "q", "arrays")

#: Largest rank of a decoded array: a table of arity 32 over two spins
#: already holds 2**32 entries.
_MAX_RANK = 32


def canonical_json(payload) -> str:
    """Serialise ``payload`` into its canonical JSON text.

    Sorted keys, no whitespace, ``allow_nan=False`` — two structurally
    equal payloads always produce the same bytes, which is what makes a
    cache key built on it stable across processes and sessions.
    """
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as error:
        raise ModelError(f"payload is not canonically serialisable: {error}") from None


def encode_array(array) -> dict:
    """An int or float array as ``{"dtype", "shape", "b64"}``; see :func:`decode_array`."""
    array = np.asarray(array)
    if array.dtype.kind == "f":
        dtype = np.dtype(FLOAT_DTYPES[0])
    else:
        lo, hi = (int(array.min()), int(array.max())) if array.size else (0, 0)
        dtype = next(
            np.dtype(name) for name in INT_DTYPES
            if np.iinfo(name).min <= lo and hi <= np.iinfo(name).max
        )
    data = np.ascontiguousarray(array, dtype=dtype)
    return {
        "dtype": dtype.str,
        "shape": list(array.shape),
        "b64": base64.b64encode(data).decode("ascii"),
    }


def decode_array(payload, kind: str, ndim: int | None = None, what: str = "array",
                 error: type[Exception] = ModelError) -> np.ndarray:
    """Decode an :func:`encode_array` payload into a fresh int64 or float64 array.

    ``kind`` is ``"int"`` or ``"float"``: the dtype must be one of
    :data:`INT_DTYPES` or :data:`FLOAT_DTYPES`.  ``ndim`` fixes the rank
    (``None``: any rank from 1 to 32).  The extents must be non-negative
    ints holding fewer than :data:`MAX_COUNT` entries, and the bytes must
    match them.  Anything else raises ``error`` naming ``what``.
    """
    if not isinstance(payload, dict):
        raise error(
            f"{what} must be a {{dtype, shape, b64}} object, got {type(payload).__name__}"
        )
    dtype = payload.get("dtype")
    allowed = INT_DTYPES if kind == "int" else FLOAT_DTYPES
    if not (isinstance(dtype, str) and dtype in allowed):
        holds = "integers" if kind == "int" else "floats"
        raise error(f"{what} holds {holds}: its dtype must be one of {allowed}, got {dtype!r}")
    shape = payload.get("shape")
    if not (
        isinstance(shape, list)
        and (len(shape) == ndim if ndim is not None else 1 <= len(shape) <= _MAX_RANK)
        and all(type(extent) is int and extent >= 0 for extent in shape)
    ):
        rank = f"{ndim}" if ndim is not None else f"1 to {_MAX_RANK}"
        raise error(f"{what} shape must be a list of {rank} non-negative ints, got {shape!r}")
    if math.prod(max(extent, 1) for extent in shape) >= MAX_COUNT:
        raise error(f"{what} shape {shape} has {MAX_COUNT} or more entries")
    text = payload.get("b64")
    if not isinstance(text, str):
        raise error(f"{what} b64 must be a string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as problem:  # binascii.Error, or non-ASCII text
        raise error(f"{what} b64 is not valid base64: {problem}") from None
    expected = math.prod(shape) * np.dtype(dtype).itemsize
    if len(raw) != expected:
        raise error(f"{what} of shape {shape} in {dtype} needs {expected} bytes, got {len(raw)}")
    target = np.int64 if kind == "int" else np.float64
    return np.frombuffer(raw, dtype=dtype).astype(target).reshape(shape)


def wire_int(value, what: str) -> int:
    """An int or integral float as an int; a bool, string or fraction raises ``TypeError``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeError(f"{what} must be an integer, got {value!r}")


def wire_number(value, what: str) -> float:
    """An int or float as a finite float; a bool or string raises ``TypeError``, NaN,
    infinity or an int past the float range ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def decode_fields(payload: dict, label: str, fields: dict[str, tuple[str, int | None]]):
    """``(n, q, name, arrays)`` of a model's ``to_dict`` payload.

    ``fields`` is the record's ``ARRAYS``: each stored array field with the
    ``kind`` and ``ndim`` of :func:`decode_array`, ``ndim=None`` marking a
    list of arrays of any rank (a CSP's palette).  A key outside
    :data:`MODEL_KEYS` or ``fields``, a missing or malformed part or a
    non-integer ``n`` or ``q`` raises :class:`~repro.errors.ModelError`
    naming it; the model's constructor then validates the arrays.
    """
    try:
        if not isinstance(payload, dict):
            raise TypeError(f"it must be an object, got {type(payload).__name__}")
        stray = [key for key in payload if key not in MODEL_KEYS]
        if stray:
            raise ValueError(f"unknown key(s) {stray}; a model payload has only {MODEL_KEYS}")
        n, q = wire_int(payload["n"], "n"), wire_int(payload["q"], "q")
        name = str(payload.get("name", label.lower()))
        arrays = payload["arrays"]
        if not isinstance(arrays, dict):
            raise TypeError(f"arrays must be an object, got {type(arrays).__name__}")
        stray = [key for key in arrays if key not in fields]
        if stray:
            raise ValueError(f"unknown array(s) {stray}; {label} arrays are {list(fields)}")
        decoded = {}
        for field, (kind, ndim) in fields.items():
            value = arrays[field]
            if ndim is not None:
                decoded[field] = decode_array(value, kind, ndim, what=field)
            elif isinstance(value, list):
                decoded[field] = [decode_array(entry, kind, what=f"{field}[{k}]")
                                  for k, entry in enumerate(value)]
            else:
                raise TypeError(f"{field} must be a list of arrays, got {type(value).__name__}")
    except (KeyError, TypeError, ValueError, OverflowError, ModelError) as error:
        raise ModelError(f"malformed {label} payload: {error}") from None
    return n, q, name, decoded


def model_fingerprint(kind: str, n: int, q: int,
                      arrays: Iterable[tuple[str, np.ndarray]]) -> str:
    """The SHA-256 hex digest of a model's stored arrays (recipe in the module docstring)."""
    arrays = [(field, np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<")))
              for field, array in arrays]
    lines = [f"{kind} {n} {q}\n"] + [
        f"{field} {array.dtype.str} {','.join(map(str, array.shape))}\n"
        for field, array in arrays
    ]
    digest = hashlib.sha256("".join(lines).encode("ascii"))
    for _, array in arrays:
        digest.update(array)
    return digest.hexdigest()


def table_palette(tables: Sequence[np.ndarray]) -> tuple[list[np.ndarray], list[int]]:
    """Deduplicate float64 tables by value, in first-use order.

    Returns ``(palette, index)``: the distinct tables (each represented by
    the first array seen with its shape and bytes) and, for every input
    table, its position in ``palette``.  Object identity is tried before
    the bytes, so tables shared by reference — the usual case, since
    builders and copy-on-write mutations share frozen arrays — cost one
    dict lookup each.  ``tables`` is a sequence, not an iterator: every
    array stays alive for the whole call, which is what makes ``id`` a
    safe key.
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
    the same stored arrays and fingerprint as the original.
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
