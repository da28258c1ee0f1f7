"""Result encoding for the serving wire format.

One encoder/decoder pair per job kind, chosen so the round trip is
*bit-exact*:

* a ``sample_many`` batch travels as one little-endian array,
  ``{"dtype", "shape", "b64"}``: its bytes in the smallest signed integer
  dtype that holds every spin (``|i1`` for q <= 127, the engines' own spin
  dtype), base64-encoded.  At n=256, R=32 that is 11 kB instead of 28 kB
  of decimal JSON, and both directions are a byte copy rather than one
  Python int per spin;
* TV values are float64 (``json`` emits the shortest repr, which
  ``float()`` parses back to the identical bits);
* a mixing time is an int.

Decoding validates what it reads and raises
:class:`~repro.errors.ServeError` on any malformed payload.  The serve
test-suite asserts end-to-end bit-identity against direct
:func:`repro.run_spec` calls on the strength of this module.
"""

from __future__ import annotations

import base64

import numpy as np

from repro.chains.ensemble import _spin_dtype
from repro.errors import ServeError
from repro.spec import JOB_KINDS

__all__ = ["encode_result", "decode_result"]

#: The ``dtype.str`` a sample batch may travel in: int8, int16 or int64,
#: little-endian — the dtypes :func:`~repro.chains.ensemble._spin_dtype`
#: picks from.
_BATCH_DTYPES = ("|i1", "<i2", "<i8")


def _encode_batch(result) -> dict:
    batch = np.asarray(result, dtype=np.int64)
    lo, hi = (int(batch.min()), int(batch.max())) if batch.size else (0, 0)
    # _spin_dtype(v) is the smallest dtype whose maximum is >= v, and a
    # signed dtype holds lo iff its maximum is >= ~lo == -lo - 1.
    dtype = _spin_dtype(max(hi, ~lo)).newbyteorder("<")
    data = np.ascontiguousarray(batch, dtype=dtype)
    return {
        "dtype": dtype.str,
        "shape": list(batch.shape),
        "b64": base64.b64encode(data).decode("ascii"),
    }


def _decode_batch(payload) -> np.ndarray:
    if not isinstance(payload, dict):
        raise ServeError(
            f"a sample batch is a {{dtype, shape, b64}} object, got {type(payload).__name__}"
        )
    dtype = payload.get("dtype")
    if dtype not in _BATCH_DTYPES:
        raise ServeError(f"sample batch dtype must be one of {_BATCH_DTYPES}, got {dtype!r}")
    shape = payload.get("shape")
    if not (
        isinstance(shape, list)
        and len(shape) == 2
        and all(type(extent) is int and extent >= 0 for extent in shape)
    ):
        raise ServeError(
            f"sample batch shape must be [replicas, n] of non-negative ints, got {shape!r}"
        )
    text = payload.get("b64")
    if not isinstance(text, str):
        raise ServeError(f"sample batch b64 must be a string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as error:  # binascii.Error, or non-ASCII text
        raise ServeError(f"sample batch b64 is not valid base64: {error}") from None
    replicas, n = shape
    expected = replicas * n * np.dtype(dtype).itemsize
    if len(raw) != expected:
        raise ServeError(
            f"sample batch of shape {shape} in {dtype} needs {expected} bytes, "
            f"got {len(raw)}"
        )
    return np.frombuffer(raw, dtype=dtype).astype(np.int64).reshape(replicas, n)


def _decode_curve(payload) -> list[tuple[int, float]]:
    if isinstance(payload, list) and all(
        isinstance(pair, list)
        and len(pair) == 2
        and type(pair[0]) is int
        and type(pair[1]) in (int, float)
        for pair in payload
    ):
        return [(rounds, float(tv)) for rounds, tv in payload]
    raise ServeError("a tv_curve result is a list of [round, tv] pairs of numbers")


def encode_result(kind: str, result):
    """Encode a job result into its plain-JSON wire form."""
    if kind == "sample_many":
        return _encode_batch(result)
    if kind == "tv_curve":
        return [[int(rounds), float(tv)] for rounds, tv in result]
    if kind == "mixing_time":
        return int(result)
    raise ServeError(f"unknown job kind {kind!r}; choose from {JOB_KINDS}")


def decode_result(kind: str, payload):
    """Decode a wire-form result back into the :func:`repro.run_spec` return type.

    A sample batch comes back as a C-contiguous, writable int64
    ``(replicas, n)`` array.  A malformed payload raises
    :class:`~repro.errors.ServeError`.
    """
    if kind == "sample_many":
        return _decode_batch(payload)
    if kind == "tv_curve":
        return _decode_curve(payload)
    if kind == "mixing_time":
        if type(payload) is not int:
            raise ServeError(f"a mixing_time result is an int, got {type(payload).__name__}")
        return payload
    raise ServeError(f"unknown job kind {kind!r}; choose from {JOB_KINDS}")
