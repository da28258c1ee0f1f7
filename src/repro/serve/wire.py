"""Result encoding for the serving wire format.

One encoder/decoder pair per job kind, chosen so the round trip is
*bit-exact*:

* a ``sample_many`` batch travels in the array codec of
  :mod:`repro.serialize`, ``{"dtype", "shape", "b64"}``: its bytes in the
  smallest signed integer dtype that holds every spin (``|i1`` for
  q <= 127, the engines' own spin dtype), base64-encoded.  At n=256, R=32
  that is 11 kB instead of 28 kB of decimal JSON, and both directions are
  a byte copy rather than one Python int per spin;
* TV values are float64 (``json`` emits the shortest repr, which
  ``float()`` parses back to the identical bits);
* a mixing time is an int.

Decoding validates what it reads and raises
:class:`~repro.errors.ServeError` on any malformed payload.  The serve
test-suite asserts end-to-end bit-identity against direct
:func:`repro.run_spec` calls on the strength of this module.
"""

from __future__ import annotations

from repro.errors import ServeError
from repro.serialize import decode_array, encode_array
from repro.spec import JOB_KINDS

__all__ = ["encode_result", "decode_result"]


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
        return encode_array(result)
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
        return decode_array(payload, "int", 2, what="sample batch", error=ServeError)
    if kind == "tv_curve":
        return _decode_curve(payload)
    if kind == "mixing_time":
        if type(payload) is not int:
            raise ServeError(f"a mixing_time result is an int, got {type(payload).__name__}")
        return payload
    raise ServeError(f"unknown job kind {kind!r}; choose from {JOB_KINDS}")
