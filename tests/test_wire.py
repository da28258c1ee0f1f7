"""The serving wire codec: exact round trips and typed errors.

A ``sample_many`` batch travels in the array codec of
:mod:`repro.serialize`, ``{"dtype", "shape", "b64"}``, in the smallest
signed integer dtype that holds its spins; everything a decoder reads
comes off the network, so every malformed field must raise
:class:`~repro.errors.ServeError` rather than a numpy or Python error.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import decode_result, encode_result

INT64 = np.iinfo(np.int64)


def _through_json(payload):
    return json.loads(json.dumps(payload))


def _batch_payload(shape=(2, 3)):
    return encode_result("sample_many", np.arange(np.prod(shape)).reshape(shape))


class TestSampleBatchRoundTrip:
    @pytest.mark.parametrize(
        "extreme, dtype",
        [
            (0, "|i1"),
            (127, "|i1"),
            (128, "<i2"),
            (32_767, "<i2"),
            (32_768, "<i4"),
            (2**31 - 1, "<i4"),
            (2**31, "<i8"),
            (-128, "|i1"),
            (-129, "<i2"),
            (-32_768, "<i2"),
            (-32_769, "<i4"),
            (-(2**31), "<i4"),
            (-(2**31) - 1, "<i8"),
            (INT64.max, "<i8"),
            (INT64.min, "<i8"),
        ],
    )
    def test_smallest_dtype_that_holds_every_spin(self, extreme, dtype):
        batch = np.zeros((3, 4), dtype=np.int64)
        batch[2, 1] = extreme
        payload = _through_json(encode_result("sample_many", batch))
        assert payload["dtype"] == dtype
        assert payload["shape"] == [3, 4]
        np.testing.assert_array_equal(decode_result("sample_many", payload), batch)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (0, 4), (32, 256)])
    def test_decodes_exact_c_contiguous_writable_int64(self, shape):
        batch = np.random.default_rng(sum(shape)).integers(0, 16, size=shape)
        decoded = decode_result(
            "sample_many", _through_json(encode_result("sample_many", batch))
        )
        assert decoded.dtype == np.int64 and decoded.shape == shape
        assert decoded.flags.c_contiguous and decoded.flags.writeable
        np.testing.assert_array_equal(decoded, batch)

    def test_non_contiguous_input(self):
        batch = np.arange(24, dtype=np.int64).reshape(4, 6)[:, ::2].T
        decoded = decode_result("sample_many", encode_result("sample_many", batch))
        np.testing.assert_array_equal(decoded, batch)

    def test_other_kinds_round_trip_exactly(self):
        curve = [(1, 0.1), (2, 1 / 3), (8, 2.0**-40)]
        assert decode_result("tv_curve", _through_json(encode_result("tv_curve", curve))) == curve
        assert decode_result("mixing_time", encode_result("mixing_time", np.int64(12))) == 12


class TestTypedErrors:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("dtype", "<f8"),
            ("dtype", "|O"),
            ("dtype", ">i8"),
            ("dtype", ["|i1"]),
            ("dtype", None),
            ("shape", [2]),
            ("shape", [2, 3, 1]),
            ("shape", [-1, 3]),
            ("shape", ["a", 3]),
            ("shape", [2.0, 3]),
            ("shape", [True, 3]),
            ("shape", None),
            ("shape", [2**31, 3]),
            ("b64", "not base64!"),
            ("b64", "AAAAé"),
            ("b64", ["AAAA"]),
        ],
    )
    def test_malformed_batch_field(self, field, value):
        payload = dict(_batch_payload(), **{field: value})
        with pytest.raises(ServeError, match=field):
            decode_result("sample_many", payload)

    @pytest.mark.parametrize("shape", [[0, 10**30], [0, 2**62], [2**62, 0]])
    def test_huge_extents_of_an_empty_batch(self, shape):
        """Zero bytes match any shape with a zero extent; numpy must never see these."""
        with pytest.raises(ServeError, match="shape"):
            decode_result("sample_many", {"dtype": "|i1", "shape": shape, "b64": ""})

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_byte_length_off_by_one(self, delta):
        payload = _batch_payload()
        raw = base64.b64decode(payload["b64"])
        raw = raw[:-1] if delta < 0 else raw + b"\0"
        payload["b64"] = base64.b64encode(raw).decode("ascii")
        with pytest.raises(ServeError, match="bytes"):
            decode_result("sample_many", payload)

    def test_dtype_must_agree_with_the_bytes(self):
        payload = dict(_batch_payload(), dtype="<i2")  # six int8 spins, not int16
        with pytest.raises(ServeError, match="bytes"):
            decode_result("sample_many", payload)

    @pytest.mark.parametrize("payload", [None, [[0, 1, 2], [3, 4, 5]], "AAAA"])
    def test_batch_must_be_an_object(self, payload):
        """Including the retired int-list form of wire version 2."""
        with pytest.raises(ServeError, match="object"):
            decode_result("sample_many", payload)

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            3,
            "ab",
            {"12": 0.5},
            ["12"],
            [1, 2],
            [[1, 0.5, 2]],
            [[1]],
            [["1", 0.5]],
            [[1, "0.5"]],
            [[True, 0.5]],
            [[1, None]],
        ],
    )
    def test_tv_curve_not_a_list_of_pairs(self, payload):
        with pytest.raises(ServeError, match="tv_curve"):
            decode_result("tv_curve", payload)

    @pytest.mark.parametrize("payload", [None, "12", 12.0, True, [12], {"rounds": 12}])
    def test_malformed_mixing_time(self, payload):
        with pytest.raises(ServeError, match="mixing_time"):
            decode_result("mixing_time", payload)

    def test_unknown_kind(self):
        with pytest.raises(ServeError, match="kind"):
            decode_result("histogram", [])
        with pytest.raises(ServeError, match="kind"):
            encode_result("histogram", [])
