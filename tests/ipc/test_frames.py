"""The worker frame: the 7-byte header and the marshal body, edge by edge."""

from __future__ import annotations

import math
import multiprocessing
import struct

import pytest

from repro.ipc.transport import (
    CODEC_BINARY,
    FLAG_BATCH,
    HEADER,
    MAGIC,
    FrameError,
    PipeTransport,
    pack_frame,
    unpack_frame,
)


def roundtrip(value):
    """One value through a whole frame: encode, header, pipe, decode."""
    left_end, right_end = multiprocessing.Pipe()
    with left_end, right_end:
        PipeTransport(left_end).send(value)
        return PipeTransport(right_end).recv()


def float_bits(value: float) -> bytes:
    return struct.pack("!d", value)


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            127,
            -128,
            2**31,
            2**62,
            -(2**63),
            2**70,
            -(10**30),
            0.0,
            1.5,
            -273.15,
            "",
            "plain",
            "é — ünïcode ✓",
            "x" * 500,
        ],
    )
    def test_roundtrip_exact(self, value):
        result = roundtrip(value)
        assert result == value
        assert type(result) is type(value)

    def test_nan_payload_bit_exact(self):
        nan = struct.unpack("!d", bytes.fromhex("7ff8000000001234"))[0]
        result = roundtrip(nan)
        assert math.isnan(result)
        assert float_bits(result) == bytes.fromhex("7ff8000000001234")

    def test_negative_zero_keeps_its_sign(self):
        assert float_bits(roundtrip(-0.0)) == float_bits(-0.0)

    def test_infinities(self):
        assert roundtrip(float("inf")) == float("inf")
        assert roundtrip(float("-inf")) == float("-inf")

    def test_bool_is_not_int_on_the_wire(self):
        assert roundtrip([True, 1, False, 0]) == [True, 1, False, 0]
        assert [type(v) for v in roundtrip([True, 1])] == [bool, int]


class TestContainers:
    def test_nested_structures(self):
        value = {
            "records": [
                {"pairs": [["FILE", "f"], ["a", i]], "text": ""}
                for i in range(5)
            ],
            "spans": {"name": "kds.execute", "children": [{"name": "leaf"}]},
            "empty_list": [],
            "empty_dict": {},
        }
        assert roundtrip(value) == value

    def test_unencodable_type_refused(self):
        with pytest.raises(FrameError):
            roundtrip({"bad": object()})

    def test_deep_nesting(self):
        value: list = []
        leaf = value
        for _ in range(60):
            inner: list = []
            leaf.append(inner)
            leaf = inner
        assert roundtrip(value) == value


class TestFrameHeader:
    def test_roundtrip(self):
        frame = pack_frame(FLAG_BATCH, b"payload")
        assert frame[:2] == bytes([MAGIC, CODEC_BINARY])
        assert unpack_frame(frame) == (FLAG_BATCH, b"payload")

    def test_bad_magic_refused(self):
        frame = bytearray(pack_frame(0, b"x"))
        frame[0] ^= 0xFF
        with pytest.raises(FrameError):
            unpack_frame(bytes(frame))

    def test_truncated_frame_refused(self):
        frame = pack_frame(0, b"full payload")
        with pytest.raises(FrameError):
            unpack_frame(frame[:-3])

    def test_short_header_refused(self):
        with pytest.raises(FrameError):
            unpack_frame(bytes([MAGIC, 0]))

    def test_length_field_is_checked(self):
        header = HEADER.pack(MAGIC, CODEC_BINARY, 0, 99)
        with pytest.raises(FrameError):
            unpack_frame(header + b"short")
