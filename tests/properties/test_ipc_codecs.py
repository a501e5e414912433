"""Hypothesis: the worker frame codec against the JSON oracle.

The worker protocol's correctness contract is *JSON parity*: for any
JSON-shaped value, decoding what the transport's marshal frame body
encoded must yield exactly the object ``json.loads(json.dumps(v))``
would — with the one deliberate improvement that floats survive
bit-for-bit (NaN payloads, ``-0.0``) where JSON's decimal detour may
wobble.  Comparison is therefore bit-aware: floats compare by IEEE-754
image, everything else by equality *and* type (``True != 1`` on this
wire).

Covers the edges the wire must keep: NaN payloads, -0.0, the
infinities, huge ints, bools next to ints, empty records, and deeply
nested span trees.  Record batches (:func:`repro.ipc.codec.encode_records`)
get their own property: any record list — mixed attribute orders,
absent attributes, some texts set — must come back through a frame
with identical pairs, text and value types.
"""

from __future__ import annotations

import json
import math
import struct

from hypothesis import example, given, settings, strategies as st

from repro.abdm.record import Record
from repro.ipc import codec
from repro.ipc.transport import PipeTransport


class _Loopback:
    """A Connection stand-in: bytes out one side, straight in the other."""

    def __init__(self) -> None:
        self._frames: list[bytes] = []

    def send_bytes(self, frame: bytes) -> None:
        self._frames.append(frame)

    def recv_bytes(self) -> bytes:
        return self._frames.pop(0)


SPECIAL_FLOATS = [
    float("nan"),
    struct.unpack("!d", bytes.fromhex("7ff8000000001234"))[0],  # NaN payload
    -0.0,
    0.0,
    float("inf"),
    float("-inf"),
    5e-324,  # smallest subnormal
]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # unbounded: exercises the BIGINT path
    st.floats(allow_nan=True, allow_infinity=True),  # bit-aware compare
    st.sampled_from(SPECIAL_FLOATS),
    st.text(max_size=40),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=12), children, max_size=6),
    ),
    max_leaves=25,
)

#: Span-tree shaped values: the deepest structures the wire carries.
span_trees = st.recursive(
    st.fixed_dictionaries(
        {"name": st.text(max_size=10), "elapsed_ms": st.floats(allow_nan=False)}
    ),
    lambda children: st.fixed_dictionaries(
        {
            "name": st.text(max_size=10),
            "children": st.lists(children, max_size=3),
        }
    ),
    max_leaves=20,
)


#: Keyword values a record may carry, edges first.
record_values = st.one_of(
    st.sampled_from(SPECIAL_FLOATS + [2**200, True, 1, False, 0, None, "a\x00b"]),
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=20),
)

#: Records over a small attribute pool, so batches mix orders and share
#: shapes; ``unique_by`` keeps one keyword per attribute, and any pool
#: attribute a record does not draw is absent from it.
records = st.builds(
    lambda pairs, text: Record.from_pairs(pairs, text=text),
    st.lists(
        st.tuples(st.sampled_from(["FILE", "a", "b", "c\x00d", "é"]), record_values),
        max_size=5,
        unique_by=lambda pair: pair[0],
    ),
    st.one_of(st.just(""), st.text(max_size=12)),
)


def json_oracle(value):
    """What the pre-framing JSON transport would deliver."""
    return json.loads(json.dumps(value))


def transport_roundtrip(value):
    wire = _Loopback()
    PipeTransport(wire).send(value)
    return PipeTransport(wire).recv()


def assert_matches_oracle(value, decoded):
    """decoded == the JSON oracle, except floats may be *more* faithful."""
    oracle = json_oracle(value)

    def check(original, ours, theirs):
        if isinstance(original, float):
            # The binary codecs must be bit-exact to the ORIGINAL; JSON
            # merely has to be close (and loses NaN payloads entirely).
            assert struct.pack("!d", ours) == struct.pack("!d", original)
            if not math.isnan(original):
                assert ours == theirs or math.isinf(original)
            return
        assert type(ours) is type(theirs)
        if isinstance(original, list):
            assert len(ours) == len(theirs) == len(original)
            for triple in zip(original, ours, theirs):
                check(*triple)
        elif isinstance(original, dict):
            assert list(ours) == list(theirs) == list(original)
            for key in original:
                check(original[key], ours[key], theirs[key])
        else:
            assert ours == theirs == original

    check(value, decoded, oracle)


class TestBinaryCodecVsJson:
    @given(value=values)
    @example(value=SPECIAL_FLOATS[1])  # NaN payload 0x7ff8000000001234
    @example(value=[-0.0, float("inf"), float("-inf")])
    @example(value=[True, 1, False, 0])
    @example(value=2**200)
    @example(value={})
    @example(value=[])
    @example(value={"records": []})
    @example(value=[{}, {"": ""}])
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_matches_oracle(self, value):
        assert_matches_oracle(value, transport_roundtrip(value))

    @given(trees=st.lists(span_trees, min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_span_trees(self, trees):
        assert_matches_oracle(trees, transport_roundtrip(trees))


def same_value(original, decoded):
    """Equal and of the same type; floats by IEEE-754 image."""
    if type(original) is not type(decoded):
        return False
    if isinstance(original, float):
        return struct.pack("!d", original) == struct.pack("!d", decoded)
    return original == decoded


class TestRecordBatchVsJson:
    @given(batch=st.lists(records, max_size=8))
    @example(batch=[])
    @example(batch=[Record.from_pairs([("FILE", "f")]), Record.from_pairs([], text=" ")])
    @example(
        batch=[
            Record.from_pairs([("FILE", "f"), ("a", True), ("b", 1)]),
            Record.from_pairs([("b", SPECIAL_FLOATS[1]), ("FILE", "f")], text="t\x00"),
            Record.from_pairs([("FILE", "f"), ("a", -0.0), ("c\x00d", 2**200)]),
            Record.from_pairs([("FILE", "f"), ("a", None)]),
        ]
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_roundtrips_through_a_frame(self, batch):
        payload = codec.encode_records(batch)
        received = transport_roundtrip(payload)
        assert_matches_oracle(payload, received)
        decoded = codec.decode_records(received)
        assert len(decoded) == len(batch)
        for original, ours in zip(batch, decoded):
            assert ours.text == original.text
            assert ours.attributes == original.attributes
            for (_, want), (_, got) in zip(original.pairs(), ours.pairs()):
                assert same_value(want, got), (want, got)
