"""PipeTransport: framing, batching, and the codec byte over real pipes."""

from __future__ import annotations

import marshal
import multiprocessing

import pytest

from repro.ipc.transport import (
    CODEC_BINARY,
    FLAG_BATCH,
    HEADER,
    MAGIC,
    FrameError,
    PipeTransport,
)


@pytest.fixture()
def pipe_pair():
    left_end, right_end = multiprocessing.Pipe(duplex=True)
    yield left_end, right_end
    left_end.close()
    right_end.close()


def pair(pipe_pair):
    left_end, right_end = pipe_pair
    return PipeTransport(left_end), PipeTransport(right_end)


class TestCodecSelection:
    def test_default_is_binary(self, pipe_pair):
        """Every frame is the 7-byte header with codec 0x01 + marshal v4."""
        sender, _ = pair(pipe_pair)
        message = {"cmd": "execute", "seq": 3, "ms": 0.25}
        sender.send(message)
        sender.send_batch([message])
        raw = pipe_pair[1]
        for flags, value in ((0, message), (FLAG_BATCH, [message])):
            body = marshal.dumps(value, 4)
            expected = HEADER.pack(MAGIC, CODEC_BINARY, flags, len(body)) + body
            assert raw.recv_bytes() == expected


class TestRoundTrips:
    MESSAGE = {
        "cmd": "execute",
        "request": {"op": "RETRIEVE", "query": [[["FILE", "=", "f"]]]},
        "label": "broadcast",
        "elapsed_ms": 0.4375,
        "nothing": None,
        "flags": [True, False],
    }

    def test_single_message(self, pipe_pair):
        sender, receiver = pair(pipe_pair)
        sender.send(self.MESSAGE)
        assert receiver.recv() == self.MESSAGE

    def test_batch_order_preserved(self, pipe_pair):
        sender, receiver = pair(pipe_pair)
        batch = [dict(self.MESSAGE, seq=i) for i in range(7)]
        sender.send_batch(batch)
        assert receiver.recv_batch() == batch

    def test_recv_any_distinguishes_frames(self, pipe_pair):
        sender, receiver = pair(pipe_pair)
        sender.send({"a": 1})
        sender.send_batch([{"b": 2}])
        assert receiver.recv_any() == (False, {"a": 1})
        assert receiver.recv_any() == (True, [{"b": 2}])

    def test_many_messages_share_one_connection(self, pipe_pair):
        sender, receiver = pair(pipe_pair)
        for i in range(50):
            sender.send({"cmd": "replay", "seq": i, "file": "student"})
            assert receiver.recv()["seq"] == i

    def test_poll(self, pipe_pair):
        sender, receiver = pair(pipe_pair)
        assert receiver.poll(0.0) is False
        sender.send({"x": 1})
        assert receiver.poll(1.0) is True


class TestFrameDiscipline:
    def test_codec_mismatch_is_typed(self, pipe_pair):
        """A frame whose codec byte is not 0x01 is refused like bad magic."""
        left_end, right_end = pipe_pair
        receiver = PipeTransport(right_end)
        body = marshal.dumps({"x": 1}, 4)
        for codec_id in (0x00, 0x02, 0xFF):
            left_end.send_bytes(HEADER.pack(MAGIC, codec_id, 0, len(body)) + body)
            with pytest.raises(FrameError, match="bad frame codec"):
                receiver.recv()

    def test_recv_refuses_batch_frame(self, pipe_pair):
        sender, receiver = pair(pipe_pair)
        sender.send_batch([{"x": 1}])
        with pytest.raises(FrameError, match="unexpected batch"):
            receiver.recv()

    def test_recv_batch_refuses_single_frame(self, pipe_pair):
        sender, receiver = pair(pipe_pair)
        sender.send({"x": 1})
        with pytest.raises(FrameError, match="expected a batch"):
            receiver.recv_batch()

    def test_garbage_on_the_pipe_is_typed(self, pipe_pair):
        left_end, right_end = pipe_pair
        receiver = PipeTransport(right_end)
        left_end.send_bytes(b"not a frame at all")
        with pytest.raises(FrameError):
            receiver.recv()

    def test_unencodable_payload_is_typed(self, pipe_pair):
        sender, _ = pair(pipe_pair)
        with pytest.raises(FrameError):
            sender.send({"bad": object()})
