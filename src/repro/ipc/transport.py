"""Framed pipe transport between the controller and one worker.

One :class:`PipeTransport` wraps one end of a duplex
``multiprocessing.Pipe``.  Every message travels as a single frame:

========  =======================================================
field     meaning
========  =======================================================
magic     ``0xAB`` — catches stream desync immediately
codec     always ``0x01`` (marshal v4, see below)
flags     bit 0: the payload is a *batch* (a list of messages)
length    payload byte length (u32)
payload   one encoded message, or an encoded list of messages
========  =======================================================

``Connection.send_bytes``/``recv_bytes`` already delimit messages, so
the header's length field is a cross-check rather than a stream parser —
corruption fails loudly instead of decoding garbage.  The codec byte is
checked like the magic byte: a frame carrying any other value raises
:class:`FrameError`.

The payload body is :mod:`marshal` version 4 — CPython's C-speed
self-describing value encoding.  Floats round-trip bit-exactly (NaN
payloads, ``-0.0``), ints are arbitrary precision, and repeated interned
strings (dict keys, command names, span labels) are written once per
frame and referenced by id thereafter — so a coalesced batch frame
interns its repetitive structure for free.  Both pipe ends are always
the same interpreter build (the engine spawns its own workers), which is
the one precondition marshal's format stability needs.

Batch frames are the request-coalescing carrier: one frame holds a list
of command dicts bound for the worker, and the worker answers with one
frame holding the reply list in command order.  Payloads are
JSON-shaped (dict/list/str/int/float/bool/None); the property suite
holds the decoded values against ``json.loads(json.dumps(v))`` and the
engine equivalence suite checks the result end to end.
"""

from __future__ import annotations

import marshal
import struct
from typing import Any

from repro.errors import MLDSError


class FrameError(MLDSError):
    """A malformed frame or an unencodable value."""


#: magic byte, codec id, flags, payload length.
HEADER = struct.Struct("!BBBI")
MAGIC = 0xAB
#: The one body encoding: marshal v4.  The id keeps its historical value
#: so the 7-byte header is unchanged on the wire.
CODEC_BINARY = 0x01

FLAG_BATCH = 0x01

#: marshal format with the string reference table (intra-frame interning).
_MARSHAL_VERSION = 4


def pack_frame(flags: int, payload: bytes) -> bytes:
    return HEADER.pack(MAGIC, CODEC_BINARY, flags, len(payload)) + payload


def unpack_frame(frame: bytes) -> tuple[int, bytes]:
    """Split one received frame into ``(flags, payload)``."""
    if len(frame) < HEADER.size:
        raise FrameError(f"short frame: {len(frame)} byte(s)")
    magic, codec_id, flags, length = HEADER.unpack_from(frame, 0)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic 0x{magic:02x}")
    if codec_id != CODEC_BINARY:
        raise FrameError(
            f"bad frame codec 0x{codec_id:02x} (expected 0x{CODEC_BINARY:02x})"
        )
    payload = frame[HEADER.size :]
    if length != len(payload):
        raise FrameError(
            f"frame length mismatch: header says {length}, got {len(payload)}"
        )
    return flags, payload


class PipeTransport:
    """One end of a worker connection: framing + the marshal body codec."""

    def __init__(self, connection: Any) -> None:
        self._connection = connection

    # -- encoding ----------------------------------------------------------

    def _encode(self, value: Any) -> bytes:
        try:
            return marshal.dumps(value, _MARSHAL_VERSION)
        except ValueError as exc:
            raise FrameError(f"unencodable payload: {exc}") from exc

    def _decode(self, payload: bytes) -> Any:
        try:
            return marshal.loads(payload)
        except (ValueError, EOFError, TypeError) as exc:
            raise FrameError(f"undecodable payload: {exc}") from exc

    # -- sending -----------------------------------------------------------

    def send(self, message: Any) -> None:
        self._connection.send_bytes(pack_frame(0, self._encode(message)))

    def send_batch(self, messages: list) -> None:
        self._connection.send_bytes(pack_frame(FLAG_BATCH, self._encode(messages)))

    # -- receiving ---------------------------------------------------------

    def poll(self, timeout: float = 0.0) -> bool:
        return bool(self._connection.poll(timeout))

    def recv_any(self) -> tuple[bool, Any]:
        """Receive one frame: ``(is_batch, message_or_list)``."""
        flags, payload = unpack_frame(self._connection.recv_bytes())
        message = self._decode(payload)
        is_batch = bool(flags & FLAG_BATCH)
        if is_batch and not isinstance(message, list):
            raise FrameError("batch frame did not decode to a list")
        return is_batch, message

    def recv(self) -> Any:
        """Receive one non-batch message."""
        is_batch, message = self.recv_any()
        if is_batch:
            raise FrameError("unexpected batch frame (single message expected)")
        return message

    def recv_batch(self) -> list:
        """Receive one batch frame's message list."""
        is_batch, messages = self.recv_any()
        if not is_batch:
            raise FrameError("expected a batch frame, got a single message")
        return messages

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._connection.close()

    def __repr__(self) -> str:
        return "PipeTransport()"


__all__ = [
    "FrameError",
    "HEADER",
    "MAGIC",
    "CODEC_BINARY",
    "FLAG_BATCH",
    "pack_frame",
    "unpack_frame",
    "PipeTransport",
]
