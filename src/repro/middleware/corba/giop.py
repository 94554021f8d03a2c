"""GIOP (General Inter-ORB Protocol) message framing.

Only the two message types needed for synchronous invocations are
implemented — Request and Reply — with the standard 12-byte GIOP header
(magic, version, flags, message type, body size) so the framing survives a
byte-stream transport and interoperates across ORB profiles (the paper's
interoperability requirement: CORBA stays IIOP-compatible on the wire).

On a stream a message is one :data:`GIOP_HEADER`-framed record of
:mod:`repro.abstraction.records`.  ``encode`` returns a
:class:`~repro.simnet.buffers.Gather`: the GIOP header (its own part), the
request/reply prefix and the parts of the CDR body by reference — or, under
:data:`GATHER_MIN`, prefix and body joined.  ``decode`` takes the record's
header fields and body — flat or gathered — parses the request/reply prefix
out of its leading part and keeps ``body`` as the rest by reference.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import Tuple

from repro.simnet.buffers import Gather

GIOP_HEADER = struct.Struct("!4sBBBBI")  # magic, major, minor, flags, msg type, body size
GIOP_MAGIC = b"GIOP"
#: a body this long travels as its parts (its octet sequence reaches the peer
#: uncopied); a shorter one is joined, which costs less than walking its parts
GATHER_MIN = 4096

MSG_REQUEST = 0
MSG_REPLY = 1

REPLY_OK = 0
REPLY_USER_EXCEPTION = 1
REPLY_SYSTEM_EXCEPTION = 2

_REQUEST_PREFIX = struct.Struct("!IIH")   # request id, key length, operation length
_REPLY_PREFIX = struct.Struct("!II")      # request id, reply status


class GiopError(RuntimeError):
    """Malformed GIOP traffic."""


@dataclass
class GiopMessage:
    """One parsed GIOP message."""

    msg_type: int
    request_id: int
    #: the CDR-encoded arguments or result: any immutable buffer or gather
    #: on the send side, a view or gather of the received payload after
    #: ``decode``
    body: bytes
    object_key: bytes = b""
    operation: str = ""
    reply_status: int = REPLY_OK
    version: Tuple[int, int] = (1, 2)
    flags: int = 0

    # -- encoding -----------------------------------------------------------------
    def encode(self) -> Gather:
        if self.msg_type == MSG_REQUEST:
            op = self.operation.encode("utf-8")
            prefix = (
                _REQUEST_PREFIX.pack(self.request_id, len(self.object_key), len(op))
                + self.object_key
                + op
            )
        elif self.msg_type == MSG_REPLY:
            prefix = _REPLY_PREFIX.pack(self.request_id, self.reply_status)
        else:
            raise GiopError(f"unsupported GIOP message type {self.msg_type}")
        body = self.body
        size = len(prefix) + len(body)
        header = GIOP_HEADER.pack(
            GIOP_MAGIC, self.version[0], self.version[1], self.flags, self.msg_type, size
        )
        if size < GATHER_MIN:
            return Gather((header, prefix + bytes(body)))
        return Gather((header, prefix, body))

    # -- decoding -------------------------------------------------------------------
    @classmethod
    def decode(cls, fields: tuple, payload) -> "GiopMessage":
        """The message of one record: ``fields`` are its unpacked
        :data:`GIOP_HEADER`, ``payload`` its body."""
        magic, major, minor, _flags, msg_type, size = fields
        if magic != GIOP_MAGIC:
            raise GiopError(f"bad GIOP magic {magic!r}")
        if len(payload) != size:
            raise GiopError(f"GIOP body size mismatch: header says {size}, got {len(payload)}")
        # The prefix is parsed out of the leading part of a gathered read and
        # ``body`` is the rest by reference; a part boundary inside the prefix
        # (bytes that arrived in pieces) is rare enough to join the payload for.
        first, *rest = (payload.parts or (b"",)) if isinstance(payload, Gather) else (payload,)
        view = memoryview(first)
        object_key, operation, status = b"", "", REPLY_OK
        if msg_type == MSG_REQUEST:
            end = key_at = _REQUEST_PREFIX.size
            if len(view) >= end:
                request_id, key_len, op_len = _REQUEST_PREFIX.unpack_from(view, 0)
                op_at = key_at + key_len
                end = op_at + op_len
                object_key = bytes(view[key_at:op_at])
                operation = str(view[op_at:end], "utf-8")
        elif msg_type == MSG_REPLY:
            end = _REPLY_PREFIX.size
            if len(view) >= end:
                request_id, status = _REPLY_PREFIX.unpack_from(view, 0)
        else:
            raise GiopError(f"unsupported GIOP message type {msg_type}")
        if end > len(view):
            if not rest:
                raise GiopError(f"truncated GIOP message: {len(view)} bytes, prefix needs {end}")
            return cls.decode(fields, bytes(payload))
        body = Gather((view[end:], *rest)) if rest else view[end:]
        return cls(msg_type, request_id, body, object_key, operation, status, (major, minor))


body_size = itemgetter(5)  # a GIOP record's ``body_len``: the header's last field


def make_request(request_id: int, object_key: bytes, operation: str, body: bytes) -> GiopMessage:
    return GiopMessage(
        msg_type=MSG_REQUEST,
        request_id=request_id,
        object_key=object_key,
        operation=operation,
        body=body,
    )


def make_reply(request_id: int, body: bytes, status: int = REPLY_OK) -> GiopMessage:
    return GiopMessage(msg_type=MSG_REPLY, request_id=request_id, reply_status=status, body=body)
