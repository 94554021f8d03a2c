"""A PVM (Parallel Virtual Machine) style message-passing middleware.

PVM is listed throughout the paper as the "other" parallel middleware —
e.g. §2.1: "a MPI-based component could be connected to a PVM-based
component".  PVM's programming model differs from MPI: tasks are addressed
by *task identifiers* (tids), messages are built into an explicit send
buffer with typed packing calls (``pvm_pkint``, ``pvm_pkdouble``,
``pvm_pkbyte``), then sent with ``pvm_send`` and unpacked in order on the
receive side.

The implementation maps tids onto ranks of a Circuit group and reuses the
Circuit incremental-packing path — a second, independent client of the
parallel abstract interface, which the concurrency tests run next to MPI.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.simnet.cost import MICROSECOND, MB
from repro.madeleine.message import PackMode
from repro.abstraction.circuit import Circuit, CircuitIncoming


class PvmError(RuntimeError):
    """PVM usage errors."""


_PVM_HEADER = struct.Struct("!iiI")  # src tid, message tag, item count
_ITEM_HEADER = struct.Struct("!BI")  # type code, byte length

_T_INT = 1
_T_DOUBLE = 2
_T_BYTES = 3
_T_STR = 4

#: per-message software cost of the PVM library (pvmd routing, buffers).
PVM_CALL_OVERHEAD = 5.0 * MICROSECOND
PVM_COPY_BANDWIDTH = 900.0 * MB


class _SendBuffer:
    """The active send buffer built by the pk* calls."""

    def __init__(self) -> None:
        self.items: List[Tuple[int, bytes]] = []

    def pack(self, type_code: int, raw: bytes) -> None:
        self.items.append((type_code, raw))

    def encode(self) -> bytes:
        out = bytearray()
        for type_code, raw in self.items:
            out += _ITEM_HEADER.pack(type_code, len(raw))
            out += raw
        return bytes(out)

    @property
    def nbytes(self) -> int:
        return sum(len(raw) for _, raw in self.items)


class _RecvBuffer:
    """The active receive buffer consumed by the upk* calls."""

    def __init__(self, src_tid: int, tag: int, raw: bytes):
        self.src_tid = src_tid
        self.tag = tag
        self._items: List[Tuple[int, bytes]] = []
        offset = 0
        while offset < len(raw):
            type_code, length = _ITEM_HEADER.unpack_from(raw, offset)
            offset += _ITEM_HEADER.size
            self._items.append((type_code, raw[offset : offset + length]))
            offset += length
        self._cursor = 0

    def next_item(self, expected: int) -> bytes:
        if self._cursor >= len(self._items):
            raise PvmError("unpack past the end of the message")
        type_code, raw = self._items[self._cursor]
        if type_code != expected:
            raise PvmError(f"unpack type mismatch: packed {type_code}, requested {expected}")
        self._cursor += 1
        return raw


class PvmTask:
    """One PVM task (the per-node library instance)."""

    def __init__(self, node, group, circuit_name: str = "pvm", adaptive: bool = False):
        self.node = node
        self.sim = node.sim
        self.group = group
        # adaptive=True rides migratable circuit legs (route-aware pinning +
        # per-leg migration under churn).
        self.circuit: Circuit = node.circuit(circuit_name, group, adaptive=adaptive)
        self.circuit.set_receive_callback(self._on_message)
        self._send_buffer: Optional[_SendBuffer] = None
        self._recv_buffer: Optional[_RecvBuffer] = None
        self._queue: List[Tuple[int, int, bytes]] = []
        self._waiters: List[Tuple[int, int, object]] = []

    # -- identity (tids are 0x40000 + rank, echoing real PVM tid encoding) --------------
    @property
    def mytid(self) -> int:
        return 0x40000 + self.circuit.rank

    def tid_of_rank(self, rank: int) -> int:
        return 0x40000 + rank

    @staticmethod
    def rank_of_tid(tid: int) -> int:
        return tid - 0x40000

    # -- send buffer management --------------------------------------------------------
    def initsend(self) -> None:
        """``pvm_initsend``: start a fresh send buffer."""
        self._send_buffer = _SendBuffer()

    def _buffer(self) -> _SendBuffer:
        if self._send_buffer is None:
            raise PvmError("pack call before pvm_initsend()")
        return self._send_buffer

    # numpy is imported by the typed calls only: string and byte messages
    # never load it
    def pkint(self, values) -> None:
        import numpy as np

        self._buffer().pack(_T_INT, np.asarray(values, dtype="<i4").tobytes())

    def pkdouble(self, values) -> None:
        import numpy as np

        self._buffer().pack(_T_DOUBLE, np.asarray(values, dtype="<f8").tobytes())

    def pkbyte(self, raw: bytes) -> None:
        self._buffer().pack(_T_BYTES, bytes(raw))

    def pkstr(self, text: str) -> None:
        self._buffer().pack(_T_STR, text.encode("utf-8"))

    # -- send / receive --------------------------------------------------------------------
    def send(self, dest_tid: int, tag: int):
        """``pvm_send``: transmit the current send buffer to ``dest_tid``."""
        buf = self._buffer()
        self._send_buffer = None
        dst_rank = self.rank_of_tid(dest_tid)
        payload = buf.encode()
        header = _PVM_HEADER.pack(self.mytid, tag, len(buf.items))
        cost = PVM_CALL_OVERHEAD + len(payload) / PVM_COPY_BANDWIDTH
        msg = self.circuit.new_message(dst_rank)
        msg.pack_express(header)
        msg.pack_cheaper(payload)
        return self.circuit.post(msg, extra_cost=cost)

    def recv(self, src_tid: int = -1, tag: int = -1):
        """``pvm_recv``: generator blocking until a matching message arrives.

        Returns the source tid; the message becomes the active receive
        buffer consumed by the ``upk*`` calls.
        """
        for idx, (msg_src, msg_tag, payload) in enumerate(self._queue):
            if self._matches(src_tid, tag, msg_src, msg_tag):
                self._queue.pop(idx)
                self._recv_buffer = _RecvBuffer(msg_src, msg_tag, payload)
                return self._recv_buffer.src_tid
        ev = self.sim.event(name="pvm-recv")
        self._waiters.append((src_tid, tag, ev))
        src, msg_tag, payload = yield ev
        self._recv_buffer = _RecvBuffer(src, msg_tag, payload)
        return src

    def nrecv(self, src_tid: int = -1, tag: int = -1) -> bool:
        """``pvm_nrecv``: non-blocking receive; True when a message was consumed."""
        for idx, (msg_src, msg_tag, payload) in enumerate(self._queue):
            if self._matches(src_tid, tag, msg_src, msg_tag):
                self._queue.pop(idx)
                self._recv_buffer = _RecvBuffer(msg_src, msg_tag, payload)
                return True
        return False

    # -- unpacking -----------------------------------------------------------------------------
    def _active_recv(self) -> _RecvBuffer:
        if self._recv_buffer is None:
            raise PvmError("unpack call with no active receive buffer")
        return self._recv_buffer

    def upkint(self):
        import numpy as np

        return np.frombuffer(self._active_recv().next_item(_T_INT), dtype="<i4").copy()

    def upkdouble(self):
        import numpy as np

        return np.frombuffer(self._active_recv().next_item(_T_DOUBLE), dtype="<f8").copy()

    def upkbyte(self) -> bytes:
        return self._active_recv().next_item(_T_BYTES)

    def upkstr(self) -> str:
        return self._active_recv().next_item(_T_STR).decode("utf-8")

    # -- matching ----------------------------------------------------------------------------------
    @staticmethod
    def _matches(want_src: int, want_tag: int, src: int, tag: int) -> bool:
        return (want_src in (-1, src)) and (want_tag in (-1, tag))

    def _on_message(self, src_rank: int, incoming: CircuitIncoming, rx) -> None:
        header = incoming.unpack(PackMode.EXPRESS)
        payload = incoming.unpack() if incoming.remaining_segments else b""
        incoming.end_unpacking()
        src_tid, tag, _count = _PVM_HEADER.unpack(header)
        for idx, (want_src, want_tag, ev) in enumerate(self._waiters):
            if self._matches(want_src, want_tag, src_tid, tag):
                self._waiters.pop(idx)
                if not ev.triggered:
                    ev.succeed((src_tid, tag, payload), delay=PVM_CALL_OVERHEAD)
                return
        self._queue.append((src_tid, tag, payload))
