"""FastMessage 2.0 personality over the Circuit abstract interface.

"Thin adapters on top of Circuit provides a FastMessage 2.0 API, and a
(virtual) Madeleine API." (§4.3)

FastMessages (FM) is a classic lightweight messaging layer: the sender
builds a message piece by piece (``FM_begin_message`` / ``FM_send_piece`` /
``FM_end_message``), the receiver registers *handlers* identified by a small
integer and extracts the payload with ``FM_receive`` from within the
handler, driven by ``FM_extract``.  This maps one-to-one onto Circuit
incremental packing plus the Circuit receive callback.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.abstraction.circuit import Circuit, CircuitIncoming, CircuitMessage


class FMError(RuntimeError):
    """Misuse of the FastMessage personality."""


_FM_HEADER = struct.Struct("!I")  # handler id


class FMStream:
    """A message under construction (returned by ``FM_begin_message``)."""

    def __init__(self, fm: "FastMessages", dest: int, handler_id: int):
        self.fm = fm
        self.dest = dest
        self.handler_id = handler_id
        self._message: CircuitMessage = fm.circuit.new_message(dest)
        self._message.pack_express(_FM_HEADER.pack(handler_id))
        self._pieces = 0
        self._ended = False

    def send_piece(self, data: bytes) -> "FMStream":
        """``FM_send_piece``: append one buffer to the message."""
        if self._ended:
            raise FMError("FM_send_piece after FM_end_message")
        self._message.pack_cheaper(data)
        self._pieces += 1
        return self

    def end(self):
        """``FM_end_message``: transmit the message."""
        if self._ended:
            raise FMError("FM_end_message called twice")
        self._ended = True
        return self.fm.circuit.post(self._message)

    @property
    def pieces(self) -> int:
        return self._pieces


class _FMIncoming:
    """Receive-side view handed to handlers (supports ``FM_receive``)."""

    def __init__(self, incoming: CircuitIncoming, src: int):
        self._incoming = incoming
        self.src = src

    def receive(self) -> bytes:
        """``FM_receive``: extract the next piece of the message."""
        if self._incoming.remaining_segments == 0:
            raise FMError("FM_receive past the end of the message")
        return self._incoming.unpack()

    @property
    def remaining_pieces(self) -> int:
        return self._incoming.remaining_segments


class FastMessages:
    """The FM 2.0 entry points bound to one Circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.sim = circuit.sim
        self._handlers: Dict[int, Callable[[_FMIncoming], None]] = {}
        self._queue: List[Tuple[int, CircuitIncoming]] = []
        self.messages_extracted = 0
        circuit.set_receive_callback(self._on_message)

    # -- identity -------------------------------------------------------------------
    @property
    def nodeid(self) -> int:
        """``FM_nodeid`` equivalent."""
        return self.circuit.rank

    @property
    def numnodes(self) -> int:
        """``FM_numnodes`` equivalent."""
        return self.circuit.size

    # -- handlers -------------------------------------------------------------------
    def register_handler(self, handler_id: int, fn: Callable[[_FMIncoming], None]) -> None:
        """``FM_set_handler``: register the function run for ``handler_id``."""
        if handler_id < 0:
            raise FMError("handler ids must be non-negative")
        self._handlers[handler_id] = fn

    # -- sending ---------------------------------------------------------------------
    def begin_message(self, dest: int, handler_id: int) -> FMStream:
        """``FM_begin_message``: start a message towards node ``dest``."""
        if handler_id not in self._handlers and dest != self.nodeid:
            # FM semantics allow sending to handlers registered only on the
            # destination; nothing to check locally beyond basic sanity.
            pass
        return FMStream(self, dest, handler_id)

    def send(self, dest: int, handler_id: int, *pieces: bytes):
        """Convenience: begin, append every piece, end."""
        stream = self.begin_message(dest, handler_id)
        for piece in pieces:
            stream.send_piece(piece)
        return stream.end()

    # -- receiving ---------------------------------------------------------------------
    def _on_message(self, src_rank: int, incoming: CircuitIncoming, rx) -> None:
        self._queue.append((src_rank, incoming))

    def extract(self, maxmsgs: Optional[int] = None) -> int:
        """``FM_extract``: run handlers for queued messages; returns the count."""
        handled = 0
        while self._queue and (maxmsgs is None or handled < maxmsgs):
            src_rank, incoming = self._queue.pop(0)
            header = incoming.unpack_express()
            (handler_id,) = _FM_HEADER.unpack(header)
            handler = self._handlers.get(handler_id)
            if handler is None:
                raise FMError(f"no handler registered for id {handler_id}")
            handler(_FMIncoming(incoming, src_rank))
            handled += 1
            self.messages_extracted += 1
        return handled

    def pending(self) -> int:
        """Messages waiting for :meth:`extract`."""
        return len(self._queue)
