"""A page-based Distributed Shared Memory middleware.

DSM appears in the paper's middleware inventory ("MPI, various CORBA
implementations, HLA, SOAP, Java and a DSM", §7) as a parallel-paradigm
system that is *not* message-based, showing the classification has soft
boundaries.  This module implements a simple single-writer / multiple-reader
page-ownership protocol over a Circuit:

* the address space is split into fixed-size pages, each with a *home* node
  (round-robin by page number);
* reads fetch a copy of the page from its current owner and cache it;
* writes acquire ownership (invalidating other copies through the home) and
  then modify the local page.

It is intentionally a textbook protocol: the point is to exercise the
parallel abstract interface with a non-message programming model, and to
give the fault-injection tests a stateful protocol to stress.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.simnet.cost import KB, MICROSECOND
from repro.madeleine.message import EXPRESS
from repro.abstraction.circuit import Circuit, CircuitIncoming


class DsmError(RuntimeError):
    """DSM protocol / usage errors."""


_MSG = struct.Struct("!BIi")  # kind, page number, requester rank

_READ_REQ = 1
_READ_REPLY = 2
_OWN_REQ = 3
_OWN_REPLY = 4
_INVALIDATE = 5
_INV_ACK = 6

DSM_PROTOCOL_OVERHEAD = 3.0 * MICROSECOND


class DsmNode:
    """One node's view of the shared address space."""

    def __init__(self, node, group, *, pages: int = 64, page_size: int = 4 * KB,
                 circuit_name: str = "dsm", adaptive: bool = False):
        self.node = node
        self.sim = node.sim
        self.pages = pages
        self.page_size = page_size
        # adaptive=True rides migratable circuit legs: the shared address
        # space survives WAN degradation / gateway death under it.
        self.circuit: Circuit = node.circuit(circuit_name, group, adaptive=adaptive)
        self.circuit.set_receive_callback(self._on_message)
        self.rank = self.circuit.rank
        self.size = self.circuit.size
        #: pages this node currently owns (authoritative copy).
        self._owned: Dict[int, bytearray] = {}
        #: read-only cached copies.
        self._cache: Dict[int, bytes] = {}
        #: home-node directory: page -> current owner rank (only on the home).
        self._directory: Dict[int, int] = {}
        #: readers recorded by the home for invalidation.
        self._readers: Dict[int, set] = {}
        self._waiters: Dict[Tuple[int, int], List] = {}
        self.remote_reads = 0
        self.remote_acquires = 0
        self.invalidations = 0
        for page in range(pages):
            if self.home_of(page) == self.rank:
                self._owned[page] = bytearray(page_size)
                self._directory[page] = self.rank
                self._readers[page] = set()

    # -- layout ---------------------------------------------------------------------
    def home_of(self, page: int) -> int:
        if not (0 <= page < self.pages):
            raise DsmError(f"page {page} outside address space of {self.pages} pages")
        return page % self.size

    def is_cached(self, page: int) -> bool:
        return page in self._cache or page in self._owned

    # -- public API --------------------------------------------------------------------
    def read(self, page: int):
        """Generator returning the page contents (bytes of length page_size)."""
        if page in self._owned:
            return bytes(self._owned[page])
        if page in self._cache:
            return self._cache[page]
        self.remote_reads += 1
        home = self.home_of(page)
        # If we *are* the home but ownership has migrated, go straight to the
        # recorded owner rather than to ourselves.
        target = home if home != self.rank else self._directory.get(page, home)
        data = yield from self._rpc(target, _READ_REQ, page)
        self._cache[page] = data
        if home == self.rank:
            self._readers.setdefault(page, set()).add(self.rank)
        return data

    def write(self, page: int, data: bytes, offset: int = 0):
        """Generator acquiring write ownership of ``page`` then updating it."""
        if offset + len(data) > self.page_size:
            raise DsmError("write beyond page boundary")
        home = self.home_of(page)
        if page not in self._owned:
            self.remote_acquires += 1
            if home == self.rank:
                # we are the home but somebody else owns the page
                owner = self._directory.get(page, home)
                current = yield from self._rpc(owner, _OWN_REQ, page)
                self._directory[page] = self.rank
            else:
                current = yield from self._rpc(home, _OWN_REQ, page)
            self._owned[page] = bytearray(current)
            self._cache.pop(page, None)
        if home == self.rank:
            # single-writer protocol: writing at the home invalidates every
            # cached read copy recorded in the directory.
            for reader in self._readers.get(page, set()):
                if reader != self.rank:
                    self._send(reader, _INVALIDATE, page, b"")
            self._readers[page] = set()
        self._owned[page][offset : offset + len(data)] = data
        return None

    def owned_pages(self) -> List[int]:
        return sorted(self._owned)

    # -- protocol engine ------------------------------------------------------------------
    def _rpc(self, dst_rank: int, kind: int, page: int):
        key = (kind, page)
        ev = self.sim.event(name=f"dsm-rpc({kind},{page})")
        self._waiters.setdefault(key, []).append(ev)
        self._send(dst_rank, kind, page, b"")
        data = yield ev
        return data

    def _send(self, dst_rank: int, kind: int, page: int, payload: bytes,
              requester: int = -1) -> None:  # the rank to answer, this one by default
        msg = self.circuit.new_message(dst_rank)
        msg.pack_express(_MSG.pack(kind, page, self.rank if requester < 0 else requester))
        msg.pack_cheaper(payload)
        self.circuit.post(msg, extra_cost=DSM_PROTOCOL_OVERHEAD)

    def _on_message(self, src_rank: int, incoming: CircuitIncoming, rx) -> None:
        header = incoming.unpack(EXPRESS)
        payload = incoming.unpack() if incoming.remaining_segments else b""
        incoming.end_unpacking()
        kind, page, requester = _MSG.unpack(header)

        if kind == _READ_REQ:
            self._handle_read_request(page, requester)
        elif kind == _OWN_REQ:
            self._handle_own_request(page, requester)
        elif kind == _INVALIDATE:
            self._cache.pop(page, None)
            self._owned.pop(page, None)
            self.invalidations += 1
            self._send(src_rank, _INV_ACK, page, b"")
        elif kind in (_READ_REPLY, _OWN_REPLY, _INV_ACK):
            reply_key = {_READ_REPLY: _READ_REQ, _OWN_REPLY: _OWN_REQ, _INV_ACK: _INVALIDATE}[kind]
            waiters = self._waiters.get((reply_key, page))
            if waiters:
                ev = waiters.pop(0)
                if not ev.triggered:
                    ev.succeed(payload, delay=DSM_PROTOCOL_OVERHEAD)
        else:
            raise DsmError(f"unknown DSM message kind {kind}")

    def _handle_read_request(self, page: int, requester: int) -> None:
        self._readers.setdefault(page, set()).add(requester)
        if page in self._owned:
            self._send(requester, _READ_REPLY, page, bytes(self._owned[page]))
        else:
            # home without ownership: forward to the current owner recorded in
            # the directory (two-hop read), which answers the requester itself.
            owner = self._directory.get(page, self.home_of(page))
            if owner == self.rank:
                raise DsmError(f"directory says rank {owner} owns page {page} but it does not")
            self._send(owner, _READ_REQ, page, b"", requester)

    def _handle_own_request(self, page: int, requester: int) -> None:
        if self.home_of(page) == self.rank:
            # invalidate cached readers, transfer the authoritative copy
            current_owner = self._directory.get(page, self.rank)
            data = bytes(self._owned.get(page, bytearray(self.page_size)))
            for reader in self._readers.get(page, set()):
                if reader not in (requester, self.rank):
                    self._send(reader, _INVALIDATE, page, b"")
            self._readers[page] = set()
            self._directory[page] = requester
            if current_owner == self.rank:
                self._owned.pop(page, None)
            self._send(requester, _OWN_REPLY, page, data)
        else:
            # non-home owner handing off: reply with the data, drop ownership
            data = bytes(self._owned.pop(page, bytearray(self.page_size)))
            self._send(requester, _OWN_REPLY, page, data)
