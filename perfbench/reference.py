"""A fixed pure-Python loop, timed next to every measured window.

The boxes this benchmark runs on are shared: their speed drifts by tens of
percent over minutes (a 20-minute hands-off series of identical batches on
the reference box spread over a 30 % range), for everything that runs.
Timing the same loop right before and right after a batch, in the same
process, and scaling the batch's host times by ``NOMINAL_S / loop time``
cancels most of that; what is left is the program's own cost, in seconds of
a quiet reference box (one full run there saw the box slow down twofold for
five minutes: raw set-up times rose by 77 %, corrected ones by under 10 %).

The loop does what a simulator's inner loop does — a timer heap filled and
drained (120 000 entries, about 14 MB, so contention for cache and memory
bandwidth slows it the way it slows a 1000-host deployment), then heap
pushes and pops mixed with dict stores, method calls on slotted objects and
a deque of memoryview slices — but touches nothing of ``repro``, so no
change to the program can move it.  It is frozen: changing it redefines
``wall_s`` and ``setup_s`` on every workload.
"""

from __future__ import annotations

import heapq
import time
from collections import deque

#: the loop's time on the quiet reference box (2-core Xeon 2.1 GHz, Python
#: 3.11): what keeps corrected times in seconds.  Frozen with the loop.
NOMINAL_S = 0.2

_HEAP_ITEMS = 120_000
_MIXED_ITEMS = 60_000


class _Cell:
    __slots__ = ("total", "seen")

    def __init__(self):
        self.total = 0
        self.seen = {}

    def step(self, k: int) -> None:
        self.total += k
        self.seen[k & 255] = self.total


def reference_loop() -> float:
    """Run the loop once (about 0.2 s on the reference box); host seconds."""
    push, pop = heapq.heappush, heapq.heappop
    start = time.perf_counter()

    heap = []
    for i in range(_HEAP_ITEMS):
        push(heap, ((i * 2654435761 % _HEAP_ITEMS) * 1e-6, i, None))
    while heap:
        pop(heap)

    cells = [_Cell() for _ in range(64)]
    table = {}
    ring = deque()
    view = memoryview(bytes(4096))
    for i in range(_MIXED_ITEMS):
        key = i * 2654435761 % _MIXED_ITEMS
        push(heap, (key * 1e-6, i, cells[i & 63]))
        table[key & 4095] = i
        ring.append(view[key & 1023:(key & 1023) + 512])
        if i & 3 == 3:
            for _ in range(4):
                _when, seq, cell = pop(heap)
                cell.step(seq)
                ring.popleft()

    return time.perf_counter() - start
