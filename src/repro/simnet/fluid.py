"""Fluid-model fast path: collapse stable TCP flows into rate events.

``TcpConnection._pump`` costs a handful of events plus frame / delivery /
probe machinery per congestion-window burst, so a bulk stream pays
O(bytes / receive_window) heavyweight rounds.  For flows whose conditions
are stable — no loss draws, link parameters unchanged, no churn on the
path — every one of those rounds is fully determined in advance,
*including* the rounds of flows that share a sending NIC: contention in
this model is the per-NIC ``reserve_tx`` queue, and the order in which the
senders reach it is itself deterministic.  That stability is provable, not
something to observe first: the one thing nobody can compute ahead is a
loss draw, and a link with ``loss_rate == 0`` makes none (``_draw_losses``
does not touch the RNG there).  So an eligible flow is fluid from its first
byte — the controller takes the pump over when the send queue first fills —
and this module advances it analytically, its slow start included.

One planner, and a choice per pump (:meth:`FluidController.pump`):

*The plan.*  One :class:`_NicPlan` per *sending NIC*, over the k >= 1 flows
that are sending through it and whatever they have queued — one round or a
thousand.  Preconditions, checked by the flow whose pump fires: the link is
loss-free, and *every* active sender on the NIC is fluid-active, eligible
and has a byte queued — wherever its window stands: a plan carries the
window recurrence next to the timing recurrence.  Then the pending
``_pump`` timers of the co-senders are cancelled and all k flows' rounds
are laid out in one pass — per-round NIC reservations, completion times and
the byte ledger are computed analytically, as far ahead *per flow* as that
flow has earned (below) — and committed immediately: one batched delivery
and one trailing pump per flow instead of three timers per burst.  An
awaited write of a few slow-start windows (32 KB at the initial window: 4
rounds) is one short plan, and one that fits the window is a plan of one
round.

*Anything else is the packet round.*  On a lossy link, next to a co-sender
that is not fluid-active and eligible, with no byte queued, or when the
plan's first round would overtake a batch still on its way to the peer,
``pump`` flushes the batched observations and returns ``False``:
``TcpConnection._pump`` runs ``_packet_round`` — that round only; the flow
stays fluid-active and its next pump chooses again.  There is no third
spelling of a round to keep float-identical to the packet model.

*Length.*  How many rounds a plan may lay out for a flow follows the
flow's own cut history, not a constant: its first plan is bounded by
``FluidPolicy.first_plan_rounds`` (64); a plan that runs to its end adds
its rounds to the flow's streak and the next one may lay out twice the
streak; a cut that unwinds something restarts the streak at the rounds
the flow had committed of the cut plan, and the next plan may lay out
twice those (:attr:`FluidController._horizon`).  So a flow whose NIC is
alone — staging a file — is re-planned a logarithmic number of times
(64, 128, 384, ... rounds; one plan per 64 MiB send from the second send
on), and a flow that foreign frames keep interrupting never lays out,
and replays, more than a small multiple of what it sends: a cut throws
away at most twice what the flow has committed since the cut before.

*Window.*  Each member's share of the plan starts from the flow's
``cwnd``, and a round carries ``min(cwnd, queued)`` bytes.  The window
grows by the zero-loss rule of the packet model —
``TcpModel.grown_window``, the one copy the packet round and the plan
both apply: slow start adds what the round delivered, congestion
avoidance one segment, clamped to ``[min_cwnd, receive_window]``;
``ssthresh`` only moves on a loss.  Full windows off the flow's head
entry are *booked* once, whole, when a turn starts with more than a
window left on it: the *ramp*, one run-length-encoded run per window
while it grows, then, once it is pinned at the cap, the *stretch* of
full windows, one run — with one payload view cut at the flow's next
ordinary round (the merge takes back what a booking it ends did not lay
out), not turn by turn.  A stretch's timing is laid out in closed form:
inside one binade of the clock a run of identical rounds is an
arithmetic progression in floating point, so a sole sender's stretch
costs a few steps of the recurrence per binade its pump times cross,
not one per round (:func:`_advance`; a replay still steps every round).
Flows that share the NIC take turns of a round or a few; while every
one whose turn comes is mid-booking, the turns rotate inside
``_advance``'s own loop, so a turn costs its step of the recurrence and
nothing else.  Laying a round out grows the connection's own window (a
plan is committed as it is laid out); a cut re-derives it from the
committed prefix.

*Merge order.*  Each flow obeys the packet pump's recurrence
``t' = t + max(rtt, ser, tx_free - t)`` with
``begin = max(t, tx_free)``; the flows only interact through
``tx_free``, so the joint layout is fixed by the order in which their
pumps run.  The engine runs timers in ``(when, seq)`` order and a
pump's ``seq`` is drawn when the flow's *previous* pump scheduled it,
so the next round to lay out is the one with the earliest pump time,
ties going to the flow whose previous round executed first (initially:
the pumping flow, then the co-senders by the ``seq`` of their pending
timers).  That is the engine's own order, not an approximation of it.
:meth:`_NicPlan.merge` applies it turn by turn, and ``_advance``
applies it within a rotation of bookings, up to the first member's
booking limit.  A flow that drains leaves the merge; the merge
stops when the flow whose turn it is has reached its round cap, and that
flow's trailing pump (the earliest one) closes the plan and cuts the
next.

*Rollback.*  Link churn (:meth:`Network.changed`), any foreign
``Nic.reserve_tx`` (a handshake, a datagram — the NIC names the plan as
its ``_fluid_holder``), a flow joining the NIC, new data queued on a
member the plan had drained, or either endpoint of a member closing
*cut* the joint plan at ``now``: rounds whose pump time has passed are
committed, every member's uncommitted suffix is unwound exactly — bytes
return to the send queue, completions are cancelled, counters, NIC
occupancy and synthesized observations rewind — and each member's pump
is rescheduled at the precise virtual time the packet model would have
pumped next, in merge order, with the window its committed rounds had
grown.  Only churn deactivates the members (each re-activates at its
next pump, under whatever holds then); a re-cut for a joiner or a
foreign frame leaves them fluid-active.  A member draining cuts nothing
— its exit is part of the layout; the flows it leaves behind on the NIC
log it (``flow-leave``) and carry on.

Fidelity contract (what "hybrid" guarantees vs pure packet mode):

* delivered byte counts are exactly equal, always;
* virtual completion times — of every send, and of every read that takes
  in a whole plan's worth — are float-identical for plans that run to
  completion, at any number of flows per NIC, and so is the congestion
  window they leave behind;
* intermediate availability is batched at epoch granularity, from a flow's
  first round on: the bytes of a planned stretch become readable together,
  at the ready time of its last round (an epoch interrupted by a cut
  delivers each member's committed prefix at the committed rounds' ready
  time).  Bytes exact, and a reader that waits for the whole stretch
  cannot tell; one that takes what is there — a ``recv`` on a planned
  32 KB send — sees it arrive at once where the packet model trickles it
  in round by round (``tests/test_fluid.py`` pins exactly that).  The
  granularity is the plan's length, i.e. the flow's own uncut history (up
  to twice the rounds it has committed since its last cut), not a fixed 64
  rounds: a reader consuming piecemeal finishes later than in the packet
  run by at most the time it needs to consume the *last* plan's bytes —
  2.2 ms on a 64 MiB / 5.67 s ``Ethernet100`` transfer read 8 KB at a time
  (last plan 70 rounds; 0.16 ms when no plan exceeded 64), bounded by
  ``test_a_partial_reader_lags_by_at_most_the_last_plans_bytes``;
* a batch never hides bytes from a close, whichever end closes: when
  something the flow sent later reaches the peer ahead of the batch's last
  rounds (the latency dropped while they were in flight, and a FIN follows
  quickly), or when the receiving endpoint itself closes, the pending
  batch is dissolved into its rounds (:meth:`_NicPlan.dissolve`) — the
  readable ones are handed over first, the others arrive one by one or are
  dropped by the closed endpoint's stack — so the reader is cut off with
  exactly the bytes the packet model had delivered;
* every round of a lossy link is the packet round, draw included, so loss
  sequences — and everything downstream of them — are the packet run's;
* a passive probe receives synthesized burst reports carrying a
  ``bursts=N`` weight whose batched estimator update is value-equal to N
  sequential per-burst updates (closed-form EWMA / window fill).

Known, documented divergences: ``Frame`` objects are not constructed (the
frame-id counter is still advanced to keep ids aligned for later frames),
per-burst observation timestamps collapse to the flush time (on a loss-free
link, where every sample is the same sample; a lossy one reports burst by
burst, so flows sharing an estimator feed it in packet order), and a flow
whose endpoints live in different partitions never fluidizes (all fluid
bookkeeping is shard-local by construction).
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from itertools import islice
from math import frexp, ldexp
from typing import Deque, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.host import Host
    from repro.simnet.network import Network


@dataclass
class FluidPolicy:
    """The fidelity controller's one tunable."""

    #: per-flow round bound of a flow's *first* plan.  Not a bound on later
    #: ones: from there a plan is as long as the flow has earned (see
    #: ``FluidController._horizon``) — twice what it has committed since its
    #: last cut.
    first_plan_rounds: int = 64

    def __post_init__(self) -> None:
        # a plan with no round to lay out for its first member would never end
        if self.first_plan_rounds < 1:
            raise ValueError(f"first_plan_rounds must be at least 1, not {self.first_plan_rounds}")


def steady_state_rate(network: "Network", cwnd: int, receive_window: int,
                      nflows: int = 1) -> float:
    """Analytic steady-state goodput of the window model on a clean link.

    Each round moves ``window = min(cwnd, receive_window)`` payload bytes
    and then waits ``max(rtt, serialization)``; with ``nflows`` active
    senders sharing the NIC the wire occupancy multiplies.  This is the
    rate the packet model converges to and the rate a fluid plan realises
    exactly.
    """
    window = min(cwnd, receive_window)
    if window <= 0:
        return 0.0
    rtt = 2.0 * network.latency
    occupancy = network.serialization_time(window) * max(1, nflows)
    return window / max(rtt, occupancy)


class LinkRateLedger:
    """Per-link registry of active TCP senders and fluidized flows.

    In this model a link is switched full-duplex: transmissions contend
    per *sending NIC* (``Nic.reserve_tx``), not across the whole segment.
    The ledger tracks exactly that — the actively-pumping connections per
    source host, which is the membership a NIC plan must cover — and cuts
    the NIC's live plan (named by ``Nic._fluid_holder``) when a flow joins
    it.  Both registries are insertion-ordered: iteration order decides
    the order in which rollbacks schedule timers, hence their ``seq`` and
    every same-instant tie after them, so it must not depend on object
    addresses.
    """

    def __init__(self, network: "Network") -> None:
        self.network = network
        self._senders: Dict["Host", Dict[object, None]] = {}
        self._fluid: Dict["FluidController", None] = {}

    # -- membership ---------------------------------------------------------
    def join(self, conn) -> None:
        """A connection started pumping (its send queue went non-empty)."""
        active = self._senders.setdefault(conn.host, {})
        if conn in active:
            return
        active[conn] = None
        # the NIC's plan did not count on this flow: re-cut it.  The
        # incumbents stay fluid-active and re-plan with the joiner at the
        # next pump on the NIC.
        plan = self.network.nic_of(conn.host)._fluid_holder
        if plan is not None:
            plan.cut("flow-join")

    def leave(self, conn) -> None:
        """A connection drained its send queue (or closed).

        Never disturbs a plan: a member leaves through its own pump, at
        the instant the plan already laid out for it.  The fluid flows it
        leaves behind on the NIC keep their mode and only log the change:
        from their next plan on they share the wire with one sender less."""
        active = self._senders.get(conn.host)
        if not active or conn not in active:
            return
        del active[conn]
        if not active:
            del self._senders[conn.host]
            return
        now = conn.sim.now
        for other in active:
            ctl = other._fluid
            if ctl.active:
                ctl.invalidations.append((now, "flow-leave"))

    def co_senders(self, conn) -> Sequence[object]:
        """The other connections actively sending through the NIC of
        ``conn`` (itself an active sender)."""
        active = self._senders[conn.host]
        if len(active) == 1:
            return ()
        return [other for other in active if other is not conn]

    # -- fluid-flow registry -------------------------------------------------
    def register_fluid(self, controller: "FluidController") -> None:
        self._fluid[controller] = None

    def unregister_fluid(self, controller: "FluidController") -> None:
        self._fluid.pop(controller, None)

    def invalidate(self, reason: str) -> None:
        """Link conditions changed: drop every fluidized flow to packet mode
        (the first member of a plan to be invalidated cuts it for all)."""
        for controller in list(self._fluid):
            controller.invalidate(reason)


def ledger_for(network: "Network") -> LinkRateLedger:
    """The link's rate-share ledger, created lazily on first use."""
    ledger = network.fluid_ledger
    if ledger is None:
        ledger = network.fluid_ledger = LinkRateLedger(network)
    return ledger


# One planned round of a NIC plan, as a tuple (the per-round tuples exist
# only transiently, see `_NicPlan.materialize`).  All times are absolute
# virtual time.
R_T = 0        # pump time
R_BEGIN = 1    # wire occupancy start
R_END = 2      # wire occupancy end
R_ARRIVAL = 3  # last byte at the peer NIC
R_READY = 4    # data readable by the application
R_NBYTES = 5
R_NPKTS = 6
R_SHARE = 7    # the member flow's `_Share`
R_RC = 8       # receive-side kernel crossing + copy

_NEVER = float("inf")
#: the least positive normal double: a pump time below it never jumps
_TINY = sys.float_info.min


def _tie(scale: int, constants: Tuple[float, ...]) -> bool:
    """Whether adding one of ``constants`` (each ``>= 0`` and below
    ``2**53`` units) to a multiple of the unit ``2**-scale`` is a
    round-half-even tie, whose result depends on that multiple's parity."""
    for c in constants:
        q = ldexp(c, scale)
        if q - int(q) == 0.5:
            return True
    return False


def _detached(peer) -> bool:
    """The receiving endpoint was closed *actively*: its stack no longer
    demultiplexes to it and drops what arrives.  An endpoint closed by the
    other side's FIN keeps taking in what is still in flight, as it does in
    the packet model (a FIN that overtook data closes ahead of it)."""
    return peer.stack._connections.get(peer.conn_id) is not peer


def _burst(parts: List[memoryview]) -> memoryview:
    """One round's payload, as ``TcpConnection._packet_round`` hands it to
    the receiver: the slice itself, or a read-only view of the join when
    the round spans several send-queue entries."""
    return parts[0] if len(parts) == 1 else memoryview(b"".join(parts))


def _round_arrives(peer, payload, rc: float) -> None:
    """A round of a dissolved batch arrives on its own, as its frame would
    have: dropped by the stack of an endpoint that closed meanwhile, else
    through ``_on_segment``'s arrival clamp, ``sim.now`` being the arrival."""
    if peer.closed and _detached(peer):
        net = peer.network
        net.frames_dropped += 1
        net.drop_log.append((len(payload), "tcp-no-conn"))
        return
    now = peer.sim.now
    peer._enqueue_rx(now, now + rc, payload)


class _Share:
    """One member flow's part of a :class:`_NicPlan`.

    The rounds are stored *run-length encoded*: uniform full-window rounds
    — the overwhelming bulk of a transfer — share one ``runs`` entry, and
    the per-round timing tuples exist only transiently, replayed from the
    recorded initial recurrence state when a cut actually needs them.
    """

    __slots__ = (
        "ctl", "conn", "peer", "cap", "t0", "rx_ready0", "cwnd0", "t", "t_last",
        "rx_ready", "end", "runs", "parts", "taken", "nbytes", "nrounds", "completions",
        "drained", "deliver_handle", "cursor", "left",
    )

    def __init__(self, ctl: "FluidController", t0: float, rx_ready0: float) -> None:
        # NOTE: no reference back to the plan — the plan owns its shares, and
        # a cycle would leave every finished plan (and the send buffers its
        # payload views pin) to the cycle collector
        self.ctl = ctl
        self.conn = ctl.conn
        self.peer = ctl._peer_conn
        #: how many rounds the plan may lay out for this flow: what the flow
        #: has earned (``FluidController._horizon``)
        self.cap = ctl._horizon
        #: recurrence state when the plan was laid out, for bit-exact replay
        self.t0 = self.t = self.t_last = t0
        #: (the receive cursor the first round will find: ``FluidController._seed``)
        self.rx_ready0 = self.rx_ready = rx_ready0
        #: the congestion window the plan found; laying a round out grows
        #: the connection's own, and a cut re-derives it over the committed
        #: prefix from here
        self.cwnd0 = ctl.conn.cwnd
        #: pump time (``t_last``) and wire end of the last laid-out round
        self.end = 0.0
        #: run-length encoded rounds: [count, nbytes, ser, rc, npkts] per run
        self.runs: List[list] = []
        #: zero-copy views into the queued send buffers, in wire order; the
        #: plan never concatenates them (a plan of hundreds of rounds would
        #: otherwise materialise a temporary as large as the send itself).
        self.parts: List[memoryview] = []
        #: bytes full-window rounds have taken off the head entry of the send
        #: queue since its last ordinary round, not yet in ``parts`` (one
        #: view covers them all, see ``_NicPlan._book``)
        self.taken = 0
        self.nbytes = 0
        self.nrounds = 0
        #: per fully-consumed send, in consumption order:
        #: [end_offset_in_share, its send-queue entry, completion timer or
        #:  None, arrival_of_final_byte] — the entry itself, so a cut puts
        #: the queue back exactly as the packet model would have it
        self.completions: List[list] = []
        #: the plan consumed this flow's whole send queue: its trailing pump
        #: sits at its *last round*, where the packet pump would have drained
        self.drained = False
        #: the pending batched delivery of ``parts``; None once handed over
        self.deliver_handle = None
        #: rounds left of ``runs[cursor]``, the run the share's next round is
        #: in: while planning, of the rounds it booked and has not laid out
        #: yet (``_NicPlan._lay_out``; 0 when it has none); while replaying,
        #: of the rounds it laid out
        self.left = 0


def _advance(plan: "_NicPlan", share: _Share, count: int, bound: float, nbytes: int,
             ser: float, rc: float, npkts: int, rounds: Optional[List[tuple]],
             order: Optional[List[_Share]] = None) -> int:
    """Lay out up to ``count`` equal rounds of one flow; return how many.

    The one copy of the timing recurrence, used by planning and by replay:
    ``Nic.reserve_tx``, the arrival / readiness clamp of ``_on_segment``
    and the packet pump's wait, as the identical float operations in the
    identical order.  The flow keeps the NIC until its next pump would not
    run before ``bound``, the earliest pump of any other member (after its
    first round a flow is the most recently executed one, so it loses
    every tie).

    Planning a booking (``order`` given: the merging members, the flow
    last; ``count`` and the round's constants those of ``runs[cursor]``)
    rotates: when the flow's turn ends at ``bound``, the loop picks the
    member :meth:`_NicPlan.merge` would pick next — the earliest pump, ties
    to the first in ``order`` — moves it to the end of ``order`` and runs
    its turn there, provided that member is mid-booking too.  A member's
    rounds are those of its booked runs, one step each: its turn starts
    with the constants of ``runs[cursor]`` and counts its rounds off its
    ``left``, and when a run is laid out the next one it booked goes on
    from there, turn or no turn.  The rotation ends at a member whose turn
    comes that is not mid-booking, or at the first member to reach its
    booking's limit: the caller answers for that member (``order[-1]``) —
    its cap ends the merge, and its next turn is its completion round.  A
    sole sender is a rotation of one: ``bound`` is infinite, it never
    switches.  The return value counts every round the call laid out.

    Replay (``rounds`` given) steps every round; planning jumps over a
    uniform run, exactly, while the same flow continues.  Inside one
    binade ``[2**(e-1), 2**e)`` every double is a multiple of
    ``u = 2**(e-53)``, and adding a constant ``c >= 0`` to such an
    ``x`` rounds to ``x`` plus a multiple of ``u``
    that depends on ``x`` only through its parity in ``u`` — and not even
    on that unless ``c / u`` is an odd multiple of 1/2, a round-half-even
    tie.  Once the NIC is free at the next pump ``t0`` (``tx_free <= t0``:
    every round of a sole sender but the first), a round adds the same
    constants to its pump time each time, so with ``d = fl(t0 + step) - t0``
    the pump times are ``t0 + j*d`` exactly while every value a round
    computes stays below ``2**e`` — provided translating by ``d`` keeps
    the roundings: ``d`` is an even multiple of ``u``, or none of ``ser``,
    ``latency``, ``rc`` and the step is a tie.  The jump lands on the last
    round of the run — bounded by ``count``, by the first pump at or after
    ``bound`` and by the top of the binade — and the loop runs that round
    with its own float operations: ``t_last``, ``end`` and the ``ready``
    clamp are read off it (``ready`` grows with ``end``, so only the
    incoming ``rx_ready`` can clamp, and the last round applies it).

    What stays per round: the first round (the NIC may still be busy), the
    one that crosses into the next binade, a pump time of zero (or below
    the least normal double), and a binade where ``d`` is odd and a
    constant is a tie — there the loop steps to the next binade rather than
    translate by ``2*d``.  A turn that ``bound`` ends after one round —
    every turn of a plan of k >= 2 flows sharing the wire — switches or
    breaks before the jump is looked at, and so does a round that ends a
    run.
    """
    rtt = plan.rtt
    latency = plan.latency
    tx_free = plan.tx_free
    t = share.t
    rx_ready = share.rx_ready
    floor = rtt if rtt > ser else ser
    # the pump time from which a jump is worth a look: the next binade
    # once one was looked at, never for replay
    retry = _TINY if rounds is None else _NEVER
    # rounds laid out before the run (of whichever flow) being laid out
    laid = 0
    n = 0
    while True:
        n += 1
        t_last = t
        # Nic.reserve_tx: begin = max(t, tx_free)
        end = (t if t > tx_free else tx_free) + ser
        # == (end + latency) + rc: arrival, then readiness
        ready = end + latency + rc
        if ready < rx_ready:
            ready = rx_ready
        else:
            rx_ready = ready
        if rounds is not None:
            rounds.append((t, t if t > tx_free else tx_free, end, end + latency, ready,
                           nbytes, npkts, share, rc))
        tx_free = end
        # next pump time, exactly as the packet pump computes it:
        # t + max(rtt, ser, tx_free - t)
        wait = end - t
        t = t + (wait if wait > floor else floor)
        if t >= bound or n == count:
            if order is None:
                break
            if n == count:
                # the run is laid out: the flow's next booked one goes on
                # from here, or the flow is at its booking's limit
                runs = share.runs
                cursor = share.cursor + 1
                if cursor == len(runs):
                    break
                share.cursor = cursor
                count, nbytes, ser, rc, npkts = runs[cursor]
                floor = rtt if rtt > ser else ser
                laid += n
                n = 0
                if t < bound:
                    continue
            # the flow's turn is over: the next is the merge's pick
            share.t = t
            nxt = order[0]
            if len(order) == 2:
                # of two, the other flow, whose pump bounded this turn; this
                # one's bounds the next
                bound = t
            else:
                bound = _NEVER
                for other in order:
                    if other.t < nxt.t:
                        bound = nxt.t
                        nxt = other
                    elif other is not nxt and other.t < bound:
                        bound = other.t
            if not nxt.left:
                break
            share.t_last = t_last
            share.rx_ready = rx_ready
            share.end = end
            share.left = count - n
            order.remove(nxt)
            order.append(nxt)
            share = nxt
            t = share.t
            rx_ready = share.rx_ready
            count = share.left
            _count, nbytes, ser, rc, npkts = share.runs[share.cursor]
            floor = rtt if rtt > ser else ser
            laid += n
            n = 0
            continue
        if t >= retry and tx_free <= t:
            # a uniform run from t: at most one look per binade
            e = frexp(t)[1]
            top = retry = ldexp(1.0, e)
            # its first round, with the loop's operations
            end0 = t + ser
            wait = end0 - t
            step = wait if wait > floor else floor
            t1 = t + step
            peak = end0 + latency + rc
            if peak < t1:
                peak = t1
            if peak >= top:
                continue
            # in units of u, where every value here is an integer below 2**53
            scale = 53 - e
            d = int(ldexp(t1 - t, scale))
            if not d or d & 1 and _tie(scale, (ser, latency, rc, step)):
                continue
            # rounds 0 .. k-2 of the run stay below `top` ...
            k = (int(ldexp(top - peak, scale)) - 1) // d + 2
            if bound < top:
                # ... and none of the pumps 1 .. k-1 reaches `bound`
                k_bound = -(-int(ldexp(bound - t, scale)) // d)
                if k_bound < k:
                    k = k_bound
            if k > count - n:
                k = count - n
            if k > 1:
                # skip to the run's last round; the loop runs that one
                t += (k - 1) * (t1 - t)
                n += k - 1
    plan.tx_free = tx_free
    share.t = t
    share.t_last = t_last
    share.rx_ready = rx_ready
    share.end = end
    if order is not None:
        share.left = count - n
    return laid + n


class _NicPlan:
    """The committed multi-round plan of every flow sending through one NIC.

    Constructing it lays out and commits as many rounds per flow as that
    flow has earned (``_Share.cap``, the flow's ``_horizon``), in closed
    form, for the flow whose pump fired and every co-sender on its NIC.
    Preconditions (checked by :meth:`FluidController.pump`): zero loss rate
    and every active sender on the NIC fluid-active and eligible with a
    byte queued.  Under those, every round's timing
    is the deterministic recurrence of :func:`_advance` and every round's
    size the zero-loss window recurrence
    (``TcpConnection._update_window``), merged over the flows in the
    engine's own order (see the module docstring) — exactly the pumps the
    packet model would run — so the plan is committed up-front and only
    *cut* if something arrives mid-plan.

    The plan holds the NIC until the first member pumps again (its trailing
    pump: by then every round is committed) or until something cuts it,
    and stays replayable for as long as a receiver still waits for one of
    its batches (see :meth:`dissolve`).  ``rtt`` and ``latency`` are
    snapshotted because a cut is usually *caused by* a parameter change,
    and the replay must use the planned values.
    """

    __slots__ = ("nic", "net", "sim", "shares", "live", "observed", "tx_free0", "tx_free",
                 "rtt", "latency", "last_pump", "ncommitted", "window", "costs")

    def __init__(self, seeds: List[tuple]) -> None:
        """``seeds``: ``(controller, pump time, receive cursor)`` of the flow
        whose pump is executing, then of its co-senders in any order."""
        ctl = seeds[0][0]
        conn = ctl.conn
        net = self.net = conn.network
        nic = self.nic = ctl._nic
        sim = self.sim = conn.sim
        #: whether the plan accumulated synthesized observations (the link
        #: had a probe at planning time) — a cut must only rewind the
        #: observation counters when it did, or they go negative.
        self.observed = net.probe is not None
        self.tx_free0 = self.tx_free = nic._tx_free_at
        self.rtt = conn.rtt
        self.latency = net.latency
        #: the receiver cap of the members' windows (one host, one stack:
        #: the members share it)
        self.window = conn.stack.model.receive_window
        #: ``(ser, npkts, ssthresh, grown)`` of each window size the plan
        #: books: its wire time and packet count, computed once with the
        #: identical expressions the per-round path uses (so the produced
        #: floats match bit-for-bit), and the window after it under that
        #: ``ssthresh``
        self.costs: Optional[Dict[int, Tuple[float, int, int, int]]] = {}

        # ``ctl``'s pump is the one executing; the co-senders' pending
        # pumps run in the order they were scheduled
        if len(seeds) > 2:
            seeds[1:] = sorted(seeds[1:], key=lambda seed: seed[0].conn._pump_handle.seq)
        order = [_Share(*seed) for seed in seeds]
        laid_out = list(order)
        unfinished = self.merge(order, self._lay_out)
        # only the layout reads it, and a NIC's plan lives as long as its
        # flows send (in a batch of 950 NICs: 0.8 MB of peak RSS)
        self.costs = None
        for share in laid_out:
            if share.taken:
                self._book(share)
        self._commit(ctl, laid_out, unfinished)

    def _commit(self, ctl: "FluidController", laid_out: List[_Share],
                unfinished: List[_Share]) -> None:
        """Charge the laid-out rounds and schedule their few timers."""
        net = self.net
        nic = self.nic
        sim = self.sim
        latency = self.latency
        nic._tx_free_at = self.tx_free
        frame_counter = net._frame_counter
        shares = self.shares = []
        #: pump time of the last round in merge order
        self.last_pump = 0.0
        #: how many rounds (in merge order) survived a cut; None = all
        self.ncommitted: Optional[int] = None
        for share in laid_out:
            nrounds = share.nrounds
            if not nrounds:
                # its pending pump comes after everything laid out: leave it
                continue
            shares.append(share)
            if share.t_last > self.last_pump:
                self.last_pump = share.t_last
            member = share.ctl
            flow = share.conn
            member._plan = self
            member._share = share
            member.epochs += 1
            member.epoch_rounds += nrounds
            flow.rounds += nrounds
            consumed = share.nbytes
            flow.bytes_sent += consumed
            # wire accounting the packet path would have charged
            # round-by-round (the frame ids are drawn and dropped in C)
            deque(islice(frame_counter, nrounds), 0)
            net.frames_sent += nrounds
            net.bytes_carried += consumed
            if self.observed:
                if member._obs_bursts == 0:
                    member._obs_latency = latency
                    member._obs_bandwidth = net.bandwidth
                member._obs_bursts += nrounds
                member._obs_npkts += sum(run[0] * run[4] for run in share.runs)
                member._obs_nbytes += consumed
            for comp in share.completions:
                done = comp[1][2]
                if done is None or done.triggered:
                    continue
                comp[2] = sim.call_at(comp[3], flow._complete_send, done, comp[1][3])
            # NOTE: peer._last_rx_ready is advanced by _epoch_deliver when
            # the batched delivery *fires*, not here — a frame sent by a
            # packet-mode round can still be in flight at planning time, and
            # bumping the watermark early would clamp that frame's append
            # behind this plan's bytes (reordering the peer's byte stream).
            share.deliver_handle = sim.call_at(share.rx_ready, member._epoch_deliver, share)
            if member is not ctl:
                flow._pump_handle.cancel()
            if share.drained:
                flow._pump_handle = sim.call_at(share.t_last, flow._pump)
        # the trailing pumps of the flows with data left, in the order the
        # packet model's pumps would run
        for share in unfinished:
            if share.nrounds:
                share.conn._pump_handle = sim.call_at(share.t, share.conn._pump)
        #: members that have not drained out of the plan yet
        self.live = len(shares)
        # claim the NIC: any competing reserve_tx cuts the plan first, so
        # foreign frames never queue behind planned-future rounds
        nic._fluid_holder = self

    # -- the merge -------------------------------------------------------------
    def merge(self, order: List[_Share], turn) -> List[_Share]:
        """Run the members' recurrences merged in the engine's order.

        ``order`` lists the merging shares by the execution order of their
        previous rounds, and is kept that way.  The share with the earliest
        pump time (first in ``order`` among equals) moves to the end of
        ``order`` and takes a ``turn(share, bound, order)``, ``bound`` being
        the earliest pump of the others: True keeps it merging, False
        retires it, None keeps it and ends the merge.  A planning turn may
        rotate through several members (:func:`_advance` picks them by the
        same rule): it moves each to the end as its turn begins, and its
        answer is about the last, ``order[-1]``.  Returns the shares still
        merging."""
        while order:
            best = order[0]
            bound = _NEVER
            for share in order:
                if share.t < best.t:
                    bound = best.t
                    best = share
                elif share is not best and share.t < bound:
                    bound = share.t
            if best is not order[-1]:
                order.remove(best)
                order.append(best)
            stays = turn(best, bound, order)
            if stays is None:
                break
            if not stays:
                order.pop()
        return order

    def _lay_out(self, share: _Share, bound: float, order: List[_Share]) -> Optional[bool]:
        """Planning turn: consume ``share``'s send queue into rounds, each
        as large as the flow's window has grown by then.

        Whole windows off the head entry complete no send, and one payload
        view covers what the flow takes off the entry until its next
        ordinary round (``taken``, cut by :meth:`_book`).  So when a turn
        starts with more than a window left on the entry, the flow's rounds
        up to its next ordinary one are *booked*, whole, there and then:
        its ramp — one run per window of the loss-free recurrence
        (``TcpModel.grown_window``) while it grows — and, once the window
        is pinned at the receiver cap, the stretch of full windows
        ``(navail - 1) // window`` long (at least one byte stays on the
        entry, so its completion round is an ordinary one); all of it no
        more than the flow's ``cap`` leaves.  The connection's window is
        set to what the booked rounds grow it to.  The turns of a booking
        are ``_advance`` steps and nothing else: the step rotates through
        the other members' bookings, counting each member's rounds off its
        ``left``.  No code outside plan construction looks at a share
        mid-merge, and the merge takes back what a booking it ends did not
        lay out."""
        conn = share.conn
        cap = self.window
        window = conn.cwnd if conn.cwnd < cap else cap
        room = share.cap - share.nrounds
        sendq = conn._sendq
        if not share.left:
            entry = sendq[0]
            navail = len(entry[0]) - entry[1] - share.taken
            if navail > window:
                runs = share.runs
                share.cursor = len(runs)
                costs = self.costs
                ssthresh = conn.ssthresh
                cpu = share.peer.host.cpu
                syscall, memcpy = cpu.syscall_overhead, cpu.memcpy_bandwidth
                nbooked = 0
                while True:
                    cost = costs.get(window)
                    if cost is None or cost[2] != ssthresh:
                        cost = costs[window] = (
                            self.net.serialization_time(window), self.net.packets_for(window),
                            ssthresh, conn.stack.model.grown_window(window, window, ssthresh,
                                                                    conn.network.mtu))
                    # receive-side kernel crossing + copy, in the float order
                    # TcpConnection._on_segment adds them to a fresh
                    # Delivery.cost (0.0 + syscall is syscall exactly)
                    rc = syscall + window / memcpy
                    if window == cap:
                        # pinned: the stretch, the booking's last run
                        k = (navail - 1) // cap
                        if k > room:
                            k = room
                        runs.append([k, cap, cost[0], rc, cost[1]])
                        nbooked += k * cap
                        room -= k
                        break
                    # a window of the ramp
                    runs.append([1, window, cost[0], rc, cost[1]])
                    nbooked += window
                    navail -= window
                    room -= 1
                    window = cost[3]
                    if navail <= window or not room:
                        break
                share.left = runs[share.cursor][0]
                share.nrounds = share.cap - room
                share.nbytes += nbooked
                share.taken += nbooked
                # what the booked rounds grow it to
                conn.cwnd = window
        if share.left:
            run = share.runs[share.cursor]
            _advance(self, share, share.left, bound, run[1], run[2], run[3], run[4], None, order)
            last = order[-1]
            # the member whose turn ended the rotation is mid-booking, or
            # ran its booking out; a flow at its round cap ends the plan
            # (every round laid out so far runs before any member's next
            # pump, so the earliest trailing pump finds the plan fully
            # committed, and cuts the next)
            return True if last.left or last.nrounds < last.cap else None
        # the rest of the head entry fits in a window: one ordinary round
        if share.taken:
            self._book(share)
        parts, attempted, retired = conn._gather_window(window)
        end_off = share.nbytes
        if attempted:
            ser, rc, npkts = self._round_costs(share, attempted)
            _advance(self, share, 1, bound, attempted, ser, rc, npkts, None)
            share.parts.extend(parts)
            share.runs.append([1, attempted, ser, rc, npkts])
            share.nrounds += 1
            share.nbytes += attempted
            conn._update_window(0, attempted)
        # a send completes at the arrival of the round carrying its last
        # byte — this one (or, for empty sends trailing the queue, the
        # round before).  retired[i] pairs with parts[i] (the gather only
        # ever leaves its *last* part's entry unfinished), so each send
        # records its own end offset: two sends completing in the same
        # round must not share one, or a cut before this round cannot split
        # the restored bytes between them.
        arrival = share.end + self.latency
        for idx, entry in enumerate(retired):
            end_off += len(parts[idx])
            share.completions.append([end_off, entry, None, arrival])
        if not sendq:
            share.drained = True
            return False
        return True if room > 1 else None

    def _book(self, share: _Share) -> None:
        """Cut the payload view of the full windows ``share`` has taken off
        the head entry of its send queue since its last ordinary round.
        A booking the merge ended early gives back the rounds it did not
        lay out — ``runs[cursor]``'s last ``left`` and every run after it —
        and the window goes back to what the rounds laid out had grown it
        to: the size of the first round given back."""
        left = share.left
        if left:
            share.left = 0
            runs = share.runs
            cursor = share.cursor
            run = runs[cursor]
            share.conn.cwnd = run[1]
            run[0] -= left
            nbytes = left * run[1]
            for later in runs[cursor + 1:]:
                left += later[0]
                nbytes += later[0] * later[1]
            del runs[cursor + 1 if run[0] else cursor:]
            share.nrounds -= left
            share.nbytes -= nbytes
            share.taken -= nbytes
        entry = share.conn._sendq[0]
        offset = entry[1]
        stop = entry[1] = offset + share.taken
        share.taken = 0
        share.parts.append(entry[0][offset:stop])

    def _round_costs(self, share: _Share, nbytes: int) -> Tuple[float, float, int]:
        """``(ser, rc, npkts)`` of one round of ``nbytes``: wire time,
        receive-side kernel crossing + copy (in the float order
        ``TcpConnection._on_segment`` adds them to a fresh ``Delivery.cost``:
        0.0 + syscall, then + copy), packet count."""
        net = self.net
        cpu = share.peer.host.cpu
        return (net.serialization_time(nbytes),
                cpu.syscall_overhead + nbytes / cpu.memcpy_bandwidth,
                net.packets_for(nbytes))

    def materialize(self) -> List[tuple]:
        """Replay the plan into per-round timing tuples, in merge order.

        Bit-exact with the planning pass: the same merge over the same
        recurrence, seeded from the recorded initial state and the
        parameters the plan was laid out under (not the current ones).
        Always the rounds as laid out: after a cut, the first
        ``ncommitted`` of them are the ones that happened.
        """
        rounds: List[tuple] = []
        self.tx_free = self.tx_free0
        for share in self.shares:
            share.t = share.t0
            share.rx_ready = share.rx_ready0
            share.cursor = 0
            share.left = share.runs[0][0]

        def turn(share: _Share, bound: float, _order: List[_Share]) -> bool:
            run = share.runs[share.cursor]
            share.left -= _advance(self, share, share.left, bound, run[1], run[2], run[3],
                                   run[4], rounds)
            if share.left:
                return True
            share.cursor += 1
            if share.cursor == len(share.runs):
                return False
            share.left = share.runs[share.cursor][0]
            return True

        self.merge(list(self.shares), turn)
        return rounds

    # -- leaving and cutting -------------------------------------------------------
    def leave(self, share: _Share) -> None:
        """``share``'s flow drained, at the instant the plan laid out."""
        self._retire(share)
        self.live -= 1
        if not self.live:
            self.cut()

    def _retire(self, share: _Share) -> None:
        """``share``'s flow is on its own again.  Whatever it sends next
        must queue behind the batch, if the peer still waits for it."""
        ctl = share.ctl
        ctl._plan = ctl._share = None
        # the flow's next plan is as long as this one earned it (see
        # ``FluidController._horizon``)
        if self.ncommitted is None:
            # every round laid out for the flow happened: it may plan twice
            # as far as it has come since its last cut
            ctl._streak += share.nrounds
            if ctl._horizon < 2 * ctl._streak:
                ctl._horizon = 2 * ctl._streak
        else:
            # a cut unwound part of the plan: twice what survived of it
            ctl._streak = share.nrounds
            ctl._horizon = max(2, 2 * share.nrounds)
        if share.deliver_handle is not None:
            peer = share.peer
            batch = (share.end + self.latency, share.rx_ready, self, share)
            if peer._rx_batches is None:
                peer._rx_batches = [batch]
            else:
                peer._rx_batches.append(batch)

    def cut(self, reason: Optional[str] = None) -> None:
        """End the plan at ``now``, unwinding whatever has not happened yet.

        A round is *committed* once its pump time has passed: in the packet
        model its burst is already on the wire, and this model's in-flight
        frames survive link churn (``link_alive`` is checked at transmit
        time only), so committed rounds delivering is exact.  Everything
        later is unwound, for every member: bytes return to the send queue,
        completion events are cancelled, counters, NIC occupancy and
        synthesized observations rewind, and the next pumps land at the
        uncommitted rounds' planned times — the exact times the packet
        model (having scheduled them with pre-cut parameters) would have
        pumped, in merge order.
        """
        nic = self.nic
        if nic._fluid_holder is self:
            nic._fluid_holder = None
        now = self.sim.now
        tele = self.sim.telemetry
        if self.last_pump > now or tele is not None:
            self._resolve(self.materialize(), now, tele)
        for share in self.shares:
            ctl = share.ctl
            if ctl._share is not share:
                continue  # drained out of the plan earlier
            self._retire(share)
            if reason is not None:
                ctl.invalidations.append((now, reason))
            ctl._flush_observations()

    def _resolve(self, rounds: List[tuple], now: float, tele) -> None:
        # merge order is time order: the committed rounds are a prefix
        ncommitted = len(rounds)
        if self.last_pump > now:
            ncommitted = 0
            while rounds[ncommitted][R_T] <= now:
                ncommitted += 1
        split: Dict[_Share, Tuple[list, list]] = {share: ([], []) for share in self.shares}
        for rnd in rounds[:ncommitted]:
            split[rnd[R_SHARE]][0].append(rnd)
        for rnd in rounds[ncommitted:]:
            split[rnd[R_SHARE]][1].append(rnd)
        if tele is not None:
            # only committed rounds reach the trace — an unwound suffix
            # re-runs later, and emits its own events when it really happens
            for share, (committed, uncommitted) in split.items():
                share.ctl._emit_epoch_telemetry(tele, share, committed, uncommitted)
        if ncommitted == len(rounds):
            # fully committed: the pending deliver/pump events are already
            # exact; nothing to unwind.
            return
        self.ncommitted = ncommitted
        # NIC occupancy: release the uncommitted reservations (unless some
        # later transmission already queued behind the plan).
        nic = self.nic
        if nic.tx_free_at == self.tx_free:
            nic.rewind_tx(rounds[ncommitted - 1][R_END])
        # Every pending pump is re-scheduled, in the order the packet
        # model's pumps would run: by pump time, ties to the flow whose
        # previous round (a committed one, else its place in the initial
        # order) executed first.
        last_round = {share: pos - len(self.shares) for pos, share in enumerate(self.shares)}
        for idx in range(ncommitted):
            last_round[rounds[idx][R_SHARE]] = idx
        pumps = []
        for share, (committed, uncommitted) in split.items():
            if uncommitted:
                share.ctl._unwind(self, share, committed, uncommitted)
                # what is left of the share is its committed prefix
                share.nrounds = len(committed)
                if committed:
                    share.end = committed[-1][R_END]
                    share.rx_ready = committed[-1][R_READY]
                pumps.append((uncommitted[0][R_T], last_round[share], share.conn))
            elif not share.drained:
                pumps.append((share.t, last_round[share], share.conn))
        pumps.sort()
        for when, _prev, conn in pumps:
            conn._pump_handle.cancel()
            conn._pump_handle = self.sim.call_at(when, conn._pump)

    def dissolve(self, share: _Share, now: float) -> None:
        """Give ``share``'s pending batch up for what the packet model shows
        its peer at ``now``, round by round.

        Called when batching would show: something the flow sent after the
        batch reaches the peer before the batch's last rounds do (the
        latency dropped while they were in flight — a FIN does this
        readily, it takes the wire right behind the in-flight round), or
        the peer closes and its reader is handed what has been delivered.
        The rounds that are readable by now are handed over at once, the
        ones that have arrived become readable together when the last of
        them does (the peer's receive cursor moves there: a newcomer queues
        behind them), and each of the others arrives on its own, as its
        frame would have (:func:`_round_arrives`)."""
        rounds = [rnd for rnd in self.materialize()[:self.ncommitted] if rnd[R_SHARE] is share]
        share.deliver_handle.cancel()
        share.deliver_handle = None
        ctl = share.ctl
        peer = share.peer
        sim = self.sim
        nready = narrived = 0
        for rnd in rounds:
            if rnd[R_ARRIVAL] > now:
                break
            narrived += rnd[R_NBYTES]
            if rnd[R_READY] <= now:
                nready = narrived
            elif rnd[R_READY] > peer._last_rx_ready:
                peer._last_rx_ready = rnd[R_READY]
        if nready:
            peer._append_rx_parts(ctl._slice_parts(share.parts, 0, nready))
        if narrived > nready:
            sim.call_at(peer._last_rx_ready, peer._append_rx_parts,
                        ctl._slice_parts(share.parts, nready, narrived))
        offset = narrived
        for rnd in rounds:
            if rnd[R_ARRIVAL] > now:
                parts = ctl._slice_parts(share.parts, offset, offset + rnd[R_NBYTES])
                offset += rnd[R_NBYTES]
                sim.call_at(rnd[R_ARRIVAL], _round_arrives, peer, _burst(parts), rnd[R_RC])


class FluidController:
    """Per-connection fidelity controller (owned by ``TcpConnection``).

    The controller takes the pump over as soon as the flow is eligible —
    when its send queue first fills, before any pump on its NIC looks at
    it — and keeps it for as long as it stays so: nothing has to be
    observed first, because every round a plan lays out is one the packet
    model is proven to run identically (a loss draw, the one thing nobody
    can compute ahead, is never planned: a lossy link's rounds are the
    packet round).  Churn and changed conditions deactivate the flow, and
    its next pump re-activates it under whatever holds then; a mere re-cut
    of its NIC's plan (a flow joining, a foreign frame) does not, and
    neither does a co-sender leaving the NIC (which does not even cut).
    ``invalidations`` logs all of them: every change to what the flow's
    fluid state was computed under.
    """

    def __init__(self, conn, policy: FluidPolicy) -> None:
        self.conn = conn
        self.active = False
        self._joined = False
        self._ledger: Optional[LinkRateLedger] = None
        self._nic = None
        self._peer_conn = None
        #: the live plan on this flow's NIC and the flow's part of it, if
        #: it rides one
        self._plan: Optional[_NicPlan] = None
        self._share: Optional[_Share] = None
        #: how many rounds the flow's next plan may lay out for it, and the
        #: rounds its plans have committed since the last cut that unwound
        #: something — both updated where a share leaves its plan
        #: (``_NicPlan._retire``; the module docstring's *Length* states the
        #: rule).  A function of the flow's own history and nothing else.
        #: Why a bound at all — ``tests/test_fluid.py::
        #: test_plan_layout_work_is_amortised_whatever_cuts_the_flow``, rounds
        #: laid out + replayed per round sent by a 256 MiB sole sender on
        #: ``Ethernet100`` with a foreign frame never / every 0.5 s / every
        #: 50 ms: 1.0 / 5.5 / 53.9 with a constant 64, 1.0 / 46.7 / 446 with
        #: no bound (quadratic: every cut re-lays the whole rest out), 1.0 /
        #: 4.0 / 4.1 with this rule.  Those are rounds, not steps: laying a
        #: sole sender's rounds out costs a few steps per binade of the
        #: clock (``_advance``), a replay one step per round.
        self._horizon = policy.first_plan_rounds
        self._streak = 0
        # pending synthesized observations (flushed as one burst report);
        # latency/bandwidth are snapshotted when a batch *starts* so a
        # flush that happens after link churn still reports the parameters
        # the batched rounds actually ran under (any churn invalidates the
        # flow, so a batch never straddles a parameter change).
        self._obs_bursts = 0
        self._obs_npkts = 0
        self._obs_nbytes = 0
        self._obs_latency = 0.0
        self._obs_bandwidth = 0.0
        # introspection / test hooks
        self.activations = 0
        #: plans built for the flow, and the rounds they committed
        self.epochs = 0
        self.epoch_rounds = 0
        self.invalidations: Deque[Tuple[float, str]] = deque(maxlen=32)

    @property
    def fluid_rounds(self) -> int:
        """The rounds the packet path did not run: the planned ones."""
        return self.epoch_rounds

    # -- lifecycle hooks called by TcpConnection ----------------------------
    def on_join(self) -> None:
        """The send queue went non-empty: register NIC contention, and take
        the pump over — here, so that a co-sender pumping before this flow's
        first pump already plans with it."""
        if not self._joined:
            self._joined = True
            self._ledger = ledger_for(self.conn.network)
            self._nic = self.conn.network.nic_of(self.conn.host)
            self._ledger.join(self.conn)
        if not self.active and self._eligible():
            self._activate()

    def on_send(self) -> None:
        """More data is about to be queued behind a pumping flow.

        A plan that consumed this flow's whole queue laid its rounds out
        for a flow that drains — the last one short, no pump after it;
        with more data that is no longer what the packet model does."""
        share = self._share
        if share is not None and share.drained:
            self._plan.cut("send")

    def on_drain(self) -> None:
        """The send queue drained (or the connection closed)."""
        share = self._share
        if share is not None:
            self._plan.leave(share)
        self._flush_observations()
        if self._joined:
            self._joined = False
            self._ledger.leave(self.conn)

    def _activate(self) -> None:
        self.active = True
        self.activations += 1
        self._ledger.register_fluid(self)
        tele = self.conn.sim.telemetry
        if tele is not None:
            tele.emit("fluid.activate", flow=self.conn.flow_id)

    # -- eligibility ---------------------------------------------------------
    def _resolve_peer(self):
        if self._peer_conn is None:
            stack = self.conn.peer_host.get_service("tcp")
            if stack is not None:
                self._peer_conn = stack._connections.get(self.conn.peer_conn_id)
        return self._peer_conn

    def _eligible(self) -> bool:
        conn = self.conn
        if conn.closed or not conn.established or conn.peer_conn_id is None:
            return False
        # fluid scheduling touches both endpoints synchronously: keep every
        # fluidized flow shard-local (boundary flows stay packet-mode).
        if conn.host.partition != conn.peer_host.partition:
            return False
        net = conn.network
        if not net.link_alive(conn.host, conn.peer_host):
            return False
        peer = self._resolve_peer()
        # (what the peer has buffered is no criterion: the packet model has
        # no flow control, so a reader that is stuck, or parked on one large
        # exact read, changes no byte and no instant of the sender's rounds)
        return peer is not None and not peer.closed

    # -- invalidation ---------------------------------------------------------
    def invalidate(self, reason: str) -> None:
        """Synchronous fallback to packet mode (churn, parameter change)."""
        if self._plan is not None:
            self._plan.cut()
        self._deactivate(reason)

    def _deactivate(self, reason: str) -> None:
        if self.active:
            self.active = False
            self.invalidations.append((self.conn.sim.now, reason))
            if self._ledger is not None:
                self._ledger.unregister_fluid(self)
            tele = self.conn.sim.telemetry
            if tele is not None:
                tele.emit("fluid.invalidate", flow=self.conn.flow_id, reason=reason)
        self._flush_observations()

    # -- the pump ------------------------------------------------------------
    def pump(self) -> bool:
        """Plan the rounds of everything queued on the flow's NIC.  Returns
        False when that cannot be done now — a lossy link, a co-sender that
        cannot be planned with, a first round that would overtake a batch —
        and this pump is the packet round's."""
        plan = self._nic._fluid_holder
        if plan is not None:
            # a trailing pump of the NIC's plan: the earliest one, so every
            # planned round is committed.  Close the plan out (for all its
            # members) and continue from a clean state.
            plan.cut()
        if not self._eligible():
            self._deactivate("conditions-changed")
            return False
        if not self.active:
            self._activate()
        conn = self.conn
        if conn.network.loss_rate <= 0.0:
            seeds = [self._seed(conn.sim.now)]
            for other in self._ledger.co_senders(conn):
                if seeds[-1] is None:
                    break
                ctl = other._fluid
                seeds.append(ctl._seed(other._pump_handle.when)
                             if ctl.active and ctl._eligible() else None)
            if seeds[-1] is not None:
                _NicPlan(seeds)
                return True
        # the packet round's observation must follow the ones batched so far
        self._flush_observations()
        return False

    def _seed(self, t0: float) -> Optional[tuple]:
        """``(controller, t0, receive cursor)``: what a plan starts this
        flow's share from when its next pump is at ``t0``, the cursor being
        the peer's as the share's first round will find it.  None when no
        byte is queued, or no such cursor can be told ahead.

        A batch pending towards the peer advances its cursor only when it is
        handed over, so ``TcpConnection._settle_rx_batches``'s rule applies:
        one that arrives no later than the first round (which cannot take
        the wire before ``t0`` or before the NIC is free, whatever the merge
        order) is ahead of it; one that would be overtaken — the latency
        dropped — is the packet round's, whose ``_on_segment`` dissolves it."""
        conn = self.conn
        for entry in conn._sendq:
            if len(entry[0]) > entry[1]:
                break
        else:
            return None
        peer = self._peer_conn
        cursor = peer._last_rx_ready
        if peer._rx_batches is not None:
            tx_free = self._nic._tx_free_at
            first = (t0 if t0 > tx_free else tx_free) + conn.network.latency
            for arrival, ready, _plan, _share in peer._rx_batches:
                if arrival > first:
                    return None
                if ready > cursor:
                    cursor = ready
        return self, t0, cursor

    # -- delivery, telemetry and unwinding of a plan's share --------------------
    @staticmethod
    def _epoch_deliver(share: _Share) -> None:
        """Hand ``share.parts`` — the batch, or what a cut or an overtaker
        left of it — over to the peer."""
        share.deliver_handle = None
        peer_conn = share.peer
        pending = peer_conn._rx_batches
        if pending is not None and pending[0][3] is share:
            # nothing has to settle this batch any more, and its plan need
            # not stay around for a replay.  (A peer's batches are handed
            # over oldest first, so this one is the head.)
            if len(pending) == 1:
                peer_conn._rx_batches = None
            else:
                del pending[0]
        if peer_conn.closed and _detached(peer_conn):
            return
        # the watermark advances now, at delivery time (see the planning-side
        # note): any later delivery must queue behind the whole batch.
        if peer_conn._last_rx_ready < peer_conn.sim.now:
            peer_conn._last_rx_ready = peer_conn.sim.now
        peer_conn._append_rx_parts(share.parts)

    @staticmethod
    def _slice_parts(parts: List[memoryview], lo: int, hi: int) -> List[memoryview]:
        """Views covering byte range ``[lo, hi)`` of the parts' concatenation."""
        out: List[memoryview] = []
        acc = 0
        for part in parts:
            if acc >= hi:
                break
            n = len(part)
            if acc + n > lo:
                a = lo - acc if lo > acc else 0
                b = hi - acc if hi - acc < n else n
                out.append(part[a:b] if (a, b) != (0, n) else part)
            acc += n
        return out

    def _emit_epoch_telemetry(self, tele, share: _Share, committed: List[tuple],
                              uncommitted: List[tuple]) -> None:
        """Emit the per-round ``link.tx`` events the packet model's frames
        would have produced, plus one ``fluid.epoch`` summary (and one
        ``fluid.rollback`` when a cut unwound a suffix).

        Called when the plan *resolves* (fully commits, or is cut — then
        with only the committed prefix), never at planning time: rounds that
        are later unwound must not reach the trace, and emission times are
        irrelevant because every event is stamped with its round's planned
        wire time.  The tuples come from ``_NicPlan.materialize``, so begins
        and ends are bit-identical to the packet model's ``reserve_tx``."""
        conn = self.conn
        net_name = conn.network.name
        src = conn.host.name
        dst = conn.peer_host.name
        nbytes = 0
        for rnd in committed:
            begin = rnd[R_BEGIN]
            nbytes += rnd[R_NBYTES]
            tele.emit(
                "link.tx",
                t=begin,
                net=net_name,
                src=src,
                dst=dst,
                nbytes=rnd[R_NBYTES],
                begin=begin,
                end=rnd[R_END],
                qd=begin - rnd[R_T],
            )
        if committed:
            tele.emit(
                "fluid.epoch",
                t=share.t0,
                flow=conn.flow_id,
                rounds=len(committed),
                nbytes=nbytes,
            )
        if uncommitted:
            tele.emit(
                "fluid.rollback",
                flow=conn.flow_id,
                committed=len(committed),
                undone=len(uncommitted),
                undone_bytes=share.nbytes - nbytes,
            )

    def _unwind(self, plan: _NicPlan, share: _Share, committed: List[tuple],
                uncommitted: List[tuple]) -> None:
        """Undo the uncommitted suffix of this flow's share of a cut plan,
        packet-exactly (the plan re-schedules the pump and rewinds the NIC)."""
        conn = self.conn
        sim = conn.sim
        net = conn.network
        cut = sum(rnd[R_NBYTES] for rnd in committed)
        undone_bytes = share.nbytes - cut
        undone_rounds = len(uncommitted)

        # sender-side ledger rewind; the window is what the committed
        # rounds grew it to
        conn.bytes_sent -= undone_bytes
        conn.rounds -= undone_rounds
        self.epoch_rounds -= undone_rounds
        conn.cwnd = share.cwnd0
        for rnd in committed:
            conn._update_window(0, rnd[R_NBYTES])
        net.frames_sent -= undone_rounds
        net.bytes_carried -= undone_bytes
        if plan.observed:
            self._obs_bursts -= undone_rounds
            for rnd in uncommitted:
                self._obs_npkts -= rnd[R_NPKTS]
                self._obs_nbytes -= rnd[R_NBYTES]

        # receive side: replace the batched delivery with the committed
        # prefix (the watermark is advanced by _epoch_deliver when it fires)
        share.deliver_handle.cancel()
        share.deliver_handle = None
        if committed:
            share.parts = self._slice_parts(share.parts, 0, cut)
            share.deliver_handle = sim.call_at(
                max(committed[-1][R_READY], sim.now), self._epoch_deliver, share
            )

        # completions: cancel the ones whose last byte was unwound, and put
        # those sends' queue entries back at the head of the send queue,
        # rewound to their first unsent byte — the queue the packet model
        # has at this instant, entry for entry (its loss handling looks at
        # which entries a round retires).
        restored: List[list] = []
        start = 0
        for end_off, entry, handle, _arrival in share.completions:
            if end_off > cut:
                if handle is not None:
                    handle.cancel()
                entry[1] = len(entry[0]) - (end_off - (start if start > cut else cut))
                restored.append(entry)
            start = end_off
        if share.nbytes > start:
            # trailing bytes belong to the entry still sitting at the queue
            # head (it was only partially consumed): rewind its offset.
            conn._sendq[0][1] -= share.nbytes - (start if start > cut else cut)
        conn._sendq.extendleft(reversed(restored))

    # -- synthesized observations ---------------------------------------------
    def _flush_observations(self) -> None:
        bursts = self._obs_bursts
        if not bursts:
            return
        npkts, nbytes = self._obs_npkts, self._obs_nbytes
        self._obs_bursts = self._obs_npkts = self._obs_nbytes = 0
        probe = self.conn.network.probe
        if probe is not None:
            # One weighted report standing in for `bursts` per-burst ones:
            # zero-loss by construction (only a loss-free link is planned),
            # with the frame-timing fields the packet path's real frames
            # would have exposed.
            probe.burst(npkts, 0, nbytes, bursts, self._obs_latency, self._obs_bandwidth)
