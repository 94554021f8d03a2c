"""Link-metric estimators: EWMA and sliding-window smoothing of samples.

Probes (:mod:`repro.monitoring.probes`) emit raw :class:`LinkSample`
observations; a :class:`LinkEstimator` combines per-metric smoothers into a
*measured* link profile (:class:`MeasuredLink`) suitable for pushing into
the :class:`~repro.abstraction.topology.TopologyKB`.  Everything here is
purely deterministic — the seeds live in the probes that feed it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Optional


@dataclass
class LinkSample:
    """One raw observation of a link, emitted by a probe."""

    at: float                           # virtual time of the observation
    kind: str                           # "frame" (passive), "ping" (active),
                                        # "tcp" (surfaced window-model burst)
    latency: Optional[float] = None     # achieved one-way latency, seconds
    bandwidth: Optional[float] = None   # achieved wire rate, bytes/s
    nbytes: int = 0
    lost: bool = False
    #: per-burst packet-loss fraction (TCP window-model bursts report
    #: ``lost_pkts / npkts`` here — the honest per-packet rate for traffic
    #: whose losses never surface as dropped frames).  None for ordinary
    #: hit/miss samples.
    loss_fraction: Optional[float] = None
    #: False for samples whose loss outcome is reported through a sibling
    #: sample (a TCP data frame: its burst's ``loss_fraction`` sample
    #: carries the verdict, counting the frame too would halve the rate).
    count_loss: bool = True
    #: batching weight: this sample stands in for ``bursts`` identical
    #: per-burst observations (the fluid fast path emits one synthesized
    #: sample per epoch instead of one per congestion-window burst).  The
    #: estimators apply the equivalent of ``bursts`` sequential updates in
    #: closed form, so sample counts — and the readiness gating derived
    #: from them — match the unbatched packet run.
    bursts: int = 1


@dataclass
class MeasuredLink:
    """The estimators' current belief about a link."""

    latency: Optional[float]
    bandwidth: Optional[float]
    loss_rate: float
    samples: int
    updated_at: float


class EwmaEstimator:
    """Exponentially weighted moving average of a scalar metric."""

    def __init__(self, alpha: float = 0.25):
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        self.alpha = alpha
        self.value: Optional[float] = None
        self.samples = 0

    def update(self, x: float) -> float:
        if self.value is None:
            self.value = float(x)
        else:
            self.value = self.alpha * float(x) + (1.0 - self.alpha) * self.value
        self.samples += 1
        return self.value

    def update_many(self, x: float, n: int) -> float:
        """Apply ``n`` consecutive updates with the same value in closed form:
        ``v' = x + (1-alpha)^n * (v - x)`` (equal to ``n`` sequential blends
        up to float rounding)."""
        if n <= 1:
            return self.update(x)
        x = float(x)
        if self.value is None:
            self.value = x
        else:
            self.value = x + (1.0 - self.alpha) ** n * (self.value - x)
        self.samples += n
        return self.value

    def reset(self) -> None:
        self.value = None
        self.samples = 0


class SlidingWindowEstimator:
    """Mean over the last ``window`` samples of a scalar metric."""

    def __init__(self, window: int = 32):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")
        self.window = window
        self._values: Deque[float] = deque(maxlen=window)
        self.samples = 0

    def update(self, x: float) -> float:
        self._values.append(float(x))
        self.samples += 1
        return self.mean()

    def update_many(self, x: float, n: int) -> float:
        """Apply ``n`` consecutive updates with the same value.  The window
        contents afterwards are exactly what ``n`` sequential updates would
        leave, so the windowed mean is bit-identical."""
        if n <= 1:
            return self.update(x)
        fill = n if n < self.window else self.window
        self._values.extend([float(x)] * fill)
        self.samples += n
        return self.mean()

    def mean(self) -> Optional[float]:
        if not self._values:
            return None
        return sum(self._values) / len(self._values)

    def maximum(self) -> Optional[float]:
        return max(self._values) if self._values else None

    def reset(self) -> None:
        self._values.clear()
        self.samples = 0


def _twin(obj):
    """A shallow copy (``copy.copy`` without its protocol lookups)."""
    twin = object.__new__(type(obj))
    twin.__dict__.update(obj.__dict__)
    return twin


def _blend_runs(ewma: EwmaEstimator, x: float, n: int, times: int) -> None:
    """``times`` successive ``ewma.update_many(x, n)`` calls; past a fixed
    point (a blend that changes nothing) only the sample count moves."""
    for done in range(1, times + 1):
        value = ewma.value
        ewma.update_many(x, n)
        if ewma.value == value:
            ewma.samples += (times - done) * n
            return


@dataclass
class LinkEstimator:
    """Combined per-link estimators fed by probe samples.

    Latency and bandwidth are EWMA-smoothed (they drift); loss is a sliding
    window of hit/miss outcomes (it is a rate).  ``consecutive_lost`` is the
    failure-detector input: a run of lost active probes means the link is
    dead, not merely lossy.
    """

    alpha: float = 0.25
    window: int = 32
    min_samples: int = 4
    #: coalescing factor: with ``batch > 1``, runs of *identical* successful
    #: samples (same kind/latency/bandwidth/loss verdict — the shape of
    #: steady active-probe ticks, which dominate hybrid runs) are buffered
    #: and folded in via the estimators' closed-form ``update_many`` once
    #: ``batch`` accumulate, on any differing sample, or on read
    #: (:meth:`estimate`/:attr:`samples` flush first).  Sample counts match
    #: the sequential result exactly; EWMA values up to float rounding.
    #: Loss samples and loss-recovery transitions always apply immediately,
    #: so failure-detection latency is unchanged.  Default 1: bit-exact
    #: sequential behaviour.
    batch: int = 1
    latency: EwmaEstimator = field(init=False)
    bandwidth: EwmaEstimator = field(init=False)
    loss: SlidingWindowEstimator = field(init=False)
    consecutive_lost: int = field(init=False, default=0)
    #: observation time of the last sample received (applied or coalesced)
    last_sample_at: float = field(init=False, default=0.0)
    _run_sample: Optional[LinkSample] = field(init=False, default=None, repr=False)
    _run_pending: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        self.latency = EwmaEstimator(self.alpha)
        self.bandwidth = EwmaEstimator(self.alpha)
        self.loss = SlidingWindowEstimator(self.window)

    @property
    def samples(self) -> int:
        self._flush_run()
        return self.loss.samples

    def _extends_run(self, sample: LinkSample) -> bool:
        """Would ``update(sample)`` only join the pending coalescing run?"""
        run = self._run_sample
        return (
            run is not None
            and self.batch > 1
            and not sample.lost
            and sample.bursts == 1
            and self.consecutive_lost == 0
            and sample.kind == run.kind
            and sample.latency == run.latency
            and sample.bandwidth == run.bandwidth
            and sample.loss_fraction == run.loss_fraction
            and sample.count_loss == run.count_loss
        )

    def update(self, sample: LinkSample) -> bool:
        """Fold one sample in.

        Returns True when the estimator state advanced (callers re-evaluate
        their downstream consumers then), False when the sample was merely
        buffered into a pending coalescing run (``batch > 1``)."""
        self.last_sample_at = sample.at
        if self._extends_run(sample):
            self._run_pending += 1
            if self._run_pending >= self.batch:
                self._flush_run()
                return True
            return False
        # run boundary: flush the old run and apply this sample now; a
        # coalescible sample becomes the new run head
        self._flush_run()
        coalescible = (
            self.batch > 1 and not sample.lost and sample.bursts == 1
            and self.consecutive_lost == 0
        )
        self._run_sample = sample if coalescible else None
        self._apply(sample)
        return True

    def update_run(self, sample: LinkSample, n: int) -> bool:
        """``n`` sequential ``update(sample)`` calls in closed form.

        ``sample`` (the last of the run, by ``at``) is a successful probe
        sample: a latency, a bandwidth and a 0.0 for the loss window.  The
        run head applies alone, as ``update`` would apply it; the rest join
        the coalescing run, so every ``batch`` of them is one
        ``update_many`` flush and the remainder stays pending.  State
        afterwards is exactly the sequential result; the return value is the
        last call's."""
        advanced = False
        while n and not self._extends_run(sample):
            advanced = self.update(sample)
            n -= 1
        if not n:
            return advanced
        self.last_sample_at = sample.at
        flushes, self._run_pending = divmod(self._run_pending + n, self.batch)
        if flushes:
            size = self.batch
            # the window keeps the last `window` values: one extend leaves
            # the contents of `flushes` extends
            self.loss.update_many(0.0, flushes * size)
            _blend_runs(self.latency, sample.latency, size, flushes)
            _blend_runs(self.bandwidth, sample.bandwidth, size, flushes)
        return self._run_pending == 0

    def preview(self, sample: LinkSample, limit: int,
                acts: Callable[[MeasuredLink], bool]) -> int:
        """How many of the next ``limit`` ``update(sample)`` calls, with
        ``sample`` a successful probe sample (see :meth:`update_run`), pass
        before the first whose estimate ``acts`` on: ``limit`` if none does.

        Runs on a copy, from one point where ``update`` returns True to the
        next, and stops early at a fixed point: once a flush leaves both
        smoothed values where they were over an all-zero loss window, every
        later one does too."""
        trial = self._copy()
        done = 0
        while True:
            joins = trial._extends_run(sample)
            # with batch 1 every update is the same single blend
            flush = joins or trial.batch == 1
            step = trial.batch - trial._run_pending if joins else 1
            done += step
            if done > limit:
                return limit
            latency, bandwidth = trial.latency.value, trial.bandwidth.value
            trial.update_run(sample, step)
            estimate = trial.estimate()
            if estimate is None:
                continue
            if acts(estimate):
                return done - 1
            if (
                flush and latency == estimate.latency and bandwidth == estimate.bandwidth
                and not any(trial.loss._values)
            ):
                return limit

    def _copy(self) -> "LinkEstimator":
        trial = _twin(self)
        trial._own_smoothers()
        return trial

    def _own_smoothers(self) -> None:
        """Stop sharing the smoothers with the estimator this was copied from."""
        self.latency = _twin(self.latency)
        self.bandwidth = _twin(self.bandwidth)
        values = self.loss._values
        self.loss = _twin(self.loss)
        self.loss._values = values.copy()

    def _flush_run(self) -> None:
        """Apply a pending coalesced run in closed form (``update_many``)."""
        n = self._run_pending
        if not n:
            return
        self._run_pending = 0
        run = self._run_sample
        if run.loss_fraction is not None:
            self.loss.update_many(run.loss_fraction, n)
            return
        if run.count_loss:
            self.loss.update_many(0.0, n)
        if run.latency is not None:
            self.latency.update_many(run.latency, n)
        if run.bandwidth is not None:
            self.bandwidth.update_many(run.bandwidth, n)

    def _apply(self, sample: LinkSample) -> None:
        bursts = sample.bursts
        if sample.lost:
            self.loss.update(1.0)
            # Only lost *active probes* argue for link death: passive loss
            # samples are the ordinary loss model at work (a lossy WAN drops
            # datagrams all day without being down).
            if sample.kind == "ping":
                self.consecutive_lost += 1
            return
        if sample.loss_fraction is not None:
            # A surfaced TCP burst: the fraction is the per-packet rate.
            # The draw happens sender-side *before* the wire is consulted,
            # so it proves nothing about delivery — a blackholed link keeps
            # producing 0.0-fraction bursts — and must never refute (or
            # argue) link death.  Liveness refutation rides the "frame"
            # samples, which only exist when the wire accepted the frame.
            if bursts != 1:
                self.loss.update_many(sample.loss_fraction, bursts)
            else:
                self.loss.update(sample.loss_fraction)
            return
        if sample.count_loss:
            if bursts != 1:
                self.loss.update_many(0.0, bursts)
            else:
                self.loss.update(0.0)
        # any successful crossing — active or passive — refutes death
        self.consecutive_lost = 0
        if sample.latency is not None:
            if bursts != 1:
                self.latency.update_many(sample.latency, bursts)
            else:
                self.latency.update(sample.latency)
        if sample.bandwidth is not None:
            if bursts != 1:
                self.bandwidth.update_many(sample.bandwidth, bursts)
            else:
                self.bandwidth.update(sample.bandwidth)

    def estimate(self) -> Optional[MeasuredLink]:
        """The current measured profile, or None until enough samples exist."""
        self._flush_run()
        if self.samples < self.min_samples:
            return None
        return MeasuredLink(
            latency=self.latency.value,
            bandwidth=self.bandwidth.value,
            loss_rate=self.loss.mean() or 0.0,
            samples=self.samples,
            updated_at=self.last_sample_at,
        )

    def reset(self) -> None:
        self.latency.reset()
        self.bandwidth.reset()
        self.loss.reset()
        self.consecutive_lost = 0
        self._run_sample = None
        self._run_pending = 0
