"""Admission control and graceful drain for the network datapath.

A servable system needs an answer for the moment offered load exceeds
capacity.  This module provides the three bounds the datapath enforces
and the counters that make shedding observable:

* **max in-flight** — requests admitted into the service stage at once;
  beyond it, datagrams are shed at ingress (UDP's native semantics:
  silence, the client retries).
* **bounded ingress queue** — staged-but-unserved packets; the queue
  bound caps memory and tail latency rather than letting the backlog
  grow without limit.
* **per-connection budget / connection cap** — the TCP side stops
  *reading* a connection that has the budget's worth of frames
  admitted (real TCP backpressure: the kernel socket buffer fills and
  the sender blocks), and refuses connections beyond the cap.

**Graceful drain** (`drain()`): stop admitting, then wait for every
in-flight request to finish.  In-flight extension invocations are never
abandoned — they run to completion or cancellation through the
supervisor/unwinder, so after the drain the kernel is quiescent (the
datapath asserts this via ``KFlexRuntime.quiescence_report``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

#: Distinct sources tracked in the per-source shed breakdown before new
#: sources collapse into the ``"(other)"`` bucket — a spoofed flood must
#: not be able to grow server memory by inventing source identities.
MAX_SHED_SOURCES = 512
OTHER_SOURCE = "(other)"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Bounds for one datapath instance; defaults suit loopback tests."""

    #: Requests admitted into the service stage at once.
    max_inflight: int = 64
    #: Ingress queue bound (staged, not yet admitted to service).
    max_queue: int = 256
    #: TCP: frames one connection may have admitted at once before the
    #: server stops reading it (backpressure, not shedding).
    per_conn_budget: int = 8
    #: TCP: concurrent connections accepted; more are closed on sight.
    max_connections: int = 128
    #: TCP: seconds a connection may sit idle — no new frame arriving
    #: at a frame boundary, or a reply unwritable because the client
    #: stopped reading — before the server closes it and releases its
    #: slots.  ``None`` keeps the pre-slow-loris behaviour (wait
    #: forever), which is what loopback unit tests want.
    idle_timeout: float | None = None


@dataclass
class ShedStats:
    """Load-shed and drain accounting."""

    admitted: int = 0
    completed: int = 0
    #: Shed because max_inflight was reached.
    shed_inflight: int = 0
    #: Shed because the ingress queue was full.
    shed_queue: int = 0
    #: Shed because the datapath was draining/stopped.
    shed_draining: int = 0
    #: TCP connections refused at the connection cap.
    refused_connections: int = 0
    #: Times a TCP connection was not read: its budget was admitted.
    budget_stalls: int = 0
    #: Requests that were in flight when drain began and completed.
    drained_inflight: int = 0
    #: Drains that hit their deadline with requests still in flight.
    drain_timeouts: int = 0
    #: Requests still in flight when a timed-out drain gave up on them
    #: (they are abandoned to worker cancellation, not completed).
    forced_cancellations: int = 0
    #: TCP connections closed by the per-connection idle deadline
    #: (slow-loris defence: an idle connection may not hold slots).
    idle_closed: int = 0
    #: Shed counts attributed to the source that offered the traffic
    #: (client address or tenant id) — what lets an operator tell a
    #: flood victim from a flood source.  Bounded by
    #: :data:`MAX_SHED_SOURCES`; the overflow bucket is
    #: :data:`OTHER_SOURCE`.
    shed_by_source: dict = field(default_factory=dict)

    def note_shed_source(self, source) -> None:
        if source is None:
            return
        by_src = self.shed_by_source
        if source not in by_src and len(by_src) >= MAX_SHED_SOURCES:
            source = OTHER_SOURCE
        by_src[source] = by_src.get(source, 0) + 1

    def top_shed_sources(self, n: int = 8) -> list:
        """``[(source, sheds)]`` sorted by shed count, largest first."""
        return sorted(
            self.shed_by_source.items(), key=lambda kv: -kv[1]
        )[:n]

    def merge(self, other: "ShedStats") -> "ShedStats":
        for f in (
            "admitted", "completed", "shed_inflight", "shed_queue",
            "shed_draining", "refused_connections", "budget_stalls",
            "drained_inflight", "drain_timeouts", "forced_cancellations",
            "idle_closed",
        ):
            setattr(self, f, getattr(self, f) + getattr(other, f))
        for src, n in other.shed_by_source.items():
            by_src = self.shed_by_source
            if src not in by_src and len(by_src) >= MAX_SHED_SOURCES:
                src = OTHER_SOURCE
            by_src[src] = by_src.get(src, 0) + n
        return self


class AdmissionControl:
    """Loop-affine admission state shared by one datapath's workers."""

    def __init__(self, policy: AdmissionPolicy | None = None):
        self.policy = policy or AdmissionPolicy()
        self.stats = ShedStats()
        self.inflight = 0
        self.connections = 0
        self.draining = False
        self._idle: asyncio.Event | None = None  # created lazily, loop-affine

    # -- request admission -------------------------------------------------

    def _inflight_limit(self) -> int:
        """The in-flight bound admissions are checked against; the
        adaptive controller overrides this with its learned limit."""
        return self.policy.max_inflight

    def try_admit(self, source=None) -> bool:
        """Admit one request into the service stage, or shed it.

        ``source`` (a client address, tenant id — anything hashable)
        attributes the shed when one happens; admission itself never
        looks at it, so attribution costs nothing on the happy path.
        """
        if self.draining:
            self.stats.shed_draining += 1
            self.stats.note_shed_source(source)
            return False
        if self.inflight >= self._inflight_limit():
            self.stats.shed_inflight += 1
            self.stats.note_shed_source(source)
            return False
        self.inflight += 1
        self.stats.admitted += 1
        return True

    def release(self) -> None:
        self.inflight -= 1
        self.stats.completed += 1
        if self.draining:
            self.stats.drained_inflight += 1
            if self.inflight == 0 and self._idle is not None:
                self._idle.set()

    # -- connection admission ----------------------------------------------

    def try_admit_connection(self, source=None) -> bool:
        if self.draining or self.connections >= self.policy.max_connections:
            self.stats.refused_connections += 1
            self.stats.note_shed_source(source)
            return False
        self.connections += 1
        return True

    def release_connection(self) -> None:
        self.connections -= 1

    # -- drain --------------------------------------------------------------

    async def drain(self, timeout: float | None = None,
                    escalate=None) -> bool:
        """Stop admitting and wait for in-flight requests to finish.

        Returns True on a clean drain.  An unbounded drain (the
        default) can hang forever behind one stuck request — exactly
        the failure a supervised runtime must not inherit — so a
        ``timeout`` (seconds) bounds the wait: on expiry the remaining
        in-flight requests are written off as forced cancellations,
        the ``escalate`` callback (sync or async — e.g. quarantine the
        stuck extension through the supervisor) is invoked, and False
        is returned; the caller then cancels its workers instead of
        waiting for completions that are never coming.
        """
        self.draining = True
        if self.inflight == 0:
            return True
        self._idle = asyncio.Event()
        if self.inflight == 0:  # completed between the check and the Event
            return True
        if timeout is None:
            await self._idle.wait()
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            self.stats.drain_timeouts += 1
            self.stats.forced_cancellations += self.inflight
            if escalate is not None:
                res = escalate()
                if asyncio.iscoroutine(res):
                    await res
            return False


# ---------------------------------------------------------------------------
# Overload-adaptive admission
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptiveConfig:
    """AIMD knobs for :class:`AdaptiveAdmission`.

    The controller watches two overload signals from scenario/runtime
    telemetry — ingress queue depth and p99 drift against an unloaded
    baseline — and moves the in-flight admission limit between
    ``floor`` and the policy's ``max_inflight`` ceiling: multiplicative
    decrease on an overloaded observation, additive increase on a calm
    one.  The asymmetry is deliberate (the same reason TCP uses it):
    collapse must be escaped in a few observations, while probing back
    up may take many.
    """

    #: The limit never tightens below this — starvation is not
    #: graceful degradation.
    floor: int = 8
    #: Additive step per calm observation.
    increase: int = 4
    #: Multiplicative factor per overloaded observation.
    decrease: float = 0.5
    #: Queue fill fraction (of ``policy.max_queue``) that reads as
    #: overload regardless of latency.
    queue_high: float = 0.75
    #: p99 beyond ``baseline_p99_ns * p99_factor`` reads as overload.
    p99_factor: float = 3.0
    #: Unloaded-baseline p99; ``None`` learns it from the first few
    #: calm observations.
    baseline_p99_ns: float | None = None
    #: Calm observations folded into the learned baseline.
    warmup_obs: int = 3


@dataclass
class AdaptiveStats:
    """Telemetry of the controller's decisions."""

    observations: int = 0
    tightenings: int = 0
    relaxations: int = 0
    #: Tightest limit the controller ever reached.
    min_limit: int = 0


class AdaptiveAdmission(AdmissionControl):
    """Admission control whose in-flight limit learns from telemetry.

    Drop-in for :class:`AdmissionControl` (the datapaths accept it via
    their ``admission=`` argument).  Something periodic — the scenario
    harness, a serving loop's housekeeping tick — feeds it
    ``observe(queue_depth, p99_ns)``; admission decisions between
    observations use the current learned limit.
    """

    def __init__(self, policy: AdmissionPolicy | None = None,
                 config: AdaptiveConfig | None = None):
        super().__init__(policy)
        self.config = config or AdaptiveConfig()
        self.ceiling = self.policy.max_inflight
        self.limit = self.ceiling
        self.baseline_p99_ns = self.config.baseline_p99_ns
        self._warmup: list = []
        self.adaptive = AdaptiveStats(min_limit=self.ceiling)

    def _inflight_limit(self) -> int:
        return self.limit

    def observe(self, queue_depth: int, p99_ns: float | None = None) -> int:
        """Feed one telemetry observation; returns the new limit."""
        cfg = self.config
        st = self.adaptive
        st.observations += 1
        queue_hot = queue_depth >= cfg.queue_high * self.policy.max_queue
        if (
            self.baseline_p99_ns is None
            and p99_ns
            and not queue_hot
        ):
            # Calm observations seed the unloaded baseline; the min is
            # robust against one early sample already carrying queueing.
            self._warmup.append(p99_ns)
            if len(self._warmup) >= cfg.warmup_obs:
                self.baseline_p99_ns = min(self._warmup)
        latency_hot = bool(
            p99_ns
            and self.baseline_p99_ns
            and p99_ns > self.baseline_p99_ns * cfg.p99_factor
        )
        if queue_hot or latency_hot:
            new = max(cfg.floor, int(self.limit * cfg.decrease))
            if new < self.limit:
                st.tightenings += 1
                self.limit = new
        elif self.limit < self.ceiling:
            st.relaxations += 1
            self.limit = min(self.ceiling, self.limit + cfg.increase)
        if self.limit < st.min_limit:
            st.min_limit = self.limit
        return self.limit

    @property
    def tightened(self) -> bool:
        """True while the learned limit sits below the ceiling."""
        return self.limit < self.ceiling
