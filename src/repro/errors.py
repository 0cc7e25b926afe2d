"""Exception hierarchy for the KFlex reproduction.

Errors are split along the same boundary the paper draws (§3): static
verification failures (kernel-interface compliance, raised at load time)
versus runtime faults in extension execution (extension correctness,
handled by the cancellation machinery rather than propagating).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Static (load-time) errors
# ---------------------------------------------------------------------------


class VerificationError(ReproError):
    """The verifier rejected the extension.

    Carries the instruction index at which verification failed, mirroring
    the eBPF verifier's log output.
    """

    def __init__(self, message: str, insn_idx: int | None = None):
        self.insn_idx = insn_idx
        if insn_idx is not None:
            message = f"insn {insn_idx}: {message}"
        super().__init__(message)


class EncodingError(ReproError):
    """Malformed bytecode: unknown opcode, bad register, truncated stream."""


class AssemblerError(ReproError):
    """Error while assembling a program (unknown label, bad operand)."""


class LoadError(ReproError):
    """The runtime could not load an extension (e.g. no heap declared)."""


# ---------------------------------------------------------------------------
# Runtime faults (caught by the KFlex runtime, not user-visible normally)
# ---------------------------------------------------------------------------


class ExtensionFault(ReproError):
    """Base class for faults raised during extension execution."""

    def __init__(self, message: str, insn_idx: int | None = None):
        self.insn_idx = insn_idx
        super().__init__(message)


class PageFault(ExtensionFault):
    """Access to an unmapped or unpopulated page.

    In KFlex this is a cancellation trigger: the runtime catches it,
    unwinds via the object table of the faulting cancellation point and
    returns the hook's default code (§3.3).
    """

    def __init__(self, addr: int, message: str = "", insn_idx: int | None = None):
        self.addr = addr
        super().__init__(message or f"page fault at {addr:#x}", insn_idx)


class CancellationRequested(ExtensionFault):
    """Internal signal: the watchdog zeroed the terminate cell and the
    extension reached a cancellation point."""


class DivisionFault(ExtensionFault):
    """Division or modulo by zero.

    Real eBPF defines div-by-zero as returning 0 (the JIT emits a check);
    this fault is only raised by the raw interpreter when configured to
    trap instead of following eBPF semantics.
    """


class HelperFault(ExtensionFault):
    """A kernel helper was invoked with arguments that violate its
    contract at runtime (should have been prevented by the verifier)."""


class LockStall(ExtensionFault):
    """A spin-lock acquisition cannot make progress (§4.4): the holder
    is a preempted user thread or the extension itself (self-deadlock).
    The runtime converts this into a cancellation."""


class SleepStall(ExtensionFault):
    """A sleepable helper blocked indefinitely (e.g. a user page that
    will never arrive).  Detected by the background checker the runtime
    keeps for sleepable extensions (§4.3) and converted into a
    cancellation."""


class StackFault(ExtensionFault):
    """Out-of-bounds access to the extension stack frame."""


# ---------------------------------------------------------------------------
# Simulated-kernel errors
# ---------------------------------------------------------------------------


class KernelPanic(ReproError):
    """An invariant of the simulated kernel was violated.

    This is the failure KFlex exists to prevent; tests assert that no
    sequence of extension behaviours can raise it through the runtime.
    """


class QuiescenceViolation(KernelPanic):
    """The quiescence invariant failed after a cancellation unwind:
    a held lock, a live socket reference, or an orphaned allocation
    survived the dead invocation (§3.3).  A subclass of
    :class:`KernelPanic` because a non-quiescent kernel is exactly the
    failure KFlex's cancellation machinery exists to prevent — chaos
    campaigns assert none is ever raised.
    """


class OutOfMemory(ReproError):
    """vmalloc arena or cgroup limit exhausted."""


class FrameError(ReproError, ValueError):
    """A wire frame or datagram could not be decoded: short, oversized,
    or garbled (bad op byte, corrupted key salt).

    Subclasses :class:`ValueError` so callers that guarded the old
    ``decode_reply`` behaviour with ``except ValueError`` keep working;
    network servers catch it to drop the offending frame instead of
    crashing the datapath.
    """


class OversizePacket(KernelPanic, FrameError):
    """A payload larger than the per-CPU packet staging slot.

    Off the wire it is a bad frame — services catch :class:`FrameError`,
    count it and drop it — while in-kernel code that staged a packet it
    built itself still sees the :class:`KernelPanic` it always did.
    """


class MapFull(ReproError):
    """An eBPF map reached max_entries (BMC's preallocated cache)."""


# ---------------------------------------------------------------------------
# Durable state & crash simulation
# ---------------------------------------------------------------------------


class StateError(ReproError):
    """Durable-state subsystem misuse (bad pin path, double attach,
    unreadable manifest) — programming errors, not crash outcomes.
    Crash outcomes (torn WAL tails, corrupt snapshots) never raise:
    recovery degrades to the last consistent prefix instead (§3.4
    extended to host failure)."""


class SimulatedCrash(ReproError):
    """An injected process death at a durable-state crash point.

    Raised by :class:`repro.sim.faults.CrashInjector` inside the
    WAL/snapshot/recovery code.  Campaign drivers catch it, discard all
    volatile state (as a real ``kill -9`` would) and run recovery; it
    must never be caught by the durable-state code itself — swallowing
    it would mean pretending a dead process kept executing.
    """

    def __init__(self, site: str, message: str = ""):
        self.site = site
        super().__init__(message or f"simulated crash at {site}")


class ShardCrashed(ReproError):
    """A request was routed to a shard worker that has crashed.

    The router treats this as the trigger for failover: recover the
    shard's pinned state into a replacement worker and retry there.
    """

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        super().__init__(f"shard {shard_id} crashed")


# ---------------------------------------------------------------------------
# Replication (repro.state.replication)
# ---------------------------------------------------------------------------


class ReplicationError(ReproError):
    """Base class for WAL-shipping / quorum replication failures.

    Unlike :class:`StateError` these are *runtime* conditions (a
    follower died, a quorum is unreachable, an epoch was superseded),
    not programming errors; callers handle them by shedding the write
    or triggering repair, never by acknowledging it."""


class ChannelDown(ReplicationError):
    """The shipping channel to one follower is unusable (connect
    refused, send/recv failure, or the follower died mid-frame).  The
    shipper marks the channel dead and counts the follower out of the
    quorum until anti-entropy brings it back."""

    def __init__(self, node_id: str, message: str = ""):
        self.node_id = node_id
        super().__init__(message or f"follower channel {node_id} down")


class QuorumLost(ReplicationError):
    """Fewer than ``sync_replicas`` followers acknowledged a shipped
    record.  The write is durable locally but MUST NOT be acked to the
    client — the service drops the reply and the client retries."""

    def __init__(self, pin: str, seq: int, acked: int, needed: int):
        self.pin = pin
        self.seq = seq
        self.acked = acked
        self.needed = needed
        super().__init__(
            f"quorum lost shipping {pin!r} seq {seq}: "
            f"{acked}/{needed} follower acks"
        )


class PrimaryFenced(ReplicationError):
    """A follower rejected this primary's frames because it has seen a
    higher epoch: a promotion happened and this primary is deposed.
    Every subsequent ship fails immediately; nothing it journals may be
    acknowledged again."""

    def __init__(self, epoch: int, newer_epoch: int):
        self.epoch = epoch
        self.newer_epoch = newer_epoch
        super().__init__(
            f"primary at epoch {epoch} fenced by epoch {newer_epoch}"
        )
