"""Datapath wrapper: shedder extension in front of a protected service.

:class:`RateLimitedService` composes at the service layer the way XDP
programs chain on a real NIC: the shedder runs first, in the same
runtime (same kernel, same packet slot, same clock) as the protected
service's extension, and only packets it PASSes are unwrapped and
handed to the inner service.  The datapath is oblivious — it sees one
:class:`~repro.net.service.PacketService` with the usual verdict
surface.
"""

from __future__ import annotations

from repro.apps.ratelimit.ext import (
    HDR_SIZE,
    MAGIC,
    SRC_OFF,
    STATIC_BYTES,
    RateLimitConfig,
    build_ratelimit_program,
)
from repro.ebpf.program import XDP_PASS, XDP_TX
from repro.net.backpressure import MAX_SHED_SOURCES, OTHER_SOURCE
from repro.net.service import PacketService


class RateLimitedService(PacketService):
    """Token-bucket / heavy-hitter shedding in front of ``inner``.

    Shares ``inner.runtime`` — one kernel, one clock, one per-CPU
    packet slot — so a PASS verdict costs no copy: the inner service
    re-stages only the unwrapped payload.  Per-source drop counts are
    kept Python-side (``source_drops``), bounded like the admission
    layer's shed attribution.
    """

    def __init__(self, inner: PacketService, *,
                 config: RateLimitConfig | None = None,
                 name: str = "ratelimit"):
        super().__init__(inner.runtime)
        self.inner = inner
        self.config = config or RateLimitConfig()
        self.heap = self.runtime.create_heap(1 << 20, name=name)
        self.static = self.heap.reserve_static(STATIC_BYTES)
        prog = build_ratelimit_program(
            self.static, self.config, heap_size=self.heap.size, name=name
        )
        self.ext = self.runtime.load(prog, heap=self.heap, attach=False)
        #: Drops attributed to the envelope's source id.
        self.source_drops: dict = {}
        #: Drops with no parseable source (runt frames, bad magic).
        self.garbage_drops = 0
        #: SYNs answered from the hook.
        self.syn_acks = 0

    def _note_drop(self, payload: bytes) -> None:
        if len(payload) < HDR_SIZE or payload[0] != MAGIC:
            self.garbage_drops += 1
            return
        src = int.from_bytes(payload[SRC_OFF:SRC_OFF + 4], "little")
        drops = self.source_drops
        if src not in drops and len(drops) >= MAX_SHED_SOURCES:
            src = OTHER_SOURCE
        drops[src] = drops.get(src, 0) + 1

    def drops_for(self, sources) -> int:
        """Total drops attributed to a set of source ids."""
        return sum(self.source_drops.get(s, 0) for s in sources)

    def _serve_sync(self, payload: bytes, cpu: int, batched: bool = False):
        ext = self.ext
        if ext.dead and not self.runtime.supervisor.try_readmit(ext):
            # Shedder quarantined: fail open.  An unprotected service
            # beats a dead datapath — the inner admission layer still
            # bounds the damage.
            return self.inner.ingress(payload[HDR_SIZE:], cpu)
        verdict, read = ext.run_packet(payload, cpu, batched)
        if ext.dead:
            return self.inner.ingress(payload[HDR_SIZE:], cpu)
        if verdict == XDP_TX:
            self.syn_acks += 1
            return read(len(payload)), "kernel"
        if verdict == XDP_PASS:
            return self.inner.ingress(payload[HDR_SIZE:], cpu)
        self._note_drop(payload)
        return None, "drop"

    async def deliver(self, payload: bytes, cpu: int = 0):
        # A "pass" that bubbled out of the inner service finishes on
        # the inner service's stack path, with the envelope stripped.
        return await self.inner.deliver(payload[HDR_SIZE:], cpu)

    def close(self) -> None:
        self.inner.close()
        super().close()
