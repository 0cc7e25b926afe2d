"""Datapath wrapper: the balancer fronting real backend services.

:class:`L4LBService` is the LB tier of a two-tier deployment: it owns
its *own* runtime (the LB box) with the balancer extension and the
pinned connection table, and forwards redirected packets to backend
:class:`~repro.net.service.PacketService` instances that each own
*their* runtime and durable store (the backend boxes).  Crashing a
backend, rebuilding it from its store, and crash-restarting the LB
itself are therefore all independent events — exactly the failure
grid the l4lb scenarios walk.
"""

from __future__ import annotations

from repro.apps.l4lb.ext import (
    BACKEND_OFF,
    HDR_SIZE,
    MAGIC,
    RING_SIZE,
    build_l4lb_program,
)
from repro.apps.l4lb.ring import build_ring
from repro.core.runtime import KFlexRuntime
from repro.ebpf.maps import ArrayMap, HashMap
from repro.ebpf.program import XDP_TX
from repro.net.service import PacketService


class L4LBService(PacketService):
    """Katran-style balancing over pinned-map flow state.

    On a fresh ``store`` the connection table is created and pinned at
    ``pin``; on a store that already holds durable state — an LB
    restart — the table is rebuilt from snapshot + WAL and the program
    is recompiled over the recovered map, so established flows keep
    their backend across the restart.  The ring map is config, not
    state: it is rebuilt from the live backend set on every change and
    never pinned.
    """

    def __init__(
        self,
        runtime: KFlexRuntime | None = None,
        *,
        store,
        backends: dict | None = None,
        pin: str = "l4lb/conn",
        conn_capacity: int = 4096,
        ring_size: int = RING_SIZE,
        engine: str | None = None,
    ):
        runtime = runtime or KFlexRuntime(engine=engine)
        self.store = store
        self.pin = pin
        self.ring_size = ring_size
        #: backend id -> PacketService (each with its own runtime).
        self.backends = dict(backends or {})
        k = runtime.kernel
        self.ring_map = ArrayMap(
            k.aspace, k.vmalloc,
            value_size=8, max_entries=ring_size, name="l4lb-ring",
        )
        self.recovered = pin in store.pins()
        self.recovery = None
        if self.recovered:
            loaded = {}

            def factory(rt, m):
                ext = rt.load(
                    build_l4lb_program(m, self.ring_map, tag=1),
                    mode="ebpf", attach=False,
                )
                loaded["ext"] = ext
                return ext

            self.recovery = runtime.recover(store, programs={pin: factory})
            self.conn = runtime.pins.get(pin)
            ext = loaded["ext"]
        else:
            self.conn = HashMap(
                k.aspace, k.vmalloc,
                key_size=8, value_size=8,
                max_entries=conn_capacity, name="l4lb-conn",
            )
            runtime.pin_map(pin, self.conn, store)
            ext = runtime.load(
                build_l4lb_program(self.conn, self.ring_map),
                mode="ebpf", attach=False,
            )
        super().__init__(runtime)
        self.ext = ext
        #: Packets forwarded per backend id.
        self.forwarded: dict = {}
        #: Redirects whose target backend was absent (mid-failover).
        self.unrouted = 0
        #: Non-envelope wire garbage dropped at the hook.
        self.garbage_drops = 0
        if self.backends:
            self.sync_ring()

    # -- ring / backend management ----------------------------------------

    def sync_ring(self) -> list[int]:
        """Rebuild the rendezvous ring from the live backend set and
        write it into the ring map."""
        ring = build_ring(self.backends, self.ring_size)
        for slot, bid in enumerate(ring):
            self.ring_map.update(
                slot.to_bytes(4, "little"), bid.to_bytes(8, "little")
            )
        return ring

    def add_backend(self, bid: int, service) -> None:
        self.backends[bid] = service
        self.sync_ring()

    def remove_backend(self, bid: int, *, purge: bool = True) -> int:
        """Drop a backend permanently: rehash its ring share and (with
        ``purge``) unbind its flows so they re-resolve via the ring.
        Returns the number of purged bindings."""
        self.backends.pop(bid, None)
        if self.backends:
            self.sync_ring()
        if not purge:
            return 0
        stale = [
            key for key, val in self.conn.entries()
            if int.from_bytes(val, "little") == bid
        ]
        for key in stale:
            self.conn.delete(key)
        return len(stale)

    def conn_bindings(self) -> dict:
        """Flow → backend snapshot of the pinned table (test oracle)."""
        return {
            int.from_bytes(key, "little"): int.from_bytes(val, "little")
            for key, val in self.conn.entries()
        }

    # -- verdict dispatch ---------------------------------------------------

    def _serve_sync(self, payload: bytes, cpu: int, batched: bool = False):
        ext = self.ext
        if ext.dead and not self.runtime.supervisor.try_readmit(ext):
            return None, "pass"
        verdict, read = ext.run_packet(payload, cpu, batched)
        if ext.dead:
            return None, "pass"
        if verdict != XDP_TX:
            if len(payload) < HDR_SIZE or payload[0] != MAGIC:
                self.garbage_drops += 1
            return None, "drop"
        pkt = read(len(payload))
        bid = int.from_bytes(pkt[BACKEND_OFF:BACKEND_OFF + 2], "little")
        backend = self.backends.get(bid)
        if backend is None:
            # Bound to a backend that is gone and not yet replaced —
            # the mid-failover window.  The client retries; once the
            # backend is rebuilt (same id) the flow resumes sticky.
            self.unrouted += 1
            return None, "drop"
        self.forwarded[bid] = self.forwarded.get(bid, 0) + 1
        reply, path = backend.ingress(payload[HDR_SIZE:], cpu)
        if path == "pass":
            # Backends here are authoritative (durable memcached); a
            # PASS can only mean capacity exhaustion — shed it.
            return None, "drop"
        return reply, path

    def close(self) -> None:
        for backend in self.backends.values():
            backend.close()
        self.store.close()
        super().close()
