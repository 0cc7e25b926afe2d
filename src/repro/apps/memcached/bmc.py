"""BMC [42]: the eBPF baseline for Memcached (§5.1).

A look-aside cache at XDP built strictly within vanilla eBPF's limits,
verified here in **eBPF mode** (no heap, no malloc, no unbounded loops):

* GETs probe a *preallocated* kernel hash map; hits answer from XDP
  (XDP_TX), misses fall through to user space (XDP_PASS), which serves
  the request and refreshes the cache from the response path.
* SETs cannot be offloaded — processing them needs dynamic allocation,
  which eBPF does not provide (§5.1) — so the extension only
  *invalidates* the cached entry and passes the packet up.
* Values must not exceed keys (the paper shrinks values to 32 B for
  exactly this reason); the cache map stores fixed 32 B values.
"""

from __future__ import annotations

from repro.ebpf.isa import Reg
from repro.ebpf.macroasm import MacroAsm
from repro.ebpf.maps import HashMap
from repro.ebpf.program import Program, XDP_TX, XDP_PASS
from repro.ebpf.helpers import BPF_MAP_LOOKUP_ELEM, BPF_MAP_DELETE_ELEM
from repro.apps.memcached import protocol as P

R0, R1, R2, R3, R4, R5 = Reg.R0, Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5
R6, R7, R8, R9, R10 = Reg.R6, Reg.R7, Reg.R8, Reg.R9, Reg.R10


def build_bmc_program(cache: HashMap) -> Program:
    m = MacroAsm()
    # Parse + bounds check.
    m.ldx(R6, R1, 0, 8)
    m.ldx(R3, R1, 8, 8)
    m.mov(R2, R6)
    m.add(R2, P.PKT_SIZE)
    ok = m.fresh_label("ok")
    m.jcc("<=", R2, R3, ok)
    m.mov(R0, XDP_PASS)
    m.exit()
    m.label(ok)

    # Copy the 32-byte key to the stack (map key argument).
    for i in range(4):
        m.ldx(R4, R6, P.KEY_OFF + 8 * i, 8)
        m.stx(R10, R4, -32 + 8 * i, 8)

    m.ldx(R7, R6, 0, 1)  # op byte
    set_path = m.fresh_label("set")
    m.jcc("==", R7, P.OP_SET, set_path)

    # ---- GET: look-aside probe ------------------------------------------
    m.map_ptr(R1, cache)
    m.mov(R2, R10)
    m.add(R2, -32)
    m.call(BPF_MAP_LOOKUP_ELEM)
    miss = m.fresh_label("miss")
    m.jcc("==", R0, 0, miss)
    # Hit: copy the cached value into the reply and transmit from XDP.
    for i in range(4):
        m.ldx(R4, R0, 8 * i, 8)
        m.stx(R6, R4, P.VAL_OFF + 8 * i, 8)
    m.st_imm(R6, 0, P.REPLY_FLAG | P.OP_GET, 1)
    m.st_imm(R6, 1, P.STATUS_HIT, 1)
    m.mov(R0, XDP_TX)
    m.exit()
    m.label(miss)
    m.mov(R0, XDP_PASS)  # user space serves the miss
    m.exit()

    # ---- SET: invalidate-and-pass ------------------------------------------
    m.label(set_path)
    m.map_ptr(R1, cache)
    m.mov(R2, R10)
    m.add(R2, -32)
    m.call(BPF_MAP_DELETE_ELEM)
    m.mov(R0, XDP_PASS)
    m.exit()

    return Program("bmc", m.assemble(), hook="xdp", maps={cache.fd: cache})


class BmcCache:
    """BMC loaded in eBPF mode, plus the user-space cache-fill path."""

    def __init__(self, runtime, *, capacity: int = 4096, name: str = "bmc"):
        self.runtime = runtime
        kernel = runtime.kernel
        self.cache = HashMap(
            kernel.aspace,
            kernel.vmalloc,
            key_size=P.KEY_SIZE,
            value_size=P.VAL_SIZE,
            max_entries=capacity,
            name=name,
        )
        self.ext = runtime.load(build_bmc_program(self.cache), mode="ebpf",
                                attach=False)
        self.hits = 0
        self.misses = 0

    def probe(self, pkt: bytes, cpu: int = 0) -> int:
        """Run the extension on one packet; returns the XDP verdict."""
        verdict, _ = self.ext.run_packet(pkt, cpu)
        if pkt[0] == P.OP_GET:
            if verdict == XDP_TX:
                self.hits += 1
            else:
                self.misses += 1
        return verdict

    def read_reply(self, cpu: int = 0) -> bytes:
        return self.runtime.kernel.net.read_packet(cpu, P.PKT_SIZE)

    def fill_from_response(self, key_id: int, value_id: int) -> bool:
        """The user-space response path refreshes the cache (BMC §3)."""
        return self.cache.update_or_full(
            P.key_bytes(key_id), P.value_bytes(value_id)
        )

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
