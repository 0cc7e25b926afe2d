"""KFlex-Memcached: GET **and** SET handled at the XDP hook (§5.1).

The whole fast path lives in one extension: packet parse (verified
direct packet access), 32-byte key hash and compare, chained hash table
in the extension heap, and on-demand allocation of entries with
``kflex_malloc`` — the capability BMC lacks, which is why BMC cannot
offload SETs (§5.1).

Variants:

* ``use_locks`` — stripe spin locks protecting buckets, required when
  multiple server CPUs or a co-designed user-space thread (§5.3) touch
  the table.
* ``share_heap`` — maps the heap into user space with translate-on-
  store (§3.4), enabling the garbage-collection co-design.

SET requests arrive over TCP in the paper; the cost harness accounts
for that with the XDP TCP fast path (§5.1) when computing end-to-end
service times.
"""

from __future__ import annotations

from repro.ebpf.isa import Reg
from repro.ebpf.macroasm import MacroAsm, Struct
from repro.ebpf.program import Program, XDP_TX, XDP_PASS
from repro.ebpf.helpers import KFLEX_MALLOC, KFLEX_SPIN_LOCK, KFLEX_SPIN_UNLOCK
from repro.apps.memcached import protocol as P
from repro.apps.datastructures.common import HASH_CONST

R0, R1, R2, R3, R4, R5 = Reg.R0, Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5
R6, R7, R8, R9, R10 = Reg.R6, Reg.R7, Reg.R8, Reg.R9, Reg.R10

ENTRY = Struct(k0=8, k1=8, k2=8, k3=8, v0=8, v1=8, v2=8, v3=8, next=8)

BUCKET_BITS = 12
N_STRIPES = 64
LOCKS_OFF = 0
BUCKETS_OFF = N_STRIPES * 8
STATIC_BYTES = BUCKETS_OFF + (1 << BUCKET_BITS) * 8

SLOT_BUCKET = -8
SLOT_HEAD = -16
SLOT_LOCK = -24

_KEY_FIELDS = (ENTRY.k0, ENTRY.k1, ENTRY.k2, ENTRY.k3)
_VAL_FIELDS = (ENTRY.v0, ENTRY.v1, ENTRY.v2, ENTRY.v3)


def build_memcached_program(
    static: int, *, use_locks: bool = False, heap_size: int = 1 << 26
) -> Program:
    m = MacroAsm()
    # Prologue: parse and bounds-check the packet.
    m.ldx(R6, R1, 0, 8)   # data
    m.ldx(R3, R1, 8, 8)   # data_end
    m.mov(R2, R6)
    m.add(R2, P.PKT_SIZE)
    ok = m.fresh_label("ok")
    m.jcc("<=", R2, R3, ok)
    m.mov(R0, XDP_PASS)
    m.exit()
    m.label(ok)

    # Hash the 32-byte key: xor-fold then multiplicative hash.
    m.ldx(R9, R6, P.KEY_OFF, 8)
    for off in (8, 16, 24):
        m.ldx(R2, R6, P.KEY_OFF + off, 8)
        m.xor(R9, R2)
    m.ld_imm64(R2, HASH_CONST)
    m.mul(R9, R2)
    m.rsh(R9, 64 - BUCKET_BITS)

    if use_locks:
        # Stripe lock: bucket index low bits select one of 64 locks.
        m.mov(R2, R9)
        m.and_(R2, N_STRIPES - 1)
        m.lsh(R2, 3)
        m.heap_addr(R3, static + LOCKS_OFF)
        m.add(R2, R3)
        m.stx(R10, R2, SLOT_LOCK, 8)
        m.mov(R7, R2)
        m.call_helper(KFLEX_SPIN_LOCK, R7)

    # Bucket address and chain head.
    m.lsh(R9, 3)
    m.heap_addr(R2, static + BUCKETS_OFF)
    m.add(R9, R2)           # bucket cell (elided: static area)
    m.stx(R10, R9, SLOT_BUCKET, 8)
    m.ldx(R7, R9, 0, 8)     # chain head
    m.stx(R10, R7, SLOT_HEAD, 8)

    def emit_unlock():
        if use_locks:
            m.ldx(R1, R10, SLOT_LOCK, 8)
            m.call(KFLEX_SPIN_UNLOCK)

    def emit_reply(op_byte: int, status: int, ret: int):
        m.st_imm(R6, 0, op_byte, 1)
        m.st_imm(R6, 1, status, 1)
        emit_unlock()
        m.mov(R0, ret)
        m.exit()

    # Dispatch on the op byte.
    m.ldx(R2, R6, 0, 1)
    set_path = m.fresh_label("set")
    m.jcc("==", R2, P.OP_SET, set_path)

    # ---- GET ------------------------------------------------------------
    with m.while_("!=", R7, 0) as walk:
        nxt = m.fresh_label("next_get")
        for i, fld in enumerate(_KEY_FIELDS):
            m.ldf(R4, R7, fld)  # first load guards/sanitises R7
            m.ldx(R5, R6, P.KEY_OFF + 8 * i, 8)
            m.jcc("!=", R4, R5, nxt)
        # Hit: copy the value into the packet reply area.
        for i, fld in enumerate(_VAL_FIELDS):
            m.ldf(R4, R7, fld)
            m.stx(R6, R4, P.VAL_OFF + 8 * i, 8)
        emit_reply(P.REPLY_FLAG | P.OP_GET, P.STATUS_HIT, XDP_TX)
        m.label(nxt)
        m.ldf(R7, R7, ENTRY.next)
    emit_reply(P.REPLY_FLAG | P.OP_GET, P.STATUS_MISS, XDP_TX)

    # ---- SET ------------------------------------------------------------
    m.label(set_path)
    with m.while_("!=", R7, 0) as walk:
        nxt = m.fresh_label("next_set")
        for i, fld in enumerate(_KEY_FIELDS):
            m.ldf(R4, R7, fld)
            m.ldx(R5, R6, P.KEY_OFF + 8 * i, 8)
            m.jcc("!=", R4, R5, nxt)
        # In-place value update.
        for i, fld in enumerate(_VAL_FIELDS):
            m.ldx(R4, R6, P.VAL_OFF + 8 * i, 8)
            m.stf(R7, fld, R4)
        emit_reply(P.REPLY_FLAG | P.OP_SET, P.STATUS_HIT, XDP_TX)
        m.label(nxt)
        m.ldf(R7, R7, ENTRY.next)
    # Miss: allocate a new entry — the step eBPF cannot express (§5.1).
    m.call_helper(KFLEX_MALLOC, ENTRY.size)
    with m.if_("==", R0, 0):
        emit_reply(P.REPLY_FLAG | P.OP_SET, P.STATUS_MISS, XDP_TX)
    m.mov(R7, R0)
    for i, fld in enumerate(_KEY_FIELDS):
        m.ldx(R4, R6, P.KEY_OFF + 8 * i, 8)
        m.stf(R7, fld, R4)
    for i, fld in enumerate(_VAL_FIELDS):
        m.ldx(R4, R6, P.VAL_OFF + 8 * i, 8)
        m.stf(R7, fld, R4)
    m.ldx(R4, R10, SLOT_HEAD, 8)
    m.stf(R7, ENTRY.next, R4)
    m.ldx(R9, R10, SLOT_BUCKET, 8)
    m.stx(R9, R7, 0, 8)
    emit_reply(P.REPLY_FLAG | P.OP_SET, P.STATUS_HIT, XDP_TX)

    return Program(
        "kflex_memcached", m.assemble(), hook="xdp", heap_size=heap_size
    )


class KFlexMemcached:
    """Loaded KFlex-Memcached with Python-side request helpers."""

    def __init__(
        self,
        runtime,
        *,
        use_locks: bool = False,
        share_heap: bool = False,
        perf_mode: bool = False,
        kmod: bool = False,
        heap_size: int = 1 << 26,
        name: str = "kvmemc",
        quantum_units: int | None = None,
    ):
        self.runtime = runtime
        self.heap = runtime.create_heap(heap_size, name=name)
        self.static = self.heap.reserve_static(STATIC_BYTES)
        prog = build_memcached_program(
            self.static, use_locks=use_locks, heap_size=heap_size
        )
        if kmod:
            self.ext = runtime.load_kmod(prog, heap=self.heap)
        else:
            self.ext = runtime.load(
                prog,
                heap=self.heap,
                attach=False,
                perf_mode=perf_mode,
                share_heap=share_heap,
                quantum_units=quantum_units,
            )
        self.use_locks = use_locks

    # -- request plumbing ---------------------------------------------------

    def _roundtrip(self, pkt: bytes, cpu: int = 0) -> bytes:
        self.last_verdict, read = self.ext.run_packet(pkt, cpu)
        return read(P.PKT_SIZE)

    def handle(self, pkt: bytes, cpu: int = 0) -> bytes:
        """Serve one wire packet, returning the reply bytes.

        Same signature as ``UserspaceMemcached.handle`` so a bare KMod
        load can stand in as the stock server behind a real socket —
        the userspace baseline then executes the identical table
        bytecode and differs from the fast path only in the path taken
        (the comparison convention of :mod:`repro.apps.memcached.userspace`).
        """
        return self._roundtrip(pkt, cpu)

    def get(self, key_id: int, cpu: int = 0):
        reply = self._roundtrip(P.encode_get(key_id), cpu)
        return P.decode_reply(reply)

    def set(self, key_id: int, value_id: int, cpu: int = 0) -> bool:
        reply = self._roundtrip(P.encode_set(key_id, value_id), cpu)
        hit, _ = P.decode_reply(reply)
        return hit

    def warm(self, n_keys: int, cpu: int = 0) -> None:
        for k in range(n_keys):
            self.set(k, k ^ 0x5A5A, cpu)

    @property
    def last_cost_units(self) -> int:
        return self.ext.stats.last_cost_units

    # -- co-design surface (§5.3) ----------------------------------------------

    def bucket_cell_user(self, idx: int) -> int:
        """User-space address of bucket ``idx`` (for the GC thread)."""
        return self.heap.user_base + self.static + BUCKETS_OFF + idx * 8

    def stripe_lock_addr(self, bucket_idx: int) -> int:
        return self.static + LOCKS_OFF + (bucket_idx & (N_STRIPES - 1)) * 8

    @property
    def n_buckets(self) -> int:
        return 1 << BUCKET_BITS
