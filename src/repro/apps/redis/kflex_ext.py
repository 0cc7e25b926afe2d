"""KFlex-Redis at the sk_skb hook (§5.1, §5.2, Fig. 6).

One extension handles GET, SET and ZADD.  String values live directly
in hash-table entries; sorted sets embed a skip-list header in the
entry, with member nodes allocated by ``kflex_malloc`` *in the fast
path* whenever ZADD sees a new member — the allocation-on-demand
pattern that makes ZADD impossible to offload with eBPF (§5.2).

Simplification vs. real Redis (documented in DESIGN.md): ZADD inserts
``(score, member)`` nodes ordered by score; re-adding the same member
with a new score inserts a new node instead of moving the old one
(real Redis pairs the skip list with a member dict for that).  The
fast-path work measured — hash lookup, skip-list descent, node
allocation and linking — is identical in shape.
"""

from __future__ import annotations

from repro.ebpf.isa import Reg
from repro.ebpf.macroasm import MacroAsm, Struct
from repro.ebpf.program import Program, SK_PASS
from repro.ebpf.helpers import KFLEX_MALLOC
from repro.apps.redis import protocol as P
from repro.apps.datastructures.common import HASH_CONST

R0, R1, R2, R3, R4, R5 = Reg.R0, Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5
R6, R7, R8, R9, R10 = Reg.R6, Reg.R7, Reg.R8, Reg.R9, Reg.R10

ZLEVELS = 4

ENTRY = Struct(
    k0=8, k1=8, k2=8, k3=8, type=8, value=8, chain=8,
    **{f"zhead{i}": 8 for i in range(ZLEVELS)},
)
ZNODE = Struct(score=8, member=8, **{f"next{i}": 8 for i in range(ZLEVELS)})

TYPE_STRING = 0
TYPE_ZSET = 1

BUCKET_BITS = 12
STATIC_BYTES = (1 << BUCKET_BITS) * 8

SLOT_LEVEL = -8 * (ZLEVELS + 1)
SLOT_BUCKET = -8 * (ZLEVELS + 2)
SLOT_HEAD = -8 * (ZLEVELS + 3)

_KEYF = (ENTRY.k0, ENTRY.k1, ENTRY.k2, ENTRY.k3)

LEVEL_CONST = 0x2545F4914F6CDD1D

#: Offset that turns an entry pointer into a pseudo-ZNODE whose
#: ``next{i}`` fields alias the entry's ``zhead{i}`` fields, so the
#: skip-list walk code is uniform from the header onward.
PSEUDO_HEAD_DELTA = ENTRY.zhead0.off - ZNODE.next0.off


def _znext(i: int):
    return getattr(ZNODE, f"next{i}")


def build_redis_program(static: int, *, heap_size: int = 1 << 26) -> Program:
    m = MacroAsm()
    # Parse (the sk_skb context exposes data/data_end like XDP).
    m.ldx(R6, R1, 0, 8)
    m.ldx(R3, R1, 8, 8)
    m.mov(R2, R6)
    m.add(R2, P.PKT_SIZE)
    ok = m.fresh_label("ok")
    m.jcc("<=", R2, R3, ok)
    m.mov(R0, SK_PASS)
    m.exit()
    m.label(ok)

    # Bucket from the 32-byte key.
    m.ldx(R9, R6, P.KEY_OFF, 8)
    for off in (8, 16, 24):
        m.ldx(R2, R6, P.KEY_OFF + off, 8)
        m.xor(R9, R2)
    m.ld_imm64(R2, HASH_CONST)
    m.mul(R9, R2)
    m.rsh(R9, 64 - BUCKET_BITS)
    m.lsh(R9, 3)
    m.heap_addr(R2, static)
    m.add(R9, R2)
    m.stx(R10, R9, SLOT_BUCKET, 8)
    m.ldx(R7, R9, 0, 8)  # chain cursor
    m.stx(R10, R7, SLOT_HEAD, 8)

    def emit_reply(op_byte, status, value_reg=None):
        m.st_imm(R6, 0, P.REPLY_FLAG | op_byte, 1)
        m.st_imm(R6, 1, status, 1)
        if value_reg is not None:
            m.stx(R6, value_reg, P.VAL_OFF, 8)
        m.mov(R0, SK_PASS)
        m.exit()

    def emit_chain_walk(tag: str, found: str):
        """Walk entries in R7; jumps to ``found`` on key match."""
        with m.while_("!=", R7, 0):
            nxt = m.fresh_label(f"next_{tag}")
            for i, fld in enumerate(_KEYF):
                m.ldf(R4, R7, fld)
                m.ldx(R5, R6, P.KEY_OFF + 8 * i, 8)
                m.jcc("!=", R4, R5, nxt)
            m.jmp(found)
            m.label(nxt)
            m.ldf(R7, R7, ENTRY.chain)

    def emit_new_entry(etype: int, fail: str):
        """Allocate + link a new entry for the packet key; entry in R7."""
        m.call_helper(KFLEX_MALLOC, ENTRY.size)
        m.jcc("==", R0, 0, fail)
        m.mov(R7, R0)
        for i, fld in enumerate(_KEYF):
            m.ldx(R4, R6, P.KEY_OFF + 8 * i, 8)
            m.stf(R7, fld, R4)
        m.stf_imm(R7, ENTRY.type, etype)
        m.stf_imm(R7, ENTRY.value, 0)
        for i in range(ZLEVELS):
            m.stf_imm(R7, getattr(ENTRY, f"zhead{i}"), 0)
        m.ldx(R4, R10, SLOT_HEAD, 8)
        m.stf(R7, ENTRY.chain, R4)
        m.ldx(R9, R10, SLOT_BUCKET, 8)
        m.stx(R9, R7, 0, 8)

    fail = m.fresh_label("fail")

    # Dispatch.
    m.ldx(R2, R6, 0, 1)
    set_path = m.fresh_label("op_set")
    zadd_path = m.fresh_label("op_zadd")
    m.jcc("==", R2, P.OP_SET, set_path)
    m.jcc("==", R2, P.OP_ZADD, zadd_path)

    # ---- GET --------------------------------------------------------------
    got = m.fresh_label("got")
    emit_chain_walk("get", got)
    emit_reply(P.OP_GET, P.STATUS_MISS)
    m.label(got)
    m.ldf(R4, R7, ENTRY.type)
    with m.if_("!=", R4, TYPE_STRING):
        emit_reply(P.OP_GET, P.STATUS_MISS)
    m.ldf(R4, R7, ENTRY.value)
    emit_reply(P.OP_GET, P.STATUS_OK, R4)

    # ---- SET --------------------------------------------------------------
    m.label(set_path)
    sfound = m.fresh_label("sfound")
    emit_chain_walk("set", sfound)
    emit_new_entry(TYPE_STRING, fail)
    m.label(sfound)
    m.ldx(R4, R6, P.VAL_OFF, 8)
    m.stf(R7, ENTRY.value, R4)
    m.stf_imm(R7, ENTRY.type, TYPE_STRING)
    emit_reply(P.OP_SET, P.STATUS_OK)

    # ---- ZADD -------------------------------------------------------------
    m.label(zadd_path)
    zfound = m.fresh_label("zfound")
    emit_chain_walk("zadd", zfound)
    emit_new_entry(TYPE_ZSET, fail)
    m.label(zfound)
    # Skip-list insert of (score, member) under the entry in R7.
    # x = pseudo-head so x.next{i} aliases entry.zhead{i}.
    m.mov(R8, R7)
    m.add(R8, PSEUDO_HEAD_DELTA)
    m.ldx(R9, R6, P.VAL_OFF, 8)  # score
    for lvl in range(ZLEVELS - 1, -1, -1):
        fld = _znext(lvl)
        with m.loop() as walk:
            m.ldf(R5, R8, fld)
            m.jcc("==", R5, 0, walk.break_)
            m.ldf(R2, R5, ZNODE.score)  # guard
            # Redis tie-break: equal scores order by member.
            advance = m.fresh_label("adv")
            m.jcc("<", R2, R9, advance)
            m.jcc(">", R2, R9, walk.break_)
            m.ldf(R3, R5, ZNODE.member)
            m.ldx(R4, R6, P.MEMBER_OFF, 8)
            m.jcc(">=", R3, R4, walk.break_)
            m.label(advance)
            m.mov(R8, R5)
        m.stx(R10, R8, -8 * (lvl + 1), 8)  # predecessor at this level
    # Exact (score, member) already present?  Then just acknowledge.
    m.ldf(R5, R8, _znext(0))
    with m.if_("!=", R5, 0):
        m.ldf(R2, R5, ZNODE.score)
        with m.if_("==", R2, R9):
            m.ldf(R3, R5, ZNODE.member)
            m.ldx(R4, R6, P.MEMBER_OFF, 8)
            with m.if_("==", R3, R4):
                emit_reply(P.OP_ZADD, P.STATUS_OK)
    # Level for the new node from the member hash.
    m.ldx(R4, R6, P.MEMBER_OFF, 8)
    m.ld_imm64(R2, LEVEL_CONST)
    m.mul(R4, R2)
    m.mov(R3, 1)
    lvl_done = m.fresh_label("lvl_done")
    for i in range(ZLEVELS - 1):
        more = m.fresh_label(f"lvl{i}")
        m.jcc("&", R4, 1 << i, more)
        m.jmp(lvl_done)
        m.label(more)
        m.add(R3, 1)
    m.label(lvl_done)
    m.stx(R10, R3, SLOT_LEVEL, 8)
    # Allocate in the fast path — the Fig. 6 headline capability.
    m.call_helper(KFLEX_MALLOC, ZNODE.size)
    m.jcc("==", R0, 0, fail)
    m.mov(R8, R0)
    m.ldx(R9, R6, P.VAL_OFF, 8)
    m.stf(R8, ZNODE.score, R9)
    m.ldx(R4, R6, P.MEMBER_OFF, 8)
    m.stf(R8, ZNODE.member, R4)
    for i in range(ZLEVELS):
        m.stf_imm(R8, _znext(i), 0)
    done = m.fresh_label("link_done")
    for i in range(ZLEVELS):
        m.ldx(R2, R10, SLOT_LEVEL, 8)
        m.jcc("<=", R2, i, done)
        m.ldx(R7, R10, -8 * (i + 1), 8)
        m.ldf(R3, R7, _znext(i))  # guard
        m.stf(R8, _znext(i), R3)
        m.stf(R7, _znext(i), R8)
    m.label(done)
    emit_reply(P.OP_ZADD, P.STATUS_OK)

    m.label(fail)
    m.st_imm(R6, 0, P.REPLY_FLAG | P.OP_ZADD, 1)
    m.st_imm(R6, 1, P.STATUS_MISS, 1)
    m.mov(R0, SK_PASS)
    m.exit()

    return Program("kflex_redis", m.assemble(), hook="sk_skb", heap_size=heap_size)


class KFlexRedis:
    """Loaded KFlex-Redis with Python-side request helpers."""

    def __init__(
        self,
        runtime,
        *,
        kmod: bool = False,
        perf_mode: bool = False,
        heap_size: int = 1 << 26,
        name: str = "kvredis",
        quantum_units: int | None = None,
    ):
        self.runtime = runtime
        self.heap = runtime.create_heap(heap_size, name=name)
        self.static = self.heap.reserve_static(STATIC_BYTES)
        prog = build_redis_program(self.static, heap_size=heap_size)
        if kmod:
            self.ext = runtime.load_kmod(prog, heap=self.heap)
        else:
            self.ext = runtime.load(
                prog, heap=self.heap, attach=False, perf_mode=perf_mode,
                quantum_units=quantum_units,
            )

    def _roundtrip(self, pkt: bytes, cpu: int = 0) -> bytes:
        _, read = self.ext.run_packet(pkt, cpu)
        return read(P.PKT_SIZE)

    def get(self, key_id: int, cpu: int = 0):
        return P.decode_reply(self._roundtrip(P.encode_get(key_id), cpu))

    def set(self, key_id: int, value_id: int, cpu: int = 0) -> bool:
        ok, _ = P.decode_reply(self._roundtrip(P.encode_set(key_id, value_id), cpu))
        return ok

    def zadd(self, key_id: int, score: int, member: int, cpu: int = 0) -> bool:
        ok, _ = P.decode_reply(
            self._roundtrip(P.encode_zadd(key_id, score, member), cpu)
        )
        return ok

    @property
    def last_cost_units(self) -> int:
        return self.ext.stats.last_cost_units

    # -- structure inspection (tests) ------------------------------------------

    def zset_members(self, key_id: int) -> list[tuple[int, int]]:
        """Read back (score, member) pairs by walking level 0 from outside."""
        asp = self.runtime.kernel.aspace
        bucket = self._bucket_of(key_id)
        cur = asp.read_int(self.heap.base + self.static + bucket * 8, 8)
        want = P.key_bytes(key_id)
        while cur:
            kb = asp.read_bytes(cur + ENTRY.k0.off, 32)
            if kb == want:
                out = []
                node = asp.read_int(cur + ENTRY.zhead0.off, 8)
                while node:
                    out.append(
                        (
                            asp.read_int(node + ZNODE.score.off, 8),
                            asp.read_int(node + ZNODE.member.off, 8),
                        )
                    )
                    node = asp.read_int(node + ZNODE.next0.off, 8)
                return out
            cur = asp.read_int(cur + ENTRY.chain.off, 8)
        return []

    @staticmethod
    def _bucket_of(key_id: int) -> int:
        kb = P.key_bytes(key_id)
        h = 0
        for i in range(4):
            h ^= int.from_bytes(kb[8 * i : 8 * i + 8], "little")
        h = (h * HASH_CONST) & ((1 << 64) - 1)
        return h >> (64 - BUCKET_BITS)
