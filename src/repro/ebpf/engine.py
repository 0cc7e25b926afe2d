"""Threaded-code execution engine: decode once, execute many.

The reference interpreter (:mod:`repro.ebpf.interpreter`) re-decodes
every instruction on every step: an ``if/elif`` chain over the opcode,
attribute reads on the ``Insn``, dict lookups to resolve jump slots,
and a ``bisect`` region walk for every memory access.  That decode work
dwarfs the actual semantics — the same interpreter-vs-JIT gap the real
eBPF runtime closes with its JIT.

This module closes most of that gap while staying in pure Python, with
a one-time **translation pass**: each instruction of a verified,
instrumented, JIT-lowered program is compiled into one specialised
closure with everything burned in at translation time —

* opcode dispatch (the closure *is* the operation; no opcode test at
  run time),
* operand extraction, sign extension and width masks,
* jump targets pre-resolved from slot offsets to instruction indices,
* GUARD / TRANSLATE / CANCELPT constants (heap base, mask, terminate
  cell) resolved to integers,
* helper declarations, argument counts and costs for CALL.

Execution is then a tight ``pc = handlers[pc](regs)`` loop.

Layered on top is a **memory fast path**: every memory site carries a
monomorphic inline cache — the one region handle ``(base, span, backing
bytes, populated pages)`` it last hit — and a hit loads/stores straight
on the backing ``bytearray`` through a width-typed ``struct`` accessor.
A miss re-points the site from the engine's short list of admitted
handles; everything else — unmapped addresses, unpopulated pages, SMAP
traps, store-policy violations, protection-key faults — falls back to
the paged :class:`~repro.kernel.addrspace.AddressSpace` path, which
owns every fault, so fault semantics are bit-identical to the
interpreter.  Cache safety: handles and site caches are dropped at
``run()`` whenever the address space's ``generation`` counter, the
active protection-key set, the store policy or the SMAP setting
changed; population sets are shared live objects, so demand paging is
visible without invalidation.

Cycle accounting is unchanged: per-instruction costs are the same
JIT-lowered array the interpreter charges (cost is per-insn *data*,
independent of host dispatch speed), so every figure's numbers are
identical under either engine — only wall-clock changes.

The interpreter remains the reference semantics and the ``"interp"``
escape hatch; ``tests/test_engine_equivalence.py`` asserts
``ExecResult`` parity (ret, cost, steps, fault kind/index, registers)
between the two over randomized programs and every fault path.
"""

from __future__ import annotations

from contextlib import contextmanager
from struct import Struct

from repro.errors import (
    ExtensionFault,
    HelperFault,
    KernelPanic,
    LoadError,
    LockStall,
    PageFault,
    SleepStall,
    StackFault,
)
from repro.ebpf import isa
from repro.ebpf.isa import U32, U64, sign_extend
from repro.ebpf.interpreter import (
    ALU_BINOPS,
    JMP_TESTS,
    ExecResult,
    Fault,
    Interpreter,
    STACK_SIZE,
    exec_atomic,
)

#: Canonical user/kernel split (see Interpreter.USER_SPACE_TOP).
USER_SPACE_TOP = 1 << 47

_S63 = 1 << 63
_S64 = 1 << 64

#: Cap on cached region handles per engine; beyond this the slow path
#: simply stops promoting regions (correctness is unaffected).
MAX_CACHED_REGIONS = 8

_ZERO_REGS = [0] * 11

#: Width-typed little-endian accessors over a backing ``bytearray``:
#: access size -> (unpack_from, pack_into).
_ACCESS = {
    size: (st.unpack_from, st.pack_into)
    for size, st in ((1, Struct("<B")), (2, Struct("<H")),
                     (4, Struct("<I")), (8, Struct("<Q")))
}


class _ExitSignal(Exception):
    """Control-flow signal raised by the EXIT handler."""


_EXIT = _ExitSignal()


class ThreadedEngine:
    """Executes one translated program.  Drop-in for ``Interpreter``:
    same constructor signature, same ``run()`` contract, same
    ``ExecResult``.  Unlike the interpreter it is built once per loaded
    program and reused across invocations — translation state, the
    region-handle cache and the register file are all pooled.
    """

    def __init__(
        self,
        insns,
        env,
        *,
        costs: list[int] | None = None,
        helper_costs: dict[int, int] | None = None,
        plan=None,
    ):
        self.insns = insns
        self.env = env
        self.costs = costs if costs is not None else [1] * len(insns)
        self.helper_costs = helper_costs or {}
        slot_of = isa.slot_offsets(insns)
        self._slot_of = slot_of
        self._slot_to_idx = {s: i for i, s in enumerate(slot_of)}

        # Mutable run state shared with handlers.  The handle lists are
        # closed over by memory sites, so they are mutated in place
        # (never rebound) on refresh.
        self._xcost = [0]  # helper cost accumulated this run
        self._ld_cache: list[tuple] = []  # (base, end, data, pages|None)
        self._st_cache: list[tuple] = []
        self._cached_bases: set[int] = set()
        #: (generation, active pkeys, store policy, smap) the handles
        #: and site caches were last validated against.
        self._cache_key: tuple = (None, None, None, None)
        #: One refill() per memory site; re-run when the key changes.
        self._sites: list = []
        #: CANCELPT's site cache: the heap backing while the heap's
        #: handle is admitted, else None (paged path).
        self._term_data = [None]
        self._regs = [0] * 11
        self._running = False

        #: Fusion plan: ((start, length, kind), ...); blocks that fail
        #: engine-side validation are silently skipped (executed
        #: unfused), never wrong.
        self.plan = tuple(plan) if plan else ()
        #: Number of plan blocks actually fused at translate time.
        self.fused_blocks = 0

        # One handler past the end: a pc that runs off the program
        # panics there, so the dispatch loop needs no bounds test.
        n = len(insns)
        self._costs = [*self.costs, 0]
        self.handlers = [
            *(self._compile(i, insn) for i, insn in enumerate(insns)),
            self._raiser(KernelPanic, f"pc {n} fell off program end"),
        ]
        self._apply_plan()

    # -- entry ----------------------------------------------------------

    def run(self, ctx_addr: int = 0, max_steps: int | None = None) -> ExecResult:
        env = self.env
        stack = env.stack_base or env.ensure_stack()
        self._refresh_caches()

        if self._running:
            # Re-entrant invocation: do not clobber the pooled file.
            regs = [0] * 11
        else:
            regs = self._regs
            regs[:] = _ZERO_REGS
        regs[isa.FP] = stack + STACK_SIZE
        regs[1] = ctx_addr & U64

        xc = self._xcost
        xc[0] = 0
        pc = 0
        steps = 0
        cost = 0
        limit = max_steps if max_steps is not None else env.max_steps
        handlers = self.handlers
        costs = self._costs
        n = len(self.insns)
        watchdog = env.watchdog
        wd_period = env.watchdog_period
        # Single fused check per iteration: the next step count at which
        # either the stall limit or the watchdog needs servicing.
        next_wd = wd_period if watchdog is not None else limit + 1
        checkpoint = next_wd if next_wd < limit else limit

        weights = self._weights
        fused = self._fused
        bcosts = self._bcosts
        self._running = True
        try:
            while True:
                if steps >= checkpoint:
                    # Order matters for parity: off-the-end panic
                    # first, then the stall limit, then the watchdog —
                    # same as the interpreter.
                    if pc == n:
                        handlers[n](regs)
                    if steps >= limit:
                        return self._fault(
                            regs, pc, cost + xc[0], steps, stack, "stall",
                            message="hard step limit (hardlockup)",
                        )
                    watchdog(cost + xc[0])
                    next_wd = steps + wd_period
                    checkpoint = next_wd if next_wd < limit else limit
                w = weights[pc]
                # Single-step at unfused indices, and through any block
                # the stall limit or watchdog would fire inside of —
                # the checkpoint then lands on the exact step count.
                if w == 1 or steps + w > checkpoint:
                    steps += 1
                    cost += costs[pc]
                    pc = handlers[pc](regs)
                    continue
                # Fused block: charge every covered instruction up
                # front (members are non-faulting by construction), and
                # park the pc on the terminal so an exception out of it
                # — helper fault, EXIT, cancellation — is attributed to
                # the exact instruction, as in single-step execution.
                head = pc
                steps += w
                cost += bcosts[head]
                pc = head + w - 1
                npc = fused[head](regs)
                if npc >= 0:
                    pc = npc
                else:
                    # Deopt (memory idiom missed the fast-path cache):
                    # nothing was committed — roll the charge back and
                    # single-step the block head instead.
                    steps -= w
                    cost -= bcosts[head]
                    steps += 1
                    cost += costs[head]
                    pc = handlers[head](regs)
        except _ExitSignal as e:
            # _EXIT is a preallocated singleton: re-raising an instance
            # that still carries a traceback *chains* the old frames
            # onto the new one (tb_next), pinning every invocation's
            # frame graph forever.  Drop it before the instance is
            # raised again.
            e.__traceback__ = None
            return ExecResult(
                regs[0], cost + xc[0], steps, regs=list(regs), stack_base=stack
            )
        except PageFault as pf:
            return self._fault(regs, pc, cost + xc[0], steps, stack, "page",
                               pf.addr, str(pf))
        except LockStall as ls:
            return self._fault(regs, pc, cost + xc[0], steps, stack,
                               "lock_stall", message=str(ls))
        except SleepStall as ss:
            return self._fault(regs, pc, cost + xc[0], steps, stack,
                               "sleep_stall", message=str(ss))
        except HelperFault as hf:
            return self._fault(regs, pc, cost + xc[0], steps, stack,
                               "helper", message=str(hf))
        except StackFault as sf:
            return self._fault(regs, pc, cost + xc[0], steps, stack,
                               "page", message=str(sf))
        finally:
            self._running = False

    def _fault(self, regs, pc, cost, steps, stack, kind, addr=0, message=""):
        insns = self.insns
        insn = insns[pc] if pc < len(insns) else None
        orig = insn.orig_idx if insn is not None else None
        if orig is None and insn is not None:
            orig = pc
        return ExecResult(
            0, cost, steps, Fault(kind, pc, orig, addr, message),
            regs=list(regs), stack_base=stack,
        )

    # -- memory fast path ------------------------------------------------

    def _refresh_caches(self) -> None:
        """Revalidate region handles and site caches against mapping state.

        The key covers everything a handle's eligibility was decided
        on: the address space's map/unmap generation, the active
        protection-key set, the store policy and SMAP.  When any of
        them changed, every handle is dropped and every site cache is
        reset.  Anything else that changes mid-run (page population,
        backing contents) is shared by reference and needs no
        invalidation.
        """
        env = self.env
        asp = env.aspace
        gen, pkeys, allowed, smap = self._cache_key
        if (
            asp.generation == gen
            and asp.active_pkeys == pkeys
            and env.allowed_store_regions == allowed
            and env.smap == smap
        ):
            return
        pkeys = asp.active_pkeys
        self._cache_key = (
            asp.generation,
            None if pkeys is None else frozenset(pkeys),
            env.allowed_store_regions,
            env.smap,
        )
        self._ld_cache.clear()
        self._st_cache.clear()
        self._cached_bases.clear()
        for refill in self._sites:
            refill(0)  # nothing is admitted yet: empties the site
        heap = env.heap
        self._term_data[0] = None
        if heap is not None and not heap.closed and self._admit(heap.region):
            self._term_data[0] = heap.region.backing.data
        if env.stack_base:
            region = asp.find_region(env.stack_base)
            if region is not None:
                self._admit(region)

    def _admit(self, region) -> bool:
        """Add a region's handle to the fast-path lists if eligible."""
        if region.base in self._cached_bases:
            return True
        if len(self._cached_bases) >= MAX_CACHED_REGIONS:
            return False
        env = self.env
        asp = env.aspace
        if (
            region.pkey is not None
            and asp.active_pkeys is not None
            and region.pkey not in asp.active_pkeys
        ):
            return False  # slow path raises the protection-key fault
        if env.smap and region.base < USER_SPACE_TOP:
            # A site-cache hit skips the SMAP compare, so user-half
            # regions stay on the slow path while SMAP is on.
            return False
        backing = region.backing
        pages = None if backing.all_populated else backing.populated
        entry = (region.base, region.base + region.size, backing.data, pages)
        self._cached_bases.add(region.base)
        self._ld_cache.append(entry)
        allowed = env.allowed_store_regions
        if region.writable and (
            allowed is None or region.name.startswith(allowed)
        ):
            self._st_cache.append(entry)
        return True

    def _slow_load(self, addr: int, size: int) -> int:
        # Mirrors Interpreter._check_load exactly.
        if self.env.smap and 4096 <= addr < USER_SPACE_TOP:
            raise PageFault(
                addr, f"SMAP: supervisor access to user address {addr:#x}"
            )
        value = self.env.aspace.read_int(addr, size)
        self._promote(addr)
        return value

    def _slow_store(self, addr: int, value: int, size: int) -> None:
        self._check_store(addr)
        self.env.aspace.write_int(addr, value, size)
        self._promote(addr)

    def _promote(self, addr: int) -> None:
        """After a successful slow access, cache the region for next time."""
        if len(self._cached_bases) >= MAX_CACHED_REGIONS:
            return
        region = self.env.aspace.find_region(addr)
        if region is not None:
            self._admit(region)

    def _check_store(self, addr: int) -> None:
        # Mirrors Interpreter._check_store exactly.
        allowed = self.env.allowed_store_regions
        if allowed is None:
            return
        region = self.env.aspace.find_region(addr)
        if region is not None and not region.name.startswith(allowed):
            raise KernelPanic(
                f"extension store to kernel-owned region {region.name!r} "
                f"at {addr:#x} — memory corruption"
            )

    # -- translation -----------------------------------------------------

    def _raiser(self, exc_cls, message: str):
        def h(regs, exc_cls=exc_cls, message=message):
            raise exc_cls(message)

        h._raises = True
        return h

    # -- superinstruction fusion -----------------------------------------

    def _apply_plan(self) -> None:
        """Overlay the fusion plan on the translated handler array.

        ``handlers`` keeps one unfused closure per index (mid-block
        jump targets and deopt both single-step through it); block
        heads additionally get a fused closure in ``_fused`` with its
        instruction count in ``_weights`` and the block's summed cost
        in ``_bcosts``.  Blocks that fail validation here — a raiser
        among the members, a missing heap — execute unfused.
        """
        n = len(self.insns)
        self._weights = [1] * len(self.handlers)
        self._fused = list(self.handlers)
        self._bcosts = list(self._costs)
        self.fused_blocks = 0
        for start, length, kind in self.plan:
            if length < 2 or start < 0 or start + length > n:
                continue
            if kind == "mem":
                fh = self._fuse_mem(start)
            else:
                fh = self._fuse_chain(start, length)
            if fh is None:
                continue
            self._weights[start] = length
            self._fused[start] = fh
            self._bcosts[start] = sum(self.costs[start : start + length])
            self.fused_blocks += 1

    def _fuse_chain(self, start: int, length: int):
        """Compose consecutive handlers into one closure.  Members (all
        but the last) must be straight-line and non-raising; they are
        executed for their register effects and their returned pc is
        statically the next index.  The terminal's return value is the
        block's next pc."""
        hs = self.handlers[start : start + length]
        if any(getattr(h, "_raises", False) for h in hs[:-1]):
            return None
        if length == 2:
            h0, h1 = hs

            def fh(regs, h0=h0, h1=h1):
                h0(regs)
                return h1(regs)

        elif length == 3:
            h0, h1, h2 = hs

            def fh(regs, h0=h0, h1=h1, h2=h2):
                h0(regs)
                h1(regs)
                return h2(regs)

        elif length == 4:
            h0, h1, h2, h3 = hs

            def fh(regs, h0=h0, h1=h1, h2=h2, h3=h3):
                h0(regs)
                h1(regs)
                h2(regs)
                return h3(regs)

        else:
            body = tuple(hs[:-1])
            last = hs[-1]

            def fh(regs, body=body, last=last):
                for h in body:
                    h(regs)
                return last(regs)

        return fh

    def _fuse_mem(self, start: int):
        """LDX -> GUARD -> STX over the extension heap, fast path only.

        Composed from two deopt sites: a site-cache miss commits
        nothing and returns the deopt sentinel (-1), so the engine
        re-executes the block head through the unfused handlers, which
        own the slow path and every fault with exact attribution."""
        insns = self.insns
        ldx, g, stx = insns[start], insns[start + 1], insns[start + 2]
        heap = self.env.heap
        if heap is None:
            return None
        if (
            (ldx.opcode & isa.CLASS_MASK) != isa.BPF_LDX
            or g.opcode != isa.KFLEX_GUARD
            or g.dst != ldx.dst
            or (stx.opcode & isa.CLASS_MASK) != isa.BPF_STX
            or stx.is_atomic
            or stx.dst != g.dst
            or stx.src == g.dst
        ):
            return None
        hb = heap.base
        hm = heap.mask
        d = g.dst
        npc = start + 3
        ld = self._site(isa.size_bytes(ldx.opcode), ldx.src, ldx.off, npc,
                        dst=d, deopt=True)
        st = self._site(isa.size_bytes(stx.opcode), d, stx.off, npc,
                        src=stx.src, deopt=True)

        def fh(regs, d=d, hb=hb, hm=hm, ld=ld, st=st, npc=npc):
            saved = regs[d]
            if ld(regs) < 0:
                return -1
            regs[d] = (hb + (regs[d] & hm)) & U64
            if st(regs) < 0:
                regs[d] = saved  # the load may have read through it
                return -1
            return npc

        return fh

    def _compile(self, i: int, insn):
        op = insn.opcode
        cls = op & isa.CLASS_MASK
        npc = i + 1
        if cls == isa.BPF_ALU64 or cls == isa.BPF_ALU:
            return self._compile_alu(insn, cls == isa.BPF_ALU64, npc)
        if cls == isa.BPF_LDX:
            return self._site(isa.size_bytes(op), insn.src, insn.off, npc,
                              dst=insn.dst)
        if cls == isa.BPF_LD:
            if insn.is_ld_imm64:
                value = (insn.imm64 or 0) & U64
                d = insn.dst

                def h(regs, d=d, value=value, npc=npc):
                    regs[d] = value
                    return npc

                return h
            return self._raiser(ExtensionFault, f"unsupported LD mode {op:#x}")
        if cls == isa.BPF_ST:
            return self._site(isa.size_bytes(op), insn.dst, insn.off, npc,
                              imm=insn.imm)
        if cls == isa.BPF_STX:
            if insn.is_atomic:
                return self._compile_atomic(insn, npc)
            return self._site(isa.size_bytes(op), insn.dst, insn.off, npc,
                              src=insn.src)
        if cls == isa.BPF_JMP or cls == isa.BPF_JMP32:
            return self._compile_jmp(i, insn, cls == isa.BPF_JMP32, npc)
        return self._raiser(ExtensionFault, f"unknown opcode {op:#x}")

    # -- ALU -------------------------------------------------------------

    def _compile_alu(self, insn, is64: bool, npc: int):
        op = insn.opcode & isa.OP_MASK
        use_reg = bool(insn.opcode & isa.BPF_X)
        d = insn.dst
        s = insn.src

        if op == isa.BPF_END:
            width = insn.imm
            if width in (16, 32, 64):
                mask = (1 << width) - 1
                nbytes = width // 8
                if use_reg:  # BPF_X encodes "to_be"

                    def h(regs, d=d, mask=mask, nbytes=nbytes, npc=npc):
                        regs[d] = int.from_bytes(
                            (regs[d] & mask).to_bytes(nbytes, "little"), "big"
                        )
                        return npc

                else:

                    def h(regs, d=d, mask=mask, npc=npc):
                        regs[d] = regs[d] & mask
                        return npc

                return h

            # Odd width: defer to run time so malformed programs fail
            # at execution exactly like the interpreter.
            def h(regs, d=d, width=width, use_reg=use_reg, npc=npc):
                val = regs[d] & ((1 << width) - 1)
                if use_reg:
                    val = int.from_bytes(val.to_bytes(width // 8, "little"), "big")
                regs[d] = val
                return npc

            return h

        if op == isa.BPF_NEG:
            if is64:

                def h(regs, d=d, npc=npc):
                    regs[d] = -regs[d] & U64
                    return npc

            else:

                def h(regs, d=d, npc=npc):
                    regs[d] = -regs[d] & U32
                    return npc

            return h

        fn = ALU_BINOPS.get(op)
        if fn is None:
            return self._raiser(ExtensionFault, f"unknown ALU op {op:#x}")

        if is64 and use_reg:
            if op == isa.BPF_MOV:

                def h(regs, d=d, s=s, npc=npc):
                    regs[d] = regs[s]
                    return npc

            elif op == isa.BPF_ADD:

                def h(regs, d=d, s=s, npc=npc):
                    regs[d] = (regs[d] + regs[s]) & U64
                    return npc

            elif op == isa.BPF_SUB:

                def h(regs, d=d, s=s, npc=npc):
                    regs[d] = (regs[d] - regs[s]) & U64
                    return npc

            elif op == isa.BPF_AND:

                def h(regs, d=d, s=s, npc=npc):
                    regs[d] = regs[d] & regs[s]
                    return npc

            elif op == isa.BPF_OR:

                def h(regs, d=d, s=s, npc=npc):
                    regs[d] = regs[d] | regs[s]
                    return npc

            elif op == isa.BPF_XOR:

                def h(regs, d=d, s=s, npc=npc):
                    regs[d] = regs[d] ^ regs[s]
                    return npc

            elif op == isa.BPF_MUL:

                def h(regs, d=d, s=s, npc=npc):
                    regs[d] = (regs[d] * regs[s]) & U64
                    return npc

            elif op == isa.BPF_LSH:

                def h(regs, d=d, s=s, npc=npc):
                    regs[d] = (regs[d] << (regs[s] & 63)) & U64
                    return npc

            elif op == isa.BPF_RSH:

                def h(regs, d=d, s=s, npc=npc):
                    regs[d] = regs[d] >> (regs[s] & 63)
                    return npc

            else:

                def h(regs, d=d, s=s, fn=fn, npc=npc):
                    regs[d] = fn(regs[d], regs[s], True) & U64
                    return npc

            return h

        if is64 and not use_reg:
            b = sign_extend(insn.imm, 32) & U64
            if op == isa.BPF_MOV:

                def h(regs, d=d, b=b, npc=npc):
                    regs[d] = b
                    return npc

            elif op == isa.BPF_ADD:

                def h(regs, d=d, b=b, npc=npc):
                    regs[d] = (regs[d] + b) & U64
                    return npc

            elif op == isa.BPF_SUB:

                def h(regs, d=d, b=b, npc=npc):
                    regs[d] = (regs[d] - b) & U64
                    return npc

            elif op == isa.BPF_AND:

                def h(regs, d=d, b=b, npc=npc):
                    regs[d] = regs[d] & b
                    return npc

            elif op == isa.BPF_OR:

                def h(regs, d=d, b=b, npc=npc):
                    regs[d] = regs[d] | b
                    return npc

            elif op == isa.BPF_XOR:

                def h(regs, d=d, b=b, npc=npc):
                    regs[d] = regs[d] ^ b
                    return npc

            elif op == isa.BPF_LSH:
                sh = insn.imm & 63

                def h(regs, d=d, sh=sh, npc=npc):
                    regs[d] = (regs[d] << sh) & U64
                    return npc

            elif op == isa.BPF_RSH:
                sh = insn.imm & 63

                def h(regs, d=d, sh=sh, npc=npc):
                    regs[d] = regs[d] >> sh
                    return npc

            else:

                def h(regs, d=d, b=b, fn=fn, npc=npc):
                    regs[d] = fn(regs[d], b, True) & U64
                    return npc

            return h

        # ALU32 — rarer; go through the shared table with burned masks.
        if use_reg:

            def h(regs, d=d, s=s, fn=fn, npc=npc):
                regs[d] = fn(regs[d] & U32, regs[s] & U32, False) & U32
                return npc

        else:
            b = insn.imm & U32

            def h(regs, d=d, b=b, fn=fn, npc=npc):
                regs[d] = fn(regs[d] & U32, b, False) & U32
                return npc

        return h

    # -- memory ----------------------------------------------------------

    def _site(self, size: int, a: int, off: int, npc: int, *, dst: int = -1,
              src: int = -1, imm: int = 0, deopt: bool = False):
        """Build one memory site at ``[regs[a] + off]``: a load into
        ``dst``, a store of ``src``, or (neither given) a store of
        ``imm`` — every LDX/STX/ST body comes from here.

        The site carries a monomorphic inline cache in its closure
        cells: the region handle it last hit, as ``base``, ``span``
        (the largest in-bounds offset for this width; -1 = empty),
        ``data`` and ``pages``.  A hit is the bounds + page-population
        test and a width-typed access on the backing bytes.  A miss
        scans the engine's admitted handles — loads only ever see
        ``_ld_cache``, stores ``_st_cache``, so SMAP and the store
        policy were decided at admission — re-points the site, and
        otherwise takes the paged slow path, which owns every fault.
        A ``deopt`` site (fused idiom member) returns -1 instead, with
        nothing committed.
        """
        handles = self._ld_cache if dst >= 0 else self._st_cache
        unpack, pack = _ACCESS[size]
        last = size - 1
        mask = (1 << (size * 8)) - 1
        imm &= mask
        base = 0
        span = -1
        data = pages = None

        def refill(addr, handles=handles, size=size, last=last):
            """Re-point the site at the admitted handle containing the
            access (none: empty it); returns the access's offset if the
            fast path may proceed, else -1."""
            nonlocal base, span, data, pages
            for hbase, hend, hdata, hpages in handles:
                if hbase <= addr and addr + size <= hend:
                    base, data, pages = hbase, hdata, hpages
                    span = hend - hbase - size
                    o = addr - hbase
                    if hpages is None or (
                        (o >> 12) in hpages and ((o + last) >> 12) in hpages
                    ):
                        return o
                    return -1
            span = -1
            data = pages = None
            return -1

        def h(regs, a=a, off=off, size=size, last=last, dst=dst, src=src,
              imm=imm, mask=mask, npc=npc, deopt=deopt, refill=refill,
              unpack=unpack, pack=pack, slow_load=self._slow_load,
              slow_store=self._slow_store):
            addr = (regs[a] + off) & U64
            o = addr - base
            if not (0 <= o <= span and (
                pages is None
                or ((o >> 12) in pages and ((o + last) >> 12) in pages)
            )):
                o = refill(addr)
                if o < 0:
                    if deopt:
                        return -1
                    if dst >= 0:
                        regs[dst] = slow_load(addr, size)
                    else:
                        slow_store(addr, regs[src] if src >= 0 else imm, size)
                    return npc
            if dst >= 0:
                regs[dst] = unpack(data, o)[0]
            elif src >= 0:
                pack(data, o, regs[src] & mask)
            else:
                pack(data, o, imm)
            return npc

        self._sites.append(refill)
        return h

    def _compile_atomic(self, insn, npc: int):
        d = insn.dst
        s = insn.src
        off = insn.off
        size = isa.size_bytes(insn.opcode)
        aop = insn.imm
        check = self._check_store
        aspace = self.env.aspace

        def h(regs, d=d, s=s, off=off, size=size, aop=aop, npc=npc,
              check=check, aspace=aspace):
            addr = (regs[d] + off) & U64
            check(addr)
            exec_atomic(aspace, regs, aop, s, addr, size)
            return npc

        return h

    # -- jumps / calls / pseudo-instructions ------------------------------

    def _compile_jmp(self, i: int, insn, is32: bool, npc: int):
        op = insn.opcode
        env = self.env

        if op == isa.KFLEX_GUARD:
            heap = env.heap
            if heap is None:
                return self._raiser(KernelPanic, "GUARD without an extension heap")
            hb = heap.base
            hm = heap.mask
            d = insn.dst

            def h(regs, d=d, hb=hb, hm=hm, npc=npc):
                regs[d] = (hb + (regs[d] & hm)) & U64
                return npc

            return h

        if op == isa.KFLEX_TRANSLATE:
            heap = env.heap
            if heap is None:
                return self._raiser(KernelPanic, "TRANSLATE without a shared heap")
            hm = heap.mask
            d = insn.dst

            def h(regs, d=d, heap=heap, hm=hm, npc=npc):
                # user_base is read at run time: map_user() may happen
                # after load, exactly as the interpreter observes it.
                ub = heap.user_base
                if not ub:
                    raise KernelPanic("TRANSLATE without a shared heap")
                regs[d] = (ub + (regs[d] & hm)) & U64
                return npc

            return h

        if op == isa.KFLEX_CANCELPT:
            heap = env.heap
            if heap is None:
                return self._raiser(KernelPanic, "CANCELPT without an extension heap")
            # The terminate cell lives in the heap's always-populated
            # header page: while the heap's handle is admitted (see
            # _refresh_caches) read the backing directly, else take the
            # paged path.  The dereference of the loaded pointer
            # succeeds iff it still points at the terminate target;
            # anything else (0 when armed) takes the paged path and
            # faults exactly like the interpreter.
            tdata = self._term_data
            tcell = heap.terminate_cell
            toff = tcell - heap.base
            tt = heap.terminate_target
            unpack = _ACCESS[8][0]
            read = env.aspace.read_int

            def h(regs, env=env, heap=heap, tdata=tdata, tcell=tcell,
                  toff=toff, tt=tt, unpack=unpack, read=read, npc=npc):
                # Fault injection first, matching the interpreter's
                # CANCELPT order exactly (injected fault, then the
                # terminate-pointer dereference).
                inj = env.injector
                if inj is not None:
                    inj.at_cancelpt(env.aspace, heap)
                data = tdata[0]
                if data is not None:
                    term = unpack(data, toff)[0]
                else:
                    term = read(tcell, 8)
                if term != tt:
                    read(term, 1)
                return npc

            return h

        if insn.is_call:
            helpers = env.helpers
            hid = insn.imm
            try:
                decl = helpers.declaration(hid)
            except HelperFault:
                # Unknown helper: fault at execution, like the interpreter.
                def h(regs, helpers=helpers, hid=hid):
                    helpers.declaration(hid)
                    raise HelperFault(f"call to unknown helper id {hid}")

                return h
            n_args = decl.n_args
            hcost = self.helper_costs.get(hid, decl.cost)
            invoke = helpers.invoke
            xc = self._xcost
            end = 1 + n_args

            def h(regs, invoke=invoke, hid=hid, env=env, end=end, hcost=hcost,
                  xc=xc, npc=npc):
                ret = invoke(hid, env, tuple(regs[1:end]))
                regs[0] = (ret or 0) & U64
                # R1-R5 are caller-saved: clobber them, as the JIT would.
                regs[1] = 0
                regs[2] = 0
                regs[3] = 0
                regs[4] = 0
                regs[5] = 0
                xc[0] += hcost
                return npc

            return h

        if insn.is_exit:

            def h(regs):
                raise _EXIT

            return h

        # Branches: pre-resolve the taken target from slot offsets.
        op_hi = op & isa.OP_MASK
        tslot = self._slot_of[i] + insn.slots + insn.off
        t = self._slot_to_idx.get(tslot)
        panic_msg = f"jump to mid-instruction slot {tslot}"

        if op_hi == isa.BPF_JA:
            if t is None:
                return self._raiser(KernelPanic, panic_msg)

            def h(regs, t=t):
                return t

            return h

        test = JMP_TESTS.get(op_hi)
        if test is None:
            return self._raiser(ExtensionFault, f"unknown jump op {op_hi:#x}")

        use_reg = bool(op & isa.BPF_X)
        d = insn.dst
        s = insn.src

        if t is None:
            # Malformed taken-target: panic only if the branch is taken.
            cond = self._make_cond(insn, is32, test)

            def h(regs, cond=cond, npc=npc, msg=panic_msg):
                if cond(regs):
                    raise KernelPanic(msg)
                return npc

            return h

        if not is32:
            if use_reg:
                if op_hi == isa.BPF_JEQ:

                    def h(regs, d=d, s=s, t=t, npc=npc):
                        return t if regs[d] == regs[s] else npc

                elif op_hi == isa.BPF_JNE:

                    def h(regs, d=d, s=s, t=t, npc=npc):
                        return t if regs[d] != regs[s] else npc

                elif op_hi == isa.BPF_JGT:

                    def h(regs, d=d, s=s, t=t, npc=npc):
                        return t if regs[d] > regs[s] else npc

                elif op_hi == isa.BPF_JGE:

                    def h(regs, d=d, s=s, t=t, npc=npc):
                        return t if regs[d] >= regs[s] else npc

                elif op_hi == isa.BPF_JLT:

                    def h(regs, d=d, s=s, t=t, npc=npc):
                        return t if regs[d] < regs[s] else npc

                elif op_hi == isa.BPF_JLE:

                    def h(regs, d=d, s=s, t=t, npc=npc):
                        return t if regs[d] <= regs[s] else npc

                elif op_hi == isa.BPF_JSET:

                    def h(regs, d=d, s=s, t=t, npc=npc):
                        return t if regs[d] & regs[s] else npc

                else:  # signed comparisons

                    def h(regs, d=d, s=s, test=test, t=t, npc=npc):
                        a = regs[d]
                        b = regs[s]
                        sa = a - _S64 if a >= _S63 else a
                        sb = b - _S64 if b >= _S63 else b
                        return t if test(a, b, sa, sb) else npc

                return h
            # Immediate: burn the sign-extended constant.
            b = sign_extend(insn.imm, 32) & U64
            sb = sign_extend(insn.imm, 32)
            if op_hi == isa.BPF_JEQ:

                def h(regs, d=d, b=b, t=t, npc=npc):
                    return t if regs[d] == b else npc

            elif op_hi == isa.BPF_JNE:

                def h(regs, d=d, b=b, t=t, npc=npc):
                    return t if regs[d] != b else npc

            elif op_hi == isa.BPF_JGT:

                def h(regs, d=d, b=b, t=t, npc=npc):
                    return t if regs[d] > b else npc

            elif op_hi == isa.BPF_JGE:

                def h(regs, d=d, b=b, t=t, npc=npc):
                    return t if regs[d] >= b else npc

            elif op_hi == isa.BPF_JLT:

                def h(regs, d=d, b=b, t=t, npc=npc):
                    return t if regs[d] < b else npc

            elif op_hi == isa.BPF_JLE:

                def h(regs, d=d, b=b, t=t, npc=npc):
                    return t if regs[d] <= b else npc

            elif op_hi == isa.BPF_JSET:

                def h(regs, d=d, b=b, t=t, npc=npc):
                    return t if regs[d] & b else npc

            else:

                def h(regs, d=d, b=b, sb=sb, test=test, t=t, npc=npc):
                    a = regs[d]
                    sa = a - _S64 if a >= _S63 else a
                    return t if test(a, b, sa, sb) else npc

            return h

        # JMP32: width-masked comparison via the shared table.
        cond = self._make_cond(insn, True, test)

        def h(regs, cond=cond, t=t, npc=npc):
            return t if cond(regs) else npc

        return h

    def _make_cond(self, insn, is32: bool, test):
        """Generic ``regs -> bool`` closure with Interpreter._branch
        semantics; used for JMP32 and malformed-target branches."""
        d = insn.dst
        s = insn.src
        use_reg = bool(insn.opcode & isa.BPF_X)
        if is32:
            if use_reg:

                def cond(regs, d=d, s=s, test=test):
                    a = regs[d] & U32
                    b = regs[s] & U32
                    return test(a, b, sign_extend(a, 32), sign_extend(b, 32))

            else:
                b = insn.imm & U32
                sb = sign_extend(b, 32)

                def cond(regs, d=d, b=b, sb=sb, test=test):
                    a = regs[d] & U32
                    return test(a, b, sign_extend(a, 32), sb)

            return cond
        if use_reg:

            def cond(regs, d=d, s=s, test=test):
                a = regs[d]
                b = regs[s]
                sa = a - _S64 if a >= _S63 else a
                sb = b - _S64 if b >= _S63 else b
                return test(a, b, sa, sb)

        else:
            b = sign_extend(insn.imm, 32) & U64
            sb = sign_extend(insn.imm, 32)

            def cond(regs, d=d, b=b, sb=sb, test=test):
                a = regs[d]
                sa = a - _S64 if a >= _S63 else a
                return test(a, b, sa, sb)

        return cond


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------

#: Available execution engines.  ``"interp"`` is the reference
#: interpreter (the semantics oracle and escape hatch); ``"threaded"``
#: is the default fast path.
ENGINES: dict[str, type] = {
    "interp": Interpreter,
    "threaded": ThreadedEngine,
}

_default_engine = "threaded"


def default_engine() -> str:
    """The engine name new :class:`~repro.core.runtime.KFlexRuntime`
    instances pick up (``threaded`` until :func:`set_default_engine`)."""
    return _default_engine


def set_default_engine(name: str) -> None:
    global _default_engine
    if name not in ENGINES:
        raise LoadError(
            f"unknown execution engine {name!r} (have: {sorted(ENGINES)})"
        )
    _default_engine = name


@contextmanager
def engine_scope(name: str):
    """Temporarily override the default engine (benchmarks, A/B tests)."""
    global _default_engine
    prev = _default_engine
    set_default_engine(name)
    try:
        yield
    finally:
        _default_engine = prev


def make_engine(name: str, insns, env, *, costs=None, helper_costs=None,
                plan=None):
    """Construct the named engine over a lowered instruction list.

    ``plan`` is a superinstruction fusion plan (see
    :class:`repro.ebpf.pipeline.FusePass`) for the threaded engine; the
    reference interpreter takes none and stays the unfused semantics
    oracle.
    """
    cls = ENGINES.get(name)
    if cls is None:
        raise LoadError(
            f"unknown execution engine {name!r} (have: {sorted(ENGINES)})"
        )
    if cls is ThreadedEngine:
        return cls(insns, env, costs=costs, helper_costs=helper_costs,
                   plan=plan)
    return cls(insns, env, costs=costs, helper_costs=helper_costs)
