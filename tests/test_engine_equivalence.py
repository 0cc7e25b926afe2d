"""Differential execution: threaded engine vs reference interpreter.

The interpreter (:mod:`repro.ebpf.interpreter`) is the semantics
oracle; the threaded-code engine (:mod:`repro.ebpf.engine`) must agree
with it bit-for-bit on every observable of an execution: return value,
cost, step count, fault (kind / insn index / original index / address /
message) and the final register file.  This module enforces that over

* >=1000 randomized programs (pure ALU, branchy control flow, stack
  memory + atomics, demand-paged region access), and
* every fault path: page fault, SMAP trap, store-policy panic,
  watchdog cancellation, lock stall, step limit, helper fault,

plus runtime-level parity on the real Fig. 5 data-structure
extensions.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import KernelPanic, LoadError
from repro.ebpf import isa
from repro.ebpf.asm import Assembler
from repro.ebpf.isa import Insn, Reg
from repro.ebpf.engine import (
    ENGINES,
    ThreadedEngine,
    default_engine,
    engine_scope,
    set_default_engine,
)
from repro.ebpf.helpers import HelperTable
from repro.ebpf.interpreter import ExecEnv, Interpreter
from repro.ebpf.pipeline import compute_fuse_plan
from repro.kernel.addrspace import AddressSpace

R = Reg

#: Kernel-half base for scratch regions (above 2**47, so SMAP-clean).
KREGION = 0xFFFF_B000_0000_0000

_ALU_OPS = (
    isa.BPF_ADD, isa.BPF_SUB, isa.BPF_MUL, isa.BPF_DIV, isa.BPF_MOD,
    isa.BPF_OR, isa.BPF_AND, isa.BPF_XOR, isa.BPF_LSH, isa.BPF_RSH,
    isa.BPF_ARSH, isa.BPF_MOV,
)
_JMP_OPS = ("==", "!=", ">", ">=", "<", "<=", "s>", "s>=", "s<", "s<=", "&")
_ATOMIC_OPS = (
    isa.ATOMIC_ADD, isa.ATOMIC_ADD | isa.BPF_FETCH,
    isa.ATOMIC_OR, isa.ATOMIC_OR | isa.BPF_FETCH,
    isa.ATOMIC_AND, isa.ATOMIC_AND | isa.BPF_FETCH,
    isa.ATOMIC_XOR, isa.ATOMIC_XOR | isa.BPF_FETCH,
    isa.ATOMIC_XCHG, isa.ATOMIC_CMPXCHG,
)
_SIZES = (1, 2, 4, 8)


# -- differential harness -----------------------------------------------------


def _fresh_env(setup=None, **env_kw):
    aspace = AddressSpace()
    env = ExecEnv(aspace=aspace, helpers=HelperTable(), **env_kw)
    if setup is not None:
        setup(aspace, env)
    return env


def describe_result(r):
    """Every observable of an ExecResult, as a comparable tuple."""
    return (
        r.ret, r.cost, r.steps, r.regs, r.stack_base,
        None if r.fault is None else (
            r.fault.kind, r.fault.insn_idx, r.fault.orig_idx,
            r.fault.addr, r.fault.message,
        ),
    )


def assert_same(ri, rt, label=""):
    __tracebackhide__ = True
    assert describe_result(ri) == describe_result(rt), \
        f"engine divergence {label}"


#: Tally of how many harness runs actually executed fused
#: superinstruction blocks — asserted non-vacuous by
#: test_fused_parity_sweep_is_not_vacuous.
_FUSED_RUNS = {"runs": 0, "blocks": 0}


def run_both(insns, *, setup=None, ctx_addr=0, max_steps=None, **env_kw):
    """Run the interpreter, the unfused threaded engine, and (when the
    program has fusible runs) the fused threaded engine over identical
    fresh environments; assert three-way parity and return the
    interpreter's result."""
    env_i = _fresh_env(setup, **env_kw)
    env_t = _fresh_env(setup, **env_kw)
    ri = Interpreter(insns, env_i).run(ctx_addr, max_steps=max_steps)
    rt = ThreadedEngine(insns, env_t).run(ctx_addr, max_steps=max_steps)
    assert_same(ri, rt)
    plan = compute_fuse_plan(insns, has_heap=env_kw.get("heap") is not None)
    if plan:
        env_f = _fresh_env(setup, **env_kw)
        eng_f = ThreadedEngine(insns, env_f, plan=plan)
        rf = eng_f.run(ctx_addr, max_steps=max_steps)
        assert_same(ri, rf, "(fused)")
        if eng_f.fused_blocks:
            _FUSED_RUNS["runs"] += 1
            _FUSED_RUNS["blocks"] += eng_f.fused_blocks
    return ri


# -- random program generators ------------------------------------------------


def _seed_regs(a, rng, regs=(R.R0, R.R1, R.R2, R.R3, R.R4, R.R5)):
    for r in regs:
        a.ld_imm64(r, rng.getrandbits(64))


def _random_alu_op(a, rng, regs):
    dst = rng.choice(regs)
    kind = rng.randrange(10)
    if kind == 0:
        a.neg(dst)
    elif kind == 1:  # ALU32 NEG via raw encoding
        a.raw(Insn(isa.BPF_ALU | isa.BPF_NEG, int(dst)))
    elif kind == 2:  # byte-swap / truncate
        width = rng.choice((16, 32, 64))
        to_be = rng.random() < 0.5
        op = isa.BPF_ALU | isa.BPF_END | (isa.BPF_X if to_be else isa.BPF_K)
        a.raw(Insn(op, int(dst), 0, 0, width))
    else:
        op = rng.choice(_ALU_OPS)
        width64 = rng.random() < 0.7
        if rng.random() < 0.5:
            a._alu(op, dst, rng.choice(regs), width64=width64)
        else:
            imm = rng.randrange(-(1 << 31), 1 << 31)
            a._alu(op, dst, imm, width64=width64)


def gen_alu(rng) -> list[Insn]:
    a = Assembler()
    regs = (R.R0, R.R1, R.R2, R.R3, R.R4, R.R5)
    _seed_regs(a, rng, regs)
    for _ in range(rng.randrange(5, 25)):
        _random_alu_op(a, rng, regs)
    if rng.random() < 0.5:
        a.mov(R.R0, rng.choice(regs))
    a.exit()
    return a.assemble()


def gen_branchy(rng) -> list[Insn]:
    """Random forward-branching blocks (forward-only => terminates)."""
    a = Assembler()
    regs = (R.R0, R.R1, R.R2, R.R3, R.R4)
    _seed_regs(a, rng, regs)
    n_blocks = rng.randrange(3, 8)
    labels = [a.fresh_label(f"b{i}") for i in range(n_blocks)]
    done = a.fresh_label("done")
    for i in range(n_blocks):
        a.label(labels[i])
        for _ in range(rng.randrange(1, 4)):
            _random_alu_op(a, rng, regs)
        # Jump forward to a strictly later block (or the exit).
        target = rng.choice(labels[i + 1:] + [done])
        op = rng.choice(_JMP_OPS)
        width32 = rng.random() < 0.3
        if rng.random() < 0.5:
            a.jcc(op, rng.choice(regs), rng.choice(regs), target,
                  width32=width32)
        else:
            imm = rng.randrange(-(1 << 31), 1 << 31)
            a.jcc(op, rng.choice(regs), imm, target, width32=width32)
        if rng.random() < 0.3:
            a.jmp(target)
    a.label(done)
    a.exit()
    return a.assemble()


def gen_memory(rng) -> list[Insn]:
    """Stack traffic: ST/STX/LDX/atomics at random offsets/widths."""
    a = Assembler()
    regs = (R.R0, R.R1, R.R2, R.R3)
    _seed_regs(a, rng, regs)
    # Pre-fill a few slots so loads see defined bytes.
    for off in range(-64, 0, 8):
        a.st_imm(R.R10, off, rng.randrange(-(1 << 31), 1 << 31), 8)
    for _ in range(rng.randrange(8, 30)):
        size = rng.choice(_SIZES)
        off = -rng.randrange(1, 64 // size + 1) * size
        kind = rng.randrange(4)
        if kind == 0:
            a.st_imm(R.R10, off, rng.randrange(-(1 << 31), 1 << 31), size)
        elif kind == 1:
            a.stx(R.R10, rng.choice(regs), off, size)
        elif kind == 2:
            a.ldx(rng.choice(regs), R.R10, off, size)
        else:
            aop = rng.choice(_ATOMIC_OPS)
            a.atomic(R.R10, rng.choice(regs), off, aop,
                     size=rng.choice((4, 8)))
    a.ldx(R.R0, R.R10, -8, 8)
    a.exit()
    return a.assemble()


def _paged_setup(aspace, env):
    region = aspace.map_region(KREGION, 4 * 4096, "scratch", populated=False)
    aspace.populate(KREGION, 4096)              # page 0
    aspace.populate(KREGION + 2 * 4096, 4096)   # page 2; pages 1, 3 fault


def gen_paged(rng) -> list[Insn]:
    """Loads/stores over a partially populated region: some succeed via
    the fast path, some page-fault on unpopulated pages."""
    a = Assembler()
    a.ld_imm64(R.R6, KREGION)
    a.ld_imm64(R.R2, rng.getrandbits(64))
    a.mov(R.R0, 0)
    for _ in range(rng.randrange(4, 12)):
        size = rng.choice(_SIZES)
        # Mostly in-region; occasionally straddling a page boundary.
        off = rng.randrange(0, 4 * 4096 - 8)
        if rng.random() < 0.2:
            off = rng.choice((4096 - size // 2, 3 * 4096 - size // 2))
        if rng.random() < 0.5:
            a.ldx(R.R1, R.R6, 0, size)  # off folded into R6 below
        if rng.random() < 0.6:
            a.mov(R.R7, R.R6)
            a.add(R.R7, off)
            a.ldx(R.R1, R.R7, 0, size)
            a.add(R.R0, R.R1)
        else:
            a.mov(R.R7, R.R6)
            a.add(R.R7, off)
            a.stx(R.R7, R.R2, 0, size)
    a.exit()
    return a.assemble()


# -- randomized differential sweeps ------------------------------------------


def test_random_alu_programs_agree():
    rng = random.Random(0xA1)
    for trial in range(400):
        insns = gen_alu(random.Random(rng.getrandbits(64)))
        run_both(insns)


def test_random_branchy_programs_agree():
    rng = random.Random(0xB2)
    for trial in range(300):
        insns = gen_branchy(random.Random(rng.getrandbits(64)))
        run_both(insns)


def test_random_memory_programs_agree():
    rng = random.Random(0xC3)
    for trial in range(250):
        insns = gen_memory(random.Random(rng.getrandbits(64)))
        run_both(insns)


def test_random_paged_programs_agree():
    rng = random.Random(0xD4)
    for trial in range(100):
        insns = gen_paged(random.Random(rng.getrandbits(64)))
        run_both(insns, setup=_paged_setup)


def test_threaded_engine_is_reusable_across_runs():
    """Pooled engine state (regs, caches) must not leak between runs."""
    insns = gen_memory(random.Random(7))
    env = _fresh_env()
    eng = ThreadedEngine(insns, env)
    first = eng.run()
    for _ in range(3):
        again = eng.run()
        assert_same(first, again, "(pooled rerun)")


# -- fault-path parity --------------------------------------------------------


def test_unmapped_load_page_fault_parity():
    a = Assembler()
    a.ld_imm64(R.R6, KREGION + 0x123)  # nothing mapped there
    a.ldx(R.R0, R.R6, 0, 8)
    a.exit()
    r = run_both(a.assemble())
    assert r.fault is not None and r.fault.kind == "page"


def test_unpopulated_page_fault_parity():
    a = Assembler()
    a.ld_imm64(R.R6, KREGION + 4096)  # page 1: mapped, never populated
    a.ldx(R.R0, R.R6, 0, 8)
    a.exit()
    r = run_both(a.assemble(), setup=_paged_setup)
    assert r.fault is not None and r.fault.kind == "page"
    assert "unpopulated" in r.fault.message


def test_page_straddling_access_parity():
    """An 8-byte load whose first page is populated but second is not
    must fall off the fast path and fault identically."""
    a = Assembler()
    a.ld_imm64(R.R6, KREGION + 4096 - 4)  # straddles pages 0|1
    a.ldx(R.R0, R.R6, 0, 8)
    a.exit()
    r = run_both(a.assemble(), setup=_paged_setup)
    assert r.fault is not None and r.fault.kind == "page"


def test_smap_trap_parity():
    a = Assembler()
    a.ld_imm64(R.R6, 0x10_0000)  # user-space address
    a.ldx(R.R0, R.R6, 0, 8)
    a.exit()
    r = run_both(a.assemble())
    assert r.fault is not None and r.fault.kind == "page"
    assert "SMAP" in r.fault.message


def test_smap_disabled_parity():
    a = Assembler()
    a.ld_imm64(R.R6, 0x10_0000)
    a.ldx(R.R0, R.R6, 0, 8)
    a.exit()
    r = run_both(a.assemble(), smap=False)
    assert r.fault is not None and "unmapped" in r.fault.message


def test_store_policy_panic_parity():
    """Stores outside the allowed prefixes are kernel panics in both."""
    a = Assembler()
    a.ld_imm64(R.R6, KREGION)
    a.st_imm(R.R6, 0, 1, 8)
    a.exit()
    insns = a.assemble()
    msgs = []
    for cls in (Interpreter, ThreadedEngine):
        env = _fresh_env(_paged_setup, allowed_store_regions=("stack:",))
        with pytest.raises(KernelPanic) as exc:
            cls(insns, env).run()
        msgs.append(str(exc.value))
    assert msgs[0] == msgs[1]
    assert "kernel-owned" in msgs[0]


def test_step_limit_stall_parity():
    a = Assembler()
    loop = a.fresh_label()
    a.mov(R.R1, 1)
    a.label(loop)
    a.add(R.R1, 1)
    a.jmp(loop)
    insns = a.assemble()
    r = run_both(insns, max_steps=997)
    assert r.fault is not None and r.fault.kind == "stall"
    assert r.steps == 997


def test_falling_off_the_end_panics_before_stall_or_watchdog():
    """A pc one past the last instruction panics — ahead of the stall
    limit and the watchdog when all three fall on the same step."""
    a = Assembler()
    a.mov(R.R0, 1)
    a.mov(R.R1, 2)
    insns = a.assemble()  # no EXIT
    plan = compute_fuse_plan(insns, has_heap=False)
    for max_steps in (None, 2, 1):
        seen = []
        for make in (
            lambda e: Interpreter(insns, e),
            lambda e: ThreadedEngine(insns, e),
            lambda e: ThreadedEngine(insns, e, plan=plan),
        ):
            calls = []
            env = _fresh_env(watchdog=calls.append, watchdog_period=2)
            seen.append((_outcome(make(env), max_steps=max_steps), calls))
        assert seen[0] == seen[1] == seen[2], max_steps
        if max_steps != 1:
            assert seen[0] == (("panic", "pc 2 fell off program end"), [])


def test_unknown_helper_fault_parity():
    a = Assembler()
    a.call(9999)
    a.exit()
    r = run_both(a.assemble())
    assert r.fault is not None and r.fault.kind == "helper"
    assert "unknown helper id 9999" in r.fault.message


def test_watchdog_callback_sequence_parity():
    """The watchdog must observe identical (step, cost) schedules."""
    a = Assembler()
    loop = a.fresh_label()
    a.mov(R.R1, 0)
    a.label(loop)
    a.add(R.R1, 1)
    a.jcc("<", R.R1, 40_000, loop)
    a.mov(R.R0, R.R1)
    a.exit()
    insns = a.assemble()
    seen = {}
    for name, cls in (("interp", Interpreter), ("threaded", ThreadedEngine)):
        calls = []
        env = _fresh_env(watchdog=calls.append)
        res = cls(insns, env).run()
        assert res.ok
        seen[name] = (calls, res.ret, res.cost, res.steps)
    assert seen["interp"] == seen["threaded"]
    assert len(seen["interp"][0]) > 5  # the watchdog actually fired


# -- site-cache invalidation matrix -------------------------------------------
#
# Every memory site keeps a monomorphic inline cache.  Each case below
# warms a *pooled* engine, then changes one thing a cached handle's
# validity rests on and checks the next run is still bit-identical to a
# fresh interpreter — results and final backing bytes.

KCTX = 0xFFFF_B100_0000_0000
KOTHER = 0xFFFF_B200_0000_0000
UREGION = 0x20_0000  # user half: SMAP-trapped for loads


def _memory_image(env):
    return [
        (r.base, r.size, r.name, r.pkey, bytes(r.backing.data),
         r.backing.all_populated or sorted(r.backing.populated))
        for r in env.aspace.regions
    ]


def _outcome(engine, ctx_addr=0, max_steps=None):
    try:
        return describe_result(engine.run(ctx_addr, max_steps=max_steps))
    except KernelPanic as exc:
        return ("panic", str(exc))


class WarmPair:
    """A pooled threaded engine (and its fused twin when the program
    has a fusion plan) against a fresh interpreter per step, each over
    its own identically-built environment."""

    def __init__(self, insns, setup=None, **env_kw):
        self.insns = insns
        self.oracle_env = _fresh_env(setup, **env_kw)
        self.engines = [ThreadedEngine(insns, _fresh_env(setup, **env_kw))]
        plan = compute_fuse_plan(insns, has_heap=False)
        if plan:
            self.engines.append(
                ThreadedEngine(insns, _fresh_env(setup, **env_kw), plan=plan)
            )

    def step(self, mutate=None, ctx_addr=0, label=""):
        """Apply ``mutate(aspace, env)`` to every environment, run, and
        assert parity; returns the interpreter's outcome."""
        envs = [self.oracle_env] + [e.env for e in self.engines]
        if mutate is not None:
            for env in envs:
                mutate(env.aspace, env)
        want = _outcome(Interpreter(self.insns, self.oracle_env), ctx_addr)
        image = _memory_image(self.oracle_env)
        for eng in self.engines:
            assert _outcome(eng, ctx_addr) == want, f"divergence {label}"
            assert _memory_image(eng.env) == image, f"memory divergence {label}"
        return want


def _fault_message(outcome):
    assert outcome[0] != "panic" and outcome[5] is not None, outcome
    return outcome[5][4]


def _probe_program(size=8, *, store=True, load=True):
    """ctx[0] = target address, ctx[8] = value: optional store, then
    optional load, through the *same* sites on every run."""
    a = Assembler()
    a.ldx(R.R6, R.R1, 0, 8)
    a.ldx(R.R2, R.R1, 8, 8)
    a.mov(R.R0, 0)
    if store:
        a.stx(R.R6, R.R2, 0, size)
    if load:
        a.ldx(R.R0, R.R6, 0, size)
    a.exit()
    return a.assemble()


def _probe_setup(aspace, env):
    aspace.map_region(KCTX, 4096, "ctx")
    aspace.map_region(KREGION, 4096, "scratch")
    aspace.write_int(KREGION, 0x1111, 8)


def _aim(addr, value=0):
    def mutate(aspace, env):
        aspace.write_int(KCTX, addr, 8)
        aspace.write_int(KCTX + 8, value, 8)
    return mutate


def test_site_cache_survives_nothing_across_unmap_and_remap():
    pair = WarmPair(_probe_program(store=False), _probe_setup)
    assert pair.step(_aim(KREGION), KCTX)[0] == 0x1111
    assert pair.step(None, KCTX)[0] == 0x1111  # site-cache hit

    def unmap(aspace, env):
        aspace.unmap(KREGION)
    assert "unmapped" in _fault_message(pair.step(unmap, KCTX, "(unmapped)"))

    def remap(aspace, env):
        aspace.map_region(KREGION, 4096, "scratch")
        aspace.write_int(KREGION, 0x2222, 8)
    # Same base, fresh backing: the stale bytes must not be read.
    assert pair.step(remap, KCTX, "(remapped)")[0] == 0x2222


def test_site_cache_follows_pkey_switch():
    def setup(aspace, env):
        _probe_setup(aspace, env)
        aspace.find_region(KREGION).pkey = 3
        aspace.active_pkeys = {3}

    def pkeys(keys):
        def mutate(aspace, env):
            aspace.active_pkeys = keys
        return mutate

    pair = WarmPair(_probe_program(), setup)
    assert pair.step(_aim(KREGION, 5), KCTX)[0] == 5
    assert pair.step(None, KCTX)[0] == 5
    out = pair.step(pkeys({4}), KCTX, "(foreign pkey)")
    assert "protection-key" in _fault_message(out)
    assert pair.step(pkeys({3, 4}), KCTX, "(own pkey back)")[0] == 5
    assert pair.step(pkeys(None), KCTX, "(pkru cleared)")[0] == 5


def test_site_cache_follows_store_policy_change():
    def policy(prefixes):
        def mutate(aspace, env):
            env.allowed_store_regions = prefixes
        return mutate

    pair = WarmPair(_probe_program(), _probe_setup)
    assert pair.step(_aim(KREGION, 9), KCTX)[0] == 9
    assert pair.step(None, KCTX)[0] == 9
    out = pair.step(policy(("stack:",)), KCTX, "(store forbidden)")
    assert out[0] == "panic" and "kernel-owned" in out[1]
    assert pair.step(policy(("scratch",)), KCTX, "(store allowed)")[0] == 9
    assert pair.step(policy(("ctx",)), KCTX, "(forbidden again)")[0] == "panic"


def test_site_cache_hit_cannot_outlive_smap_flip():
    def setup(aspace, env):
        _probe_setup(aspace, env)
        aspace.map_region(UREGION, 4096, "user")
        aspace.write_int(UREGION, 0x7777, 8)

    def smap(on):
        def mutate(aspace, env):
            env.smap = on
        return mutate

    pair = WarmPair(_probe_program(store=False), setup, smap=False)
    # SMAP off: the user-half region is promoted and the site hits it.
    assert pair.step(_aim(UREGION), KCTX)[0] == 0x7777
    assert pair.step(None, KCTX)[0] == 0x7777
    out = pair.step(smap(True), KCTX, "(smap on)")
    assert "SMAP" in _fault_message(out)  # must fault, not hit
    assert pair.step(smap(False), KCTX, "(smap off again)")[0] == 0x7777

    # SMAP on from the start: a store to the user half is legal and
    # promotes the region, but the load right after must still trap.
    pair = WarmPair(_probe_program(), setup)
    for _ in range(2):
        out = pair.step(_aim(UREGION, 0x42), KCTX, "(load after store)")
        assert "SMAP" in _fault_message(out)
    assert pair.oracle_env.aspace.read_int(UREGION, 8) == 0x42


def test_site_cache_straddles_page_boundary_and_region_end():
    def setup(aspace, env):
        aspace.map_region(KCTX, 4096, "ctx")
        _paged_setup(aspace, env)  # 4 pages; 0 and 2 populated

    for size in (2, 4, 8):
        pair = WarmPair(_probe_program(size), setup)
        assert pair.step(_aim(KREGION + 64, 0xABCD), KCTX)[5] is None
        # First page populated, second not: fall off the fast path.
        out = pair.step(_aim(KREGION + 4096 - 1, 1), KCTX, "(page straddle)")
        assert "unpopulated" in _fault_message(out)

        def populate(aspace, env):
            aspace.populate(KREGION + 4096, 4096)
        assert pair.step(populate, KCTX, "(now populated)")[5] is None
        # Straddling the region end is an unmapped access, not a hit.
        end = KREGION + 4 * 4096
        out = pair.step(_aim(end - 1, 1), KCTX, "(region end)")
        assert "unmapped" in _fault_message(out)
        assert pair.step(_aim(KREGION + 3 * 4096 - size, 3), KCTX)[5] is None


def test_polymorphic_site_alternating_regions():
    """One LDX/STX pair whose base register flips between two regions
    every iteration: each access misses the site cache and re-points."""
    def setup(aspace, env):
        aspace.map_region(KREGION, 4096, "left")
        aspace.map_region(KOTHER, 4096, "right")
        aspace.write_int(KREGION, 3, 8)
        aspace.write_int(KOTHER, 5, 8)

    a = Assembler()
    loop = a.fresh_label()
    a.ld_imm64(R.R6, KREGION)
    a.ld_imm64(R.R7, KOTHER)
    a.mov(R.R0, 0)
    a.mov(R.R4, 0)
    a.label(loop)
    a.ldx(R.R3, R.R6, 0, 8)
    a.add(R.R0, R.R3)
    a.stx(R.R6, R.R0, 8, 8)
    a.mov(R.R5, R.R6)  # swap the two bases
    a.mov(R.R6, R.R7)
    a.mov(R.R7, R.R5)
    a.add(R.R4, 1)
    a.jcc("<", R.R4, 10, loop)
    a.exit()
    pair = WarmPair(a.assemble(), setup)
    for _ in range(3):
        assert pair.step()[0] == 5 * (3 + 5)


def test_site_widths_with_top_bit_set():
    """pack_into rejects out-of-range ints: every store must be masked
    to its width first, register and immediate alike."""
    a = Assembler()
    a.ld_imm64(R.R2, 0xFFFF_FFFF_FFFF_FFFF)
    a.ld_imm64(R.R3, 0x8000_0000_8000_8080)
    a.mov(R.R0, 0)
    off = -8
    for size in _SIZES:
        for src in (R.R2, R.R3):
            a.st_imm(R.R10, off, 0, 8)
            a.stx(R.R10, src, off, size)
            a.ldx(R.R4, R.R10, off, size)
            a.xor(R.R0, R.R4)
            a.ldx(R.R4, R.R10, off, 8)
            a.add(R.R0, R.R4)
            off -= 8
        a.st_imm(R.R10, off, -1, size)
        a.ldx(R.R4, R.R10, off, 8)
        a.add(R.R0, R.R4)
        off -= 8
    a.exit()
    pair = WarmPair(a.assemble())
    first = pair.step()
    assert first[5] is None
    assert pair.step() == first


def _malloc_page_trace(engine: str):
    from repro.core.runtime import KFlexRuntime
    from repro.ebpf.helpers import KFLEX_MALLOC
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program

    rt = KFlexRuntime(engine=engine)
    heap = rt.create_heap(1 << 20, name="grow")
    m = MacroAsm()
    m.call_helper(KFLEX_MALLOC, 4096)  # a page the heap has not seen yet
    with m.if_("==", R.R0, 0):
        m.exit()
    m.mov(R.R6, R.R0)
    m.mov(R.R3, 0x5A5A)
    m.stx(R.R6, R.R3, 0, 8)
    m.stx(R.R6, R.R3, 4088, 8)
    m.ldx(R.R0, R.R6, 4088, 8)
    m.exit()
    prog = Program("grow", m.assemble(), hook="bench", heap_size=1 << 20)
    ext = rt.load(prog, heap=heap, attach=False)
    ctx = rt.make_ctx(0, [0] * 8)
    trace = []
    for _ in range(6):
        before = heap.region.backing.populated_pages
        ret = ext.invoke(ctx)
        grown = heap.region.backing.populated_pages - before
        trace.append((ret, grown, describe_result(ext.last_result)))
    return trace, bytes(heap.region.backing.data)


def test_site_cache_sees_pages_populated_mid_run():
    """kflex_malloc populates the page *during* the run; the warm store
    and load sites must see it through the shared population set."""
    ti = _malloc_page_trace("interp")
    tt = _malloc_page_trace("threaded")
    assert ti == tt
    assert all(ret == 0x5A5A for ret, _, _ in ti[0])
    assert sum(grown for _, grown, _ in ti[0]) >= 5


# -- seeded memory differential -----------------------------------------------

KPKT = 0xFFFF_B300_0000_0000
KMAPV = 0xFFFF_B400_0000_0000
KHEAP = 0xFFFF_B500_0000_0000
_MEM_TARGETS = (
    # (weight, base or None for the stack, usable bytes)
    (16, None, 64),           # stack
    (8, KCTX, 64),            # hook context
    (12, KPKT, 256),          # packet staging slot
    (12, KMAPV, 128),         # map value
    (16, KHEAP, 4096),        # demand-paged heap: pages 0 and 2 only
    (1, KOTHER, 64),          # unmapped
    (1, UREGION, 64),         # user half
)


def _mem_diff_setup(aspace, env):
    aspace.map_region(KCTX, 4096, "ctx")
    aspace.map_region(KPKT, 4096, "kernel:pkt0")
    aspace.map_region(KMAPV, 4096, "map:values")
    aspace.map_region(UREGION, 4096, "user")
    aspace.map_region(KHEAP, 4 * 4096, "heap:diff", populated=False)
    aspace.populate(KHEAP, 4096)
    aspace.populate(KHEAP + 2 * 4096, 4096)


def gen_mem_diff(rng) -> list[Insn]:
    """Straight-line loads/stores over every kind of address."""
    a = Assembler()
    regs = (R.R2, R.R3, R.R4)
    _seed_regs(a, rng, regs)
    a.mov(R.R0, 0)
    weights = [w for w, _, _ in _MEM_TARGETS]
    for _ in range(rng.randrange(6, 20)):
        _, base, span = rng.choices(_MEM_TARGETS, weights)[0]
        size = rng.choice(_SIZES)
        if base is None:
            ptr, off = R.R10, -rng.randrange(1, 64 // size + 1) * size
        else:
            ptr = R.R6
            target = base + rng.randrange(0, span - size + 1)
            if base == KHEAP:
                # Mostly the populated pages; sometimes an unpopulated
                # one, a page straddle, or the region end.
                target += rng.choice((0, 2 * 4096))
                if rng.random() < 0.1:
                    edge = rng.choice((4096, 3 * 4096, 4 * 4096))
                    target = base + edge - rng.randrange(0, size + 1)
            off = rng.randrange(-64, 64)
            a.ld_imm64(ptr, (target - off) & isa.U64)
        kind = rng.randrange(3)
        if kind == 0:
            a.ldx(R.R5, ptr, off, size)
            a.xor(R.R0, R.R5)
        elif kind == 1:
            a.stx(ptr, rng.choice(regs), off, size)
        else:
            a.st_imm(ptr, off, rng.randrange(-(1 << 31), 1 << 31), size)
    a.exit()
    return a.assemble()


def _mem_diff_mutation(rng):
    """Something a site cache must not survive, or None."""
    kind = rng.randrange(6)
    if kind == 0:
        def mutate(aspace, env):  # same base, fresh backing
            aspace.unmap(KMAPV)
            aspace.map_region(KMAPV, 4096, "map:values")
    elif kind == 1:
        smap = rng.random() < 0.5

        def mutate(aspace, env):
            env.smap = smap
    elif kind == 2:
        allowed = rng.choice((None, ("stack:", "heap:", "map:"), ("stack:",)))

        def mutate(aspace, env):
            env.allowed_store_regions = allowed
    elif kind == 3:
        def mutate(aspace, env):
            aspace.populate(KHEAP + 4096, 4096)
    elif kind == 4:
        keys = rng.choice((None, {1}, {2}))

        def mutate(aspace, env):
            aspace.find_region(KHEAP).pkey = 1
            aspace.active_pkeys = keys
    else:
        return None
    return mutate


def test_seeded_memory_differential():
    rng = random.Random(0x5173)
    faults = panics = clean = 0
    for trial in range(300):
        prng = random.Random(rng.getrandbits(64))
        pair = WarmPair(gen_mem_diff(prng), _mem_diff_setup,
                        smap=prng.random() < 0.7)
        for run in range(3):
            mutate = _mem_diff_mutation(prng) if run else None
            out = pair.step(mutate, KCTX, f"(trial {trial} run {run})")
            if out[0] == "panic":
                panics += 1
            elif out[5] is not None:
                faults += 1
            else:
                clean += 1
    # The sweep must exercise all three outcomes to mean anything.
    assert clean > 200 and faults > 100 and panics > 10, (clean, faults, panics)


# -- fused superinstruction parity --------------------------------------------


@pytest.mark.fuse
def test_fused_parity_sweep_is_not_vacuous():
    """A self-contained sweep across every generator: the fused engine
    must agree bit-for-bit AND must actually have fused blocks — a
    parity sweep that never fuses anything proves nothing."""
    before = dict(_FUSED_RUNS)
    rng = random.Random(0xF5)
    for gen in (gen_alu, gen_branchy, gen_memory):
        for _ in range(25):
            run_both(gen(random.Random(rng.getrandbits(64))))
    for _ in range(25):
        run_both(gen_paged(random.Random(rng.getrandbits(64))),
                 setup=_paged_setup)
    assert _FUSED_RUNS["runs"] > before["runs"]
    assert _FUSED_RUNS["blocks"] > before["blocks"]


@pytest.mark.fuse
def test_fused_watchdog_schedule_parity():
    """The hot loop body (ADD -> JCC) fuses into one superinstruction,
    so watchdog checkpoints repeatedly land *inside* blocks; the engine
    must single-step across those boundaries so the watchdog observes
    the interpreter's exact (step, cost) schedule."""
    a = Assembler()
    loop = a.fresh_label()
    a.mov(R.R1, 0)
    a.label(loop)
    a.add(R.R1, 1)
    a.jcc("<", R.R1, 40_000, loop)
    a.mov(R.R0, R.R1)
    a.exit()
    insns = a.assemble()
    plan = compute_fuse_plan(insns, has_heap=False)
    assert plan  # the loop body is a fusible run
    seen = {}
    for name, make in (
        ("interp", lambda e: Interpreter(insns, e)),
        ("fused", lambda e: ThreadedEngine(insns, e, plan=plan)),
    ):
        calls = []
        env = _fresh_env(watchdog=calls.append)
        eng = make(env)
        res = eng.run()
        assert res.ok
        seen[name] = (calls, res.ret, res.cost, res.steps)
    assert seen["interp"] == seen["fused"]
    assert len(seen["interp"][0]) > 5


@pytest.mark.fuse
def test_fused_step_limit_lands_mid_block():
    """Sweep the hard step limit across every phase of the fused loop
    body: the stall fault must report identical steps/cost/pc whether
    the limit falls on a block head, mid-block, or a boundary."""
    a = Assembler()
    loop = a.fresh_label()
    a.mov(R.R1, 1)
    a.label(loop)
    a.add(R.R1, 1)
    a.xor(R.R2, R.R1)
    a.jmp(loop)
    insns = a.assemble()
    plan = compute_fuse_plan(insns, has_heap=False)
    assert plan
    for limit in range(5, 17):
        ri = Interpreter(insns, _fresh_env()).run(max_steps=limit)
        rf = ThreadedEngine(insns, _fresh_env(), plan=plan).run(
            max_steps=limit
        )
        assert_same(ri, rf, f"(stall at limit {limit})")
        assert ri.fault is not None and ri.fault.kind == "stall"


@pytest.mark.fuse
@pytest.mark.parametrize("max_len", range(2, 8))
def test_every_plan_shape_matches_the_interpreter(max_len):
    """Block length is not a knob any more, but every block shape the
    planner can emit — runs cut at 2 to 7 instructions, with and
    without an absorbed terminal — must execute to the interpreter's
    result when handed straight to the engine."""
    rng = random.Random(0xB10C + max_len)
    fused = 0
    for gen in (gen_alu, gen_branchy, gen_memory):
        for _ in range(10):
            insns = gen(random.Random(rng.getrandbits(64)))
            plan = compute_fuse_plan(insns, has_heap=False, max_len=max_len)
            assert all(length <= max_len for _, length, _ in plan)
            eng = ThreadedEngine(insns, _fresh_env(), plan=plan)
            assert_same(Interpreter(insns, _fresh_env()).run(), eng.run(),
                        f"(max_len {max_len})")
            fused += eng.fused_blocks
    assert fused > 0


def _fused_mem_trace(engine, chase=False):
    """Drive LDX -> GUARD -> STX once onto a populated page and once
    onto an unpopulated one.  ``chase`` loads through the register it
    overwrites (``r7 = *r7``), so a deopt after the load must put the
    pointer back before the block head is re-executed."""
    from repro.core.runtime import KFlexRuntime
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program

    rt = KFlexRuntime(engine=engine)
    heap = rt.create_heap(1 << 16, name="memf")
    m = MacroAsm()
    ptr = R.R7 if chase else R.R6
    m.heap_addr(ptr, 0x40)
    m.mov(R.R3, 0xABCD)
    m.ldx(R.R7, ptr)         # load a heap offset from the cell...
    m.stx(R.R7, R.R3, 0, 8)  # ...and store through it (Kie guards R7)
    m.mov(R.R0, 7)
    m.exit()
    prog = Program("memf", m.assemble(), hook="bench", heap_size=1 << 16)
    ext = rt.load(prog, heap=heap, attach=False, elision=False)
    assert heap.reserve_static(64) == 0x40
    ctx = rt.make_ctx(0, [0] * 8)
    out = []
    # Populated header page: the fused fast path commits.
    rt.kernel.aspace.write_int(heap.base + 0x40, 0x80, 8)
    out.append((ext.invoke(ctx), describe_result(ext.last_result)))
    out.append(rt.kernel.aspace.read_int(heap.base + 0x80, 8))
    # Unpopulated page: deopt -> slow path -> page-fault cancel.
    rt.kernel.aspace.write_int(heap.base + 0x40, 0x8000, 8)
    ext.dead = False
    out.append((ext.invoke(ctx), describe_result(ext.last_result)))
    out.append(dict(ext.stats.cancellations_by_reason))
    if engine == "threaded":
        eng = ext._engines[0].engine
        assert any(k == "mem" for _, _, k in eng.plan)
        assert eng.fused_blocks > 0
    return out


@pytest.mark.fuse
def test_fused_mem_idiom_runtime_parity():
    """The LDX -> GUARD -> STX idiom at runtime level: the fast path
    commits load+guard+store in one closure; an unpopulated target page
    deoptimizes to single-step execution and must fault exactly like
    the interpreter (same insn index, same cancellation accounting)."""
    ti = _fused_mem_trace("interp")
    tf = _fused_mem_trace("threaded")
    assert ti == tf
    assert ti[1] == 0xABCD  # the guarded store actually landed


@pytest.mark.fuse
def test_fused_mem_idiom_deopt_restores_chased_pointer():
    ti = _fused_mem_trace("interp", chase=True)
    tf = _fused_mem_trace("threaded", chase=True)
    assert ti == tf
    assert ti[1] == 0xABCD
    assert ti[3] == {"page_fault": 1}


@pytest.mark.fuse
def test_fused_injected_fault_parity():
    """Same fault plan, same workload: fused threaded execution and
    the interpreter produce bit-identical ExecResults and injector
    schedules — and the threaded leg really ran fused blocks."""
    fused_blocks = []
    ti = _run_injected_ds("interp")
    tf = _run_injected_ds("threaded", fused_blocks)
    assert ti == tf
    assert sum(tf[2].values()) > 0
    assert sum(fused_blocks) > 0


# -- runtime-level parity -----------------------------------------------------


def _run_ds_ops(engine: str, struct: str):
    from repro.core.runtime import KFlexRuntime
    from repro.apps.datastructures import ALL_STRUCTURES

    rt = KFlexRuntime(engine=engine)
    ds = ALL_STRUCTURES[struct](rt)
    rng = random.Random(42)
    trace = []
    for k in range(64):
        trace.append(("u", ds.update(k, k * 3 + 1)))
    for _ in range(64):
        k = rng.randrange(96)  # mix of hits and misses
        op = rng.choice(("update", "lookup", "delete"))
        if op == "update":
            ret = ds.update(k, rng.randrange(1 << 30))
        elif op == "lookup":
            ret = ds.lookup(k)
        else:
            ret = ds.delete(k)
        cost = ds.exts[op].stats.last_cost_units
        trace.append((op, k, ret, cost))
    return trace


@pytest.mark.parametrize("struct", ["hashmap", "linkedlist"])
def test_runtime_datastructure_parity(struct):
    assert _run_ds_ops("interp", struct) == _run_ds_ops("threaded", struct)


def _watchdog_cancel_stats(engine: str):
    from repro.core.runtime import KFlexRuntime
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program

    rt = KFlexRuntime(engine=engine)
    m = MacroAsm()
    m.mov(R.R3, 1)
    with m.while_("!=", R.R3, 0):
        m.add(R.R3, 1)
    m.mov(R.R0, 0)
    m.exit()
    prog = Program("spin", m.assemble(), hook="xdp", heap_size=1 << 16)
    ext = rt.load(prog, attach=False, quantum_units=10_000)
    ret = ext.invoke(rt.make_ctx(0, [0] * 8))
    return ret, ext.dead, dict(ext.stats.cancellations_by_reason), \
        ext.stats.last_cost_units


def test_runtime_watchdog_cancellation_parity():
    assert _watchdog_cancel_stats("interp") == \
        _watchdog_cancel_stats("threaded")


def _lock_stall_stats(engine: str):
    from repro.core.runtime import KFlexRuntime
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program
    from repro.ebpf.helpers import KFLEX_SPIN_LOCK, KFLEX_SPIN_UNLOCK

    rt = KFlexRuntime(engine=engine)
    m = MacroAsm()
    m.heap_addr(R.R6, 0x100)
    m.heap_addr(R.R7, 0x180)
    m.call_helper(KFLEX_SPIN_LOCK, R.R6)
    m.call_helper(KFLEX_SPIN_LOCK, R.R7)
    m.call_helper(KFLEX_SPIN_UNLOCK, R.R7)
    m.call_helper(KFLEX_SPIN_UNLOCK, R.R6)
    m.mov(R.R0, 0)
    m.exit()
    prog = Program("locker", m.assemble(), hook="bench", heap_size=1 << 16)
    ext = rt.load(prog, attach=False)
    t = rt.kernel.sched.spawn("app")
    ext.locks.user_lock(0x180, t)
    ret = ext.invoke(rt.make_ctx(0, [0] * 8))
    return ret, ext.dead, dict(ext.stats.cancellations_by_reason), \
        ext.locks.owner(0x100)


def test_runtime_lock_stall_parity():
    assert _lock_stall_stats("interp") == _lock_stall_stats("threaded")


def test_runtime_pools_engine_across_invocations():
    """Satellite: invoke() must reuse one engine per CPU, rebuilt only
    if the lowered program changes."""
    from repro.core.runtime import KFlexRuntime
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program

    rt = KFlexRuntime()
    m = MacroAsm()
    m.mov(R.R0, 5)
    m.exit()
    prog = Program("t", m.assemble(), hook="bench", heap_size=1 << 16)
    ext = rt.load(prog, attach=False)
    ctx = rt.make_ctx(0, [0] * 8)
    ext.invoke(ctx)
    eng0 = ext._engines[0]
    for _ in range(5):
        ext.invoke(ctx)
    assert ext._engines[0] is eng0
    # Re-lowering the program invalidates the pooled engine.
    ext.jprog.insns = list(ext.jprog.insns)
    ext.invoke(ctx)
    assert ext._engines[0] is not eng0
    ext.invalidate_engines()
    assert ext._engines == {}


def _quarantine_readmit_trace(engine: str):
    """Stall -> quarantine -> backoff -> re-admission, capturing every
    ExecResult.  The revived extension recompiles through the program
    cache; the cached lowering must execute bit-identically."""
    from repro.core.runtime import KFlexRuntime
    from repro.core.supervisor import QuarantinePolicy
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program

    rt = KFlexRuntime(
        engine=engine,
        supervisor_policy=QuarantinePolicy(base_backoff_ns=1_000),
    )
    heap = rt.create_heap(1 << 16, name="readmit")
    m = MacroAsm()
    m.heap_addr(R.R6, 0x40)
    m.ldx(R.R3, R.R6)
    with m.while_("!=", R.R3, 0):  # spins until the watchdog cancels
        m.add(R.R3, 1)
    m.mov(R.R0, 9)
    m.exit()
    prog = Program("readmit", m.assemble(), hook="bench", heap_size=1 << 16)
    ext = rt.load(prog, heap=heap, attach=False, quantum_units=10_000)
    assert heap.reserve_static(64) == 0x40  # the cell the loop reads
    ctx = rt.make_ctx(0, [0] * 8)

    trace = []
    rt.kernel.aspace.write_int(heap.base + 0x40, 1, 8)  # non-zero: stall
    trace.append((ext.invoke(ctx), describe_result(ext.last_result)))
    assert ext.dead  # watchdog stall quarantined it
    rt.kernel.advance_ns(2_000)  # backoff elapses
    rt.kernel.aspace.write_int(heap.base + 0x40, 0, 8)  # heal: loop exits
    trace.append((ext.invoke(ctx), describe_result(ext.last_result)))
    assert not ext.dead
    return (
        trace,
        rt.pipeline.stats.warm_loads,
        rt.supervisor.stats.warm_readmissions,
        dict(ext.stats.cancellations_by_reason),
    )


def test_quarantine_readmission_parity_across_engines():
    """Satellite: a cache-hit recompile after quarantine + re-admission
    produces bit-identical ExecResults under both engines."""
    ti = _quarantine_readmit_trace("interp")
    tt = _quarantine_readmit_trace("threaded")
    assert ti == tt
    trace, warm_loads, warm_readmissions, reasons = ti
    assert trace[1][0] == 9  # the revived run completed
    assert warm_loads >= 1  # revive() was served from the cache
    assert warm_readmissions == 1
    assert reasons == {"watchdog": 1}


# -- injected-fault parity ----------------------------------------------------


def _run_injected_ds(engine: str, fused_blocks=None):
    """Drive a hashmap under a fault plan; capture every observable.
    ``fused_blocks`` (a list) collects each pooled engine's count of
    fused superinstruction blocks."""
    from repro.core.runtime import KFlexRuntime
    from repro.apps.datastructures import ALL_STRUCTURES
    from repro.sim.faults import FaultPlan

    rt = KFlexRuntime(engine=engine)
    rt.watchdog_period = 64
    ds = ALL_STRUCTURES["hashmap"](rt)
    inj = rt.install_injector(FaultPlan(11, {
        "heap_page": 0.01,
        "sfi_guard": 0.01,
        "helper_fail": 0.03,
        "alloc_fail": 0.05,
    }))
    rng = random.Random(4)
    trace = []
    for _ in range(250):
        k = rng.randrange(48)
        op = rng.choice(("update", "lookup", "delete"))
        if op == "update":
            ret = ds.update(k, rng.randrange(1 << 30))
        else:
            ret = getattr(ds, op)(k)
        # The bit-identical surface: the op's full ExecResult, not just
        # its return value — fault sites and register files included.
        trace.append((op, k, ret, describe_result(ds.exts[op].last_result)))
    if fused_blocks is not None:
        fused_blocks += [
            tp.engine.fused_blocks
            for ext in ds.exts.values() for tp in ext._engines.values()
        ]
    return trace, list(inj.log), dict(inj.fires)


def test_injected_fault_parity_on_datastructure_runtime():
    """Same fault plan + same workload => bit-identical ExecResults,
    identical injector fire schedules, under both engines."""
    ti = _run_injected_ds("interp")
    tt = _run_injected_ds("threaded")
    assert ti == tt
    assert sum(ti[2].values()) > 0  # the plan actually fired


def _run_injected_helpers(engine: str):
    """Helper-layer injection parity on a lock-holding extension: the
    unwinder must release the lock from the same fault state."""
    from repro.core.runtime import KFlexRuntime
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program
    from repro.ebpf.helpers import KFLEX_SPIN_LOCK, KFLEX_SPIN_UNLOCK
    from repro.sim.faults import FaultPlan

    rt = KFlexRuntime(engine=engine)
    heap = rt.create_heap(1 << 16, name="eq")
    m = MacroAsm()
    m.heap_addr(R.R6, 0x40)
    m.call_helper(KFLEX_SPIN_LOCK, R.R6)
    m.call_helper(KFLEX_SPIN_UNLOCK, R.R6)
    m.mov(R.R0, 3)
    m.exit()
    prog = Program("eq", m.assemble(), hook="bench", heap_size=1 << 16)
    ext = rt.load(prog, heap=heap, attach=False)
    inj = rt.install_injector(FaultPlan(2, {"helper_fail": 0.25}))
    ctx = rt.make_ctx(0, [0] * 8)
    trace = []
    for _ in range(60):
        ret = ext.invoke(ctx)
        trace.append((ret, describe_result(ext.last_result),
                      ext.locks.owner(0x40)))
        ext.dead = False  # keep probing past quarantines
    return trace, list(inj.log)


def test_injected_helper_fault_parity_releases_locks():
    ti = _run_injected_helpers("interp")
    tt = _run_injected_helpers("threaded")
    assert ti == tt
    assert any(r[1][5] is not None for r in ti[0])  # some run faulted
    assert all(r[2] == 0 for r in ti[0])  # lock never left held


# -- engine selection ---------------------------------------------------------


def test_engine_registry_and_scope():
    assert set(ENGINES) == {"interp", "threaded"}
    prev = default_engine()
    with engine_scope("interp"):
        assert default_engine() == "interp"
    assert default_engine() == prev
    with pytest.raises(LoadError):
        set_default_engine("nonesuch")


def test_runtime_engine_selector():
    from repro.core.runtime import KFlexRuntime

    assert KFlexRuntime().engine == default_engine()
    assert KFlexRuntime(engine="interp").engine == "interp"
    with engine_scope("interp"):
        assert KFlexRuntime().engine == "interp"


# -- verification-service parity ----------------------------------------------
#
# The verifier is an oracle too: the parallel worker pool and the
# differential replay path must reproduce the single-threaded
# ``Verifier.verify()`` analysis bit-for-bit — object tables included,
# since those drive exception-cleanup at runtime.


def _verify_corpus():
    """(program, config, heap_size) triples: the Fig. 5 data-structure
    extensions (real malloc/lock/unbounded-walk bytecode) plus the
    multi-region chaos programs."""
    from repro.core.runtime import KFlexRuntime
    from repro.apps.datastructures import ALL_STRUCTURES
    from repro.ebpf.verifier import VerifierConfig
    from repro.sim.chaos import _verify_chaos_program

    rt = KFlexRuntime()
    corpus = []
    for name in ("hashmap", "linkedlist"):
        ds = ALL_STRUCTURES[name](rt)
        for ext in ds.exts.values():
            corpus.append((ext.program, ext.load_config, ext.heap.size))
    for v in range(6):
        corpus.append((_verify_chaos_program(v), VerifierConfig(), None))
    return corpus


@pytest.mark.verify_svc
def test_verify_service_object_table_parity():
    from repro.ebpf.verifier import Verifier
    from repro.verify import VerificationService, VerifyJob

    corpus = _verify_corpus()
    refs = [Verifier(p, c, heap_size=h).verify() for p, c, h in corpus]

    pool = VerificationService(workers=2, poll_s=0.02)
    try:
        outs = pool.submit_batch(
            [VerifyJob(p, c, h) for p, c, h in corpus]
        )
        # Resubmit: the differential path replays memoised regions and
        # must still merge to the identical analysis.
        outs2 = pool.submit_batch(
            [VerifyJob(p, c, h) for p, c, h in corpus]
        )
    finally:
        pool.close()
    for (prog, _c, _h), ref, out, out2 in zip(corpus, refs, outs, outs2):
        assert out.ok and out2.ok, (prog.name, out.error, out2.error)
        assert out.analysis == ref, prog.name
        assert out2.analysis == ref, prog.name
        assert out.analysis.object_tables == ref.object_tables, prog.name
    assert sum(o.regions_reused for o in outs2) > 0
