"""SFI schemes, SMAP semantics, MPK striping, scoped cancellations.

Covers §4.2 (performance-mode SMAP traps), §4.5 (KFlex SFI vs the
upstream eBPF arena's 4 GB-bounded scheme), §6 (heap-domain striping)
and §4.3's future-work per-CPU cancellation scope.
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import KernelPanic, LoadError, PageFault
from repro.core.runtime import KFlexRuntime
from repro.core.sfi import (
    ARENA32_SFI,
    KFLEX_SFI,
    StripedHeapArena,
    guard_arena_overhead,
    striped_arena_overhead,
)
from repro.ebpf.isa import Reg
from repro.ebpf.macroasm import MacroAsm
from repro.ebpf.program import Program

R0, R1, R2, R3, R6, R7 = Reg.R0, Reg.R1, Reg.R2, Reg.R3, Reg.R6, Reg.R7

HEAP = 1 << 16


# -- scheme math -----------------------------------------------------------------


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=12, max_value=32))
def test_kflex_sanitize_always_in_heap(addr, size_bits):
    size = 1 << size_bits
    base = 0xFFFF_C900_0000_0000 & ~(size - 1)
    s = KFLEX_SFI.sanitize(base, size, addr)
    assert base <= s < base + size


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_kflex_sanitize_identity_inside(addr):
    size = 1 << 20
    base = (0xFFFF_C900_0000_0000 // size) * size
    inside = base + (addr % size)
    assert KFLEX_SFI.sanitize(base, size, inside) == inside


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_arena32_sanitize_in_heap(addr):
    size = 1 << 20
    base = (0xFFFF_C900_0000_0000 // size) * size
    s = ARENA32_SFI.sanitize(base, size, addr)
    assert base <= s < base + size


def test_arena32_rejects_heaps_over_4gb():
    with pytest.raises(LoadError):
        ARENA32_SFI.check_heap_size(1 << 33)
    ARENA32_SFI.check_heap_size(1 << 32)  # exactly 4 GB is fine
    KFLEX_SFI.check_heap_size(1 << 44)  # KFlex has no such limit (§4.5)


def test_runtime_enforces_scheme_limit():
    rt = KFlexRuntime()
    with pytest.raises(LoadError):
        rt.create_heap(1 << 33, name="big", sfi=ARENA32_SFI)
    heap = rt.create_heap(1 << 16, name="ok", sfi=ARENA32_SFI)
    assert heap.sanitize(0xDEAD_BEEF_0001_2345) >= heap.base


# -- performance mode + SMAP (§4.2) -----------------------------------------------


def _unguarded_read_prog():
    """Loads a pointer from the heap and dereferences it: in perf mode
    the read guard is skipped, so the pointer value is used raw."""
    m = MacroAsm()
    m.heap_addr(R6, 0x40)
    m.ldx(R7, R6, 0, 8)   # attacker-controlled cell
    m.ldx(R0, R7, 0, 8)   # unguarded in perf mode
    m.exit()
    return Program("pm", m.assemble(), hook="bench", heap_size=HEAP)


def test_perf_mode_read_of_user_address_traps():
    """A malicious application plants a user-space pointer; SMAP makes
    the unguarded read trap, cancelling the extension — confidentiality
    is lost in perf mode, safety is not (§4.2)."""
    rt = KFlexRuntime()
    ext = rt.load(_unguarded_read_prog(), attach=False, perf_mode=True)
    ext.heap.reserve_static(64)
    # Application writes a user-space address into the shared cell.
    rt.kernel.aspace.write_int(ext.heap.base + 0x40, 0x4000_0000_1000, 8)
    ret = ext.invoke(rt.make_ctx(0, [0] * 8))
    assert ret == 0  # default after cancellation
    assert ext.stats.cancellations == 1


def test_perf_mode_kernel_reads_not_sanitised():
    """The confidentiality trade-off: perf mode lets reads reach kernel
    memory (here: a socket-table address) instead of masking them."""
    rt = KFlexRuntime()
    secret_addr = 0xFFFF_8880_0000_0040
    rt.kernel.aspace.write_int(secret_addr, 0x5EC3E7, 8)

    ext_pm = rt.load(_unguarded_read_prog(), attach=False, perf_mode=True)
    ext_pm.heap.reserve_static(64)
    rt.kernel.aspace.write_int(ext_pm.heap.base + 0x40, secret_addr, 8)
    leaked = ext_pm.invoke(rt.make_ctx(0, [0] * 8))
    assert leaked == 0x5EC3E7  # perf mode read kernel memory

    ext = rt.load(_unguarded_read_prog(), attach=False, perf_mode=False)
    ext.heap.reserve_static(64)
    rt.kernel.aspace.write_int(ext.heap.base + 0x40, secret_addr, 8)
    confined = ext.invoke(rt.make_ctx(0, [0] * 8))
    assert confined != 0x5EC3E7  # full SFI masked the read into the heap


def test_normal_mode_writes_always_guarded_even_in_perf_mode():
    rt = KFlexRuntime()
    m = MacroAsm()
    m.heap_addr(R6, 0x40)
    m.ldx(R7, R6, 0, 8)
    m.stx(R7, R6, 0, 8)  # write through untrusted pointer
    m.mov(R0, 0)
    m.exit()
    prog = Program("pmw", m.assemble(), hook="bench", heap_size=HEAP)
    ext = rt.load(prog, attach=False, perf_mode=True)
    an = ext.iprog.analysis
    stores = [a for a in an.accesses.values() if a.kind == "store"]
    assert stores and all(a.guard for a in stores)


# -- MPK heap-domain striping (§6) ---------------------------------------------------


def test_striping_eliminates_fragmentation():
    guard = guard_arena_overhead(8, 1 << 24)
    striped = striped_arena_overhead(8, 1 << 24)
    assert guard > 0.0
    assert striped == 0.0


def test_striped_heaps_are_dense_and_keyed():
    arena = StripedHeapArena()
    a, ka = arena.alloc(1 << 16)
    b, kb = arena.alloc(1 << 16)
    assert b.base == a.base + (1 << 16)  # back-to-back, no guard gap
    assert ka != kb


def test_pkey_blocks_cross_heap_access():
    """Without guard pages, a 16-bit offset from a sanitised pointer can
    land in the neighbouring heap; the protection key stops it."""
    rt = KFlexRuntime()
    arena = StripedHeapArena()
    h1 = rt.create_heap(1 << 16, name="s1", striped_arena=arena)
    h2 = rt.create_heap(1 << 16, name="s2", striped_arena=arena)
    assert h2.base == h1.base + h1.size
    h2.populate(h2.base, 64)
    # An extension on h1 reads past its end into h2.
    m = MacroAsm()
    m.heap_addr(R6, (1 << 16) - 8)
    m.ldx(R0, R6, 16, 8)  # 8 bytes into h2 (within the 16-bit offset window)
    m.exit()
    prog = Program("cross", m.assemble(), hook="bench", heap_size=1 << 16)
    ext = rt.load(prog, heap=h1, attach=False)
    ret = ext.invoke(rt.make_ctx(0, [0] * 8))
    assert ext.stats.cancellations == 1  # pkey fault -> cancelled
    rec = ext.cancellation.history[-1]
    assert rec.reason == "page_fault"


def test_striped_heap_own_access_works():
    rt = KFlexRuntime()
    arena = StripedHeapArena()
    heap = rt.create_heap(1 << 16, name="solo", striped_arena=arena)
    heap.reserve_static(64)
    m = MacroAsm()
    m.heap_addr(R6, 0x40)
    m.st_imm(R6, 0, 77, 8)
    m.ldx(R0, R6, 0, 8)
    m.exit()
    prog = Program("own", m.assemble(), hook="bench", heap_size=1 << 16)
    ext = rt.load(prog, heap=heap, attach=False)
    assert ext.invoke(rt.make_ctx(0, [0] * 8)) == 77


def test_kernel_panic_does_not_leave_pkru_loaded():
    """A KernelPanic out of the engine (here: the store-to-kernel-region
    check) must still clear the extension's protection key, on both the
    single and the batched invocation path."""
    rt = KFlexRuntime()
    arena = StripedHeapArena()
    heap = rt.create_heap(1 << 16, name="solo", striped_arena=arena)
    heap.reserve_static(64)
    m = MacroAsm()
    m.heap_addr(R6, 0x40)
    m.st_imm(R6, 0, 77, 8)
    m.mov(R0, 0)
    m.exit()
    prog = Program("own", m.assemble(), hook="bench", heap_size=1 << 16)
    ext = rt.load(prog, heap=heap, attach=False)
    ctx = rt.make_ctx(0, [0] * 8)
    assert ext.invoke(ctx) == 0
    # Pretend the verifier sanctioned stack stores only: the heap store
    # now models kernel-memory corruption.
    ext._env(0).allowed_store_regions = ("stack:",)
    aspace = rt.kernel.aspace
    for run in (ext.invoke, ext.batch_invoker()):
        with pytest.raises(KernelPanic):
            run(ctx)
        assert aspace.active_pkeys is None
        # Whoever touches the address space next is not fenced by the
        # dead invocation's key.
        assert aspace.read_int(heap.base + 0x40, 8) == 77


# -- scoped cancellations (§4.3 future work) -------------------------------------------


def _spinner():
    m = MacroAsm()
    m.mov(R6, 1)
    with m.while_("!=", R6, 0):
        m.add(R6, 1)
    m.mov(R0, 0)
    m.exit()
    return Program("spin", m.assemble(), hook="bench", heap_size=HEAP)


def test_global_scope_unloads(rt=None):
    rt = KFlexRuntime()
    ext = rt.load(_spinner(), attach=False, quantum_units=10_000)
    ext.invoke(rt.make_ctx(0, [0] * 8))
    assert ext.dead


def test_cpu_scope_keeps_extension_loaded():
    rt = KFlexRuntime()
    ext = rt.load(
        _spinner(), attach=False, quantum_units=10_000, cancel_scope="cpu"
    )
    ext.invoke(rt.make_ctx(0, [0] * 8))
    assert not ext.dead
    # And it can be cancelled again on the next invocation.
    ext.invoke(rt.make_ctx(0, [0] * 8))
    assert ext.stats.cancellations == 2


def test_bad_cancel_scope_rejected():
    rt = KFlexRuntime()
    with pytest.raises(LoadError):
        rt.load(_spinner(), attach=False, cancel_scope="nonsense")
