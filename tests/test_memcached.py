"""Memcached systems (§5.1, §5.3): KFlex offload, BMC, user space, GC."""

import pytest

from repro.core.runtime import KFlexRuntime
from repro.apps.memcached import protocol as P
from repro.apps.memcached.bmc import BmcCache
from repro.apps.memcached.gc_codesign import GarbageCollectedMemcached
from repro.apps.memcached.kflex_ext import KFlexMemcached
from repro.apps.memcached.userspace import UserspaceMemcached
from repro.ebpf.program import XDP_PASS, XDP_TX
from repro.errors import KernelPanic


@pytest.fixture
def rt():
    return KFlexRuntime()


# -- protocol ---------------------------------------------------------------


def test_protocol_roundtrip():
    pkt = P.encode_set(7, 77)
    assert len(pkt) == P.PKT_SIZE
    assert pkt[0] == P.OP_SET
    assert P.key_bytes(7) == pkt[P.KEY_OFF : P.KEY_OFF + 32]
    with pytest.raises(ValueError):
        P.decode_reply(pkt)  # not a reply yet


def test_keys_differ_beyond_first_qword():
    assert P.key_bytes(1) != P.key_bytes(2)
    assert P.key_bytes(1)[8:] == P.key_bytes(2)[8:]  # shared salt


# -- KFlex-Memcached -----------------------------------------------------------


def test_kflex_get_set_semantics(rt):
    mc = KFlexMemcached(rt)
    assert mc.get(5) == (False, None)
    assert mc.set(5, 55)
    assert mc.get(5) == (True, 55)
    assert mc.set(5, 66)
    assert mc.get(5) == (True, 66)


def test_kflex_agrees_with_userspace(rt):
    mc = KFlexMemcached(rt)
    us = UserspaceMemcached()
    import random

    rnd = random.Random(8)
    for i in range(300):
        k = rnd.randint(0, 60)
        if rnd.random() < 0.5:
            v = rnd.randint(0, 1 << 40)
            assert mc.set(k, v) == us.set(k, v)
        else:
            assert mc.get(k) == us.get(k), (i, k)


def test_kflex_verdicts(rt):
    mc = KFlexMemcached(rt)
    mc.set(1, 2)
    assert mc.last_verdict == XDP_TX
    mc.get(1)
    assert mc.last_verdict == XDP_TX  # replies from XDP, never user space


def test_short_packet_passes_to_stack(rt):
    mc = KFlexMemcached(rt)
    ctx = mc.ext.xdp_ctx(b"\x00" * 8)
    assert mc.ext.invoke(ctx) == XDP_PASS


def test_kflex_set_allocates_get_does_not(rt):
    mc = KFlexMemcached(rt)
    base = mc.ext.allocator.stats.allocs
    mc.set(1, 1)
    assert mc.ext.allocator.stats.allocs == base + 1
    mc.get(1)
    mc.set(1, 2)  # in-place update
    assert mc.ext.allocator.stats.allocs == base + 1


def test_locked_variant_releases_lock_every_request(rt):
    mc = KFlexMemcached(rt, use_locks=True)
    for i in range(20):
        mc.set(i, i)
        mc.get(i)
    st = mc.ext.locks.stats
    assert st.acquisitions == st.unlocks == 40


# -- BMC ------------------------------------------------------------------------


def test_bmc_is_verified_in_ebpf_mode(rt):
    bmc = BmcCache(rt)
    assert bmc.ext.heap is None  # no KFlex heap: pure eBPF
    assert bmc.ext.iprog.stats.guards_emitted == 0
    assert bmc.ext.iprog.stats.cancel_points == 0


def test_bmc_lookaside_flow(rt):
    bmc = BmcCache(rt)
    us = UserspaceMemcached()
    us.set(3, 33)
    # Cold: miss -> user space -> fill.
    assert bmc.probe(P.encode_get(3)) == XDP_PASS
    hit, val = us.get(3)
    bmc.fill_from_response(3, val)
    # Warm: answered at XDP.
    assert bmc.probe(P.encode_get(3)) == XDP_TX
    assert P.decode_reply(bmc.read_reply()) == (True, 33)


def test_bmc_read_reply_before_any_packet_panics(rt):
    """No packet staged on that CPU yet: a KernelPanic that says so,
    not a bare KeyError out of the slot table."""
    bmc = BmcCache(rt)
    with pytest.raises(KernelPanic, match="no packet staged on cpu 0"):
        bmc.read_reply()
    bmc.probe(P.encode_get(3))
    assert len(bmc.read_reply()) == P.PKT_SIZE
    with pytest.raises(KernelPanic, match="no packet staged on cpu 1"):
        bmc.read_reply(cpu=1)


def test_bmc_set_invalidates(rt):
    bmc = BmcCache(rt)
    bmc.fill_from_response(4, 44)
    assert bmc.probe(P.encode_get(4)) == XDP_TX
    assert bmc.probe(P.encode_set(4, 45)) == XDP_PASS
    assert bmc.probe(P.encode_get(4)) == XDP_PASS  # stale entry gone


def test_bmc_capacity_bounds_cache(rt):
    bmc = BmcCache(rt, capacity=4)
    for k in range(4):
        assert bmc.fill_from_response(k, k)
    assert not bmc.fill_from_response(99, 99)  # preallocated map full
    assert bmc.probe(P.encode_set(0, 0)) == XDP_PASS  # invalidation frees
    assert bmc.fill_from_response(99, 99)


# -- GC co-design (§5.3) -----------------------------------------------------------


def test_gc_evicts_through_shared_pointers(rt):
    gcm = GarbageCollectedMemcached(rt)
    for k in range(120):
        gcm.set(k, k)
    live = gcm.allocator.live_objects()
    evicted = gcm.run_gc(expire_below=60)
    assert evicted == 60
    assert gcm.allocator.live_objects() == live - 60
    assert gcm.get(10) == (False, None)
    assert gcm.get(100) == (True, 100)


def test_gc_locks_are_balanced(rt):
    gcm = GarbageCollectedMemcached(rt)
    gcm.set(1, 1)
    gcm.run_gc(expire_below=0)
    assert not gcm.thread.rseq.in_cs
    assert gcm.stats.lock_failures == 0


def test_fast_path_still_works_after_many_gc_cycles(rt):
    gcm = GarbageCollectedMemcached(rt)
    for cycle in range(5):
        base = cycle * 50
        for k in range(base, base + 50):
            assert gcm.set(k, k)
        gcm.run_gc(expire_below=base)
    # Only the last generation survives.
    assert gcm.get(4 * 50 + 10) == (True, 210)
    assert gcm.get(10) == (False, None)


def test_translate_on_store_pointers_are_user_addresses(rt):
    """§3.4: chain pointers stored by the extension must already be
    user-space addresses."""
    gcm = GarbageCollectedMemcached(rt)
    gcm.set(1, 1)
    gcm.set(2, 2)
    heap = gcm.mc.heap
    found_user_ptr = False
    for b in range(gcm.mc.n_buckets):
        head = gcm.view.read(gcm.mc.bucket_cell_user(b), 8)
        if head:
            assert heap.user_base <= head < heap.user_base + heap.size
            found_user_ptr = True
    assert found_user_ptr
