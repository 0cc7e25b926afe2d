"""File-backed crash recovery (``-m recovery``): real fsync + rename.

The tier-1 suite proves the WAL/snapshot logic over ``MemStorage``;
these tests run the same machinery through :class:`DirStorage` — real
files, real ``os.replace`` commits — plus the runtime-level
``KFlexRuntime.recover``: pins rebuilt, programs reloaded through the
compilation pipeline, hooks re-attached, quiescence audited.
"""

import os

import pytest

from repro.apps.memcached import protocol as P
from repro.apps.memcached.durable_ext import build_durable_memcached_program
from repro.core.runtime import KFlexRuntime
from repro.ebpf.maps import HashMap
from repro.ebpf.program import XDP_TX
from repro.errors import StateError
from repro.kernel.machine import Kernel
from repro.state import DirStorage, DurableStore
from repro.state.snapshot import snapshot_name

PIN = "memcached/cache"

pytestmark = pytest.mark.recovery


def _fresh_map(k, max_entries=64):
    return HashMap(
        k.aspace, k.vmalloc,
        key_size=8, value_size=16, max_entries=max_entries,
    )


def test_dirstorage_survives_reopen_bit_identical(tmp_path):
    store = DurableStore(tmp_path / "state", snapshot_every=8)
    k = Kernel()
    m = _fresh_map(k)
    store.attach(PIN, m)
    shadow = {}
    for i in range(50):
        key = (i % 20).to_bytes(8, "little")
        value = os.urandom(16)
        assert m.update(key, value) == 0
        shadow[key] = value
    # Process death: nothing carries over but the directory.
    del store, m, k
    store2 = DurableStore(tmp_path / "state", snapshot_every=8)
    assert store2.pins() == [PIN]
    k2 = Kernel()
    m2, rec = store2.recover_map(PIN, k2.aspace, k2.vmalloc)
    assert rec.recovered_seq == 50
    assert rec.snapshot_seq == 48  # snapshot_every=8 compaction ran
    assert rec.replayed == 2
    assert dict(m2.entries()) == shadow
    # Attaching over existing durable state must refuse (recover instead).
    with pytest.raises(StateError):
        store2.attach(PIN, _fresh_map(Kernel()))


def test_torn_wal_file_recovers_clean_prefix(tmp_path):
    store = DurableStore(tmp_path / "state")  # no snapshots: pure WAL
    k = Kernel()
    m = _fresh_map(k)
    store.attach(PIN, m)
    shadow = {}
    for i in range(10):
        key = i.to_bytes(8, "little")
        value = bytes([i]) * 16
        m.update(key, value)
        shadow[key] = value
    wal_file = tmp_path / "state" / PIN / "wal"
    size = wal_file.stat().st_size
    # Tear the file mid-record, as a half-completed write would.
    with open(wal_file, "r+b") as f:
        f.truncate(size - 7)
    store2 = DurableStore(tmp_path / "state")
    m2, rec = store2.recover_map(PIN, Kernel().aspace, Kernel().vmalloc)
    assert rec.torn is not None
    assert rec.recovered_seq == 9  # record 10 lost to the tear
    shadow.pop((9).to_bytes(8, "little"))
    assert dict(m2.entries()) == shadow
    # The torn suffix was truncated away: a second recovery is clean.
    m3, rec2 = store2.recover_map(PIN, Kernel().aspace, Kernel().vmalloc)
    assert rec2.torn is None and rec2.recovered_seq == 9
    assert dict(m3.entries()) == shadow


def test_corrupt_snapshot_falls_back_and_replays(tmp_path):
    store = DurableStore(tmp_path / "state", snapshot_every=4)
    k = Kernel()
    m = _fresh_map(k)
    store.attach(PIN, m)
    shadow = {}
    for i in range(6):  # snapshot at seq 4, WAL carries 5..6
        key = i.to_bytes(8, "little")
        value = bytes([0x40 + i]) * 16
        m.update(key, value)
        shadow[key] = value
    snap = tmp_path / "state" / snapshot_name(PIN, 4)
    assert snap.exists()
    blob = bytearray(snap.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    snap.write_bytes(bytes(blob))
    store2 = DurableStore(tmp_path / "state", snapshot_every=4)
    m2, rec = store2.recover_map(PIN, Kernel().aspace, Kernel().vmalloc)
    # The corrupt snapshot is discarded; with no older one, recovery
    # replays the surviving WAL over the pristine meta — but snapshot
    # compaction truncated records <= 4, so only 5..6 survive.  The
    # durable invariant still holds for them; the snapshot bytes lost
    # to corruption are gone, which is why the WAL is only reset
    # *after* the snapshot commit, making this window one compaction
    # wide rather than the whole history.
    assert rec.snapshots_discarded == 1
    assert rec.snapshot_seq == 0
    assert rec.recovered_seq == 6
    expected = {
        k_: v for k_, v in shadow.items()
        if int.from_bytes(k_, "little") >= 4
    }
    assert dict(m2.entries()) == expected


def test_runtime_recover_reloads_program_and_audits(tmp_path):
    store = DurableStore(tmp_path / "state")
    rt = KFlexRuntime(Kernel())
    cache = HashMap(
        rt.kernel.aspace, rt.kernel.vmalloc,
        key_size=P.KEY_SIZE, value_size=P.VAL_SIZE, max_entries=64,
    )
    rt.pin_map(PIN, cache, store)
    ext = rt.load(build_durable_memcached_program(cache), mode="ebpf")
    # Serve a few SETs through the real XDP invoke path.
    for i in range(8):
        pkt = P.encode_set(i, i * 11)
        assert ext.invoke(ext.xdp_ctx(pkt, 0), cpu=0) == XDP_TX
    assert len(cache) == 8
    ext.unload()
    store.flush()

    # New process: fresh kernel, fresh runtime, recover from disk.
    store2 = DurableStore(tmp_path / "state")
    rt2 = KFlexRuntime(Kernel())

    def factory(runtime, m):
        return runtime.load(build_durable_memcached_program(m), mode="ebpf")

    report = rt2.recover(store2, programs={PIN: factory})
    assert report.clean
    assert report.programs_reloaded == ["durable-memcached"]
    assert report.quiescence["sweep_ok"]
    assert report.pins[0].recovered_seq == 8
    # The re-attached program answers GETs from the recovered map,
    # bit-identically to what was acknowledged before the death.
    ext2 = rt2.extensions[-1]
    for i in range(8):
        pkt = P.encode_get(i)
        assert ext2.invoke(ext2.xdp_ctx(pkt, 0), cpu=0) == XDP_TX
        reply = rt2.kernel.net.read_packet(0, P.PKT_SIZE)
        hit, value_id = P.decode_reply(reply)
        assert hit and value_id == i * 11


def test_recovery_campaign_file_backed_single_seed(tmp_path):
    """One seeded crash-point fuzz run over DirStorage — the quick
    in-suite version of ``make chaos-recovery``."""
    from repro.sim.chaos import run_recovery_campaign

    report = run_recovery_campaign(
        seed=7, n_ops=400, storage=DirStorage(tmp_path / "fuzz")
    )
    assert report.ok, report.errors
    assert report.deaths > 0  # injected crashes
    assert report.counters["recoveries"] > report.deaths  # + the clean one
