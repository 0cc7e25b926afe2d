"""Replicated durable state: shipping, quorum, fencing, anti-entropy.

Tier-1 coverage for :mod:`repro.state.replication` over deterministic
in-process channels (:class:`LocalChannel`) — the real-socket legs live
in ``tests/test_net_replication.py`` (``-m replication``).  The
contract under test:

* an acknowledged write is durable on the primary *and* on
  ``sync_replicas`` followers, byte-identically (the shipped APPEND body
  is the primary's WAL record verbatim);
* a follower's durable log obeys ``scan_wal`` semantics — torn tails
  and mid-record truncation are detected and truncated on restart, then
  healed by anti-entropy;
* a deposed primary is fenced: late frames from a lower epoch are
  rejected and its shipper refuses to ack anything ever again;
* promotion is just ``DurableStore.recover_map`` over the follower's
  storage, and ``pick_promotee`` chooses the highest verified watermark.
"""

import random

import pytest

from repro.errors import PrimaryFenced, QuorumLost, ReplicationError
from repro.state import DurableStore, MemStorage
from repro.state.replication import (
    MAX_REPL_FRAME,
    MSG_ACK,
    MSG_APPEND,
    MSG_HELLO,
    MSG_WATERMARK,
    ST_BAD,
    ST_FENCED,
    ST_GAP,
    ST_OK,
    LocalChannel,
    QuorumShipper,
    ReplicaSession,
    bump_epoch,
    decode_frame,
    encode_frame,
    pick_promotee,
    read_epoch,
)
from repro.errors import SimulatedCrash
from repro.state.wal import OP_UPDATE, encode_record, scan_wal

PIN = "repl/map"


def _kv(i):
    return i.to_bytes(8, "little"), (i * 2654435761 % (1 << 128)).to_bytes(
        16, "little"
    )


def _cluster(n_followers=2, sync_replicas=1, channel=None, **store_kw):
    """Primary DurableStore + shipper over N in-process followers."""
    from repro.ebpf.maps import HashMap
    from repro.kernel.machine import Kernel

    sessions = {
        f"n{i}": ReplicaSession(MemStorage(), node_id=f"n{i}")
        for i in range(n_followers)
    }
    channels = [(channel or LocalChannel)(nid, s)
                for nid, s in sessions.items()]
    shipper = QuorumShipper(
        channels, sync_replicas=sync_replicas, epoch=1, maintenance_every=None
    )
    store = DurableStore(storage=MemStorage(), sync_every=1, shipper=shipper,
                         **store_kw)
    k = Kernel()
    m = HashMap(
        k.aspace, k.vmalloc, key_size=8, value_size=16, max_entries=64
    )
    store.attach(PIN, m)
    return store, m, shipper, sessions, channels


def _ship(m, shipper, lo, hi):
    """Update keys [lo, hi) one commit per mutation (the serving shape)."""
    for i in range(lo, hi):
        key, val = _kv(i)
        m.update(key, val)
        shipper.commit()


# -- frame codec --------------------------------------------------------------


def test_frame_roundtrip_and_corruption():
    frame = encode_frame(MSG_APPEND, epoch=7, seq=42, pin=PIN, body=b"abc")
    fr = decode_frame(frame)
    assert (fr.kind, fr.epoch, fr.seq, fr.pin, fr.body) == (
        MSG_APPEND, 7, 42, PIN, b"abc"
    )
    # Any flipped byte fails the CRC; truncation fails the length checks.
    for i in (0, len(frame) // 2, len(frame) - 1):
        bad = bytearray(frame)
        bad[i] ^= 0xFF
        with pytest.raises(ReplicationError):
            decode_frame(bytes(bad))
    with pytest.raises(ReplicationError):
        decode_frame(frame[: len(frame) - 3])
    ack = encode_frame(MSG_ACK, 1, 5, PIN, bytes([ST_GAP]))
    assert decode_frame(ack).status == ST_GAP


# -- shipping + quorum --------------------------------------------------------


def test_acked_writes_are_durable_on_followers():
    store, m, shipper, sessions, _ = _cluster()
    _ship(m, shipper, 0, 12)
    # The very first record GAPs (fresh follower) and bootstraps via an
    # inline snapshot resync; everything after flows as appends.
    assert shipper.stats.resyncs >= 1
    assert shipper.watermarks(PIN) == {"n0": 12, "n1": 12}
    # Durable, not just cached: a restarted session over the same
    # storage recomputes the same watermark from bytes alone.
    for nid, sess in sessions.items():
        fresh = ReplicaSession(sess.storage, node_id=nid)
        assert fresh.watermark(PIN) == 12
    # And the bytes are the primary's bytes: the follower WAL is a
    # verbatim suffix of the primary's records.
    blob = sessions["n0"].storage.read(f"{PIN}/wal") or b""
    records, _good, torn = scan_wal(blob)
    assert torn is None
    primary_records, _g, _t = scan_wal(store.storage.read(f"{PIN}/wal"))
    by_seq = {r.seq: r for r in primary_records}
    for rec in records:
        assert (rec.op, rec.key, rec.value) == (
            by_seq[rec.seq].op, by_seq[rec.seq].key, by_seq[rec.seq].value
        )


def test_quorum_lost_when_followers_short():
    store, m, shipper, sessions, channels = _cluster(sync_replicas=2)
    _ship(m, shipper, 0, 4)
    # kill -9 one follower: its channel dies on the next send.
    sessions["n1"].crashed = True
    key, val = _kv(4)
    m.update(key, val)
    with pytest.raises(QuorumLost):
        shipper.commit()
    assert shipper.stats.quorum_losses == 1
    assert shipper.stats.follower_downs == 1
    # Restart the follower over the same storage; maintenance reconnects
    # and repairs it, after which quorum writes flow again.
    sess = ReplicaSession(sessions["n1"].storage, node_id="n1")
    sessions["n1"] = sess
    channels[1].restart(sess)
    shipper.maintenance()
    _ship(m, shipper, 5, 8)
    assert shipper.watermarks(PIN)["n1"] == store.wal(PIN).seq


def test_service_drops_reply_on_quorum_loss():
    from repro.apps.memcached import protocol as P
    from repro.net.service import DurableMemcachedService

    sess = ReplicaSession(MemStorage(), node_id="n0")
    ch = LocalChannel("n0", sess)
    shipper = QuorumShipper([ch], sync_replicas=1, maintenance_every=None)
    svc = DurableMemcachedService(
        store=DurableStore(storage=MemStorage(), shipper=shipper), capacity=64
    )
    reply, path = svc._serve_sync(P.encode_set(1, 101), 0)
    assert reply is not None
    assert sess.watermark(svc.pin) == 1
    # Follower dies: the engine's reply must be withheld, not acked.
    sess.crashed = True
    reply, path = svc._serve_sync(P.encode_set(2, 202), 0)
    assert (reply, path) == (None, "drop")
    assert svc.quorum_drops == 1


def test_oversized_record_sheds_at_commit_not_in_journal_hook():
    """A record over the frame budget must not raise out of stage()
    (the map-mutation journal hook, where nothing catches); commit()
    refuses it as a QuorumLost, which the serving layer already sheds."""
    store, m, shipper, sessions, _ = _cluster()
    _ship(m, shipper, 0, 2)
    shipper.stage(PIN, 3, bytes(MAX_REPL_FRAME))  # hook path: no raise
    with pytest.raises(QuorumLost):
        shipper.commit()
    assert shipper.stats.oversized_records == 1
    # The shipper stays healthy: subsequent normal records still ship.
    _ship(m, shipper, 2, 4)
    assert shipper.watermarks(PIN) == {"n0": 4, "n1": 4}


# -- follower log damage (scan_wal semantics on the receiving side) -----------


def test_follower_torn_tail_truncated_and_healed():
    store, m, shipper, sessions, channels = _cluster(n_followers=1)
    _ship(m, shipper, 0, 6)
    storage = sessions["n0"].storage
    blob = storage.read(f"{PIN}/wal")
    # The node dies mid-flush of a new record: a partial frame survives
    # at the tail.  The restarted session truncates it (scan_wal's
    # torn-tail rule) and reports the intact prefix.
    storage.write_atomic(f"{PIN}/wal", blob + b"\x55" * 7)
    fresh = ReplicaSession(storage, node_id="n0")
    assert fresh.watermark(PIN) == 6
    assert storage.read(f"{PIN}/wal") == blob  # damage physically removed
    channels[0].restart(fresh)
    sessions["n0"] = fresh
    _ship(m, shipper, 6, 8)
    assert shipper.watermarks(PIN) == {"n0": 8}


def test_follower_mid_record_truncation_heals_via_wal_tail():
    store, m, shipper, sessions, channels = _cluster(n_followers=1)
    _ship(m, shipper, 0, 6)
    storage = sessions["n0"].storage
    blob = storage.read(f"{PIN}/wal")
    # Cut into the last record's body: the follower lost the tail of
    # its log (crash during a sector write).  Only the contiguous
    # prefix may be trusted.
    storage.write_atomic(f"{PIN}/wal", blob[: len(blob) - 4])
    fresh = ReplicaSession(storage, node_id="n0")
    sessions["n0"] = fresh
    channels[0].restart(fresh)
    assert fresh.watermark(PIN) == 5
    # The next shipped record (seq 7) GAPs at watermark 5; anti-entropy
    # re-ships the missing tail from the primary's WAL — no snapshot
    # needed, the follower holds a verified prefix.
    before = shipper.stats.snapshots_shipped
    _ship(m, shipper, 6, 7)
    assert shipper.watermarks(PIN) == {"n0": 7}
    assert shipper.stats.tail_records >= 1
    assert shipper.stats.snapshots_shipped == before


def test_maintenance_snapshots_idle_laggard_after_compaction():
    """A follower that missed records *and* the compaction's best-effort
    snapshot ship is repaired by maintenance even though the primary's
    WAL is now empty — an empty tail "covers" nothing; only a snapshot
    closes the gap, and no new write should be needed to trigger it."""
    store, m, shipper, sessions, channels = _cluster()
    _ship(m, shipper, 0, 4)
    lagging = channels[1]
    lagging.alive = False           # n1 misses everything from here on
    _ship(m, shipper, 4, 8)
    store.snapshot(PIN)             # compacts the WAL; dead n1 skipped
    assert sessions["n1"].watermark(PIN) == 4
    lagging.reconnect()
    shipper.maintenance()
    assert sessions["n1"].watermark(PIN) == 8
    assert shipper.stats.snapshots_shipped >= 1


# -- commit groups: 1..n records per APPEND ----------------------------------


def _group(store, m, shipper, lo, hi):
    """Update keys [lo, hi) as one commit group (the drained-batch
    shape): one WAL flush at the scope's exit, then one commit."""
    with store.commit_group():
        for i in range(lo, hi):
            m.update(*_kv(i))
    return shipper.commit()


def _durable_wal(storage):
    return storage.read(f"{PIN}/wal") or b""


def _assert_follower_log(store, sess):
    """The follower's *durable* log is the primary's, bit for bit, from
    wherever the follower's snapshot base left off to the last seq."""
    log = _durable_wal(sess.storage)
    assert log and _durable_wal(store.storage).endswith(log)
    assert sess.storage.pending_bytes(f"{PIN}/wal") == 0
    assert ReplicaSession(sess.storage).watermark(PIN) == store.wal(PIN).seq


class _CheckedChannel(LocalChannel):
    """Refuses to carry a record the primary has not made durable:
    anti-entropy reads durable bytes only, so a follower that gaps on
    a group must find the group's records in the primary's WAL."""

    store = None
    appends = 0

    def send(self, frame):
        fr = decode_frame(frame)
        if fr.kind == MSG_APPEND:
            self.appends += 1
            last = scan_wal(fr.body)[0][-1].seq
            assert self.store.wal(PIN).durable_seq >= last, \
                "shipped before the local flush"
        super().send(frame)


def _checked_cluster(**store_kw):
    cluster = _cluster(sync_replicas=2, channel=_CheckedChannel, **store_kw)
    for ch in cluster[-1]:
        ch.store = cluster[0]
    return cluster


def test_group_is_one_flush_one_frame_and_durable_everywhere():
    store, m, shipper, sessions, channels = _checked_cluster()
    _group(store, m, shipper, 0, 1)      # re-bases the fresh followers
    wal = store.wal(PIN)
    flushes, frames = wal.flushes, channels[0].appends
    acks = _group(store, m, shipper, 1, 6)
    assert wal.flushes == flushes + 1 and wal.durable_seq == wal.seq == 6
    assert [ch.appends for ch in channels] == [frames + 1] * 2
    assert acks == shipper.last_acks == {
        seq: ("n0", "n1") for seq in range(2, 7)
    }
    assert shipper.stats.records_shipped == 6
    for sess in sessions.values():
        _assert_follower_log(store, sess)


def test_single_record_group_frame_is_the_per_record_frame():
    store, m, shipper, sessions, channels = _checked_cluster()
    sent = []
    real_send = channels[0].send
    channels[0].send = lambda frame: (sent.append(frame), real_send(frame))
    _group(store, m, shipper, 0, 1)
    _group(store, m, shipper, 1, 2)
    blob = store.wal(PIN).last_blob
    assert sent[-1] == encode_frame(MSG_APPEND, shipper.epoch, 2, PIN, blob)


def test_multi_record_append_follower_cases():
    store, m, shipper, sessions, _ = _cluster(n_followers=1)
    _ship(m, shipper, 0, 4)
    sess = sessions["n0"]
    recs = {q: encode_record(q, OP_UPDATE, *_kv(q)) for q in range(1, 12)}

    def append(seqs, body=None):
        body = b"".join(recs[q] for q in seqs) if body is None else body
        fr = encode_frame(MSG_APPEND, 1, seqs[0] if seqs else 0, PIN, body)
        ack = decode_frame(sess.handle_frame(fr))
        return ack.status, ack.seq

    before = _durable_wal(sess.storage)
    gaps, appends = sess.stats.gaps, sess.stats.appends
    # Whole run at or below the watermark: duplicate, acked as-is.
    assert append([2, 3, 4]) == (ST_OK, 4)
    # First seq past watermark + 1: gap, nothing appended.
    assert append([6, 7]) == (ST_GAP, 4)
    # Seqs not consecutive inside the body, a torn body, an empty one.
    assert append([5, 7]) == (ST_BAD, 4)
    assert append([5, 6], recs[5] + recs[6][:-3]) == (ST_BAD, 4)
    assert append([], b"") == (ST_BAD, 4)
    assert _durable_wal(sess.storage) == before
    assert (sess.stats.dup_appends, sess.stats.gaps) == (1, gaps + 1)
    # A leading duplicate prefix is skipped: only the suffix lands.
    assert append([3, 4, 5, 6]) == (ST_OK, 6)
    assert _durable_wal(sess.storage) == before + recs[5] + recs[6]
    assert sess.stats.appends == appends + 2
    assert ReplicaSession(sess.storage).watermark(PIN) == 6


def test_group_over_the_frame_cap_ships_as_several_frames():
    store, m, shipper, sessions, channels = _checked_cluster()
    _group(store, m, shipper, 0, 1)
    frames = channels[0].appends
    record = len(store.wal(PIN).last_blob)
    n = 2 * (MAX_REPL_FRAME // record)          # > one frame, < three
    with store.commit_group():
        for i in range(n):
            m.update(*_kv(i % 60))
    acks = shipper.commit()
    assert channels[0].appends - frames >= 2
    assert sorted(acks) == list(range(2, n + 2)) == sorted(shipper.last_acks)
    for sess in sessions.values():
        _assert_follower_log(store, sess)


def test_oversize_record_in_the_middle_of_a_group():
    store, m, shipper, sessions, _ = _checked_cluster()
    _group(store, m, shipper, 0, 3)
    with store.commit_group():
        m.update(*_kv(3))
        shipper.stage(PIN, 99, bytes(MAX_REPL_FRAME))   # cannot be framed
        m.update(*_kv(4))
    with pytest.raises(QuorumLost) as lost:
        shipper.commit()
    # The run before it was shipped and acked, nothing at or past it.
    assert lost.value.seq == 99 and shipper.stats.oversized_records == 1
    assert {s.watermark(PIN) for s in sessions.values()} == {4}
    assert not shipper.has_staged()
    # The next group finds the gap and anti-entropy closes it.
    _group(store, m, shipper, 5, 7)
    assert shipper.watermarks(PIN) == {"n0": 7, "n1": 7}


def test_snapshot_inside_a_group_keeps_followers_byte_identical():
    """``snapshot_every=3`` fires on the third record of a group of
    five: the compaction is shipped mid-group and re-bases the
    followers past records the group's frame still carries."""
    store, m, shipper, sessions, _ = _checked_cluster(snapshot_every=3)
    acks = _group(store, m, shipper, 0, 5)
    assert sorted(acks) == [1, 2, 3, 4, 5]
    assert [r.seq for r in scan_wal(_durable_wal(store.storage))[0]] == [4, 5]
    for sess in sessions.values():
        # Re-based to seq 3 mid-group, so of the frame's five records
        # only the last two were appended.
        assert (sess.stats.snapshots_installed, sess.stats.gaps) == (1, 0)
        assert sess.stats.appends == 2 and sess.watermark(PIN) == 5
        for name in store.storage.list(PIN + "/"):
            if not name.endswith("/repl"):
                assert sess.storage.read(name) == store.storage.read(name)


class _TornFlush:
    """Crash hook: the ``nth`` ``replica.flush`` persists only ``keep``
    of its pending bytes."""

    def __init__(self, nth, keep):
        self.nth, self.keep, self.calls = nth, keep, 0

    def at(self, site):
        pass

    def torn(self, site, nbytes):
        if site == "replica.flush":
            self.calls += 1
            if self.calls == self.nth:
                return min(self.keep, nbytes)
        return None


def test_follower_torn_mid_group_truncates_to_a_record_and_resyncs():
    store, m, shipper, sessions, channels = _cluster(n_followers=1)
    _ship(m, shipper, 0, 2)
    sess = sessions["n0"]
    record = len(store.wal(PIN).last_blob)
    # The follower dies flushing a group of four with two and a half
    # records on disk: no ack, so the group is not acknowledged.
    sess.crash = _TornFlush(1, 2 * record + record // 2)
    with pytest.raises(QuorumLost):
        _group(store, m, shipper, 2, 6)
    assert sess.crashed and not channels[0].alive
    fresh = ReplicaSession(sess.storage, node_id="n0")
    assert fresh.watermark(PIN) == 4            # 2 + the two whole records
    assert len(_durable_wal(fresh.storage)) % record == 0
    channels[0].restart(fresh)
    channels[0].reconnect()
    _group(store, m, shipper, 6, 8)             # gaps, resyncs the tail
    _assert_follower_log(store, fresh)


def test_group_crash_before_the_flush_leaves_nothing_pending_acked():
    """An exception inside the scope (the process dying mid-group)
    must not flush: the group was never acknowledged."""
    store, m, shipper, sessions, _ = _checked_cluster()
    _group(store, m, shipper, 0, 2)
    wal = store.wal(PIN)
    with pytest.raises(SimulatedCrash):
        with store.commit_group():
            m.update(*_kv(2))
            raise SimulatedCrash("wal.append")
    assert wal.durable_seq == 2 and not wal.grouped
    assert len(scan_wal(_durable_wal(store.storage))[0]) == 2


# -- epoch fencing ------------------------------------------------------------


def test_deposed_primary_is_fenced():
    store, m, shipper, sessions, channels = _cluster()
    _ship(m, shipper, 0, 5)
    wm_before = {nid: s.watermark(PIN) for nid, s in sessions.items()}
    # A promotion happens elsewhere: the new primary bumps the epoch on
    # every reachable node.
    new_epoch = bump_epoch(
        [store.storage] + [s.storage for s in sessions.values()]
    )
    assert new_epoch == 2
    usurper = QuorumShipper(
        list(channels), sync_replicas=1, epoch=new_epoch,
        maintenance_every=None,
    )
    assert usurper.announce() == 2
    assert all(s.epoch == 2 for s in sessions.values())
    # The deposed primary's late frame is rejected by every follower and
    # its shipper latches fenced: nothing it journals is ever acked.
    key, val = _kv(5)
    m.update(key, val)
    with pytest.raises(PrimaryFenced):
        shipper.commit()
    assert shipper.fenced
    assert sum(s.stats.fenced for s in sessions.values()) >= 1
    for nid, s in sessions.items():
        assert s.storage.read(f"{PIN}/wal") is not None
        fresh = ReplicaSession(s.storage, node_id=nid)
        assert fresh.watermark(PIN) == 0  # dirty until re-based
        assert fresh.epoch == 2
    # Fencing is latched even with no follower round-trip.
    m.update(*_kv(6))
    with pytest.raises(PrimaryFenced):
        shipper.commit()
    # The acked history is untouched by the rejected frames.
    for nid in sessions:
        assert sessions[nid].storage.read(f"{PIN}/wal")
    assert wm_before == {"n0": 5, "n1": 5}


def test_epoch_adoption_dirties_pins_until_snapshot_rebase():
    store, m, shipper, sessions, _ = _cluster(n_followers=1)
    _ship(m, shipper, 0, 4)
    sess = sessions["n0"]
    assert sess.watermark(PIN) == 4
    # A higher-epoch HELLO arrives: the local suffix may diverge from
    # the new history, so the pin stops acking until re-based.
    ack = decode_frame(sess.handle_frame(encode_frame(MSG_HELLO, 9, 0, "")))
    assert ack.status == ST_OK
    assert sess.epoch == 9 and read_epoch(sess.storage) == 9
    assert sess.watermark(PIN) == 0
    gap = decode_frame(
        sess.handle_frame(encode_frame(MSG_APPEND, 9, 5, PIN, b""))
    )
    assert gap.status == ST_GAP
    # A new-epoch shipper's resync re-bases the pin via snapshot.
    ch = LocalChannel("n0", sess)
    shipper9 = QuorumShipper([ch], sync_replicas=1, epoch=9,
                             maintenance_every=None)
    shipper9.bind_store(store)
    assert shipper9.resync(ch, PIN, 0) == store.wal(PIN).seq
    assert sess.watermark(PIN) == store.wal(PIN).seq


# -- anti-entropy -------------------------------------------------------------


def test_snapshot_resync_is_chunked():
    from repro.ebpf.maps import HashMap
    from repro.kernel.machine import Kernel

    store = DurableStore(storage=MemStorage(), sync_every=1)
    k = Kernel()
    m = HashMap(
        k.aspace, k.vmalloc, key_size=8, value_size=128, max_entries=512
    )
    store.attach(PIN, m)
    for i in range(200):
        m.update(i.to_bytes(8, "little"), bytes([i & 0xFF]) * 128)
    sess = ReplicaSession(MemStorage(), node_id="n0")
    ch = LocalChannel("n0", sess)
    shipper = QuorumShipper([ch], sync_replicas=1, maintenance_every=None)
    shipper.bind_store(store)
    assert shipper.resync(ch, PIN, 0) == 200
    # A 200 x 136B image cannot fit one 4 KiB frame: the transfer must
    # have been chunked and reassembled.
    assert shipper.stats.snapshot_chunks > 5
    assert sess.watermark(PIN) == 200
    assert sess.stats.snapshots_installed == 1
    # Promotion equivalence: recovery over the follower's storage
    # rebuilds the primary's map bit-identically.
    store2 = DurableStore(storage=sess.storage)
    k2 = Kernel()
    m2, rec = store2.recover_map(PIN, k2.aspace, k2.vmalloc)
    assert rec.recovered_seq == 200
    assert dict(m2.entries()) == dict(m.entries())


def test_promotion_recovers_acked_writes_bit_identically():
    from repro.kernel.machine import Kernel

    store, m, shipper, sessions, _ = _cluster()
    _ship(m, shipper, 0, 10)
    for sess in sessions.values():
        store2 = DurableStore(storage=sess.storage)
        k2 = Kernel()
        m2, rec = store2.recover_map(PIN, k2.aspace, k2.vmalloc)
        assert rec.recovered_seq == 10
        assert dict(m2.entries()) == dict(m.entries())


def test_pick_promotee_highest_watermark_deterministic_ties():
    assert pick_promotee({}) is None
    assert pick_promotee({"n0": 3, "n1": 9, "n2": 7}) == "n1"
    assert pick_promotee({"n2": 9, "n1": 9, "n0": 3}) == "n1"
    assert pick_promotee({"b": 0, "a": 0}) == "a"


def test_watermark_query_is_read_only():
    store, m, shipper, sessions, _ = _cluster(n_followers=1)
    _ship(m, shipper, 0, 3)
    sess = sessions["n0"]
    # A probe from a *future* epoch must not raise the follower's epoch
    # (promotion queries run before the pick is made).
    ack = decode_frame(
        sess.handle_frame(encode_frame(MSG_WATERMARK, 99, 0, PIN))
    )
    assert ack.status == ST_OK and ack.seq == 3
    assert sess.epoch == 1
    # And a stale-epoch APPEND after a real bump is ST_FENCED.
    sess.handle_frame(encode_frame(MSG_HELLO, 2, 0, ""))
    late = decode_frame(
        sess.handle_frame(encode_frame(MSG_APPEND, 1, 4, PIN, b""))
    )
    assert late.status == ST_FENCED


# -- satellite: backoff jitter + router retry budget --------------------------


def test_restart_backoff_jitter_bounded_and_deterministic():
    from repro.core.supervisor import RestartBackoff

    mk = lambda **kw: RestartBackoff(clock=lambda: 0.0, **kw)
    plain = [mk(jitter=0.0).note_restart(0) for _ in range(1)]
    b1, b2 = mk(jitter=0.25, rng=random.Random(7)), mk(
        jitter=0.25, rng=random.Random(7)
    )
    d1 = [b1.note_restart(0) for _ in range(4)]
    d2 = [b2.note_restart(0) for _ in range(4)]
    assert d1 == d2  # injectable rng -> reproducible delays
    base = mk(jitter=0.0)
    bases = [base.note_restart(0) for _ in range(4)]
    assert plain[0] == bases[0]
    for jittered, exact in zip(d1, bases):
        assert exact <= jittered < exact * 1.25 + 1e-12


def test_router_sheds_after_retry_budget():
    import asyncio

    from repro.net.shard import ConsistentHashRing, ShardRouterService

    class WedgedShard:
        async def handle(self, payload, cpu=0):
            await asyncio.sleep(30)

    class StubFailover:
        def __init__(self, shards):
            self.workers = shards
            self.give_ups = 0
            self.replaces = 0

        def current_epoch(self, sid):
            return 0

        async def replace(self, sid, worker):
            self.replaces += 1  # "replacement" is wedged too

    async def run():
        ring = ConsistentHashRing(1)
        # No failover: one timed-out attempt is shed immediately.
        solo = ShardRouterService(
            [WedgedShard()], ring, lambda p: 0, attempt_timeout=0.05
        )
        assert await solo.handle(b"x") is None
        assert solo.retry_timeouts == 1 and solo.shed_retry_budget == 1
        # With failover: retries burn the shared budget, then give up.
        stub = StubFailover([WedgedShard()])
        router = ShardRouterService(
            stub.workers, ring, lambda p: 0, failover=stub,
            max_failover_retries=10, attempt_timeout=0.1,
            retry_budget_s=0.15,
        )
        assert await router.handle(b"x") is None
        assert router.retries >= 1
        assert router.retry_timeouts >= 2
        assert router.shed_retry_budget == 1
        assert stub.give_ups == 1

    asyncio.run(run())


# -- the chaos campaign is itself deterministic -------------------------------


def test_replication_campaign_small_run_is_deterministic():
    from repro.sim.chaos import run_replication_campaign

    r1 = run_replication_campaign(seed=5, n_ops=200)
    r2 = run_replication_campaign(seed=5, n_ops=200)
    assert r1.ok, r1.errors
    assert r1.deaths > 0 and r1.counters["acked_ops"] > 0
    assert r1.counters["epoch"] > 1 and r1.counters["promotions"] > 0
    # epoch, promotions and every other tally replay with the digest
    assert (r1.digest, r1.deaths, r1.counters) == (
        r2.digest, r2.deaths, r2.counters
    )
