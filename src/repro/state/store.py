"""The durable store: on-disk layout + journaling + crash-consistent
map recovery.

Layout per pin path (storage names are slash-separated)::

    <pin>/meta              map geometry, written once at attach time
    <pin>/wal               append-only mutation log (repro.state.wal)
    <pin>/snap-<seq>        compacting snapshots (repro.state.snapshot)

Write ordering for a snapshot (crash sites marked ``*``)::

    encode entries at WAL seq S
    *snapshot.write*     — nothing durable changed yet
    write_atomic(snap-S)
    *snapshot.commit*    — both old and new snapshots valid; replay
                           skips seq <= S, so double-coverage is inert
    delete older snapshots
    *wal.compact*        — snap-S valid, WAL still holds <= S records
    truncate WAL

Every arrow is crash-safe: recovery picks the newest *valid* snapshot,
replays only WAL records past its sequence, and truncates (never
parses) anything after the first torn or corrupt WAL frame.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import StateError
from repro.state.recovery import PinRecovery
from repro.state.snapshot import (
    SnapshotCorrupt,
    decode_snapshot,
    encode_snapshot,
    snapshot_name,
    snapshot_seq,
)
from repro.state.storage import DirStorage, MemStorage
from repro.state.wal import OP_DELETE, OP_UPDATE, MapWal, scan_wal


class MapJournal:
    """Installed as ``map.journal`` by :meth:`DurableStore.attach`.

    Receives canonical post-mutation bytes from the map and feeds the
    WAL; optionally triggers a compacting snapshot every N records.
    """

    def __init__(self, store: "DurableStore", path: str, m, wal: MapWal):
        self.store = store
        self.path = path
        self.map = m
        self.wal = wal
        self._since_snapshot = 0

    def record_update(self, key: bytes, value: bytes) -> None:
        self.wal.append(OP_UPDATE, key, value)
        self._stage_shipment()
        self._maybe_snapshot()

    def record_delete(self, key: bytes) -> None:
        self.wal.append(OP_DELETE, key)
        self._stage_shipment()
        self._maybe_snapshot()

    def _stage_shipment(self) -> None:
        # Stage-only on the journal hook: the actual ship + quorum wait
        # happens in QuorumShipper.commit(), which the serving layer
        # calls after the extension returns and before the client's
        # reply goes out.  Keeping the network out of the map mutation
        # keeps the engine invocation path single-node-fast.
        shipper = self.store.shipper
        if shipper is not None:
            shipper.stage(self.path, self.wal.seq, self.wal.last_blob)

    def _maybe_snapshot(self) -> None:
        self._since_snapshot += 1
        every = self.store.snapshot_every
        if every is not None and self._since_snapshot >= every:
            self.store.snapshot(self.path)

    def detach(self) -> None:
        if self.map.journal is self:
            self.map.journal = None


class DurableStore:
    """One durable-state root: many pinned maps, one storage backend.

    ``sync_every=1`` (the default) flushes the WAL after every mutation
    — an acknowledged write is durable, which is what lets the shard
    failover test promise bit-identical surviving keys.  Larger values
    trade the durability barrier for throughput (benchmarked in
    ``benchmarks/bench_recovery.py``).
    """

    def __init__(self, root=None, *, storage=None, sync_every: int | None = 1,
                 snapshot_every: int | None = None, crash=None, shipper=None):
        if storage is None:
            storage = DirStorage(root) if root is not None else MemStorage()
        elif root is not None:
            raise StateError("pass either root or storage, not both")
        self.storage = storage
        self.sync_every = sync_every
        self.snapshot_every = snapshot_every
        self.crash = crash
        #: Optional :class:`repro.state.replication.QuorumShipper`: every
        #: journaled WAL record is staged for follower shipment, and the
        #: serving layer commits the outbox before acking the client.
        self.shipper = shipper
        self._journals: dict[str, MapJournal] = {}
        if shipper is not None:
            shipper.bind_store(self)

    # -- attach / journal -------------------------------------------------

    def attach(self, path: str, m) -> None:
        """Pin a *fresh* map's state under ``path`` and start journaling.

        Refuses paths that already hold durable state: silently
        shadowing a previous incarnation is how state gets lost, so an
        existing pin must go through :meth:`recover_map` instead.
        """
        if path in self._journals:
            raise StateError(f"map already attached at {path!r}")
        if self._pin_state_names(path):
            raise StateError(
                f"durable state already exists at {path!r}; recover it instead"
            )
        if m.journal is not None:
            raise StateError("map is already journaled by another store")
        self.storage.write_atomic(f"{path}/meta", encode_snapshot(0, m.meta(), []))
        wal = MapWal(
            self.storage, f"{path}/wal", sync_every=self.sync_every, crash=self.crash
        )
        journal = MapJournal(self, path, m, wal)
        m.journal = journal
        self._journals[path] = journal

    def wal(self, path: str) -> MapWal:
        return self._journals[path].wal

    def map(self, path: str):
        return self._journals[path].map

    def pins(self) -> list[str]:
        """Pin paths with durable state (not merely attached in-memory)."""
        out = set()
        for name in self.storage.list():
            if "/" not in name:
                continue
            pin, leaf = name.rsplit("/", 1)
            if leaf in ("meta", "wal") or leaf.startswith("snap-"):
                out.add(pin)
        return sorted(out)

    def attached(self) -> list[str]:
        return sorted(self._journals)

    def _pin_state_names(self, path: str) -> list[str]:
        return [
            n
            for n in self.storage.list(path + "/")
            if n.rsplit("/", 1)[-1] in ("meta", "wal")
            or n.rsplit("/", 1)[-1].startswith("snap-")
        ]

    # -- snapshots --------------------------------------------------------

    def snapshot(self, path: str) -> int:
        """Write a compacting snapshot of the pinned map; returns the
        WAL sequence it covers."""
        try:
            journal = self._journals[path]
        except KeyError:
            raise StateError(f"no map attached at {path!r}") from None
        seq = journal.wal.seq
        blob = encode_snapshot(seq, journal.map.meta(), journal.map.entries())
        if self.crash is not None:
            self.crash.at("snapshot.write")
        self.storage.write_atomic(snapshot_name(path, seq), blob)
        if self.crash is not None:
            self.crash.at("snapshot.commit")
        for name in self.storage.list(path + "/"):
            s = snapshot_seq(name)
            if s is not None and s < seq:
                self.storage.delete(name)
        if self.crash is not None:
            self.crash.at("wal.compact")
        journal.wal.reset(seq)
        journal._since_snapshot = 0
        if self.shipper is not None:
            # Propagate the compaction so follower WALs stay bounded;
            # best-effort (the covered records were already acked).
            self.shipper.ship_snapshot(path, seq, blob)
        return seq

    # -- recovery ---------------------------------------------------------

    def recover_map(self, path: str, aspace, arena):
        """Rebuild the pinned map at ``path`` from durable state only.

        Returns ``(map, PinRecovery)``.  Never raises on torn or
        corrupt crash leftovers — those degrade to an older snapshot /
        shorter WAL prefix; it raises :class:`StateError` only when the
        pin has no usable metadata at all (it never existed).
        """
        from repro.ebpf.maps import build_map

        # Newest valid snapshot wins; corrupt ones are discarded.
        snaps = sorted(
            (
                (snapshot_seq(n), n)
                for n in self.storage.list(path + "/")
                if snapshot_seq(n) is not None
            ),
            reverse=True,
        )
        snap_seq, meta, entries = 0, None, []
        snapshots_discarded = 0
        for seq, name in snaps:
            blob = self.storage.read(name)
            try:
                snap_seq, meta, entries = decode_snapshot(blob)
            except SnapshotCorrupt:
                snapshots_discarded += 1
                self.storage.delete(name)
                continue
            break
        if meta is None:
            blob = self.storage.read(f"{path}/meta")
            if blob is not None:
                try:
                    _, meta, _ = decode_snapshot(blob)
                except SnapshotCorrupt:
                    meta = None
            if meta is None:
                raise StateError(f"no usable metadata for pin {path!r}")

        m = build_map(aspace, arena, meta)
        m.load_entries(entries)

        wal_name = f"{path}/wal"
        blob = self.storage.read(wal_name) or b""
        records, good_len, torn = scan_wal(blob)
        discarded_bytes = len(blob) - good_len
        if discarded_bytes:
            self.storage.truncate(wal_name, good_len)

        replayed = stale_skipped = 0
        last_seq = snap_seq
        for rec in records:
            if self.crash is not None:
                self.crash.at("recovery.replay")
            if rec.seq <= snap_seq:
                stale_skipped += 1
                continue
            if rec.op == OP_UPDATE:
                m.load_entries([(rec.key, rec.value)])
            elif rec.op == OP_DELETE:
                m.delete(rec.key)
            replayed += 1
            last_seq = rec.seq

        wal = MapWal(
            self.storage,
            wal_name,
            sync_every=self.sync_every,
            start_seq=max(last_seq, snap_seq),
            crash=self.crash,
        )
        journal = MapJournal(self, path, m, wal)
        m.journal = journal
        self._journals[path] = journal
        report = PinRecovery(
            path=path,
            snapshot_seq=snap_seq,
            recovered_seq=wal.seq,
            replayed=replayed,
            stale_skipped=stale_skipped,
            discarded_bytes=discarded_bytes,
            torn=torn,
            snapshots_discarded=snapshots_discarded,
            entries=len(m) if hasattr(m, "__len__") else m.max_entries,
        )
        return m, report

    # -- lifecycle --------------------------------------------------------

    def flush(self) -> None:
        for journal in self._journals.values():
            journal.wal.flush()

    @contextmanager
    def commit_group(self):
        """Scope of one commit group: every WAL append inside it defers
        the ``sync_every`` check to the scope's exit, so the group's
        records cross the flush (fsync-analog) once, together.  The
        caller acknowledges nothing of the group before the scope has
        exited.  An exception (an injected crash) leaves the pending
        bytes unflushed, as the process dying mid-group would."""
        wals = [journal.wal for journal in self._journals.values()]
        for wal in wals:
            wal.grouped = True
        try:
            yield
        finally:
            for wal in wals:
                wal.grouped = False
        for wal in wals:
            wal.sync()

    def crash_volatile(self) -> None:
        """Model process death: pending bytes vanish, journals detach.

        The storage object survives (it *is* the disk); a new
        DurableStore over the same storage is the restarted process.
        """
        self.storage.crash()
        for journal in self._journals.values():
            journal.detach()
        self._journals.clear()

    def close(self) -> None:
        self.flush()
        for journal in self._journals.values():
            journal.detach()
        self._journals.clear()
