"""WAL shipping, quorum acks, epoch fencing, anti-entropy repair.

The durable store (PR 5) makes an acked write survive *one* node's
death; this module makes it survive the node's disk.  Every WAL record
a primary journals is shipped — already CRC-framed, byte-identical —
to N follower replicas, and the client's ack is released only after a
configurable write quorum (``sync_replicas=k``) of followers confirms
the record durable on their side of the fsync-analog.

The pieces are deliberately sans-I/O: frames are plain ``bytes``, a
follower is a :class:`ReplicaSession` over any storage backend, and
the transport is a :class:`FollowerChannel` — :class:`LocalChannel`
for deterministic in-process chaos, ``repro.net.replica``'s socket
channel for the real TCP datapath.

**Frame protocol** (one replication frame per TCP frame; every frame
carries the shipper's epoch)::

    u8   kind      HELLO / APPEND / SNAPSHOT / WATERMARK / ACK
    u64  epoch     fencing token (see below)
    u64  seq       first record's seq (APPEND), snapshot seq (SNAPSHOT
                   ack), watermark (ACK)
    u16  pin len, pin bytes
    u32  body len, body
    u32  CRC-32 over everything above

APPEND's body is a run of 1..n WAL records with consecutive seqs,
exactly as the primary appended them — one commit group's records per
frame, as many as fit the frame budget — so the follower's log is a
bit-identical prefix of the primary's and ``scan_wal``'s torn-tail
semantics apply unchanged on the receiving side.  The follower appends
and flushes the run once and acks its last seq; a run of one is the
frame a per-record shipper would send, byte for byte.  SNAPSHOT bodies
are chunked (``u32 total, u32 offset, bytes``) so a full map image fits
under the datapath's 4 KiB frame cap.

**Epoch fencing.**  Followers persist the highest epoch they have seen
(``replication/epoch``) and answer any frame from a lower epoch with
``ST_FENCED`` — a deposed primary's late frames are rejected, and its
shipper raises :class:`~repro.errors.PrimaryFenced` so nothing it
journals after the promotion is ever acknowledged.  Adopting a *higher*
epoch marks every pin dirty: the follower's local WAL suffix may
diverge from the new primary's chosen history, so it acknowledges
nothing until a snapshot install under the new epoch re-bases it
(recorded in the per-pin ``<pin>/repl`` marker).  Because a dirty pin
never acks, a follower's reported watermark is always a verified prefix
of the *current* epoch's history — the invariant replica promotion
relies on when it picks the most-caught-up survivor.

**Anti-entropy.**  ``GAP`` acks (missed records, dirty pins, fresh
followers) trigger :meth:`QuorumShipper.resync`: a WAL-tail transfer
when the primary's log still covers the follower's watermark, otherwise
a chunked snapshot + tail — the same snapshot/WAL handoff primitive
``DurableStore`` recovery uses.  :meth:`QuorumShipper.maintenance`
runs the loop proactively: reconnect dead channels, compare watermarks,
repair laggards.  It is invoked every ``maintenance_every`` commits on
the write path (deterministic under chaos) and explicitly after a
promotion.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque
from dataclasses import dataclass, field

from repro.errors import (
    ChannelDown,
    PrimaryFenced,
    QuorumLost,
    ReplicationError,
    SimulatedCrash,
)
from repro.state.snapshot import (
    SnapshotCorrupt,
    decode_snapshot,
    encode_snapshot,
    snapshot_name,
    snapshot_seq,
)
from repro.state.wal import scan_wal, skip_records

# -- frame codec ------------------------------------------------------------

MSG_HELLO = 1      # announce/raise epoch; ack is a liveness probe
MSG_APPEND = 2     # body = 1..n consecutive WAL records (primary encoding)
MSG_SNAPSHOT = 3   # body = u32 total, u32 offset, chunk bytes
MSG_WATERMARK = 4  # read-only watermark query (never raises the epoch)
MSG_ACK = 5        # body = status byte

ST_OK = 0       # durable through ack.seq
ST_FENCED = 1   # frame epoch below the follower's persisted epoch
ST_GAP = 2      # record not contiguous / pin dirty: needs resync
ST_BAD = 3      # undecodable frame or corrupt record
ST_CONT = 4     # snapshot chunk staged; more expected

_RHDR = struct.Struct("<BQQH")  # kind, epoch, seq, pin_len
_U32 = struct.Struct("<I")
_U64x2 = struct.Struct("<QQ")

#: Whole-frame budget, matching the TCP datapath's MAX_FRAME so one
#: replication frame always fits one wire frame.
MAX_REPL_FRAME = 1 << 12
#: Snapshot chunk / APPEND run payload size: frame budget minus codec
#: overhead.
SNAP_CHUNK = MAX_REPL_FRAME - 128

#: Storage name of a node's persisted fencing epoch.
EPOCH_NAME = "replication/epoch"


@dataclass(frozen=True)
class ReplFrame:
    kind: int
    epoch: int
    seq: int
    pin: str
    body: bytes

    @property
    def status(self) -> int:
        """ACK status byte (ST_BAD for a malformed ack body)."""
        return self.body[0] if self.body else ST_BAD


def encode_frame(kind: int, epoch: int, seq: int, pin: str,
                 body: bytes = b"") -> bytes:
    pin_b = pin.encode()
    head = b"".join((
        _RHDR.pack(kind, epoch, seq, len(pin_b)),
        pin_b,
        _U32.pack(len(body)),
        body,
    ))
    return head + _U32.pack(zlib.crc32(head))


def decode_frame(blob: bytes) -> ReplFrame:
    if len(blob) < _RHDR.size + 2 * _U32.size:
        raise ReplicationError("replication frame too short")
    head, (crc,) = blob[: -_U32.size], _U32.unpack(blob[-_U32.size:])
    if zlib.crc32(head) != crc:
        raise ReplicationError("replication frame crc mismatch")
    kind, epoch, seq, pin_len = _RHDR.unpack_from(head, 0)
    off = _RHDR.size
    pin = head[off: off + pin_len]
    if len(pin) != pin_len:
        raise ReplicationError("truncated replication pin")
    off += pin_len
    (body_len,) = _U32.unpack_from(head, off)
    off += _U32.size
    body = head[off: off + body_len]
    if len(body) != body_len or off + body_len != len(head):
        raise ReplicationError("truncated replication body")
    if kind not in (MSG_HELLO, MSG_APPEND, MSG_SNAPSHOT, MSG_WATERMARK,
                    MSG_ACK):
        raise ReplicationError(f"unknown replication frame kind {kind}")
    return ReplFrame(kind, epoch, seq, pin.decode(errors="replace"),
                     bytes(body))


def read_epoch(storage) -> int:
    """The node's persisted fencing epoch (0 = never participated)."""
    blob = storage.read(EPOCH_NAME)
    if blob is None or len(blob) != 8:
        return 0
    return int.from_bytes(blob, "little")


def write_epoch(storage, epoch: int) -> None:
    storage.write_atomic(EPOCH_NAME, epoch.to_bytes(8, "little"))


def bump_epoch(storages) -> int:
    """Next fencing epoch: one past the highest any node has persisted.

    Robust to a promotion coordinator that itself restarted — the epoch
    lives with the data, not with whoever is doing the promoting."""
    return max((read_epoch(s) for s in storages), default=0) + 1


# -- follower ---------------------------------------------------------------


@dataclass
class ReplicaStats:
    appends: int = 0
    dup_appends: int = 0
    gaps: int = 0
    fenced: int = 0
    bad_frames: int = 0
    snapshots_installed: int = 0
    hellos: int = 0
    epoch_adoptions: int = 0


class ReplicaSession:
    """Follower-side replication logic over one storage backend.

    A follower is a *log receiver*: shipped records land in the same
    ``<pin>/wal`` / ``snap-`` / ``meta`` layout the primary uses, so
    promotion is nothing more than running ``DurableStore.recover_map``
    over the follower's storage.  No live map is maintained — keeping
    followers cheap, and keeping recovery the single code path that
    turns durable bytes into state.

    Acks are durable acks: an APPEND is acknowledged only after its
    whole run crossed the storage flush (fsync-analog), once per frame.
    Crash injection hooks (``replica.append`` / ``replica.flush`` /
    ``antientropy.install``) model the follower dying at each boundary,
    torn tails included — on restart, :meth:`watermark` re-scans with
    ``scan_wal``'s torn-tail rule and truncates the damage, and the
    primary's anti-entropy re-ships the difference.
    """

    def __init__(self, storage, *, node_id: str = "follower", crash=None):
        self.storage = storage
        self.node_id = node_id
        self.crash = crash
        self.crashed = False
        self.epoch = read_epoch(storage)
        self.stats = ReplicaStats()
        self._watermarks: dict[str, int] = {}
        #: Volatile snapshot reassembly buffers: pin -> (total, buf).
        self._staging: dict[str, tuple[int, bytearray]] = {}

    # -- pin state --------------------------------------------------------

    def _repl_marker(self, pin: str) -> tuple[int, int] | None:
        """(epoch_verified, base_seq) from ``<pin>/repl``, or None."""
        blob = self.storage.read(f"{pin}/repl")
        if blob is None or len(blob) != _U64x2.size:
            return None
        return _U64x2.unpack(blob)

    def clean(self, pin: str) -> bool:
        """True when the pin's local history is verified against the
        *current* epoch — i.e. it was (re-)based by a snapshot install
        under this epoch.  Only clean pins accept appends or report a
        non-zero watermark; everything else waits for anti-entropy."""
        if not pin:
            # HELLO acks carry no pin; never touch storage with an
            # empty name (DirStorage rejects it).
            return False
        marker = self._repl_marker(pin)
        return marker is not None and marker[0] == self.epoch

    def watermark(self, pin: str) -> int:
        """Contiguous durable seq for ``pin`` (0 when dirty/unknown).

        Computed from durable bytes only, so a restarted session over
        the same storage reports exactly what survived: the snapshot
        base plus the longest contiguous clean WAL prefix.  A torn tail
        is truncated here, reusing ``scan_wal`` semantics."""
        if not self.clean(pin):
            return 0
        cached = self._watermarks.get(pin)
        if cached is not None:
            return cached
        _, base = self._repl_marker(pin)
        wal_name = f"{pin}/wal"
        blob = self.storage.read(wal_name) or b""
        records, good_len, _torn = scan_wal(blob)
        if good_len < len(blob):
            self.storage.truncate(wal_name, good_len)
        wm = base
        keep = 0
        for rec in records:
            if rec.seq <= wm:
                keep += 1  # stale: snapshot already covers it
                continue
            if rec.seq != wm + 1:
                break  # durable gap: trust only the prefix
            wm = rec.seq
            keep += 1
        self._watermarks[pin] = wm
        return wm

    def pins(self) -> list[str]:
        out = set()
        for name in self.storage.list():
            if "/" not in name:
                continue
            pin, leaf = name.rsplit("/", 1)
            if leaf in ("meta", "wal", "repl") or leaf.startswith("snap-"):
                out.add(pin)
        return sorted(out)

    # -- frame handling ---------------------------------------------------

    def handle_frame(self, blob: bytes) -> bytes:
        """Process one shipped frame; returns the ack frame."""
        try:
            fr = decode_frame(blob)
        except ReplicationError:
            self.stats.bad_frames += 1
            return self._ack("", ST_BAD, 0)
        if fr.kind == MSG_WATERMARK:
            # Read-only: promotion queries must not raise the epoch
            # before the pick is made.
            return self._ack(fr.pin, ST_OK, self.watermark(fr.pin))
        if fr.epoch < self.epoch:
            self.stats.fenced += 1
            return self._ack(fr.pin, ST_FENCED, self.watermark(fr.pin))
        if fr.epoch > self.epoch:
            self._adopt_epoch(fr.epoch)
        if fr.kind == MSG_HELLO:
            self.stats.hellos += 1
            return self._ack("", ST_OK, 0)
        if fr.kind == MSG_APPEND:
            return self._append(fr)
        if fr.kind == MSG_SNAPSHOT:
            return self._snapshot_chunk(fr)
        self.stats.bad_frames += 1
        return self._ack(fr.pin, ST_BAD, 0)

    def _ack(self, pin: str, status: int, seq: int) -> bytes:
        return encode_frame(MSG_ACK, self.epoch, seq, pin, bytes([status]))

    def _adopt_epoch(self, epoch: int) -> None:
        # Persisting the epoch implicitly dirties every pin: their
        # ``repl`` markers still carry the old epoch, so clean() flips
        # false until a snapshot re-bases them under the new one.  The
        # local WAL suffix stays on disk but is never trusted again —
        # it may diverge from the promoted primary's chosen history.
        write_epoch(self.storage, epoch)
        self.epoch = epoch
        self._watermarks.clear()
        self._staging.clear()
        self.stats.epoch_adoptions += 1

    def _append(self, fr: ReplFrame) -> bytes:
        pin = fr.pin
        if not self.clean(pin):
            self.stats.gaps += 1
            return self._ack(pin, ST_GAP, 0)
        body = fr.body
        records, _good, torn = scan_wal(body)
        first = records[0].seq if records else 0
        if torn is not None or not records or any(
            rec.seq != first + i for i, rec in enumerate(records)
        ):
            self.stats.bad_frames += 1
            return self._ack(pin, ST_BAD, self.watermark(pin))
        last = records[-1].seq
        wm = self.watermark(pin)
        if last <= wm:
            self.stats.dup_appends += 1
            return self._ack(pin, ST_OK, wm)
        if first > wm + 1:
            self.stats.gaps += 1
            return self._ack(pin, ST_GAP, wm)
        if first <= wm:
            # A snapshot shipped in the middle of the primary's commit
            # group re-based this log past the run's first records:
            # only the new suffix is appended.
            body = body[skip_records(body, wm - first + 1):]
        wal_name = f"{pin}/wal"
        if self.crash is not None:
            self.crash.at("replica.append")
        self.storage.append(wal_name, body)
        if self.crash is not None:
            surviving = self.crash.torn(
                "replica.flush", self.storage.pending_bytes(wal_name)
            )
            if surviving is not None:
                self.storage.flush(wal_name, torn_prefix=surviving)
                raise SimulatedCrash("replica.flush")
        self.storage.flush(wal_name)
        self._watermarks[pin] = last
        self.stats.appends += last - wm
        return self._ack(pin, ST_OK, last)

    def _snapshot_chunk(self, fr: ReplFrame) -> bytes:
        pin = fr.pin
        if len(fr.body) < 2 * _U32.size:
            self.stats.bad_frames += 1
            return self._ack(pin, ST_BAD, 0)
        (total,) = _U32.unpack_from(fr.body, 0)
        (offset,) = _U32.unpack_from(fr.body, _U32.size)
        chunk = fr.body[2 * _U32.size:]
        if offset == 0:
            self._staging[pin] = (total, bytearray())
        staged = self._staging.get(pin)
        if staged is None or staged[0] != total or offset != len(staged[1]):
            self._staging.pop(pin, None)
            self.stats.bad_frames += 1
            return self._ack(pin, ST_BAD, 0)
        staged[1].extend(chunk)
        if len(staged[1]) < total:
            return self._ack(pin, ST_CONT, len(staged[1]))
        blob = bytes(self._staging.pop(pin)[1])
        try:
            seq, meta, _entries = decode_snapshot(blob)
        except SnapshotCorrupt:
            self.stats.bad_frames += 1
            return self._ack(pin, ST_BAD, 0)
        if self.crash is not None:
            self.crash.at("antientropy.install")
        # Install order: image and meta first, the epoch-verification
        # marker last — a crash mid-install leaves the pin dirty and
        # the next resync simply re-runs.
        self.storage.write_atomic(f"{pin}/meta", encode_snapshot(0, meta, []))
        self.storage.write_atomic(snapshot_name(pin, seq), blob)
        # Wipe every OTHER snapshot, newer-seq ones included: a deposed
        # primary rejoining as a follower may hold snapshots from its
        # divergent (unshipped) history whose seq numbers run ahead of
        # the new primary's — recovery must never prefer those.
        for name in self.storage.list(pin + "/"):
            s = snapshot_seq(name)
            if s is not None and s != seq:
                self.storage.delete(name)
        self.storage.delete(f"{pin}/wal")
        self.storage.write_atomic(f"{pin}/repl", _U64x2.pack(self.epoch, seq))
        self._watermarks[pin] = seq
        self.stats.snapshots_installed += 1
        return self._ack(pin, ST_OK, seq)


# -- channels ---------------------------------------------------------------


class FollowerChannel:
    """Transport to one follower: framed send + one ack per request.

    ``alive`` is the shipper's view; a channel marks itself dead by
    raising :class:`~repro.errors.ChannelDown` and is revived only by
    :meth:`reconnect` (driven by anti-entropy maintenance)."""

    node_id: str = "?"
    alive: bool = True

    def send(self, frame: bytes) -> None:
        raise NotImplementedError

    def recv(self, timeout: float | None = None) -> bytes:
        raise NotImplementedError

    def reconnect(self) -> None:
        raise ChannelDown(self.node_id)

    def close(self) -> None:
        pass


class LocalChannel(FollowerChannel):
    """In-process channel: frames go straight to a ReplicaSession.

    Used by the chaos campaign and the tier-1 tests so the whole
    primary/follower dance runs deterministically in one thread.  A
    :class:`~repro.errors.SimulatedCrash` inside the session is this
    follower dying mid-frame: its volatile bytes are dropped (the
    ``kill -9`` model) and the channel goes down; the harness restarts
    the node by installing a fresh session over the same storage."""

    def __init__(self, node_id: str, session: ReplicaSession | None = None):
        self.node_id = node_id
        self.session = session
        self.alive = session is not None
        self._replies: deque[bytes] = deque()

    def send(self, frame: bytes) -> None:
        s = self.session
        if s is None or s.crashed:
            self.alive = False
            raise ChannelDown(self.node_id)
        try:
            self._replies.append(s.handle_frame(frame))
        except SimulatedCrash:
            s.crashed = True
            s.storage.crash()
            self.session = None
            self.alive = False
            raise ChannelDown(self.node_id) from None

    def recv(self, timeout: float | None = None) -> bytes:
        if not self._replies:
            raise ChannelDown(self.node_id)
        return self._replies.popleft()

    def restart(self, session: ReplicaSession) -> None:
        """Harness hook: the follower process came back up."""
        self.session = session
        self._replies.clear()

    def reconnect(self) -> None:
        if self.session is None or self.session.crashed:
            raise ChannelDown(self.node_id)
        self.alive = True


# -- primary ----------------------------------------------------------------


@dataclass
class ShipStats:
    records_shipped: int = 0
    record_acks: int = 0
    dup_acks: int = 0
    snapshots_shipped: int = 0
    snapshot_chunks: int = 0
    tail_records: int = 0
    resyncs: int = 0
    gaps_seen: int = 0
    follower_downs: int = 0
    reconnects: int = 0
    maintenance_runs: int = 0
    quorum_losses: int = 0
    fenced: int = 0
    oversized_records: int = 0

    def merge(self, other: "ShipStats") -> "ShipStats":
        for f in (
            "records_shipped", "record_acks", "dup_acks",
            "snapshots_shipped", "snapshot_chunks", "tail_records",
            "resyncs", "gaps_seen", "follower_downs", "reconnects",
            "maintenance_runs", "quorum_losses", "fenced",
            "oversized_records",
        ):
            setattr(self, f, getattr(self, f) + getattr(other, f))
        return self


class QuorumShipper:
    """Primary-side shipping: stage on the journal hook, commit before
    the ack leaves.

    The map-mutation journal *stages* each record (cheap, no I/O beyond
    the local WAL flush that already happened); the serving layer calls
    :meth:`commit` after the extension returns — once per request, or
    once per drained batch of requests (a commit group) — and before
    any reply of it is written: the quorum-aware ack path.  ``commit``
    ships the staged records to all live followers, a run of
    consecutive records per frame, and requires ``sync_replicas``
    durable acks per run, raising :class:`~repro.errors.QuorumLost`
    otherwise (the replies at or past the lost seq are then dropped,
    not acked).

    Channel failures never raise out of a ship: a dead follower is
    marked down, counted, and left for maintenance to reconnect and
    repair.  ``ST_GAP`` acks trigger an inline resync so a freshly
    (re)joined follower can still contribute to this run's quorum.
    """

    def __init__(self, channels, *, sync_replicas: int = 1, epoch: int = 1,
                 crash=None, ack_timeout: float = 5.0,
                 maintenance_every: int | None = 64):
        channels = list(channels)
        if sync_replicas > len(channels):
            raise ReplicationError(
                f"sync_replicas={sync_replicas} exceeds "
                f"{len(channels)} follower channels"
            )
        self.channels = channels
        self.sync_replicas = sync_replicas
        self.epoch = epoch
        self.crash = crash
        self.ack_timeout = ack_timeout
        self.maintenance_every = maintenance_every
        self.stats = ShipStats()
        self.store = None
        self.fenced = False
        self._outbox: list[tuple[str, int, bytes]] = []
        self._commits = 0
        #: seq -> tuple of follower node_ids that acked it durably —
        #: the chaos oracle's ack-set evidence.
        self.last_acks: dict[int, tuple[str, ...]] = {}

    def bind_store(self, store) -> None:
        """Called by ``DurableStore.__init__``; persists this primary's
        epoch next to its data so ``bump_epoch`` sees it."""
        self.store = store
        if read_epoch(store.storage) < self.epoch:
            write_epoch(store.storage, self.epoch)

    # -- write path -------------------------------------------------------

    def stage(self, pin: str, seq: int, blob: bytes) -> None:
        # No size check here: stage runs inside the map-mutation
        # journal hook, after the local WAL append, where nothing can
        # shed the request.  Oversized records are refused in commit()
        # instead, whose QuorumLost the serving layer already sheds.
        self._outbox.append((pin, seq, blob))

    def has_staged(self) -> bool:
        return bool(self._outbox)

    def staged_seq(self) -> int:
        """Seq of the newest staged record (0: nothing is staged)."""
        return self._outbox[-1][1] if self._outbox else 0

    def commit(self) -> dict[int, tuple[str, ...]]:
        """Ship the outbox; returns ``{seq: acked node_ids}``.

        The outbox goes out as runs: consecutive records of one pin,
        as many as fit one frame, travel in one ``APPEND`` and are
        acked together.  Raises :class:`QuorumLost` — naming the first
        seq that did not reach quorum; runs before it did, nothing at
        or past it was acknowledged — or :class:`PrimaryFenced`; either
        way the outbox is consumed (a dead or deposed primary does not
        retry on behalf of an unacknowledged client)."""
        outbox, self._outbox = self._outbox, []
        if self.fenced:
            raise PrimaryFenced(self.epoch, self.epoch)
        acks: dict[int, tuple[str, ...]] = {}
        i, n = 0, len(outbox)
        while i < n:
            pin, first, blob = outbox[i]
            size = len(blob)
            if size > SNAP_CHUNK:
                # Cannot be framed for shipment, so it can never reach
                # a follower quorum.  The record is already in the
                # local WAL, but the client is not acked — followers
                # pick the value up via the chunked snapshot path.
                self.stats.oversized_records += 1
                raise QuorumLost(pin, first, 0, self.sync_replicas)
            run = [blob]
            i += 1
            while i < n:
                nxt_pin, seq, blob = outbox[i]
                size += len(blob)
                if (nxt_pin != pin or seq != first + len(run)
                        or size > SNAP_CHUNK):
                    break
                run.append(blob)
                i += 1
            acked = self._ship_run(pin, first, run)
            for seq in range(first, first + len(run)):
                acks[seq] = acked
        self.last_acks = acks
        self._commits += 1
        if (self.maintenance_every is not None
                and self._commits % self.maintenance_every == 0):
            self.maintenance()
        return acks

    def _ship_run(self, pin: str, first: int, run: list) -> tuple[str, ...]:
        """One ``APPEND`` frame for ``run`` (record blobs with seqs
        ``first``, ``first + 1``, ...) to every live follower."""
        if self.crash is not None:
            self.crash.at("ship.send")
        last = first + len(run) - 1
        frame = encode_frame(MSG_APPEND, self.epoch, first, pin, b"".join(run))
        self.stats.records_shipped += len(run)
        acked: list[str] = []
        for ch in self.channels:
            if not ch.alive:
                continue
            ack = self._request(ch, frame)
            if ack is None:
                continue
            st = ack.status
            if st == ST_FENCED:
                self._fence(ack)
            if st == ST_OK and ack.seq >= last:
                self.stats.record_acks += len(run)
                if ack.seq > last:
                    self.stats.dup_acks += 1
                acked.append(ch.node_id)
            elif st == ST_GAP:
                self.stats.gaps_seen += 1
                if self.resync(ch, pin, ack.seq) >= last:
                    acked.append(ch.node_id)
        if len(acked) < self.sync_replicas:
            self.stats.quorum_losses += 1
            raise QuorumLost(pin, first, len(acked), self.sync_replicas)
        return tuple(acked)

    def _request(self, ch, frame: bytes) -> ReplFrame | None:
        """Send + read one ack; None means the channel just died."""
        try:
            ch.send(frame)
            ack = decode_frame(ch.recv(self.ack_timeout))
        except (ChannelDown, ReplicationError):
            # Only live channels are ever sent to, so this is always a
            # live -> dead transition (some transports mark themselves
            # dead before raising; don't trust ``ch.alive`` here).
            ch.alive = False
            self.stats.follower_downs += 1
            return None
        return ack

    def _fence(self, ack: ReplFrame) -> None:
        self.fenced = True
        self.stats.fenced += 1
        raise PrimaryFenced(self.epoch, ack.epoch)

    # -- anti-entropy -----------------------------------------------------

    def resync(self, ch, pin: str, follower_wm: int) -> int:
        """Repair one follower's ``pin`` to the primary's current seq.

        WAL-tail transfer when the primary's log still reaches back to
        the follower's watermark (the follower holds a verified prefix
        of this epoch's history, so appending the missing records is
        enough); otherwise a chunked snapshot install, which also
        re-bases a dirty pin under the current epoch.  Returns the
        follower's watermark after repair (0 on failure)."""
        if self.store is None or pin not in self.store._journals:
            return 0
        if self.crash is not None:
            self.crash.at("antientropy.send")
        self.stats.resyncs += 1
        journal = self.store._journals[pin]
        target = journal.wal.seq
        if follower_wm > 0:
            wal_blob = self.store.storage.read(f"{pin}/wal") or b""
            records, _good, _torn = scan_wal(wal_blob)
            tail = [r for r in records if r.seq > follower_wm]
            covers = (
                not tail or tail[0].seq == follower_wm + 1
            ) and (not records or records[0].seq <= follower_wm + 1)
            if covers:
                wm = follower_wm
                from repro.state.wal import encode_record

                for rec in tail:
                    ack = self._request(ch, encode_frame(
                        MSG_APPEND, self.epoch, rec.seq, pin,
                        encode_record(rec.seq, rec.op, rec.key, rec.value),
                    ))
                    if ack is None:
                        return 0
                    if ack.status == ST_FENCED:
                        self._fence(ack)
                    if ack.status != ST_OK or ack.seq < rec.seq:
                        break  # fall through to the snapshot path
                    self.stats.tail_records += 1
                    wm = ack.seq
                else:
                    if wm >= target:
                        return wm
                    # The tail closed no further than wm < target (the
                    # WAL was compacted past records the follower never
                    # saw): only a snapshot can finish the repair.
        return self._send_snapshot(
            ch, pin, target,
            encode_snapshot(target, journal.map.meta(),
                            journal.map.entries()),
        )

    def _send_snapshot(self, ch, pin: str, seq: int, blob: bytes) -> int:
        """Chunked snapshot install on one follower; returns its
        post-install watermark (0 on failure)."""
        total = len(blob)
        off = 0
        while True:
            chunk = blob[off: off + SNAP_CHUNK]
            body = _U32.pack(total) + _U32.pack(off) + chunk
            ack = self._request(
                ch, encode_frame(MSG_SNAPSHOT, self.epoch, seq, pin, body)
            )
            if ack is None:
                return 0
            if ack.status == ST_FENCED:
                self._fence(ack)
            self.stats.snapshot_chunks += 1
            off += len(chunk)
            if off >= total:
                if ack.status == ST_OK and ack.seq >= seq:
                    self.stats.snapshots_shipped += 1
                    return ack.seq
                return 0
            if ack.status != ST_CONT:
                return 0

    def ship_snapshot(self, pin: str, seq: int, blob: bytes) -> None:
        """Propagate a primary compaction so follower WALs stay bounded.

        Best-effort: a follower that misses it just keeps a longer WAL
        until the next resync; no quorum requirement applies (the
        records the snapshot covers were already individually acked)."""
        for ch in self.channels:
            if ch.alive:
                self._send_snapshot(ch, pin, seq, blob)

    def hello(self, ch) -> bool:
        """Announce (and raise) this primary's epoch on one channel."""
        ack = self._request(ch, encode_frame(MSG_HELLO, self.epoch, 0, ""))
        if ack is not None and ack.status == ST_FENCED:
            self._fence(ack)
        return ack is not None and ack.status == ST_OK

    def announce(self) -> int:
        """HELLO every live channel; returns how many answered."""
        return sum(1 for ch in self.channels if ch.alive and self.hello(ch))

    def watermarks(self, pin: str) -> dict[str, int]:
        """Read-only follower watermarks (live channels only)."""
        out: dict[str, int] = {}
        frame = encode_frame(MSG_WATERMARK, self.epoch, 0, pin)
        for ch in self.channels:
            if not ch.alive:
                continue
            ack = self._request(ch, frame)
            if ack is not None and ack.status == ST_OK:
                out[ch.node_id] = ack.seq
        return out

    def maintenance(self) -> None:
        """One anti-entropy pass: reconnect the dead, repair the lagging.

        Runs on the write path every ``maintenance_every`` commits (and
        explicitly after promotion), so divergence heals without a
        background thread racing the serving loop."""
        self.stats.maintenance_runs += 1
        for ch in self.channels:
            if not ch.alive:
                try:
                    ch.reconnect()
                except ChannelDown:
                    continue
                self.stats.reconnects += 1
                if not self.hello(ch):
                    continue
            if self.store is None:
                continue
            for pin in list(self.store._journals):
                target = self.store._journals[pin].wal.seq
                ack = self._request(
                    ch, encode_frame(MSG_WATERMARK, self.epoch, 0, pin)
                )
                if ack is None:
                    break
                if ack.status == ST_OK and ack.seq < target:
                    self.resync(ch, pin, ack.seq)


# -- promotion --------------------------------------------------------------


def pick_promotee(watermarks: dict[str, int]) -> str | None:
    """Most-caught-up follower: highest verified contiguous seq, ties
    broken by node id for determinism.  None when nobody reported."""
    if not watermarks:
        return None
    return min(watermarks, key=lambda n: (-watermarks[n], n))
