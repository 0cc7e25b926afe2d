"""Per-map append-only write-ahead log.

Record format (all little-endian)::

    u32  payload length
    u32  CRC-32 of the payload
    payload:
        u64  sequence number (monotonic per pin, 1-based)
        u8   op (1 = update, 2 = delete)
        u32  key length, then key bytes
        u32  value length, then value bytes (empty for deletes)

The **torn-tail rule**: a scan accepts the longest prefix of whole,
CRC-clean records and discards everything after the first framing or
checksum failure.  A torn suffix is the *expected* outcome of dying
between an append and its fsync-analog, so it is not an error — the
recovery path truncates it and reports how many bytes were discarded.
Corruption in the middle of the durable region degrades the same way
(the log is trusted only up to its first bad frame); the recovered map
is then a clean prefix of history, which is exactly the guarantee the
chaos oracle checks.

Sequence numbers make replay idempotent across the snapshot boundary:
records at or below the snapshot's sequence are skipped, so a crash
after snapshot commit but before WAL compaction double-applies nothing.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

OP_UPDATE = 1
OP_DELETE = 2

_HDR = struct.Struct("<II")  # payload_len, crc32
_SEQ_OP = struct.Struct("<QB")
_U32 = struct.Struct("<I")

#: Upper bound on one record's payload; anything larger in a length
#: prefix is treated as framing corruption, not an allocation request.
MAX_PAYLOAD = 1 << 24


@dataclass(frozen=True)
class WalRecord:
    seq: int
    op: int
    key: bytes
    value: bytes


def encode_record(seq: int, op: int, key: bytes, value: bytes = b"") -> bytes:
    payload = b"".join(
        (
            _SEQ_OP.pack(seq, op),
            _U32.pack(len(key)),
            key,
            _U32.pack(len(value)),
            value,
        )
    )
    return _HDR.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(payload: bytes) -> WalRecord | None:
    try:
        seq, op = _SEQ_OP.unpack_from(payload, 0)
        off = _SEQ_OP.size
        (klen,) = _U32.unpack_from(payload, off)
        off += _U32.size
        key = payload[off : off + klen]
        if len(key) != klen:
            return None
        off += klen
        (vlen,) = _U32.unpack_from(payload, off)
        off += _U32.size
        value = payload[off : off + vlen]
        if len(value) != vlen or off + vlen != len(payload):
            return None
    except struct.error:
        return None
    if op not in (OP_UPDATE, OP_DELETE):
        return None
    return WalRecord(seq, op, bytes(key), bytes(value))


def scan_wal(blob: bytes) -> tuple[list[WalRecord], int, str | None]:
    """Decode the longest clean prefix of a WAL blob.

    Returns ``(records, good_len, torn)`` where ``good_len`` is the
    byte length of the accepted prefix and ``torn`` names the reason
    the scan stopped early (``None`` when the whole blob was clean).
    """
    records: list[WalRecord] = []
    off = 0
    n = len(blob)
    while off < n:
        if n - off < _HDR.size:
            return records, off, "torn header"
        plen, crc = _HDR.unpack_from(blob, off)
        if plen == 0 or plen > MAX_PAYLOAD:
            return records, off, "bad length prefix"
        if off + _HDR.size + plen > n:
            return records, off, "torn payload"
        payload = blob[off + _HDR.size : off + _HDR.size + plen]
        if zlib.crc32(payload) != crc:
            return records, off, "crc mismatch"
        rec = _decode_payload(payload)
        if rec is None:
            return records, off, "malformed payload"
        records.append(rec)
        off += _HDR.size + plen
    return records, off, None


def skip_records(blob: bytes, n: int) -> int:
    """Byte offset of the ``n``-th record of a blob :func:`scan_wal`
    accepted whole (record boundaries are read off the length
    prefixes; nothing is re-checked)."""
    off = 0
    for _ in range(n):
        off += _HDR.size + _HDR.unpack_from(blob, off)[0]
    return off


class MapWal:
    """Appender for one pin's WAL, with an explicit durability policy.

    ``sync_every=1`` flushes (fsync-analog) after every record — an
    acknowledged write is durable, the policy the shard-failover path
    uses.  ``sync_every=N`` batches N records per flush (the benchmark
    configuration); ``sync_every=None`` flushes only on demand.

    While ``grouped`` is set (a commit group is open, see
    :meth:`DurableStore.commit_group`) ``append`` leaves the policy
    check (:meth:`sync`) to the group's end: its records cross the
    flush together.  The policy itself is the same — nothing of the
    group is acknowledged before that.
    """

    def __init__(self, storage, name: str, *, sync_every: int | None = 1,
                 start_seq: int = 0, crash=None):
        self.storage = storage
        self.name = name
        self.sync_every = sync_every
        self.crash = crash
        #: Sequence of the most recently appended record.
        self.seq = start_seq
        #: Sequence covered by the last completed flush — the durable
        #: barrier: records at or below it survive any crash.
        self.durable_seq = start_seq
        #: Encoded bytes of the most recent append — the exact frame a
        #: replication shipper forwards to followers (no re-encoding,
        #: so follower WALs are byte-identical to the primary's).
        self.last_blob: bytes = b""
        self._unsynced = 0
        self.grouped = False
        self.records_appended = 0
        self.flushes = 0
        self.bytes_appended = 0

    def append(self, op: int, key: bytes, value: bytes = b"") -> int:
        self.seq += 1
        blob = encode_record(self.seq, op, key, value)
        self.last_blob = blob
        self.storage.append(self.name, blob)
        self.records_appended += 1
        self.bytes_appended += len(blob)
        self._unsynced += 1
        if self.crash is not None:
            self.crash.at("wal.append")
        if not self.grouped:
            self.sync()
        return self.seq

    def sync(self) -> None:
        """Apply the ``sync_every`` policy to what is pending."""
        if self.sync_every is not None and self._unsynced >= self.sync_every:
            self.flush()

    def flush(self) -> None:
        """Durability point.  A crash injected here persists only a
        prefix of the pending bytes (the torn tail)."""
        if self._unsynced == 0:
            return
        if self.crash is not None:
            torn = self.crash.torn("wal.flush", self.storage.pending_bytes(self.name))
            if torn is not None:
                from repro.errors import SimulatedCrash

                self.storage.flush(self.name, torn_prefix=torn)
                raise SimulatedCrash("wal.flush")
        self.storage.flush(self.name)
        self.durable_seq = self.seq
        self._unsynced = 0
        self.flushes += 1

    def reset(self, seq: int) -> None:
        """Compaction: the snapshot now covers everything up to ``seq``;
        drop the log (durable and pending alike) and keep counting."""
        self.storage.delete(self.name)
        self._unsynced = 0
        self.seq = seq
        self.durable_seq = seq
