"""Replica shipping over the real TCP datapath.

The sans-I/O replication core (:mod:`repro.state.replication`) talks
through :class:`~repro.state.replication.FollowerChannel`; this module
provides the wire half:

* :class:`ReplicaService` + :class:`ReplicaWorker` — a follower node as
  a thread: its own event loop, its own :class:`DirStorage`, and a
  :class:`~repro.net.datapath.TcpDatapath` serving replication frames.
  One replication frame per length-prefixed TCP frame, so the shipping
  channel inherits the datapath's framing, admission control, and
  flow-control backpressure for free;
* :class:`SocketFollowerChannel` — the primary's blocking client end;
* :class:`ReplicatedShard` — one shard's replica *set* (a primary
  :class:`~repro.net.shard.ShardWorker` plus N followers over separate
  store roots) with :meth:`~ReplicatedShard.promote`: pick the
  most-caught-up follower by watermark, fence the old epoch, and serve
  from the promoted node's durable state;
* :class:`ReplicatedFailover` — drop-in for
  :class:`~repro.net.shard.ShardFailover` whose replacement path is
  promotion instead of cold local restart.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading

from repro.errors import ChannelDown
from repro.net.backpressure import AdmissionPolicy
from repro.net.datapath import FRAME_HDR, MAX_FRAME, TcpDatapath
from repro.net.shard import ShardFailover, ShardWorker
from repro.state.replication import (
    MSG_ACK,
    MSG_HELLO,
    MSG_WATERMARK,
    ST_BAD,
    ST_OK,
    FollowerChannel,
    QuorumShipper,
    ReplicaSession,
    bump_epoch,
    decode_frame,
    encode_frame,
    pick_promotee,
)
from repro.state.storage import DirStorage


class ReplicaService:
    """Datapath service adapter for one follower's ReplicaSession.

    A session never awaits, so the adapter is the synchronous entry
    only: the follower acks a shipper from inside ``data_received``."""

    def __init__(self, session: ReplicaSession):
        self.session = session

    def ingress_batch(self, payloads, cpu: int = 0) -> list:
        return [(self._ack(p), "kernel") for p in payloads]

    def _ack(self, payload: bytes) -> bytes:
        try:
            return self.session.handle_frame(payload)
        except Exception:
            # A frame must never take the connection down with it: the
            # shipper's contract is one ack per request, and a silent
            # death here reads as a follower crash on the primary.
            self.session.stats.bad_frames += 1
            return encode_frame(
                MSG_ACK, self.session.epoch, 0, "", bytes([ST_BAD])
            )

    def quiescence_report(self) -> dict:
        # A follower holds no kernel state — only durable bytes.
        return {"sock_refs": 0, "held_locks": 0, "live_extensions": 0}

    def close(self) -> None:
        pass


class ReplicaWorker(threading.Thread):
    """One follower node: thread + event loop + storage + TCP server."""

    def __init__(self, node_id: str, root, *,
                 host: str = "127.0.0.1", port: int = 0,
                 policy: AdmissionPolicy | None = None):
        super().__init__(daemon=True, name=f"kflex-replica-{node_id}")
        self.node_id = node_id
        self.root = root
        self.host = host
        self._requested_port = port
        self.policy = policy
        self.loop: asyncio.AbstractEventLoop | None = None
        self.storage: DirStorage | None = None
        self.session: ReplicaSession | None = None
        self.datapath: TcpDatapath | None = None
        self.port: int | None = None
        self.error: BaseException | None = None
        self.crashed = False
        self._ready = threading.Event()

    def run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self.loop = loop

        async def boot():
            self.storage = DirStorage(self.root)
            self.session = ReplicaSession(self.storage, node_id=self.node_id)
            self.datapath = TcpDatapath(
                ReplicaService(self.session),
                host=self.host,
                port=self._requested_port,
                policy=self.policy,
            )
            await self.datapath.start()
            self.port = self.datapath.port

        try:
            loop.run_until_complete(boot())
        except BaseException as exc:  # surfaced to wait_ready()
            self.error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        loop.run_forever()
        # Stopped — graceful or crashed; dispose without resuming (the
        # same debris discipline as ShardWorker.run).
        for task in asyncio.all_tasks(loop):
            task.cancel()
            task._log_destroy_pending = False
            coro = task.get_coro()
            if coro is not None:
                try:
                    coro.close()
                except RuntimeError:
                    # Suspended in a finally that awaits; it dies with
                    # the loop either way.
                    pass
        dp = self.datapath
        if dp is not None and dp._server is not None:
            dp._server.close()
            for sock_ in dp._server.sockets or ():
                try:
                    sock_.close()
                except OSError:
                    pass
        loop.close()

    def wait_ready(self, timeout: float = 10.0) -> None:
        if not self._ready.wait(timeout):
            raise TimeoutError(f"replica {self.node_id} did not come up")
        if self.error is not None:
            raise self.error

    def shutdown(self, timeout: float = 10.0) -> None:
        asyncio.run_coroutine_threadsafe(
            self.datapath.stop(), self.loop
        ).result(timeout)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.join(timeout)

    def crash(self, timeout: float = 5.0) -> None:
        """``kill -9`` the follower: loop stops mid-frame, pending
        (unflushed) storage bytes vanish, the port goes dead."""
        if self.crashed:
            return
        self.crashed = True
        loop = self.loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(loop.stop)
            except RuntimeError:
                pass
        self.join(timeout)
        if self.storage is not None:
            self.storage.crash()


class SocketFollowerChannel(FollowerChannel):
    """Primary-side client channel: one blocking TCP connection.

    Lazy-connecting so a shipper can be constructed before its
    followers finish booting; any socket-level failure (refused,
    reset, timeout, shed frame) downgrades to
    :class:`~repro.errors.ChannelDown` and the shipper counts the
    follower out until maintenance reconnects.
    """

    def __init__(self, node_id: str, host: str, port: int, *,
                 timeout: float = 5.0):
        self.node_id = node_id
        self.host = host
        self.port = port
        self.timeout = timeout
        self.alive = True
        self._sock: socket.socket | None = None

    def _connect(self) -> socket.socket:
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                self._sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            except OSError as exc:
                raise ChannelDown(self.node_id, str(exc)) from None
        return self._sock

    def _teardown(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def send(self, frame: bytes) -> None:
        if len(frame) > MAX_FRAME:
            raise ChannelDown(
                self.node_id, f"replication frame {len(frame)}B over budget"
            )
        try:
            self._connect().sendall(FRAME_HDR.pack(len(frame)) + frame)
        except (OSError, struct.error) as exc:
            self._teardown()
            self.alive = False
            raise ChannelDown(self.node_id, str(exc)) from None

    def _read_exact(self, n: int) -> bytes:
        buf = bytearray()
        sock_ = self._sock
        while len(buf) < n:
            chunk = sock_.recv(n - len(buf))
            if not chunk:
                raise ChannelDown(self.node_id, "connection closed")
            buf.extend(chunk)
        return bytes(buf)

    def recv(self, timeout: float | None = None) -> bytes:
        sock_ = self._sock
        if sock_ is None:
            raise ChannelDown(self.node_id, "not connected")
        try:
            sock_.settimeout(timeout if timeout is not None else self.timeout)
            (length,) = FRAME_HDR.unpack(self._read_exact(FRAME_HDR.size))
            if length == 0 or length > MAX_FRAME:
                # Empty frame = the follower's admission control shed
                # the request; treat as transiently down, not fatal.
                raise ChannelDown(self.node_id, "shed or oversized reply")
            return self._read_exact(length)
        except (OSError, ChannelDown) as exc:
            self._teardown()
            self.alive = False
            if isinstance(exc, ChannelDown):
                raise
            raise ChannelDown(self.node_id, str(exc)) from None

    def reconnect(self) -> None:
        self._teardown()
        self._connect()
        self.alive = True

    def close(self) -> None:
        self._teardown()


def _query_watermark(host: str, port: int, pin: str, node_id: str,
                     timeout: float = 5.0) -> int | None:
    """One ephemeral read-only watermark probe (never raises)."""
    ch = SocketFollowerChannel(node_id, host, port, timeout=timeout)
    try:
        ch.send(encode_frame(MSG_WATERMARK, 0, 0, pin))
        ack = decode_frame(ch.recv(timeout))
        return ack.seq if ack.status == ST_OK else None
    except Exception:
        return None
    finally:
        ch.close()


class ReplicatedShard:
    """One shard's replica set: primary worker + N follower nodes.

    Each node owns a separate store root (``<root>/node<i>`` — the
    "separate disk" of the failure model).  Node 0 starts as primary;
    after a promotion the primary role moves with the data, tracked by
    ``primary_node``.  The serving worker ships every journaled WAL
    record to the follower nodes and acks at ``sync_replicas``.
    """

    def __init__(self, shard_id: int, root, *, n_replicas: int = 2,
                 sync_replicas: int = 1, host: str = "127.0.0.1",
                 pin: str = "memcached/cache", capacity: int = 4096,
                 engine: str | None = None,
                 policy: AdmissionPolicy | None = None):
        import os

        if n_replicas < 1:
            raise ValueError("a replica set needs at least one follower")
        if not 1 <= sync_replicas <= n_replicas:
            raise ValueError("need 1 <= sync_replicas <= n_replicas")
        self.shard_id = shard_id
        self.root = root
        self.n_replicas = n_replicas
        self.sync_replicas = sync_replicas
        self.host = host
        self.pin = pin
        self.capacity = capacity
        self.engine = engine
        self.policy = policy
        self.n_nodes = n_replicas + 1
        self.node_roots = [
            os.path.join(str(root), f"node{i}") for i in range(self.n_nodes)
        ]
        self.primary_node = 0
        self.epoch = 1
        self.promotions = 0
        #: node index -> live ReplicaWorker (primary node excluded).
        self.followers: dict[int, ReplicaWorker] = {}

    # -- lifecycle --------------------------------------------------------

    def start_followers(self) -> None:
        for i in range(self.n_nodes):
            if i != self.primary_node:
                self._start_follower(i)

    def _start_follower(self, node: int) -> ReplicaWorker:
        w = ReplicaWorker(
            f"s{self.shard_id}n{node}",
            self.node_roots[node],
            host=self.host,
            policy=self.policy,
        )
        w.start()
        w.wait_ready()
        self.followers[node] = w
        return w

    def build_shipper(self) -> QuorumShipper:
        channels = [
            SocketFollowerChannel(w.node_id, self.host, w.port)
            for _, w in sorted(self.followers.items())
        ]
        return QuorumShipper(
            channels, sync_replicas=self.sync_replicas, epoch=self.epoch
        )

    def service_factory(self, shard_id: int):
        """``ShardWorker``-compatible factory: a durable memcached
        service over the *current* primary node's storage, shipping to
        the current follower set."""
        from repro.net.service import DurableMemcachedService
        from repro.state.store import DurableStore

        store = DurableStore(
            storage=DirStorage(self.node_roots[self.primary_node]),
            shipper=self.build_shipper(),
        )
        return DurableMemcachedService(
            store=store, pin=self.pin, capacity=self.capacity,
            engine=self.engine,
        )

    def build_primary(self, **worker_kwargs) -> ShardWorker:
        w = ShardWorker(self.shard_id, self.service_factory,
                        host=self.host, **worker_kwargs)
        w.epoch = self.epoch
        return w

    # -- promotion --------------------------------------------------------

    def promote(self) -> None:
        """Primary died: promote the most-caught-up follower.

        1. read-only watermark probes over the replication port;
        2. pick the highest contiguous shipped seq (ties: lowest node);
        3. retire that follower's worker — its *storage* is promoted;
        4. fence: epoch = 1 + max persisted epoch across all node
           storages, announced to the surviving followers (a deposed
           primary's late frames now answer ST_FENCED);
        5. restart the dead primary's node as a fresh follower — its
           local WAL suffix is untrusted (dirty) until anti-entropy
           re-bases it under the new epoch.

        The caller builds the serving worker afterwards via
        :meth:`build_primary`; its recovery path replays the promoted
        node's snapshot + WAL, so it answers with every acked write.
        """
        watermarks: dict[int, int] = {}
        for node, w in self.followers.items():
            if w.crashed:
                continue
            wm = _query_watermark(self.host, w.port, self.pin, w.node_id)
            if wm is not None:
                watermarks[node] = wm
        # A zero watermark is a follower with *no verified prefix*
        # (fresh pin, or dirty after a missed re-base) — promoting it
        # would abandon the dead primary's surviving durable bytes.
        usable = {n: wm for n, wm in watermarks.items() if wm > 0}
        if not usable:
            # No follower holds a verified prefix (none answered, or
            # all fresh/dirty): fall back to cold-restarting the
            # current primary node from its own durable state — the
            # disk survived the process, and the pre-ship WAL flush
            # means it covers every acked write.
            self._fence_epoch()
            return
        best = pick_promotee(
            {f"{n:08d}": wm for n, wm in usable.items()}
        )
        promoted = int(best)
        old_primary = self.primary_node
        self.followers.pop(promoted).shutdown()
        self.primary_node = promoted
        self._fence_epoch()
        self.promotions += 1
        # The old primary's node rejoins as a follower over its
        # surviving storage (possibly holding an unshipped, divergent
        # WAL suffix — which is exactly why it comes back dirty).
        try:
            self._start_follower(old_primary)
        except Exception:
            pass  # it can join later; quorum math already excludes it

    def _fence_epoch(self) -> None:
        self.epoch = bump_epoch(
            DirStorage(root) for root in self.node_roots
        )
        for w in self.followers.values():
            if w.crashed:
                continue
            ch = SocketFollowerChannel(w.node_id, self.host, w.port)
            try:
                ch.send(encode_frame(MSG_HELLO, self.epoch, 0, ""))
                ch.recv()
            except ChannelDown:
                pass
            finally:
                ch.close()

    def stop(self) -> None:
        for w in list(self.followers.values()):
            if not w.crashed:
                try:
                    w.shutdown()
                except Exception:
                    w.crash()
        self.followers.clear()


class ReplicatedFailover(ShardFailover):
    """Shard failover whose replacement path is replica promotion.

    ``sets[shard_id]`` is the shard's :class:`ReplicatedShard`.  On a
    primary death the replacement worker is built over the promoted
    follower's storage at a bumped epoch; the router's epoch check then
    guarantees no request ever lands on a deposed worker that somehow
    lingers in the list.
    """

    def __init__(self, workers: list, sets: list, **kwargs):
        # The factory argument is unused — each set carries its own —
        # but the base class stores it for cold restarts.
        super().__init__(workers, None, **kwargs)
        self.sets = sets
        self.promotions = 0
        for s in sets:
            self.epochs[s.shard_id] = s.epoch

    async def _build_replacement(self, shard_id, crashed_worker, loop):
        rset = self.sets[shard_id]
        await loop.run_in_executor(None, rset.promote)
        w = rset.build_primary(
            policy=self.policy,
            n_workers=self.n_workers,
            batch_size=self.batch_size,
            batch_timeout=self.batch_timeout,
        )
        w.start()
        await loop.run_in_executor(None, w.wait_ready)
        self.promotions += 1
        self.epochs[shard_id] = rset.epoch
        return w
