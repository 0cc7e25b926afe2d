"""Asyncio UDP/TCP servers with XDP-style ingress dispatch.

The receive path mirrors a NIC driver feeding an XDP program:

1. a datagram (or length-prefixed TCP frame) arrives on the wire;
2. admission control decides to admit or shed it
   (:mod:`repro.net.backpressure`);
3. an ingress worker stages it into the serving CPU's packet slot and
   runs the attached service (:mod:`repro.net.service`), which invokes
   the KFlex extension and maps its XDP verdict;
4. ``TX`` replies go straight back out; ``PASS`` payloads are delivered
   to the userspace server; ``DROP`` sends nothing.

**UDP** (:class:`UdpDatapath`) is the Memcached transport (the paper's
Fig. 2/3 workload).  **TCP** (:class:`TcpDatapath`) carries Redis with
4-byte big-endian length-prefix framing and per-connection
backpressure: the server stops *reading* a connection whose pipeline is
at budget, so the kernel socket buffer — not an unbounded queue —
absorbs the burst.

**Userspace delivery** (:class:`UserspaceEndpoint` +
:class:`UserspaceBridge`) models what ``XDP_PASS`` means on real
hardware: the packet traverses the rest of the stack and is delivered
to the application's socket.  Here that is a literal second loopback
hop — the ingress forwards the payload over UDP to the app server's
endpoint and awaits its answer — so the fast path's advantage
(skipping that hop) is physically real in every measurement.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from dataclasses import dataclass, field

from repro.net.backpressure import AdmissionControl, AdmissionPolicy

#: Socket buffer request for the UDP fast path — the stand-in for AF_XDP
#: rx/tx ring sizing.  Batched draining services many datagrams per loop
#: iteration, so bursts queue in the kernel socket buffer; the default
#: (often 212 KiB) overflows under pps-benchmark volleys and the drops
#: read as loss.  Best effort: the kernel clamps to net.core.rmem_max.
SOCK_BUF_BYTES = 1 << 20


def _grow_sock_bufs(transport: asyncio.BaseTransport) -> None:
    sock = transport.get_extra_info("socket")
    if sock is None:
        return
    for opt in (socket.SO_RCVBUF, socket.SO_SNDBUF):
        try:
            sock.setsockopt(socket.SOL_SOCKET, opt, SOCK_BUF_BYTES)
        except OSError:
            pass

#: TCP framing: 4-byte big-endian payload length.
FRAME_HDR = struct.Struct(">I")
#: Upper bound on a framed payload; larger prefixes are garbage and
#: poison the connection (FrameError semantics at the transport layer).
MAX_FRAME = 1 << 12

#: Correlation shim on the ingress->userspace hop (8-byte LE request id
#: prepended to the payload), so concurrent PASS deliveries resolve to
#: the right waiter.
_BRIDGE_HDR = struct.Struct("<Q")


@dataclass
class DatapathStats:
    received: int = 0
    replied: int = 0
    #: Admitted but answered with nothing (XDP_DROP or bad frame).
    no_reply: int = 0
    #: TCP frames whose length prefix was invalid (connection closed).
    bad_frames: int = 0
    #: Ingress batches drained through one service entry.
    batches: int = 0
    #: Batch-size histogram: drained size -> count.  Partial batches
    #: (timer fired, drain/stop flushed) show up as their actual size,
    #: so the histogram is also the batching-effectiveness telemetry.
    batch_hist: dict = field(default_factory=dict)

    def note_batch(self, size: int) -> None:
        self.batches += 1
        self.batch_hist[size] = self.batch_hist.get(size, 0) + 1

    def mean_batch(self) -> float:
        served = sum(s * c for s, c in self.batch_hist.items())
        return served / self.batches if self.batches else 0.0

    def merge(self, other: "DatapathStats") -> "DatapathStats":
        for f in ("received", "replied", "no_reply", "bad_frames", "batches"):
            setattr(self, f, getattr(self, f) + getattr(other, f))
        for size, count in other.batch_hist.items():
            self.batch_hist[size] = self.batch_hist.get(size, 0) + count
        return self


class _Ingress(asyncio.DatagramProtocol):
    """NIC side of the UDP datapath.

    Mirrors the XDP execution model: the extension runs *inside the
    receive callback* (the analog of the driver's NAPI context — no
    task creation, no queue, no lock), and only packets whose verdict
    sends them up the stack (``"pass"``) are handed to the worker
    queue for asynchronous delivery.  Never blocks.

    With ``batch_size > 1`` the callback turns into an AF_XDP/GRO-style
    accumulator: admitted datagrams collect in a pending batch until
    either the size budget fills or the time budget expires, then the
    whole batch drains through *one* service entry
    (``ingress_batch``) and the ``TX`` replies flush together.
    Admission stays strictly per packet — shedding happens before a
    packet ever joins a batch, so shed accounting is identical batched
    or not.
    """

    def __init__(self, dp: "UdpDatapath"):
        self.dp = dp
        self._pending: list = []  # admitted (data, addr) awaiting drain
        self._timer: asyncio.TimerHandle | None = None

    def connection_made(self, transport):
        self.dp._transport = transport

    def datagram_received(self, data, addr):
        dp = self.dp
        dp.stats.received += 1
        if not dp.admission.try_admit(source=addr):
            return  # shed: UDP silence, accounted by AdmissionControl
        if dp._sync_ingress and dp.batch_size > 1:
            self._pending.append((data, addr))
            if len(self._pending) >= dp.batch_size:
                self.flush()
            elif self._timer is None:
                self._timer = asyncio.get_event_loop().call_later(
                    dp.batch_timeout, self.flush
                )
            return
        if dp._sync_ingress:
            reply, path = dp.service.ingress(data, dp.cpu)
            if path != "pass":
                if reply is not None:
                    dp._transport.sendto(reply, addr)
                    dp.stats.replied += 1
                else:
                    dp.stats.no_reply += 1
                dp.admission.release()
                return
        self._enqueue(data, addr)

    def _enqueue(self, data, addr) -> None:
        dp = self.dp
        try:
            dp._queue.put_nowait((data, addr))
        except asyncio.QueueFull:
            # Un-admit: the request never reached the service stage.
            dp.admission.inflight -= 1
            dp.admission.stats.admitted -= 1
            dp.admission.stats.shed_queue += 1

    def flush(self) -> None:
        """Drain the pending batch through one service entry.

        Runs at the size budget, at the time budget, or from the
        datapath's graceful stop (a partial batch must still be served:
        its packets were admitted).  Replies are collected during the
        drain and flushed to the wire together afterwards.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch = self._pending
        if not batch:
            return
        self._pending = []
        dp = self.dp
        dp.stats.note_batch(len(batch))
        results = dp.service.ingress_batch([d for d, _ in batch], dp.cpu)
        replies = []
        for (data, addr), (reply, path) in zip(batch, results):
            if path == "pass":
                self._enqueue(data, addr)
            elif reply is not None:
                replies.append((reply, addr))
                dp.admission.release()
            else:
                dp.stats.no_reply += 1
                dp.admission.release()
        sendto = dp._transport.sendto
        for reply, addr in replies:  # batched TX flush
            sendto(reply, addr)
        dp.stats.replied += len(replies)


class UdpDatapath:
    """One UDP serving socket + ingress workers over one service.

    ``cpu`` pins the shard to a packet-slot/engine CPU id (the
    SO_REUSEPORT model: each sharded socket is served by one pinned
    worker).  ``n_workers`` > 1 lets PASS deliveries (which await the
    userspace hop) overlap; extension invocations themselves are
    serialized per CPU slot by ``_slot_lock``.

    ``batch_size`` > 1 enables batched ingress: admitted datagrams
    accumulate until the size budget fills or ``batch_timeout``
    (seconds) elapses, then drain through one service entry.  The
    default of 1 keeps the unbatched per-datagram path (latency-
    optimal for closed-loop clients); batching pays off under open-
    loop/pipelined offered load, where a backlog exists to amortize.
    """

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cpu: int = 0,
        policy: AdmissionPolicy | None = None,
        admission: AdmissionControl | None = None,
        n_workers: int = 4,
        batch_size: int = 1,
        batch_timeout: float = 0.002,
    ):
        self.service = service
        self.host = host
        self._requested_port = port
        self.cpu = cpu
        # ``admission`` injects a pre-built controller (e.g. an
        # AdaptiveAdmission whose limit the scenario harness steers);
        # by default each datapath owns a plain AdmissionControl.
        self.admission = admission or AdmissionControl(policy)
        self.stats = DatapathStats()
        self.n_workers = n_workers
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.batch_timeout = batch_timeout
        self._queue: asyncio.Queue | None = None
        self._transport = None
        self._ingress: _Ingress | None = None
        self._workers: list[asyncio.Task] = []
        self._slot_lock: asyncio.Lock | None = None
        self.port: int | None = None
        #: PacketService subclasses expose the split sync-ingress /
        #: async-deliver entry; plain ``handle``-only services (e.g. a
        #: shard router) take the queued path for every packet.
        self._sync_ingress = hasattr(service, "ingress")
        if batch_size > 1 and not hasattr(service, "ingress_batch"):
            raise ValueError(
                "batch_size > 1 needs a service with ingress_batch"
            )

    async def start(self) -> "UdpDatapath":
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.admission.policy.max_queue)
        self._slot_lock = asyncio.Lock()
        self._ingress = _Ingress(self)
        self._transport, _ = await loop.create_datagram_endpoint(
            lambda: self._ingress,
            local_addr=(self.host, self._requested_port),
        )
        _grow_sock_bufs(self._transport)
        self.port = self._transport.get_extra_info("sockname")[1]
        self._workers = [
            loop.create_task(self._worker()) for _ in range(self.n_workers)
        ]
        return self

    def queue_depth(self) -> int:
        """Staged-but-unserved packets — the overload signal an
        adaptive admission controller observes."""
        return self._queue.qsize() if self._queue is not None else 0

    async def _worker(self) -> None:
        while True:
            data, addr = await self._queue.get()
            try:
                if self._sync_ingress:
                    # Ingress already ran in the receive callback with
                    # a "pass" verdict; finish with stack delivery.
                    reply = await self.service.deliver(data, self.cpu)
                else:
                    async with self._slot_lock:
                        reply = await self.service.handle(data, self.cpu)
                if reply is not None:
                    self._transport.sendto(reply, addr)
                    self.stats.replied += 1
                else:
                    self.stats.no_reply += 1
            finally:
                self.admission.release()
                self._queue.task_done()

    async def stop(self, drain_timeout: float | None = None) -> dict:
        """Graceful drain: close intake, serve what was admitted, then
        verify extension quiescence.  Returns the quiescence report.

        ``drain_timeout`` bounds the wait for in-flight requests; on
        expiry the stuck extension is quarantined through the
        supervisor (reason ``drain_timeout``) and the stragglers are
        cancelled with the workers instead of blocking shutdown.
        """
        if self._ingress is not None:
            # A partial batch waiting on its time budget holds admitted
            # packets; serve it (and send its replies) before the socket
            # closes, so the drain below can complete.
            self._ingress.flush()
        if self._transport is not None:
            self._transport.close()  # no new datagrams
        await self.admission.drain(
            drain_timeout, escalate=_drain_escalation(self.service)
        )
        for w in self._workers:
            w.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        report = self.service.quiescence_report()
        self.service.close()
        return report


def _drain_escalation(service):
    """Supervisor escalation for a drain that blew its deadline: the
    extension holding up the drain cannot be trusted to terminate, so
    it is quarantined (reason ``drain_timeout``) — same treatment the
    watchdog gives a non-terminating invocation.  Services without a
    runtime/extension (e.g. a shard router) escalate to a no-op."""
    rt = getattr(service, "runtime", None)
    ext = getattr(service, "ext", None)
    if rt is None or ext is None:
        return None

    def escalate():
        if not ext.dead:
            rt.supervisor.quarantine(ext, "drain_timeout")

    return escalate


class TcpDatapath:
    """Length-prefix-framed TCP server over one service.

    Per-connection pipeline: frames are read into a bounded queue
    (``policy.per_conn_budget``); while it is full the reader does not
    read — TCP flow control pushes back on the sender.  Replies are
    written in request order.

    ``batch_size`` > 1 makes the per-connection reader an accumulator:
    after the first frame of a batch it keeps reading until the size
    budget fills or ``batch_timeout`` elapses, and the writer then
    serves the whole batch under one slot-lock acquisition and flushes
    the reply frames in a single write.  Admission stays per frame;
    the pipeline budget counts batches while batching is on.
    """

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cpu: int = 0,
        policy: AdmissionPolicy | None = None,
        admission: AdmissionControl | None = None,
        batch_size: int = 1,
        batch_timeout: float = 0.002,
    ):
        self.service = service
        self.host = host
        self._requested_port = port
        self.cpu = cpu
        self.admission = admission or AdmissionControl(policy)
        self.stats = DatapathStats()
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.batch_timeout = batch_timeout
        self._server: asyncio.AbstractServer | None = None
        self._slot_lock: asyncio.Lock | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self.port: int | None = None

    async def start(self) -> "TcpDatapath":
        self._slot_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def _on_connection(self, reader, writer):
        peer = writer.get_extra_info("peername")
        if not self.admission.try_admit_connection(source=peer):
            writer.close()
            return
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        budget = self.admission.policy.per_conn_budget
        pipeline: asyncio.Queue = asyncio.Queue(maxsize=budget)
        loop = asyncio.get_running_loop()
        writer_task = loop.create_task(self._conn_writer(pipeline, writer))
        try:
            await self._conn_reader(reader, pipeline, source=peer)
        except asyncio.CancelledError:
            pass  # server stopping; fall through to cleanup
        finally:
            writer_task.cancel()
            await asyncio.gather(writer_task, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self.admission.release_connection()
            self._conn_tasks.discard(task)

    async def _read_frame(self, reader, timeout: float | None = None,
                          *, bound_payload: bool = False):
        """Read one length-prefixed frame; None poisons the stream.

        A ``timeout`` (batch time budget) applies to the *header* read
        only: cancelling ``readexactly`` mid-wait leaves partial bytes
        in the stream buffer, so timing out there keeps the stream in
        sync, whereas a timeout between header and payload would not.

        ``bound_payload`` is the idle-deadline mode: the timeout also
        covers the payload read, because a slow-loris client's favorite
        move is sending the header and trickling the body.  A payload
        timeout *does* desync the stream — which is fine, because the
        caller closes the connection on it.
        """
        if timeout is None:
            hdr = await reader.readexactly(FRAME_HDR.size)
        else:
            hdr = await asyncio.wait_for(
                reader.readexactly(FRAME_HDR.size), timeout
            )
        (length,) = FRAME_HDR.unpack(hdr)
        if length == 0 or length > MAX_FRAME:
            self.stats.bad_frames += 1
            return None
        if bound_payload and timeout is not None:
            payload = await asyncio.wait_for(
                reader.readexactly(length), timeout
            )
        else:
            payload = await reader.readexactly(length)
        self.stats.received += 1
        return payload

    async def _conn_reader(self, reader, pipeline: asyncio.Queue,
                           source=None) -> None:
        bsz = self.batch_size
        idle = self.admission.policy.idle_timeout
        loop = asyncio.get_running_loop()
        poisoned = False
        try:
            while not poisoned:
                # First frame of a batch: wait as long as it takes —
                # unless an idle deadline is set, in which case a
                # connection that produces no complete frame within it
                # is closed and its slots released (slow-loris defence).
                batch = []
                deadline = None
                while len(batch) < bsz:
                    if deadline is None:
                        try:
                            payload = await self._read_frame(
                                reader, idle, bound_payload=idle is not None
                            )
                        except asyncio.TimeoutError:
                            self.admission.stats.idle_closed += 1
                            poisoned = True
                            break
                    else:
                        left = deadline - loop.time()
                        if left <= 0:
                            break
                        try:
                            payload = await self._read_frame(reader, left)
                        except asyncio.TimeoutError:
                            break  # time budget spent: drain what we have
                    if payload is None:
                        poisoned = True
                        break
                    if not self.admission.try_admit(source=source):
                        continue  # shed this frame; connection stays up
                    batch.append(payload)
                    if deadline is None:
                        if bsz == 1:
                            break
                        deadline = loop.time() + self.batch_timeout
                if batch:
                    if pipeline.full():
                        self.admission.stats.budget_stalls += 1
                    await pipeline.put(batch)  # blocks at budget: backpressure
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        finally:
            # Serve everything already admitted into the pipeline before
            # the writer is torn down, so no admitted frame leaks an
            # in-flight slot.
            await pipeline.join()

    async def _conn_writer(self, pipeline: asyncio.Queue, writer) -> None:
        idle = self.admission.policy.idle_timeout
        while True:
            batch = await pipeline.get()
            self.stats.note_batch(len(batch))
            try:
                out = bytearray()
                async with self._slot_lock:
                    # One lock round trip serves the whole batch; the
                    # service still runs per-frame semantics inside.
                    for payload in batch:
                        reply = await self.service.handle(payload, self.cpu)
                        if reply is not None:
                            out += FRAME_HDR.pack(len(reply))
                            out += reply
                            self.stats.replied += 1
                        else:
                            # Framed transport cannot stay silent
                            # without stalling the client: an explicit
                            # empty frame signals "dropped / shed".
                            out += FRAME_HDR.pack(0)
                            self.stats.no_reply += 1
                writer.write(bytes(out))  # batched reply flush
                if idle is None:
                    await writer.drain()
                else:
                    # A client that stops *reading* pins the reply in
                    # the send buffer and would park this drain — and
                    # the budget's worth of admission slots behind it —
                    # forever.  The idle deadline bounds it; on expiry
                    # the connection is aborted (RST analog) and the
                    # reader's next read tears the connection down.
                    try:
                        await asyncio.wait_for(writer.drain(), idle)
                    except asyncio.TimeoutError:
                        self.admission.stats.idle_closed += 1
                        writer.transport.abort()
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                for _ in batch:
                    self.admission.release()
                pipeline.task_done()

    async def stop(self, drain_timeout: float | None = None) -> dict:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.admission.drain(
            drain_timeout, escalate=_drain_escalation(self.service)
        )
        if self._conn_tasks:
            # Connections usually wind down on their own once clients
            # disconnect; only force-cancel stragglers.
            await asyncio.wait(list(self._conn_tasks), timeout=1.0)
        for t in list(self._conn_tasks):
            t.cancel()
        await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        report = self.service.quiescence_report()
        self.service.close()
        return report


# ---------------------------------------------------------------------------
# Userspace delivery: the XDP_PASS hop
# ---------------------------------------------------------------------------


class UserspaceEndpoint:
    """The userspace application's socket: a UDP endpoint wrapping a
    synchronous ``handler(payload) -> reply | None`` (e.g.
    ``UserspaceMemcached.handle``).

    Payloads arrive with the bridge's correlation header; replies are
    sent back to the ingress with the same header.
    """

    def __init__(self, handler, *, host: str = "127.0.0.1", port: int = 0):
        self.handler = handler
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self._transport = None
        self.served = 0
        self.errors = 0

    async def start(self) -> "UserspaceEndpoint":
        loop = asyncio.get_running_loop()
        outer = self

        class _Proto(asyncio.DatagramProtocol):
            def connection_made(self, tr):
                self.tr = tr

            def datagram_received(self, data, addr):
                if len(data) < _BRIDGE_HDR.size:
                    outer.errors += 1
                    return
                shim, payload = data[: _BRIDGE_HDR.size], data[_BRIDGE_HDR.size :]
                try:
                    reply = outer.handler(payload)
                except ValueError:
                    outer.errors += 1
                    return
                outer.served += 1
                if reply is not None:
                    self.tr.sendto(shim + reply, addr)

        self._transport, _ = await loop.create_datagram_endpoint(
            _Proto, local_addr=(self.host, self._requested_port)
        )
        self.port = self._transport.get_extra_info("sockname")[1]
        return self

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()


class UserspaceBridge:
    """Ingress-side client of a :class:`UserspaceEndpoint`.

    ``request(payload)`` is the awaitable the service uses as its
    userspace path: it forwards the payload over the real loopback hop
    and resolves with the app server's reply (or ``None`` on timeout,
    which the datapath treats as a drop).
    """

    def __init__(self, endpoint_port: int, *, host: str = "127.0.0.1",
                 timeout: float = 2.0):
        self.host = host
        self.endpoint_port = endpoint_port
        self.timeout = timeout
        self._transport = None
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self.forwarded = 0
        self.timeouts = 0

    async def start(self) -> "UserspaceBridge":
        loop = asyncio.get_running_loop()
        outer = self

        class _Proto(asyncio.DatagramProtocol):
            def datagram_received(self, data, addr):
                if len(data) < _BRIDGE_HDR.size:
                    return
                (rid,) = _BRIDGE_HDR.unpack_from(data)
                fut = outer._pending.pop(rid, None)
                if fut is not None and not fut.done():
                    fut.set_result(data[_BRIDGE_HDR.size :])

        self._transport, _ = await loop.create_datagram_endpoint(
            _Proto, remote_addr=(self.host, self.endpoint_port)
        )
        return self

    async def request(self, payload: bytes) -> bytes | None:
        rid = self._next_id
        self._next_id += 1
        fut = asyncio.get_running_loop().create_future()
        self._pending[rid] = fut
        self._transport.sendto(_BRIDGE_HDR.pack(rid) + payload)
        self.forwarded += 1
        try:
            return await asyncio.wait_for(fut, self.timeout)
        except asyncio.TimeoutError:
            self._pending.pop(rid, None)
            self.timeouts += 1
            return None

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
