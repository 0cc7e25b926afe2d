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
4-byte big-endian length-prefix framing, served — like UDP — inside the
receive callback, with per-connection backpressure: the server stops
*reading* a connection that has its budget of frames admitted, so the
kernel socket buffer — not an unbounded queue — absorbs the burst.

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
from collections import deque
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


class _TcpConn(asyncio.Protocol):
    """One TCP connection, served from the receive callback (the TCP
    twin of :class:`_Ingress`): ``data_received`` parses every complete
    frame the socket already held, admits each, runs them through the
    service as *one* ``ingress_batch`` and writes the replies with one
    ``transport.write`` — what the socket holds *is* the batch.

    Replies leave in request order.  A frame the callback cannot answer
    (a ``"pass"`` verdict, or a service with only ``async handle``)
    goes onto the ordered *tail*, as does every frame behind it; one
    lazily created task works the tail off under the slot lock.  A shed
    frame is answered with an empty frame in its position.  At most
    ``per_conn_budget`` frames are admitted at once: the buffer is served
    in chunks, a loop turn apart, and while the tail holds that many or
    the client is not reading, neither does the server."""

    def __init__(self, dp: "TcpDatapath"):
        self.dp = dp
        self.loop = asyncio.get_running_loop()
        self.transport = self.peer = None
        self.buf = bytearray()
        #: ``(serve, value)``: ``service.handle`` / ``.deliver`` and the
        #: payload it is owed (holds a slot), or None and a finished reply.
        self.tail: deque = deque()
        #: The tail's task, the idle deadline, and the next chunk's turn.
        self._tail_task = self._idle_timer = self._chunk = None
        self._write_paused = False  # client is not taking its replies
        self._eof = False           # no more input: FIN or a poisoned prefix
        self._progress = False      # a frame completed since _on_idle

    def connection_made(self, transport):
        self.transport = transport
        self.peer = transport.get_extra_info("peername")
        if not self.dp.admission.try_admit_connection(source=self.peer):
            return transport.abort()
        self.dp._conns.add(self)
        self._on_idle()

    def data_received(self, data):
        self.buf += data
        if self._chunk is None:
            self._serve()

    def eof_received(self):
        # Half-close: every complete frame already read is still served,
        # chunk by chunk and behind the tail; _serve closes after the last.
        self._eof = True
        self.transport.pause_reading()
        if self._chunk is None:
            self._serve()
        return True

    def pause_writing(self):
        self._write_paused = True
        self._flow()

    def resume_writing(self):
        self._write_paused = False
        self._flow()

    def connection_lost(self, exc):
        for handle in (self._idle_timer, self._tail_task, self._chunk):
            if handle is not None:
                handle.cancel()
        for serve, _ in self.tail:  # admitted, never to be answered
            if serve is not None:
                self.dp.admission.release()
        if self in self.dp._conns:
            self.dp._conns.discard(self)
            self.dp.admission.release_connection()

    def _flow(self) -> None:
        policy = self.dp.admission.policy
        if self._write_paused or len(self.tail) >= policy.per_conn_budget:
            self.transport.pause_reading()
        else:
            if not self._eof:
                self.transport.resume_reading()
            self._serve()

    def _on_idle(self, due: bool = False) -> None:
        """Slow-loris defence: abort a connection that for a whole deadline
        completed no frame with nothing owed to it, or left replies unread."""
        idle = self.dp.admission.policy.idle_timeout
        if due and not (self._progress
                        or self.tail and not self._write_paused):
            self.dp.admission.stats.idle_closed += 1
            self.transport.abort()
        elif idle is not None:
            self._progress = False
            self._idle_timer = self.loop.call_later(idle, self._on_idle, True)

    def _serve(self) -> None:
        """Serve the buffer's complete frames, as many as the budget allows."""
        dp, tail = self.dp, self.tail
        self._chunk = None
        if self._write_paused:
            return
        room = dp.admission.policy.per_conn_budget - len(tail)
        if room <= 0:
            dp.admission.stats.budget_stalls += 1
            return self._flow()
        buf, stats, admit = self.buf, dp.stats, dp.admission.try_admit
        off, frames = 0, []  # a frame: its payload, or None when shed
        while len(frames) < room and len(buf) - off >= FRAME_HDR.size:
            (length,) = FRAME_HDR.unpack_from(buf, off)
            if length == 0 or length > MAX_FRAME:
                # Garbage, and so is all behind it: serve what preceded
                # it, read no more, close once that is answered.
                stats.bad_frames += 1
                self._eof = True
                self.transport.pause_reading()
                del buf[off:]
                break
            end = off + FRAME_HDR.size + length
            if end > len(buf):
                break
            stats.received += 1
            payload = bytes(buf[off + FRAME_HDR.size:end])
            frames.append(payload if admit(source=self.peer) else None)
            off = end
        del buf[:off]
        self._progress = self._progress or off > 0
        payloads = [p for p in frames if p is not None]
        if payloads:
            stats.note_batch(len(payloads))
        ingress_batch = getattr(dp.service, "ingress_batch", None)
        if tail or ingress_batch is None:
            # Behind an unfinished request, or a handle-only service (a
            # shard router): in order, through the tail.
            handle = dp.service.handle
            tail.extend((None if p is None else handle, p) for p in frames)
        elif frames:
            try:
                results = iter(ingress_batch(payloads, dp.cpu)
                               if payloads else ())
            except BaseException:
                for _ in payloads:
                    dp.admission.release()
                raise
            out = []
            for payload in frames:
                serve = reply = None
                if payload is not None:
                    reply, path = next(results)
                    if path == "pass":
                        serve, reply = dp.service.deliver, payload
                    else:
                        dp.admission.release()
                if tail or serve is not None:
                    tail.append((serve, reply))
                else:
                    out.append(self._framed(reply))
            self.transport.write(b"".join(out))  # batched reply flush
        if tail and self._tail_task is None:
            self._tail_task = self.loop.create_task(self._run_tail())
        if len(frames) == room and buf:
            # The rest waits a loop turn: no burst monopolises the shard.
            self._chunk = self.loop.call_soon(self._serve)
        elif self._eof and not tail:
            self.transport.close()  # all that was read is answered

    def _framed(self, reply) -> bytes:
        if reply is None:  # dropped, refused or shed: an explicit empty frame
            self.dp.stats.no_reply += 1
            return FRAME_HDR.pack(0)
        self.dp.stats.replied += 1
        return FRAME_HDR.pack(len(reply)) + reply

    async def _run_tail(self) -> None:
        dp, tail = self.dp, self.tail
        try:
            while tail:
                serve, value = tail[0]
                if serve is not None:
                    async with dp._slot_lock:
                        value = await serve(value, dp.cpu)
                    dp.admission.release()
                tail.popleft()
                self.transport.write(self._framed(value))
                if not self.transport.is_reading():
                    self._flow()
        except Exception:
            # No reply to put in its place: reset, connection_lost cleans up.
            self.transport.abort()
            raise
        self._tail_task = None


class TcpDatapath:
    """Length-prefix-framed TCP server over one service.

    Every connection is a :class:`_TcpConn`: served in the receive
    callback, at most ``policy.per_conn_budget`` frames admitted at once
    (past that the server does not read — TCP flow control pushes back
    on the sender), replies written in request order.
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
    ):
        self.service = service
        self.host = host
        self._requested_port = port
        self.cpu = cpu
        self.admission = admission or AdmissionControl(policy)
        self.stats = DatapathStats()
        self._server: asyncio.AbstractServer | None = None
        self._slot_lock = asyncio.Lock()
        self._conns: set[_TcpConn] = set()
        self.port: int | None = None

    async def start(self) -> "TcpDatapath":
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _TcpConn(self), self.host, self._requested_port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self, drain_timeout: float | None = None) -> dict:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.admission.drain(
            drain_timeout, escalate=_drain_escalation(self.service)
        )
        # Close what clients left open (flushing replies), abort who will
        # not take them; connection_lost runs a loop turn after either.
        for close in ("close", "abort"):
            for conn in list(self._conns):
                getattr(conn.transport, close)()
            await asyncio.sleep(0)
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
