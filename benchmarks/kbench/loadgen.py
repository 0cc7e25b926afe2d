"""Bench-owned closed-loop load generators (UDP and framed TCP).

One client process, ``N_SOCKETS`` sockets; each socket
keeps ``window`` requests outstanding and sends the next one when a
reply arrives.  Replies are matched FIFO per socket and compared
byte-for-byte with the oracle's expected reply.  Nothing here imports
``repro.net.client``: editing the repository's own load generator must
not move a kbench number.
"""

from __future__ import annotations

import gc
import socket
import struct
import time
from array import array
from collections import deque
from dataclasses import dataclass, field

FRAME_HDR = struct.Struct(">I")
#: A socket with requests outstanding and no reply for this long has
#: lost them (UDP silence); they count as failed and the window refills.
REPLY_TIMEOUT_S = 2.0


@dataclass
class RoundResult:
    """Client-side view of one round."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    get_ns: array = field(default_factory=lambda: array("q"))
    set_ns: array = field(default_factory=lambda: array("q"))


class _Conn:
    """One socket's sliding window over a slice of its stream."""

    def __init__(self, sock, stream, framed: bool):
        self.sock = sock
        self.stream = stream
        self.framed = framed
        self.buf = bytearray()
        self.outstanding: deque = deque()  # (index, send time ns)
        self.next = 0
        self.end = 0

    def send_next(self) -> None:
        i = self.next
        self.next = i + 1
        req = self.stream.requests[i]
        if self.framed:
            req = FRAME_HDR.pack(len(req)) + req
        self.outstanding.append((i, time.perf_counter_ns()))
        self.sock.sendall(req)

    def replies(self):
        """Drain the socket; yields one payload per reply (``b""`` is
        the framed transport's explicit "dropped" frame)."""
        sock = self.sock
        while True:
            try:
                data = sock.recv(65536, socket.MSG_DONTWAIT)
            except BlockingIOError:
                return
            if not self.framed:
                yield data
                continue
            if not data:
                raise ConnectionError("server closed the connection")
            buf = self.buf
            buf += data
            off = 0
            while len(buf) - off >= FRAME_HDR.size:
                (n,) = FRAME_HDR.unpack_from(buf, off)
                if len(buf) - off - FRAME_HDR.size < n:
                    break
                start = off + FRAME_HDR.size
                yield bytes(buf[start:start + n])
                off = start + n
            del buf[:off]


class LoadGen:
    """Sliding-window client over ``len(streams)`` sockets.

    The client busy-polls its sockets.  A client that sleeps in
    ``select`` between replies is woken by each of the server's sends,
    and whether it got back to sleep before the next send depends on
    which side is a few microseconds faster: the server's cost per
    request then flips between two regimes 40 % apart (measured) on
    changes that have nothing to do with the server.  A client that
    never sleeps has one regime."""

    def __init__(self, port: int, streams, *, transport: str, window: int):
        self.window = window
        self.conns = []
        for stream in streams:
            if transport == "udp":
                sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            else:
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.connect(("127.0.0.1", port))
            self.conns.append(_Conn(sock, stream, framed=transport == "tcp"))

    def set_streams(self, streams) -> None:
        """Switch every socket to a new stream (seeding, then load)."""
        for conn, stream in zip(self.conns, streams):
            conn.stream = stream
            conn.next = conn.end = 0

    def _refill(self, conn: _Conn) -> None:
        while conn.next < conn.end and len(conn.outstanding) < self.window:
            conn.send_next()

    def run(self, n_per_socket: int) -> RoundResult:
        """Send the next ``n_per_socket`` requests of every stream and
        wait for their replies.

        The client's own collector is off for the round: nothing here
        makes reference cycles, and a collection pass between a reply's
        arrival and its timestamp would be charged to the server."""
        res = RoundResult()
        gc.disable()
        try:
            self._run(n_per_socket, res)
        finally:
            gc.enable()
        return res

    def _run(self, n_per_socket: int, res: RoundResult) -> None:
        t_start = time.perf_counter()
        for conn in self.conns:
            conn.end = min(conn.next + n_per_socket,
                           len(conn.stream.requests))
            res.attempted += conn.end - conn.next
            self._refill(conn)
        live = [conn for conn in self.conns if conn.outstanding]
        last_reply = time.perf_counter()
        while live:
            got = 0
            for conn in live:
                got += self._drain(conn, res)
            if got:
                last_reply = time.perf_counter()
                live = [conn for conn in live if conn.outstanding]
            elif time.perf_counter() - last_reply > REPLY_TIMEOUT_S:
                # Nothing for a whole timeout: every outstanding request
                # is lost.  Count them and keep the loop closed.
                for conn in live:
                    res.failed += len(conn.outstanding)
                    conn.outstanding.clear()
                    self._refill(conn)
                live = [conn for conn in live if conn.outstanding]
                last_reply = time.perf_counter()
        res.wall_s = time.perf_counter() - t_start

    def _drain(self, conn: _Conn, res: RoundResult) -> int:
        """Match the replies that have arrived FIFO, refilling the
        window; returns how many there were."""
        stream = conn.stream
        expected = stream.expected
        outstanding = conn.outstanding
        got = 0
        for data in conn.replies():
            now = time.perf_counter_ns()
            got += 1
            if not outstanding:
                res.failed += 1  # a reply nobody asked for
                continue
            i, t0 = outstanding.popleft()
            if data != expected[i]:
                # Either this request's reply is wrong, or replies to
                # earlier requests were lost and this one answers a
                # later request.  Resynchronise on an exact match.
                res.failed += 1
                later = next((n for n, (j, _) in enumerate(outstanding)
                              if data == expected[j]), None)
                if later is None:
                    i = None
                else:
                    res.failed += later
                    for _ in range(later):
                        outstanding.popleft()
                    i, t0 = outstanding.popleft()
            if i is not None:
                (res.set_ns if stream.is_set[i] else res.get_ns).append(now - t0)
            self._refill(conn)
        return got

    def close(self) -> None:
        for conn in self.conns:
            conn.sock.close()
