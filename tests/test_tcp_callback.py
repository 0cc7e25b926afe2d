"""The TCP receive callback, driven without sockets (tier-1).

``TcpDatapath`` serves a connection from an ``asyncio.Protocol``, so a
fake transport is enough to drive it: ``connection_made(fake)``, then
``data_received(bytes)``.  The real-socket twins of these cases live in
``test_net_datapath.py`` / ``test_net_slow_client.py`` (``-m net``).
"""

import asyncio

from repro.apps.memcached import protocol as P
from repro.net import AdmissionControl, AdmissionPolicy, TcpDatapath
from repro.net.datapath import FRAME_HDR, MAX_FRAME, _TcpConn
from repro.net.service import DurableMemcachedService
from repro.state import DurableStore, MemStorage
from repro.state.replication import (
    LocalChannel,
    QuorumShipper,
    ReplicaSession,
)


class FakeTransport:
    def __init__(self, peer=("10.0.0.1", 4242)):
        self.peer = peer
        self.writes = []
        self.reading = True
        self.closed = self.aborted = False

    def get_extra_info(self, name):
        return self.peer if name == "peername" else None

    def write(self, data):
        self.writes.append(bytes(data))

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def is_reading(self):
        return self.reading and not self.closed

    def close(self):
        self.closed = True

    def abort(self):
        self.closed = self.aborted = True

    def replies(self):
        """The reply payloads written so far (``b""``: empty frame)."""
        blob, out, off = b"".join(self.writes), [], 0
        while off < len(blob):
            (n,) = FRAME_HDR.unpack_from(blob, off)
            out.append(blob[off + 4:off + 4 + n])
            off += 4 + n
        assert off == len(blob)
        return out


class ScriptedService:
    """Verdict by first byte: ``P`` passes up the stack (``deliver``
    waits for ``gate``), ``D`` drops, anything else is answered from
    the hook with the payload reversed."""

    def __init__(self):
        self.batches = []
        self.gate = asyncio.Event()
        self.handled = []

    def ingress_batch(self, payloads, cpu=0):
        self.batches.append(list(payloads))
        return [self._verdict(p) for p in payloads]

    def _verdict(self, p):
        if p[:1] == b"P":
            return None, "pass"
        if p[:1] == b"D":
            return None, "drop"
        return p[::-1], "kernel"

    async def deliver(self, payload, cpu=0):
        await self.gate.wait()
        return b"delivered:" + payload

    async def handle(self, payload, cpu=0):
        self.handled.append(payload)
        reply, path = self._verdict(payload)
        return await self.deliver(payload, cpu) if path == "pass" else reply

    def quiescence_report(self):
        return {"sock_refs": 0, "held_locks": 0, "live_extensions": 0}

    def close(self):
        pass


class HandleOnly:
    """A service with only ``async handle`` (the shard router's shape);
    every request waits for one ``release()``."""

    def __init__(self):
        self.waiting = []
        self.max_admitted = 0
        self.admission = None

    async def handle(self, payload, cpu=0):
        self.max_admitted = max(self.max_admitted, self.admission.inflight)
        fut = asyncio.get_running_loop().create_future()
        self.waiting.append(fut)
        await fut
        return payload.upper()

    def release(self):
        self.waiting.pop(0).set_result(None)


def _framed(*payloads):
    return b"".join(FRAME_HDR.pack(len(p)) + p for p in payloads)


def _connect(dp, peer=("10.0.0.1", 4242)):
    conn, tr = _TcpConn(dp), FakeTransport(peer)
    conn.connection_made(tr)
    return conn, tr


async def _turns(n=4):
    for _ in range(n):
        await asyncio.sleep(0)


def _run(coro):
    return asyncio.run(coro)


# -- parsing -----------------------------------------------------------------


def test_split_at_every_byte_boundary_equals_one_read():
    async def run():
        stream = _framed(b"alpha", b"D", b"b" * 300, b"omega")
        conn, whole = _connect(TcpDatapath(ScriptedService()))
        conn.data_received(stream)
        want = whole.replies()
        assert want == [b"ahpla", b"", b"b" * 300, b"agemo"]
        for cut in range(1, len(stream)):
            dp = TcpDatapath(ScriptedService())
            conn, tr = _connect(dp)
            conn.data_received(stream[:cut])
            conn.data_received(stream[cut:])
            assert tr.replies() == want, cut
            assert dp.stats.received == 4 and dp.admission.inflight == 0
            assert (dp.stats.replied, dp.stats.no_reply) == (3, 1)

    _run(run())


def test_one_read_is_one_ingress_batch_and_one_write():
    async def run():
        svc = ScriptedService()
        dp = TcpDatapath(svc, policy=AdmissionPolicy(per_conn_budget=8))
        conn, tr = _connect(dp)
        conn.data_received(_framed(*[b"r%d" % i for i in range(6)]))
        assert [len(b) for b in svc.batches] == [6]
        assert len(tr.writes) == 1 and len(tr.replies()) == 6
        assert dp.stats.batch_hist == {6: 1}
        # A burst over the budget is served in chunks of the budget,
        # a loop turn apart: nothing past the first chunk yet.
        conn.data_received(_framed(*[b"s%d" % i for i in range(20)]))
        assert [len(b) for b in svc.batches] == [6, 8]
        conn.data_received(b"")  # more data does not jump the queue
        assert [len(b) for b in svc.batches] == [6, 8]
        await _turns()
        assert [len(b) for b in svc.batches] == [6, 8, 8, 4]
        assert len(tr.writes) == 4
        assert tr.replies()[6:] == [(b"s%d" % i)[::-1] for i in range(20)]
        assert dp.stats.mean_batch() == 26 / 4
        assert dp.admission.inflight == 0

    _run(run())


def test_poisoned_prefix_serves_what_preceded_it_then_closes():
    async def run():
        for poison in (FRAME_HDR.pack(0), FRAME_HDR.pack(MAX_FRAME + 1)):
            dp = TcpDatapath(ScriptedService())
            conn, tr = _connect(dp)
            conn.data_received(_framed(b"one", b"two") + poison + b"junk")
            assert tr.replies() == [b"eno", b"owt"]
            assert dp.stats.bad_frames == 1 and tr.closed and not tr.aborted
            assert dp.stats.received == 2 and dp.admission.inflight == 0

    _run(run())


def test_poisoned_prefix_behind_a_pass_stops_reading_at_once():
    async def run():
        svc = ScriptedService()
        dp = TcpDatapath(svc)
        conn, tr = _connect(dp)
        conn.data_received(_framed(b"Pass", b"two") + FRAME_HDR.pack(0) + b"junk")
        # The pass is still owed its reply, so the connection stays open,
        # but nothing more is read into the buffer while it waits.
        assert not tr.closed and not tr.reading and not conn.buf
        await _turns()
        assert tr.replies() == [] and not tr.reading
        svc.gate.set()
        await _turns()
        assert tr.replies() == [b"delivered:Pass", b"owt"]
        assert tr.closed and not tr.aborted and not tr.reading
        assert dp.stats.bad_frames == 1 and dp.admission.inflight == 0

    _run(run())


# -- reply order ----------------------------------------------------------------


def test_pass_in_the_middle_of_a_batch_keeps_reply_order():
    async def run():
        svc = ScriptedService()
        dp = TcpDatapath(svc)
        conn, tr = _connect(dp)
        conn.data_received(_framed(b"a1", b"Pass", b"c3", b"D"))
        # Only what precedes the pass has left; the pass holds its slot
        # (the finished frames behind it gave theirs back).
        assert tr.replies() == [b"1a"] and dp.admission.inflight == 1
        conn.data_received(_framed(b"e5"))  # behind the tail: waits too
        await _turns()
        assert tr.replies() == [b"1a"] and dp.admission.inflight == 2
        svc.gate.set()
        await _turns()
        assert tr.replies() == [b"1a", b"delivered:Pass", b"3c", b"", b"5e"]
        assert svc.handled == [b"e5"] and len(svc.batches) == 1
        assert dp.admission.inflight == 0 and conn._tail_task is None
        # The tail is gone: the next read is served in the callback.
        conn.data_received(_framed(b"f6"))
        assert tr.replies()[-1] == b"6f" and len(svc.batches) == 2

    _run(run())


def test_connection_lost_with_frames_in_the_tail_releases_every_slot():
    async def run():
        svc = ScriptedService()
        dp = TcpDatapath(svc)
        conn, tr = _connect(dp)
        conn.data_received(_framed(b"Pa", b"Pb", b"c", b"Pd"))
        await _turns()
        assert dp.admission.inflight == 3 and dp.admission.connections == 1
        task = conn._tail_task
        conn.connection_lost(None)
        await _turns()
        assert task.cancelled()
        assert dp.admission.inflight == 0 and dp.admission.connections == 0
        assert dp.admission.stats.admitted == dp.admission.stats.completed
        assert tr.replies() == []

    _run(run())


def test_half_close_still_answers_what_was_read():
    async def run():
        svc = ScriptedService()
        dp = TcpDatapath(svc, policy=AdmissionPolicy(per_conn_budget=4))
        conn, tr = _connect(dp)
        # Ten requests, then FIN: the chunks not yet served still are, a
        # loop turn apart, and a pending pass keeps the transport open
        # until it is answered.
        conn.data_received(_framed(*[b"q%d" % i for i in range(9)], b"Pq"))
        assert len(tr.replies()) == 4
        assert conn.eof_received() is True and not tr.closed
        await _turns()
        assert len(tr.replies()) == 9 and dp.admission.inflight == 1
        assert not tr.closed
        svc.gate.set()
        await _turns()
        assert tr.replies()[-1] == b"delivered:Pq" and tr.closed
        # With nothing owed, the connection closes at once.
        conn2, tr2 = _connect(dp)
        conn2.data_received(_framed(b"x"))
        assert not tr2.closed
        conn2.eof_received()
        assert tr2.replies() == [b"x"] and tr2.closed and not tr2.aborted

    _run(run())


def test_half_close_behind_a_pass_in_the_middle_answers_every_frame():
    async def run():
        svc = ScriptedService()
        dp = TcpDatapath(svc, policy=AdmissionPolicy(per_conn_budget=4))
        conn, tr = _connect(dp)
        # q0..q3, P, q5..q9, FIN.  The second chunk parks four entries on
        # the tail (at budget), the third stalls behind them: q8 and q9
        # are still in the buffer when the FIN arrives and when the pass
        # is finally delivered.
        frames = [b"q%d" % i for i in range(10)]
        frames[4] = b"Pq"
        conn.data_received(_framed(*frames))
        conn.eof_received()
        await _turns()
        assert len(tr.replies()) == 4 and len(conn.tail) == 4
        assert len(conn.buf) == len(_framed(b"q8", b"q9"))
        assert dp.admission.stats.budget_stalls >= 1 and not tr.closed
        svc.gate.set()
        await _turns(8)
        want = [f[::-1] for f in frames]
        want[4] = b"delivered:Pq"
        assert tr.replies() == want and tr.closed and not tr.aborted
        assert not tr.reading       # a FIN'd socket is never resumed
        assert dp.stats.received == 10 and dp.admission.inflight == 0

    _run(run())


def test_half_close_waits_for_a_client_that_is_not_reading():
    async def run():
        svc = ScriptedService()
        conn, tr = _connect(TcpDatapath(svc))
        conn.pause_writing()
        conn.data_received(_framed(b"late"))
        conn.eof_received()
        assert tr.replies() == [] and not tr.closed
        conn.resume_writing()
        assert tr.replies() == [b"etal"] and tr.closed and not tr.reading

    _run(run())


def test_handle_only_service_is_paced_by_the_connection_budget():
    async def run():
        svc = HandleOnly()
        dp = TcpDatapath(svc, policy=AdmissionPolicy(per_conn_budget=2))
        svc.admission = dp.admission
        conn, tr = _connect(dp)
        conn.data_received(_framed(b"a", b"b", b"c", b"d", b"e"))
        await _turns()
        # Two admitted, the rest still in the buffer, the socket unread.
        assert dp.admission.inflight == 2 and not tr.reading
        assert dp.admission.stats.budget_stalls >= 1
        for done in range(1, 6):
            svc.release()
            await _turns()
            assert len(tr.replies()) == done
        assert tr.replies() == [b"A", b"B", b"C", b"D", b"E"]
        assert svc.max_admitted == 2 and tr.reading
        assert dp.admission.inflight == 0

    _run(run())


# -- shedding and refusal -------------------------------------------------------


def test_shed_frames_are_answered_with_an_empty_frame():
    async def run():
        dp = TcpDatapath(ScriptedService(),
                         policy=AdmissionPolicy(max_inflight=0))
        conn, tr = _connect(dp)
        conn.data_received(_framed(b"a", b"b", b"c"))
        assert tr.replies() == [b"", b"", b""]
        assert dp.admission.stats.shed_inflight == 3
        assert dp.stats.no_reply == 3 and dp.admission.inflight == 0
        assert dp.service.batches == []

    _run(run())


class _ShedSecond(AdmissionControl):
    calls = 0

    def try_admit(self, source=None):
        self.calls += 1
        if self.calls == 2:
            self.stats.shed_inflight += 1
            return False
        return super().try_admit(source)


def test_shed_in_the_middle_keeps_its_position_in_the_reply_order():
    async def run():
        svc = ScriptedService()
        dp = TcpDatapath(svc, admission=_ShedSecond())
        conn, tr = _connect(dp)
        conn.data_received(_framed(b"A1", b"B2", b"C3"))
        assert tr.replies() == [b"1A", b"", b"3C"]
        assert svc.batches == [[b"A1", b"C3"]] and len(tr.writes) == 1
        assert dp.stats.batch_hist == {2: 1} and dp.admission.inflight == 0
        # Same behind a pass: the shed marker waits its turn in the tail.
        dp.admission.calls = 0
        conn.data_received(_framed(b"P1", b"B2", b"C3"))
        svc.gate.set()
        await _turns()
        assert tr.replies()[3:] == [b"delivered:P1", b"", b"3C"]
        assert dp.admission.inflight == 0

    _run(run())


def test_connection_over_the_cap_is_closed_on_sight():
    async def run():
        svc = ScriptedService()
        dp = TcpDatapath(svc, policy=AdmissionPolicy(max_connections=1))
        first, tr1 = _connect(dp)
        second, tr2 = _connect(dp, peer=("10.0.0.2", 1))
        assert tr2.closed and not tr1.closed
        assert dp.admission.stats.refused_connections == 1
        assert dp.admission.stats.shed_by_source == {("10.0.0.2", 1): 1}
        second.connection_lost(None)
        assert dp.admission.connections == 1
        first.connection_lost(None)
        assert dp.admission.connections == 0

    _run(run())


# -- flow control, idle deadline, stop -------------------------------------------


def test_pause_writing_stops_reading_until_the_client_drains():
    async def run():
        svc = ScriptedService()
        conn, tr = _connect(TcpDatapath(svc))
        conn.pause_writing()
        assert not tr.reading
        conn.data_received(_framed(b"late"))   # already in flight
        assert tr.replies() == [] and svc.batches == []
        conn.resume_writing()
        assert tr.reading and tr.replies() == [b"etal"]

    _run(run())


def test_idle_deadline_reaps_a_partial_frame_and_an_unread_reply():
    async def run():
        policy = AdmissionPolicy(idle_timeout=0.02)
        dp = TcpDatapath(ScriptedService(), policy=policy)
        loris, tr1 = _connect(dp)
        loris.data_received(FRAME_HDR.pack(40) + b"\xaa")   # and silence
        deaf, tr2 = _connect(dp)
        deaf.data_received(_framed(b"x"))
        deaf.pause_writing()                   # never drains its reply
        busy, tr3 = _connect(dp)
        for _ in range(8):
            busy.data_received(_framed(b"ping"))
            await asyncio.sleep(0.01)
        assert tr1.aborted and tr2.aborted and not tr3.closed
        assert dp.admission.stats.idle_closed == 2
        for conn in (loris, deaf, busy):
            conn.connection_lost(None)
        await asyncio.sleep(0.05)              # cancelled timers stay quiet
        assert dp.admission.stats.idle_closed == 2
        assert dp.admission.connections == 0

    _run(run())


def test_stop_drains_then_closes_connections():
    async def run():
        svc = ScriptedService()
        dp = TcpDatapath(svc)
        conn, tr = _connect(dp)
        conn.data_received(_framed(b"Pz", b"y"))
        asyncio.get_running_loop().call_later(0.02, svc.gate.set)
        report = await dp.stop(drain_timeout=2.0)
        assert report["sock_refs"] == 0
        assert tr.replies() == [b"delivered:Pz", b"y"] and tr.closed
        assert dp.admission.inflight == 0
        assert dp.admission.stats.drain_timeouts == 0
        # A frame arriving while draining is shed, explicitly.
        conn.data_received(_framed(b"late"))
        assert tr.replies()[-1] == b"" and dp.admission.stats.shed_draining == 1

    _run(run())


# -- the group commit behind one read ------------------------------------------


def test_no_reply_of_a_read_leaves_before_its_group_is_durable_and_shipped():
    async def run():
        sessions = [ReplicaSession(MemStorage(), node_id=f"n{i}")
                    for i in range(2)]
        shipper = QuorumShipper(
            [LocalChannel(s.node_id, s) for s in sessions],
            sync_replicas=2, maintenance_every=None,
        )
        svc = DurableMemcachedService(
            store=DurableStore(storage=MemStorage(), shipper=shipper),
            capacity=64,
        )
        wal = svc.store.wal(svc.pin)
        conn, tr = _connect(TcpDatapath(svc))
        checked = []

        def write(data, real=tr.write):
            assert wal.durable_seq == wal.seq, "reply before the local flush"
            assert all(s.watermark(svc.pin) == wal.seq for s in sessions), \
                "reply before the quorum commit"
            checked.append(wal.seq)
            real(data)

        tr.write = write
        conn.data_received(_framed(P.encode_set(1, 11)))
        flushes, shipped = wal.flushes, sessions[0].stats.appends
        conn.data_received(_framed(
            P.encode_set(2, 22), P.encode_get(1), P.encode_set(3, 33),
            P.encode_set(1, 12), P.encode_get(3),
        ))
        assert checked == [1, 4]
        assert wal.flushes == flushes + 1                # one flush,
        assert sessions[0].stats.appends == shipped + 3  # three records,
        assert shipper.stats.records_shipped == 4
        replies = [P.decode_reply(r) for r in tr.replies()]
        assert replies[2] == (True, 11) and replies[5] == (True, 33)
        assert svc.stats.kernel_tx == 6
        svc.close()

    _run(run())
