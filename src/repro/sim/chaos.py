"""Seeded chaos campaigns: one driver, one report, one table.

A *campaign* is a plain ``run_*_campaign(seed, n_ops, **kw)`` function
that drives a subsystem under seeded injection, checks its oracles as
it goes and returns a :class:`CampaignReport`; :func:`main` runs any
row of the :data:`CAMPAIGNS` table as a gate.  The crash campaigns
(recovery, replication, fleet, verify) kill processes and require
every acked write to survive.  The app campaigns (memcached, redis,
datastructures) drive requests through a KFlex runtime with a
:class:`~repro.sim.faults.FaultPlan` installed, and check the paper's
end-to-end robustness claims (§3.3, §3.4, §4.3):

* **No panics.**  Every injected fault ends in a clean cancellation;
  a ``KernelPanic`` (including a ``QuiescenceViolation`` from the
  per-cancellation audit) escapes the campaign and fails it.
* **Quiescence.**  Quiescence auditing is forced on for the campaign's
  duration, so every cancellation is followed by a lock/sock/alloc
  audit, and a final :meth:`QuiescenceAuditor.sweep` checks the whole
  runtime after the last request.
* **Graceful degradation.**  The memcached/redis campaigns run through
  the supervised wrappers and oracle-check every result against a
  shadow store — correct answers are required *through* quarantine,
  via the userspace fallback and the surviving heap (§3.4).
* **Deterministic replay.**  A campaign folds every op, result and
  injector fire into a SHA-256 digest.  Same seed + same engine (or
  the other engine — injection points are engine-order identical)
  must reproduce the digest bit for bit.

Run from the command line (see ``make chaos-quick``)::

    python -m repro.sim.chaos run memcached redis --ops 200 --seed 7
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.core.audit import audit_enabled, enable_quiescence_audit
from repro.core.runtime import KFlexRuntime
from repro.core.supervisor import QuarantinePolicy
from repro.errors import SimulatedCrash
from repro.kernel.watchdog import DEFAULT_QUANTUM_UNITS
from repro.sim.faults import CrashPlan, FaultPlan

#: Per-opportunity trigger rates tuned so a few-hundred-op campaign
#: sees every kind fire multiple times without drowning the service.
DEFAULT_RATES = {
    "heap_page": 0.004,
    "sfi_guard": 0.004,
    "helper_fail": 0.01,
    "alloc_fail": 0.02,
    "wd_fire": 0.02,
    "lock_stall": 0.01,
}


@dataclass
class CampaignReport:
    """Observable outcome of one campaign run (the determinism surface)."""

    #: Campaign name; app campaigns append the engine (``redis/interp``).
    name: str
    seed: int
    n_ops: int
    #: SHA-256 over every (op, result) pair and the injector's fire log.
    digest: str = ""
    #: Injected faults (app campaigns) or process deaths (crash
    #: campaigns), and the fault kinds / crash sites that fired.
    deaths: int = 0
    sites: tuple = ()
    #: Campaign-specific tallies, in ``describe()`` order.
    counters: dict = field(default_factory=dict)
    #: Oracle violations: (op index, description).  Must be empty.
    errors: list = field(default_factory=list)
    _hasher: object = field(
        default_factory=hashlib.sha256, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return not self.errors

    def mix(self, *parts) -> None:
        """Fold one observable event into the digest."""
        self._hasher.update("|".join(str(p) for p in parts).encode())
        self._hasher.update(b"\n")

    def error(self, i: int, msg: str) -> None:
        if len(self.errors) < 20:  # the first few tell the story
            self.errors.append((i, msg))

    def seal(self, deaths: int, sites) -> "CampaignReport":
        self.deaths = deaths
        self.sites = tuple(sorted(sites))
        self.digest = self._hasher.hexdigest()
        return self

    def describe(self) -> str:
        status = "ok" if self.ok else f"{len(self.errors)} ERRORS"
        sites = ",".join(self.sites) or "-"
        counters = "".join(f"{k}={v} " for k, v in self.counters.items())
        return (
            f"chaos[{self.name}] seed={self.seed} ops={self.n_ops} "
            f"deaths={self.deaths} ({sites}) {counters}"
            f"digest={self.digest[:16]} {status}"
        )


def _seal_crashes(report: CampaignReport, crash) -> CampaignReport:
    """Common tail of the crash campaigns: crash log into the digest,
    deaths and sites from the :class:`CrashInjector`."""
    for site, ordinal in crash.log:
        report.mix("crashlog", site, ordinal)
    return report.seal(crash.total_crashes(), crash.sites_crashed())


def _colliding_ids(bucket_of, encode, n_keys: int, per_bucket: int) -> list[int]:
    """Deterministic key ids that share hash buckets.

    Uniform keys over the 4096-bucket tables almost never collide, so
    bucket chains stay one entry long and the loop back-edge CANCELPTs
    never execute — which would starve the heap-fault kinds of
    opportunities.  Scanning ids in order and keeping the first
    ``per_bucket`` hits of the first ``n_keys / per_bucket`` buckets to
    fill up yields chains long enough to walk every request.
    """
    buckets: dict[int, list[int]] = {}
    full: list[int] = []
    cand = 0
    while len(full) * per_bucket < n_keys:
        b = bucket_of(encode(cand))
        ids = buckets.setdefault(b, [])
        if len(ids) < per_bucket:
            ids.append(cand)
            if len(ids) == per_bucket:
                full.append(b)
        cand += 1
    return [i for b in full for i in buckets[b]][:n_keys]


#: Simulated per-request interarrival time.  Fallback-served requests
#: never run the extension (which is what advances the cost-model
#: clock), so without this the clock freezes during quarantine and the
#: re-admission backoff would never elapse.
REQUEST_GAP_NS = 2_000


# ---------------------------------------------------------------------------
# App campaigns: one request loop, three op mixes
# ---------------------------------------------------------------------------


def _run_app_campaign(
    app: str, setup, seed: int = 0, n_ops: int = 300, engine: str = "threaded"
) -> CampaignReport:
    """The request loop behind the memcached, redis and datastructures
    campaigns: runtime + injector under forced auditing, ``n_ops``
    requests on the simulated clock, final sweep, digest.

    ``setup(rt, rng, report)`` builds the app over the runtime and
    returns ``(step, finish)``: ``step(i)`` draws and serves request
    *i* (the app's op mix and shadow oracle); ``finish()`` runs the
    end-state checks and returns the app's counters.
    """
    report = CampaignReport(f"{app}/{engine}", seed, n_ops)
    rng = random.Random(f"chaos:{seed}:{app}")
    # Trip fast, heal fast: backoffs are short on the simulated clock
    # (one request advances it by a few microseconds), so a campaign
    # exercises the full quarantine → backoff → re-admission → replay
    # cycle many times.
    policy = QuarantinePolicy(
        window=32,
        max_faults=4,
        base_backoff_ns=50_000,
        backoff_factor=4,
        max_backoff_ns=5_000_000,
    )
    audit_was = audit_enabled()
    enable_quiescence_audit(True)
    try:
        rt = KFlexRuntime(engine=engine, supervisor_policy=policy)
        # Short watchdog period so injected premature fires actually get
        # a chance to trigger on ~100-step requests (the production
        # period of 4096 steps would make wd_fire unreachable for small
        # extensions).
        rt.watchdog_period = 64
        inj = rt.install_injector(FaultPlan(seed, DEFAULT_RATES))
        step, finish = setup(rt, rng, report)
        for i in range(n_ops):
            rt.kernel.advance_ns(REQUEST_GAP_NS)
            step(i)
        app_counters = finish()
        # Final quiescence sweep across every allocator/lock manager and
        # the global socket table — raises QuiescenceViolation on leaks.
        rt.auditor.sweep(rt)
    finally:
        enable_quiescence_audit(audit_was)
    for kind, n in sorted(inj.fires.items()):
        report.mix("fire", kind, n)
    for kind, ordinal in inj.log:
        report.mix("log", kind, ordinal)
    report.counters = {
        "quarantines": rt.supervisor.stats.quarantines,
        "readmissions": rt.supervisor.stats.readmissions,
        **app_counters,
    }
    return report.seal(inj.total_fires(), inj.kinds_fired())


class _KvShadow:
    """Shadow dict + GET/SET oracle over a supervised key-value wrapper
    (``SupervisedMemcached`` and ``SupervisedRedis`` expose the same
    ``get``/``set``)."""

    def __init__(self, svc, report: CampaignReport):
        self.svc = svc
        self.report = report
        self.shadow: dict[int, int] = {}

    def set(self, i: int, key: int, value: int) -> None:
        ok = self.svc.set(key, value)
        if not ok:
            self.report.error(i, f"SET {key} refused")
        else:
            self.shadow[key] = value
        self.report.mix(i, "set", key, value, ok)

    def get(self, i: int, key: int) -> None:
        got = self.svc.get(key)
        want = (key in self.shadow, self.shadow.get(key))
        if got != want:
            self.report.error(i, f"GET {key}: got {got}, want {want}")
        self.report.mix(i, "get", key, got)

    def final(self) -> None:
        """End-to-end check: every key answers correctly, kernel path
        or fallback alike."""
        for key, want in sorted(self.shadow.items()):
            got = self.svc.get(key)
            if got != (True, want):
                self.report.error(self.report.n_ops, f"final GET {key}: {got}")
            self.report.mix("final", key, got)


def _memcached_app(rt, rng, report):
    """GET/SET storm through :class:`SupervisedMemcached` + oracle."""
    from repro.apps.memcached import protocol as P
    from repro.apps.memcached.supervised import SupervisedMemcached, _bucket_of

    keys = _colliding_ids(_bucket_of, P.key_bytes, 64, per_bucket=8)
    sm = SupervisedMemcached(
        rt,
        use_locks=True,
        heap_size=1 << 22,
        quantum_units=DEFAULT_QUANTUM_UNITS,
    )
    kv = _KvShadow(sm, report)

    def step(i):
        key = keys[rng.randrange(len(keys))]
        if rng.random() < 0.5:
            kv.set(i, key, rng.getrandbits(63))
        else:
            kv.get(i, key)

    def finish():
        kv.final()
        return {
            "cancellations": sm.ext.stats.cancellations,
            "kernel_ops": sm.stats.kernel_gets + sm.stats.kernel_sets,
            "fallback_ops": sm.stats.fallback_gets + sm.stats.fallback_sets,
            # Overlay entries never replayed (extension still quarantined
            # at the end of the run) — informational, not an error.
            "pending": sm.pending,
        }

    return step, finish


def _redis_app(rt, rng, report):
    """GET/SET/ZADD storm through :class:`SupervisedRedis` + oracle.

    String keys and zset keys live in disjoint id ranges.  Each
    (zset, member) pair always gets the same score, so repeated ZADDs
    are idempotent and the end-state check is a plain set comparison.
    """
    from repro.apps.redis import protocol as P
    from repro.apps.redis.supervised import SupervisedRedis, _bucket_of

    keys = _colliding_ids(_bucket_of, P.key_bytes, 32, per_bucket=8)
    zbase = 1 << 20  # zset key ids, disjoint from string keys
    sr = SupervisedRedis(
        rt, heap_size=1 << 22, quantum_units=DEFAULT_QUANTUM_UNITS
    )
    kv = _KvShadow(sr, report)
    zsets: dict[int, set] = {}

    def step(i):
        roll = rng.random()
        if roll < 0.35:
            key = keys[rng.randrange(len(keys))]
            kv.set(i, key, rng.getrandbits(63))
        elif roll < 0.70:
            kv.get(i, keys[rng.randrange(len(keys))])
        else:
            key = zbase + rng.randrange(4)
            member = rng.randrange(16)
            score = member * 10  # fixed per member: idempotent
            ok = sr.zadd(key, score, member)
            if not ok:
                report.error(i, f"ZADD {key} refused")
            else:
                zsets.setdefault(key, set()).add((score, member))
            report.mix(i, "zadd", key, score, member, ok)

    def finish():
        kv.final()
        for key, want in sorted(zsets.items()):
            got = sr.zset_members(key)
            if got != sorted(want):
                report.error(
                    report.n_ops, f"final ZSET {key}: {got} != {sorted(want)}"
                )
            report.mix("final-zset", key, tuple(got))
        return {
            "cancellations": sr.ext.stats.cancellations,
            "kernel_ops": sr.stats.kernel_ops,
            "fallback_ops": sr.stats.fallback_ops,
            "pending": sr.pending,
        }

    return step, finish


def _datastructures_app(rt, rng, report):
    """Update/lookup/delete storm over hashmap + linkedlist.

    No userspace fallback wrapper exists for the raw data structures, so
    this campaign checks the robustness half only: no panics, quiescence
    after every cancellation, and a deterministic digest — a quarantined
    structure answering with its default return is acceptable.
    """
    from repro.apps.datastructures.hashmap import HashMapDS
    from repro.apps.datastructures.linkedlist import LinkedListDS

    structures = [HashMapDS(rt), LinkedListDS(rt)]

    def step(i):
        ds = structures[rng.randrange(len(structures))]
        key = rng.randrange(48)
        roll = rng.random()
        if roll < 0.5:
            ret = ds.update(key, rng.getrandbits(32))
            op = "update"
        elif roll < 0.85:
            ret = ds.lookup(key)
            op = "lookup"
        else:
            ret = ds.delete(key)
            op = "delete"
        report.mix(i, ds.NAME, op, key, ret)

    def finish():
        return {
            "cancellations": sum(
                ext.stats.cancellations
                for ds in structures
                for ext in ds.exts.values()
            )
        }

    return step, finish


run_memcached_campaign = partial(_run_app_campaign, "memcached", _memcached_app)
run_redis_campaign = partial(_run_app_campaign, "redis", _redis_app)
run_datastructures_campaign = partial(
    _run_app_campaign, "datastructures", _datastructures_app
)


# ---------------------------------------------------------------------------
# Journaled-map harness (shared by the recovery and replication campaigns)
# ---------------------------------------------------------------------------


class _JournaledMap:
    """A pinned, WAL-journaled :class:`~repro.ebpf.maps.HashMap` under
    seeded update/delete churn, plus the shadow history that judges
    every recovery of it.

    ``shadow[i]`` is the journaled op with seq ``i + 1``; values are the
    canonical post-write slot bytes.
    """

    PIN = "chaos/map"
    KEY_SIZE, VALUE_SIZE = 8, 16
    KEY_SPACE, MAX_ENTRIES = 48, 64

    def __init__(self, report: CampaignReport, rng, crash, name: str):
        self.report = report
        self.rng = rng
        self.crash = crash
        self.name = name
        self.shadow: list[tuple[str, bytes, bytes]] = []

    def create(self, store) -> None:
        """A fresh kernel holding an empty map, attached to ``store``."""
        from repro.ebpf.maps import HashMap
        from repro.kernel.machine import Kernel

        self.kernel = Kernel()
        self.m = HashMap(
            self.kernel.aspace,
            self.kernel.vmalloc,
            key_size=self.KEY_SIZE,
            value_size=self.VALUE_SIZE,
            max_entries=self.MAX_ENTRIES,
            name=self.name,
        )
        store.attach(self.PIN, self.m)

    def _journal(self, do_delete: bool, key: bytes) -> None:
        if do_delete:
            self.shadow.append(("d", key, b""))
        else:
            canonical = self.m.aspace.read_bytes(
                self.m.lookup(key), self.VALUE_SIZE
            )
            self.shadow.append(("u", key, canonical))

    def mutate(self, i: int) -> int:
        """Apply one seeded update/delete and return its rc.

        A :class:`SimulatedCrash` propagates *after* the op joined the
        shadow: the in-memory mutation and its WAL append both happen
        before any crash site can fire, so recovery (or promotion)
        rules on how much history survived.
        """
        rng = self.rng
        key = rng.randrange(self.KEY_SPACE).to_bytes(self.KEY_SIZE, "little")
        do_delete = rng.random() < 0.25
        value = b"" if do_delete else rng.getrandbits(
            8 * self.VALUE_SIZE
        ).to_bytes(self.VALUE_SIZE, "little")
        try:
            rc = self.m.delete(key) if do_delete else self.m.update(key, value)
        except SimulatedCrash:
            self._journal(do_delete, key)
            raise
        if rc == 0:
            self._journal(do_delete, key)
        self.report.mix(
            i, "d" if do_delete else "u", key.hex(), value.hex(), rc
        )
        return rc

    def prefix(self, k: int) -> list[tuple[bytes, bytes]]:
        """Map contents after the first ``k`` shadow ops."""
        d: dict[bytes, bytes] = {}
        for op, key, value in self.shadow[:k]:
            if op == "u":
                d[key] = value
            else:
                d.pop(key, None)
        return sorted(d.items())

    def recover(self, store, i: int, floor: int, what: str):
        """Recover the map from ``store`` into a fresh kernel and judge
        the result; returns ``(recovery report, surviving seq)``.

        A recovery that dies mid-replay is restarted: it must succeed
        from the same durable bytes.  The **prefix-consistency** oracle
        then requires the recovered map to equal the shadow after
        *exactly* ``recovered_seq`` ops — never a corrupted or
        reordered state — and ``recovered_seq`` to reach ``floor``, the
        history the campaign knows was acknowledged (the last flush
        barrier, the last surviving quorum ack).  The shadow is
        truncated to the history that survived.
        """
        from repro.kernel.machine import Kernel

        self.kernel = Kernel()
        attempts = 0
        while True:
            try:
                self.m, rep = store.recover_map(
                    self.PIN, self.kernel.aspace, self.kernel.vmalloc
                )
                break
            except SimulatedCrash:
                self.report.counters["recoveries"] += 1
                attempts += 1
                if attempts > 50:  # rates near 1.0 would livelock
                    self.crash.disarm("recovery.replay")
        self.report.counters["recoveries"] += 1
        seq_rec = rep.recovered_seq
        if seq_rec < floor:
            self.report.error(
                i,
                f"{what} lost acknowledged history: recovered seq "
                f"{seq_rec} < floor {floor}",
            )
        if seq_rec > len(self.shadow):
            self.report.error(
                i, f"recovered seq {seq_rec} beyond {len(self.shadow)} shadow ops"
            )
            seq_rec = len(self.shadow)
        want = self.prefix(seq_rec)
        got = self.m.entries()
        if got != want:
            self.report.error(
                i,
                f"{what} state is not the seq-{seq_rec} shadow prefix: "
                f"{len(got)} entries vs {len(want)} expected",
            )
        self.shadow = self.shadow[:seq_rec]
        return rep, seq_rec


# ---------------------------------------------------------------------------
# Crash recovery (repro.state)
# ---------------------------------------------------------------------------

#: Per-opportunity crash rates for the recovery fuzz.  WAL sites see an
#: opportunity per mutation, snapshot sites one per compaction, so the
#: snapshot rates are higher to get comparable coverage.
DEFAULT_CRASH_RATES = {
    "wal.append": 0.010,
    "wal.flush": 0.010,
    "snapshot.write": 0.120,
    "snapshot.commit": 0.120,
    "wal.compact": 0.120,
    "recovery.replay": 0.003,
}


def run_recovery_campaign(
    seed: int = 0, n_ops: int = 1500, *, storage=None
) -> CampaignReport:
    """Seeded crash-recovery fuzz over a journaled hash map.

    Random update/delete churn runs against a :class:`_JournaledMap`
    with a :class:`CrashPlan` armed inside the durable-state code.
    Every injected death is followed by full recovery into a *fresh*
    kernel, judged by the prefix-consistency oracle with the last
    durability barrier as the floor (an acknowledged flush never rolls
    back).  ``storage`` defaults to an in-memory disk.
    """
    from repro.state import DurableStore, MemStorage

    report = CampaignReport("recovery", seed, n_ops, counters=dict.fromkeys(
        ("recoveries", "torn_recoveries", "snapshot_fallbacks",
         "replayed_total", "ops_applied", "ops_lost"), 0,
    ))
    c = report.counters
    crash = CrashPlan(seed, DEFAULT_CRASH_RATES).build()
    if storage is None:
        storage = MemStorage()
    h = _JournaledMap(
        report, random.Random(f"chaos:{seed}:recovery"), crash, "chaos"
    )
    store = DurableStore(
        storage=storage, sync_every=1, snapshot_every=64, crash=crash
    )
    h.create(store)
    durable_floor = 0

    def recover_after_crash(i: int, site: str) -> None:
        nonlocal store, durable_floor
        report.mix(i, "crash", site)
        store.crash_volatile()
        store = DurableStore(
            storage=storage, sync_every=1, snapshot_every=64, crash=crash
        )
        had = len(h.shadow)
        rep, seq_rec = h.recover(store, i, durable_floor, "recovery")
        c["replayed_total"] += rep.replayed
        if rep.torn is not None:
            c["torn_recoveries"] += 1
        c["snapshot_fallbacks"] += rep.snapshots_discarded
        c["ops_lost"] += had - seq_rec
        durable_floor = seq_rec
        report.mix("recover", i, seq_rec, rep.torn or "-", rep.replayed)

    for i in range(n_ops):
        try:
            rc = h.mutate(i)
        except SimulatedCrash as e:
            recover_after_crash(i, e.site)
            continue
        if rc == 0:
            c["ops_applied"] += 1
            durable_floor = max(durable_floor, store.wal(h.PIN).durable_seq)

    # Final pass: flush, restart with injection off, expect *exact*
    # convergence — nothing pending, nothing torn, full history.
    try:
        store.flush()
    except SimulatedCrash as e:
        recover_after_crash(n_ops, e.site)
        store.flush()
    store.crash_volatile()
    rep, _ = h.recover(
        DurableStore(storage=storage, sync_every=1),
        n_ops, len(h.shadow), "clean recovery",
    )
    if rep.torn is not None:
        report.error(n_ops, f"clean recovery saw torn WAL: {rep.torn}")
    return _seal_crashes(report, crash)


# ---------------------------------------------------------------------------
# Replicated durable state (repro.state.replication)
# ---------------------------------------------------------------------------

DEFAULT_REPLICATION_RATES = {
    # primary-side durability sites (kept mild: each fires a promotion)
    "wal.append": 0.003,
    "wal.flush": 0.003,
    "snapshot.write": 0.030,
    "snapshot.commit": 0.030,
    "wal.compact": 0.030,
    "recovery.replay": 0.002,
    # shipping / follower / anti-entropy / promotion sites
    "ship.send": 0.006,
    "replica.append": 0.008,
    "replica.flush": 0.008,
    "antientropy.send": 0.030,
    "antientropy.install": 0.060,
    "promote.recover": 0.120,
}


def run_replication_campaign(
    seed: int = 0, n_ops: int = 1200, *, sync_replicas: int = 1
) -> CampaignReport:
    """Seeded fuzz over a full replica set: primary + 2 followers.

    Random churn runs against a :class:`_JournaledMap` whose WAL is
    shipped to two in-process replicas at write quorum
    ``sync_replicas``.  Crash injection kills the primary (wal/snapshot
    /ship sites), followers (replica.* and antientropy.install fire
    *inside* the follower's frame handler — a death the primary sees as
    a dead channel), the promotion itself (``promote.recover``) and the
    anti-entropy sender.  Every primary death runs a real promotion:
    watermark query, most-caught-up pick, epoch bump, recovery on the
    promoted storage, deposed node rejoining dirty.

    The oracle is **linearizability of acked writes**: a write whose
    quorum ack-set intersects the followers alive at promotion time
    must be covered by the promoted node's recovered seq — acked data
    survives any crash sequence that leaves an acker alive — and the
    recovered state must be byte-identical to the shadow history's
    prefix at that seq.  The final convergence pass then requires every
    node's durable bytes to recover to the *exact* full history.
    """
    from repro.errors import PrimaryFenced, QuorumLost
    from repro.kernel.machine import Kernel
    from repro.sim.faults import CRASH_SITES
    from repro.state import DurableStore, MemStorage
    from repro.state.replication import (
        MSG_APPEND,
        ST_FENCED,
        LocalChannel,
        QuorumShipper,
        ReplicaSession,
        ShipStats,
        decode_frame,
        encode_frame,
    )

    report = CampaignReport("replication", seed, n_ops, counters={
        "sync_replicas": sync_replicas,
        **dict.fromkeys(
            ("primary_deaths", "follower_deaths", "promotion_deaths",
             "promotions", "epoch", "recoveries", "follower_restarts",
             "acked_ops", "quorum_losses", "resyncs", "snapshots_shipped",
             "fence_checks"), 0,
        ),
    })
    c = report.counters
    crash = CrashPlan(seed, DEFAULT_REPLICATION_RATES).build()
    h = _JournaledMap(
        report, random.Random(f"chaos:{seed}:replication"), crash, "chaos-repl"
    )
    PIN = h.PIN

    n_nodes = 3
    node_storage = [MemStorage() for _ in range(n_nodes)]
    primary = 0
    epoch = 1
    sessions: dict[int, ReplicaSession] = {}
    channels: dict[int, LocalChannel] = {}
    #: seq -> follower node_ids that durably acked it (quorum evidence).
    acked: dict[int, tuple[str, ...]] = {}
    #: Shipping totals across every primary incarnation.
    total_ship = ShipStats()

    def follower_nodes() -> list[int]:
        return [n for n in range(n_nodes) if n != primary]

    def live_followers() -> dict[int, ReplicaSession]:
        return {
            n: sessions[n] for n in follower_nodes()
            if n in sessions and not sessions[n].crashed
        }

    def new_session(n: int) -> ReplicaSession:
        return ReplicaSession(node_storage[n], node_id=f"n{n}", crash=crash)

    def boot_followers() -> None:
        for n in follower_nodes():
            sess = sessions.get(n)
            if sess is None or sess.crashed:
                sessions[n] = new_session(n)
                if sess is not None:
                    c["follower_restarts"] += 1
                ch = channels.get(n)
                if ch is not None:
                    ch.restart(sessions[n])

    def open_primary():
        """A shipper over every follower's channel and the primary's
        store on top of it."""
        chans = []
        for n in follower_nodes():
            ch = LocalChannel(f"n{n}", sessions.get(n))
            channels[n] = ch
            chans.append(ch)
        shipper = QuorumShipper(
            chans,
            sync_replicas=sync_replicas,
            epoch=epoch,
            crash=crash,
            maintenance_every=None,  # the harness repairs deterministically
        )
        store = DurableStore(
            storage=node_storage[primary],
            sync_every=1,
            snapshot_every=64,
            crash=crash,
            shipper=shipper,
        )
        return shipper, store

    boot_followers()
    shipper, store = open_primary()
    h.create(store)

    def count_follower_deaths() -> None:
        # A follower death shows up as a crashed session; tally once.
        for n in follower_nodes():
            sess = sessions.get(n)
            if sess is not None and sess.crashed and not getattr(
                sess, "_counted", False
            ):
                sess._counted = True
                c["follower_deaths"] += 1

    def handle_primary_death(i: int, site: str) -> None:
        nonlocal primary, epoch, store, shipper, acked
        c["primary_deaths"] += 1
        report.mix(i, "primary-death", site)
        store.crash_volatile()
        count_follower_deaths()
        attempts = 0
        while True:
            live = live_followers()
            floor = 0
            for q, nodes in acked.items():
                if any(f"n{n}" in nodes for n in live):
                    floor = max(floor, q)
            wms = {n: live[n].watermark(PIN) for n in live}
            usable = {n: wm for n, wm in wms.items() if wm > 0}
            if usable:
                promoted = max(usable, key=lambda n: (usable[n], -n))
            else:
                # No follower holds a verified prefix (all down, or all
                # dirty/fresh): cold-restart the primary node from its
                # own durable bytes — the disk survived the process,
                # and the pre-ship WAL flush means it covers every
                # acked write.
                promoted = primary
            if promoted != primary:
                try:
                    crash.at("promote.recover")
                except SimulatedCrash:
                    # The chosen promotee died mid-promotion: its
                    # volatile state is gone, pick the next-best.
                    c["promotion_deaths"] += 1
                    sessions[promoted].crashed = True
                    node_storage[promoted].crash()
                    count_follower_deaths()
                    attempts += 1
                    if attempts > 10:
                        crash.disarm("promote.recover")
                    continue
            break
        old_primary = primary
        primary = promoted
        epoch += 1
        if promoted != old_primary:
            c["promotions"] += 1
            sessions.pop(promoted, None)
            # The deposed node rejoins as a follower over its surviving
            # storage; its unshipped WAL suffix is untrusted (dirty)
            # until a snapshot re-bases it under the new epoch.
            sessions[old_primary] = new_session(old_primary)
        boot_followers()
        total_ship.merge(shipper.stats)
        shipper, store = open_primary()
        _, seq_rec = h.recover(store, i, floor, "promotion")
        acked = {q: v for q, v in acked.items() if q <= seq_rec}
        shipper.announce()  # fence survivors onto the new epoch
        report.mix("promote", i, primary, epoch, seq_rec)

    def repair_followers() -> None:
        """Restart dead followers and run one anti-entropy pass.  May
        raise SimulatedCrash (primary dies mid-anti-entropy)."""
        count_follower_deaths()
        boot_followers()
        shipper.maintenance()

    for i in range(n_ops):
        if c["promotions"] and i % 61 == 0:
            # A deposed primary's late frame must bounce: any follower
            # already at the current epoch answers ST_FENCED.
            for sess in live_followers().values():
                if sess.epoch >= epoch:
                    stale = encode_frame(MSG_APPEND, epoch - 1, 1 << 40,
                                         PIN, b"")
                    ack = decode_frame(sess.handle_frame(stale))
                    if ack.status != ST_FENCED:
                        report.error(
                            i,
                            f"stale epoch {epoch - 1} frame not fenced "
                            f"(status {ack.status})",
                        )
                    c["fence_checks"] += 1
                    break

        try:
            h.mutate(i)
            try:
                for q, nodes in shipper.commit().items():
                    acked[q] = nodes
                    c["acked_ops"] += 1
            except QuorumLost:
                # Durable locally, NOT acked to the client; the shadow
                # op stays (it is history) but `acked` does not record it.
                c["quorum_losses"] += 1
            except PrimaryFenced:
                report.error(i, "primary fenced without a promotion")
            if len(live_followers()) < n_nodes - 1:
                repair_followers()
        except SimulatedCrash as e:
            # Wherever the primary died, the rest of the step is moot.
            handle_primary_death(i, e.site)

    # Convergence: keep repairing (injection still armed) until every
    # follower's verified watermark reaches the full history, then
    # disarm and check each node's durable bytes recover exactly.
    converged = False
    for attempt in range(80):
        if attempt == 50:
            for site in CRASH_SITES:
                crash.disarm(site)
        try:
            repair_followers()
            store.flush()
            shipper.commit()
            target = store.wal(PIN).seq
            live = live_followers()
            if len(live) == n_nodes - 1 and all(
                sess.watermark(PIN) == target for sess in live.values()
            ):
                converged = True
                break
        except SimulatedCrash as e:
            handle_primary_death(n_ops, e.site)
        except (QuorumLost, PrimaryFenced):
            pass
    if not converged:
        report.error(n_ops, "replica set failed to converge")
    else:
        target = len(h.shadow)
        want = h.prefix(target)
        for n in range(n_nodes):
            fstore = DurableStore(storage=node_storage[n])
            fk = Kernel()
            try:
                fm, frep = fstore.recover_map(PIN, fk.aspace, fk.vmalloc)
            except Exception as exc:
                report.error(n_ops, f"node {n} unrecoverable: {exc}")
                continue
            if frep.recovered_seq != target:
                report.error(
                    n_ops,
                    f"node {n} converged to seq {frep.recovered_seq}, "
                    f"expected {target}",
                )
            elif fm.entries() != want:
                report.error(
                    n_ops, f"node {n} state diverges at seq {target}"
                )

    count_follower_deaths()
    c["epoch"] = epoch
    total_ship.merge(shipper.stats)
    c["resyncs"] = total_ship.resyncs
    c["snapshots_shipped"] = total_ship.snapshots_shipped
    return _seal_crashes(report, crash)


# ---------------------------------------------------------------------------
# Fleet control plane (repro.fleet): migration + rollout crash fuzz
# ---------------------------------------------------------------------------

DEFAULT_FLEET_RATES = {
    # live-migration crash sites (source image cut, target install,
    # tail rounds, and the paused cutover window)
    "migrate.snapshot": 0.10,
    "migrate.install": 0.10,
    "migrate.tail": 0.08,
    "migrate.cutover": 0.08,
    # canary-rollout crash sites (swap, window, promote sweep, rollback)
    "rollout.load": 0.15,
    "rollout.window": 0.05,
    "rollout.promote": 0.12,
    "rollout.rollback": 0.20,
    # recovery itself stays crash-tested while shards rebuild
    "recovery.replay": 0.001,
}


def run_fleet_campaign(seed: int = 0, n_ops: int = 400) -> CampaignReport:
    """Seeded crash-point fuzz over the fleet control plane.

    An inline fleet (no threads, no sockets — every shard a full
    durable memcached service over its own MemStorage "disk") serves a
    seeded SET/GET stream while the campaign drives the real fleet
    machinery against it: scale-outs and scale-ins through
    :class:`~repro.fleet.migrate.SegmentMigration`, canary rollouts of
    good and known-flaky artifacts judged by the real
    :class:`~repro.fleet.rollout.CanaryJudge`.  A
    :class:`~repro.sim.faults.CrashPlan` kills the migration source or
    target and the canary shard at every fleet crash site; each death
    is followed by real crash recovery from the victim's durable state.

    Oracles, checked after every event and every death:

    * **acked writes preserved** — every SET that was acknowledged
      reads back bit-identical through the current ring, across
      migrations, cutovers, aborted events and shard deaths;
    * **misses are honest** — a key never acked never reads back;
    * **rollout safety** — a flaky artifact is never promoted
      fleet-wide, and a clean artifact is never rolled back.
    """
    from repro.apps.memcached import protocol as P
    from repro.apps.memcached.durable_ext import (
        build_durable_memcached_program,
    )
    from repro.fleet.migrate import SegmentMigration, inline_call
    from repro.fleet.rollout import (
        PROMOTE,
        ROLLBACK,
        CanaryJudge,
        CanaryReading,
    )
    from repro.fleet.spec import CanaryPolicy
    from repro.net.service import DurableMemcachedService
    from repro.net.shard import ConsistentHashRing
    from repro.state.storage import MemStorage
    from repro.state.store import DurableStore

    report = CampaignReport("fleet", seed, n_ops, counters=dict.fromkeys(
        ("migration_deaths", "rollout_deaths", "scale_outs", "scale_ins",
         "aborted_migrations", "rollouts", "promotes", "rollbacks",
         "no_datas", "aborted_rollouts", "recoveries", "rescans",
         "shards_final", "acked_ops"), 0,
    ))
    c = report.counters
    rng = random.Random(f"fleetchaos:{seed}")
    n_shards, n_keys = 2, 512
    crash = CrashPlan(seed, rates=dict(DEFAULT_FLEET_RATES)).build()
    PIN = "memcached/cache"

    def builder_for(version: str):
        if version == "stable":
            return build_durable_memcached_program
        kind, _, num = version.partition("-")
        tag = 16 + int(num)
        mask = 0x03 if kind == "flaky" else None
        return lambda cache: build_durable_memcached_program(
            cache, f"durable-memcached-{version}", tag=tag, drop_mask=mask
        )

    shards: dict[int, dict] = {}
    versions: dict[int, str] = {}
    state = {"stable": "stable"}
    quarantined: set[str] = set()

    def build_svc(sid: int):
        """(Re)incarnate a shard's process over its surviving disk,
        retrying through injected recovery deaths."""
        attempts = 0
        while True:
            try:
                store = DurableStore(
                    storage=shards[sid]["storage"], crash=crash
                )
                return DurableMemcachedService(
                    store=store,
                    pin=PIN,
                    capacity=2048,
                    program_builder=builder_for(versions[sid]),
                )
            except SimulatedCrash:
                shards[sid]["storage"].crash()
                c["recoveries"] += 1
                attempts += 1
                if attempts >= 25:
                    crash.disarm("recovery.replay")

    def kill(sid: int) -> None:
        shards[sid]["svc"].store.crash_volatile()
        shards[sid]["svc"] = build_svc(sid)
        c["recoveries"] += 1

    for sid in range(n_shards):
        shards[sid] = {"storage": MemStorage()}
        versions[sid] = "stable"
        shards[sid]["svc"] = build_svc(sid)
    ring = ConsistentHashRing(sorted(shards))
    next_sid = n_shards
    vcounter = 0
    shadow: dict[int, int] = {}
    next_val = [1]
    #: While a flaky canary window is open: (canary sid, drop mask).
    flaky_window = [None]

    def tolerated_drop(sid: int, key_id: int) -> bool:
        fw = flaky_window[0]
        return fw is not None and fw[0] == sid and (key_id & fw[1]) == 0

    def check_read(i: int, ctx: str, sid: int, key_id: int, reply) -> None:
        """The client-visible oracle: a request goes unanswered only
        inside a flaky canary's window, an acked write reads back
        bit-identical, and a key never acked never reads back."""
        if reply is None:
            if not tolerated_drop(sid, key_id):
                report.error(
                    i,
                    f"[{ctx}] request dropped outside a flaky window "
                    f"(shard {sid}, key {key_id})",
                )
            return
        hit, value = P.decode_reply(reply)
        expected = shadow.get(key_id)
        if expected is None:
            if hit:
                report.error(i, f"phantom hit for never-acked key {key_id}")
        elif not hit or value != expected:
            report.error(
                i,
                f"[{ctx}] acked write lost: key {key_id} expected "
                f"{expected}, got hit={hit} value={value}",
            )

    def do_request(i: int, key_id: int, set_val=None) -> None:
        sid = ring.shard_of(key_id)
        payload = (
            P.encode_set(key_id, set_val)
            if set_val is not None
            else P.encode_get(key_id)
        )
        reply, path = shards[sid]["svc"].ingress(payload, 0)
        report.mix("req", i, sid, key_id, set_val, path)
        if set_val is None or reply is None:
            check_read(i, "req", sid, key_id, reply)
        elif P.decode_reply(reply)[0]:
            shadow[key_id] = set_val
            c["acked_ops"] += 1

    def traffic(i: int, n: int) -> None:
        for _ in range(n):
            k = rng.randrange(n_keys)
            if rng.random() < 0.5:
                v = next_val[0]
                next_val[0] += 1
                do_request(i, k, set_val=v)
            else:
                do_request(i, k)

    def verify_all(i: int, ctx: str) -> None:
        for k in sorted(shadow):
            sid = ring.shard_of(k)
            reply, _ = shards[sid]["svc"].ingress(P.encode_get(k), 0)
            check_read(i, ctx, sid, k, reply)

    def victim_of(site: str, cur: dict) -> int:
        return cur["src"] if site == "migrate.snapshot" else cur["dst"]

    def run_migrations(i, mig_plan, new_ring, *, cleanup_sources) -> bool:
        """One attempt at a full rebalance; False -> a death aborted it
        (the victim was killed + recovered, the ring is unchanged)."""
        cur = {"src": None, "dst": None}
        migs = []
        try:
            for src, dst, moved in mig_plan:
                cur["src"], cur["dst"] = src, dst
                mig = SegmentMigration(
                    inline_call(shards[src]["svc"]),
                    inline_call(shards[dst]["svc"]),
                    pin=PIN,
                    moved=moved,
                    crash=crash,
                )
                migs.append((src, dst, mig))
                mig.bulk_install()
            # Writes keep landing while the image ships: these become
            # the WAL tail the catch-up rounds must drain.
            traffic(i, 12)
            if rng.random() < 0.3:
                # Source compaction mid-handoff: snapshot + WAL reset
                # on a source, forcing the sequence-gap rescan path.
                src = mig_plan[0][0]
                shards[src]["svc"].store.snapshot(PIN)
            for src, dst, mig in migs:
                cur["src"], cur["dst"] = src, dst
                mig.catch_up()
            traffic(i, 8)
            # Inline "pause": the driver is the only client, so simply
            # not sending is the quiesced router.
            for src, dst, mig in migs:
                cur["src"], cur["dst"] = src, dst
                mig.final_tail()
        except SimulatedCrash as exc:
            site = str(exc.args[0]) if exc.args else "?"
            report.mix("death", i, site, cur["src"], cur["dst"])
            kill(victim_of(site, cur))
            return False
        # Atomic cutover.
        ring.__dict__.update(new_ring.__dict__)
        c["rescans"] += sum(m.report.rescans for _, _, m in migs)
        if cleanup_sources:
            for src, dst, mig in migs:
                mig.cleanup_source()
        return True

    def event_scale_out(i) -> None:
        nonlocal next_sid
        sid = next_sid
        next_sid += 1
        shards[sid] = {"storage": MemStorage()}
        versions[sid] = state["stable"]
        shards[sid]["svc"] = build_svc(sid)
        new_ring = ring.copy()
        new_ring.add_node(sid)
        moved = lambda kid, r=new_ring, t=sid: r.shard_of(kid) == t
        plan_ = [(src, sid, moved) for src in ring.nodes]
        for _ in range(10):
            if run_migrations(i, plan_, new_ring, cleanup_sources=True):
                c["scale_outs"] += 1
                return
        # Could not complete: the new shard never joined the ring, so
        # dropping it wholesale is invisible to clients.
        shards.pop(sid)
        versions.pop(sid)
        c["aborted_migrations"] += 1

    def event_scale_in(i) -> None:
        sid = rng.choice(ring.nodes)
        new_ring = ring.copy()
        new_ring.remove_node(sid)
        plan_ = [
            (sid, t, lambda kid, r=new_ring, t=t: r.shard_of(kid) == t)
            for t in new_ring.nodes
        ]
        for _ in range(10):
            if run_migrations(i, plan_, new_ring, cleanup_sources=False):
                shards.pop(sid)
                versions.pop(sid)
                c["scale_ins"] += 1
                return
        c["aborted_migrations"] += 1

    judge = CanaryJudge(CanaryPolicy(min_requests=1, fault_margin=0.01))

    def reading(sid) -> CanaryReading:
        return CanaryReading.of_stats(shards[sid]["svc"].stats)

    def sum_readings(sids) -> CanaryReading:
        rs = [reading(s) for s in sids]
        return CanaryReading(
            requests=sum(r.requests for r in rs),
            dropped=sum(r.dropped for r in rs),
            quarantines=sum(r.quarantines for r in rs),
            bad_frames=sum(r.bad_frames for r in rs),
        )

    def swap_to(sid: int, version: str, site: str) -> None:
        """Swap a shard onto ``version``.  Dying at ``site`` ends in
        the same place: recovery rebuilds the shard on ``version``."""
        try:
            crash.at(site)
            shards[sid]["svc"].swap_program(builder_for(version))
            versions[sid] = version
        except SimulatedCrash:
            versions[sid] = version
            kill(sid)

    def event_rollout(i) -> None:
        nonlocal vcounter
        vcounter += 1
        flaky = rng.random() < 0.5
        version = f"flaky-{vcounter}" if flaky else f"good-{vcounter}"
        if version in quarantined:
            return
        c["rollouts"] += 1
        canary = min(ring.nodes)
        others = [s for s in ring.nodes if s != canary]
        canary0 = reading(canary)
        base0 = sum_readings(others)
        try:
            crash.at("rollout.load")
            shards[canary]["svc"].swap_program(builder_for(version))
        except SimulatedCrash:
            kill(canary)  # comes back serving its previous version
            c["aborted_rollouts"] += 1
            return
        versions[canary] = version
        if flaky:
            flaky_window[0] = (canary, 0x03)
        try:
            for _ in range(6):
                crash.at("rollout.window")
                traffic(i, 12)
        except SimulatedCrash:
            # The canary died mid-window: recovery restarts it on the
            # last converged (stable) artifact — the rollout aborts
            # with no promotion and no quarantine.
            versions[canary] = state["stable"]
            flaky_window[0] = None
            kill(canary)
            c["aborted_rollouts"] += 1
            return
        canary_d = reading(canary).delta(canary0)
        base_d = sum_readings(others).delta(base0)
        verdict = judge.judge(canary_d, base_d)
        report.mix(
            "rollout", i, version, verdict, canary_d.requests, canary_d.dropped
        )
        if verdict == ROLLBACK:
            if not flaky:
                report.error(
                    i,
                    f"clean artifact {version} rolled back "
                    f"(canary {canary_d}, baseline {base_d})",
                )
            flaky_window[0] = None
            swap_to(canary, state["stable"], "rollout.rollback")
            quarantined.add(version)
            c["rollbacks"] += 1
        elif verdict == PROMOTE:
            if flaky:
                report.error(
                    i,
                    f"flaky artifact {version} promoted fleet-wide "
                    f"(canary {canary_d}, baseline {base_d})",
                )
            for sid in others:
                swap_to(sid, version, "rollout.promote")
            state["stable"] = version
            flaky_window[0] = None
            c["promotes"] += 1
        else:  # NO_DATA: neither promote nor roll back (nor quarantine)
            flaky_window[0] = None
            shards[canary]["svc"].swap_program(builder_for(state["stable"]))
            versions[canary] = state["stable"]
            c["no_datas"] += 1

    traffic(0, 40)  # seed the key-space before the first event
    for i in range(1, n_ops + 1):
        traffic(i, 8)
        if i % 6 == 0:
            n_live = len(ring.nodes)
            choices = ["rollout"]
            if n_live < 5:
                choices.append("out")
            if n_live > 2:
                choices.append("in")
            ev = rng.choice(choices)
            report.mix("event", i, ev)
            if ev == "out":
                event_scale_out(i)
            elif ev == "in":
                event_scale_in(i)
            else:
                event_rollout(i)
            verify_all(i, ev)

    flaky_window[0] = None
    verify_all(n_ops + 1, "final")
    c["migration_deaths"] = sum(
        n for s, n in crash.crashes.items() if s.startswith("migrate.")
    )
    c["rollout_deaths"] = sum(
        n for s, n in crash.crashes.items() if s.startswith("rollout.")
    )
    c["shards_final"] = len(ring.nodes)
    return _seal_crashes(report, crash)


# ---------------------------------------------------------------------------
# Verification-service chaos: worker kills mid-exploration
# ---------------------------------------------------------------------------


def _verify_chaos_program(variant: int):
    """A multi-region program (loop, branch diamond, tail) whose
    analysis depends on ``variant`` — distinct artifacts per job."""
    from repro.ebpf.isa import Reg
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program

    m = MacroAsm()
    m.mov(Reg.R6, 0)
    m.label("loop")
    m.add(Reg.R6, 1)
    m.jcc("<", Reg.R6, 8 + (variant % 4), "loop")
    m.mov(Reg.R7, variant)
    m.jcc(">", Reg.R6, 4, "hi")
    m.add(Reg.R7, 1)
    m.label("hi")
    m.mov(Reg.R8, 0)
    m.label("loop2")
    m.add(Reg.R8, 2)
    m.jcc("<", Reg.R8, 6, "loop2")
    m.mov(Reg.R0, 0)
    m.exit()
    return Program(f"verify-chaos-{variant}", m.assemble(), hook="bench",
                   heap_size=4096)


def run_verify_campaign(
    seed: int = 0, n_programs: int = 12, *, workers: int = 2
) -> CampaignReport:
    """Kill verification workers mid-exploration and check the
    scheduler's story: every killed job is retried (with the kill
    stripped), every retry re-explores from scratch, and every merged
    analysis is *bit-identical* to the inline single-threaded verifier
    — a crashed worker's partial progress is never admitted.
    """
    from repro.ebpf.verifier import Verifier
    from repro.verify import VerificationService, VerifyJob
    from repro.verify.profiles import profile_config

    rng = random.Random(seed)
    config = profile_config("default")
    report = CampaignReport("verify", seed, n_programs, counters={
        "workers": workers, "retries": 0, "regions_retried": 0,
        # Jobs whose merged analysis differed from the inline verifier,
        # and jobs that came back failed (every program admits).
        "mismatches": 0, "failures": 0,
    })
    c = report.counters

    programs = [_verify_chaos_program(v) for v in range(n_programs)]
    jobs = []
    kills = 0
    for i, prog in enumerate(programs):
        die = rng.randrange(1, 4) if rng.random() < 0.5 else None
        if die is not None:
            kills += 1
        # The kill schedule is the seed's whole effect: without it in
        # the digest every seed would hash alike.
        report.mix("job", i, die)
        jobs.append(VerifyJob(prog, config, die_after_regions=die))

    svc = VerificationService(workers=workers, poll_s=0.02)
    try:
        outs = svc.submit_batch(jobs)
    finally:
        stats = dict(svc.stats)
        svc.close()
    c["retries"] = stats["retries"]
    c["regions_retried"] = stats["regions_retried"]

    for i, (prog, out) in enumerate(zip(programs, outs)):
        if out.error is not None:
            c["failures"] += 1
            report.error(i, f"job failed: {out.error}")
            continue
        ref = Verifier(prog, config).verify()
        if out.analysis != ref:
            c["mismatches"] += 1
            report.error(i, "merged analysis differs from inline verifier")
            continue
        report.mix("verify", i, sorted(ref.object_tables), ref.insns_processed)
    if c["retries"] < kills:
        report.error(-1, f"only {c['retries']} retries for {kills} kills")
    return report.seal(kills, ())


# ---------------------------------------------------------------------------
# The table and the driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Campaign:
    """One :data:`CAMPAIGNS` row: everything the driver needs to run a
    campaign as a gate."""

    #: ``run(seed, n_ops, **kw) -> CampaignReport``.
    run: Callable[..., CampaignReport]
    #: Default ``--ops``.
    ops: int
    #: Run every leg once per engine (``engine=`` kwarg) and require
    #: bit-identical digests across them.
    engines: tuple = ()
    #: Legs appended after the ``--runs`` seed sweep, as
    #: ``(seed offset, ops -> leg ops, extra kwargs)``.
    extra_legs: tuple = ()
    #: Crash sites the legs together must hit, or the gate fails.
    required_sites: frozenset = frozenset()
    #: Accepts ``storage=`` (``--file-backed`` hands it a DirStorage).
    file_backed: bool = False


_BOTH_ENGINES = ("interp", "threaded")

CAMPAIGNS: dict[str, Campaign] = {
    "memcached": Campaign(run_memcached_campaign, 300, _BOTH_ENGINES),
    "redis": Campaign(run_redis_campaign, 300, _BOTH_ENGINES),
    "datastructures": Campaign(
        run_datastructures_campaign, 300, _BOTH_ENGINES
    ),
    "recovery": Campaign(
        run_recovery_campaign, 1500,
        required_sites=frozenset(DEFAULT_CRASH_RATES),
        file_backed=True,
    ),
    "replication": Campaign(
        run_replication_campaign, 1200,
        # One quorum-2 leg: every follower outage is then a quorum loss.
        extra_legs=((99, lambda ops: max(400, ops // 2),
                     {"sync_replicas": 2}),),
        required_sites=frozenset({
            "ship.send", "replica.append", "replica.flush",
            "antientropy.install", "antientropy.send", "promote.recover",
        }),
    ),
    "fleet": Campaign(
        run_fleet_campaign, 150,
        required_sites=frozenset(DEFAULT_FLEET_RATES) - {"recovery.replay"},
    ),
    "verify": Campaign(run_verify_campaign, 12),
}


def run_gate(
    name: str, seed: int, runs: int, ops: int | None, min_deaths: int,
    storage_root: str | None = None,
) -> bool:
    """Run one campaign's legs, print every report, and apply the
    gates: no oracle errors, no engine divergence, at least
    ``min_deaths`` injected deaths, every required site exercised."""
    campaign = CAMPAIGNS[name]
    ops = ops or campaign.ops
    legs = [(seed + i, ops, {}) for i in range(runs)]
    legs += [(seed + d, f(ops), kw) for d, f, kw in campaign.extra_legs]
    engine_kws = [{"engine": e} for e in campaign.engines] or [{}]
    ok = True
    deaths = 0
    sites: set = set()
    for n, (leg_seed, leg_ops, kw) in enumerate(legs):
        if storage_root is not None:
            from repro.state import DirStorage

            kw = {**kw, "storage": DirStorage(f"{storage_root}/{name}-run{n}")}
        reports = [
            campaign.run(leg_seed, leg_ops, **kw, **engine_kw)
            for engine_kw in engine_kws
        ]
        for report in reports:
            print(report.describe())
            for idx, msg in report.errors:
                print(f"  op {idx}: {msg}")
            deaths += report.deaths
            sites |= set(report.sites)
            ok &= report.ok
        if len({r.digest for r in reports}) > 1:
            print(f"  ENGINE DIVERGENCE in {name}: "
                  f"{ {r.name: r.digest[:16] for r in reports} }")
            ok = False
    print(f"chaos[{name}]: {deaths} injected deaths over {len(legs)} runs")
    if deaths < min_deaths:
        print(f"  INSUFFICIENT DEATH COVERAGE: {deaths} < {min_deaths}")
        ok = False
    missing = campaign.required_sites - sites
    if missing:
        print(f"  CRASH SITES NOT EXERCISED: {sorted(missing)}")
        ok = False
    return ok


def main(argv=None) -> int:
    import argparse
    import tempfile

    ap = argparse.ArgumentParser(description="seeded chaos campaigns")
    ap.add_argument("command", choices=("run",))
    ap.add_argument("campaigns", nargs="+", choices=tuple(CAMPAIGNS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--runs", type=int, default=1, help="seeds seed..seed+N-1")
    ap.add_argument("--ops", type=int, help="per run (default: the row's)")
    ap.add_argument(
        "--min-deaths", type=int, default=0,
        help="fail a campaign whose runs injected fewer deaths in total",
    )
    ap.add_argument(
        "--file-backed", action="store_true",
        help="durable state on real files (fsync + rename) under a "
             "temporary directory instead of in memory",
    )
    args = ap.parse_args(argv)
    diskless = [n for n in args.campaigns if not CAMPAIGNS[n].file_backed]
    if args.file_backed and diskless:
        ap.error(f"--file-backed is not supported by: {', '.join(diskless)}")

    with tempfile.TemporaryDirectory(prefix="kflex-chaos.") as tmp:
        root = tmp if args.file_backed else None
        ok = [
            run_gate(name, args.seed, args.runs, args.ops, args.min_deaths, root)
            for name in args.campaigns
        ]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    raise SystemExit(main())
