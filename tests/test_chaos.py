"""Seeded chaos campaigns: panics, quiescence, degradation, replay.

Every test here carries the ``chaos`` marker (``make chaos-quick`` runs
the same campaigns from the CLI).  The campaigns force quiescence
auditing on, so a leak after any injected cancellation surfaces as a
``QuiescenceViolation`` — a ``KernelPanic`` subclass — and fails the
run outright.
"""

from __future__ import annotations

import pytest

from repro.sim.chaos import (
    CAMPAIGNS,
    main,
    run_datastructures_campaign,
    run_fleet_campaign,
    run_memcached_campaign,
    run_redis_campaign,
)

pytestmark = pytest.mark.chaos


# -- the acceptance campaign --------------------------------------------------


def test_memcached_campaign_both_engines_bit_identical():
    """>=500 requests, >=5 fault kinds, zero panics/leaks/oracle errors,
    and a bit-identical digest under both execution engines."""
    reports = {
        engine: run_memcached_campaign(seed=3, n_ops=500, engine=engine)
        for engine in ("interp", "threaded")
    }
    for r in reports.values():
        assert r.ok, r.errors
        assert len(r.sites) >= 5, r.describe()  # fault kinds fired
        assert r.counters["quarantines"] >= 1
        assert r.counters["readmissions"] >= 1
        assert r.counters["cancellations"] >= 1
        assert r.counters["kernel_ops"] > 0
        # degradation path actually served
        assert r.counters["fallback_ops"] > 0
    assert reports["interp"].digest == reports["threaded"].digest


def test_redis_campaign_both_engines_bit_identical():
    reports = {
        engine: run_redis_campaign(seed=5, n_ops=300, engine=engine)
        for engine in ("interp", "threaded")
    }
    for r in reports.values():
        assert r.ok, r.errors
        assert r.deaths > 0  # injector fires
        assert r.counters["cancellations"] >= 1
    assert reports["interp"].digest == reports["threaded"].digest


def test_datastructures_campaign_both_engines_bit_identical():
    reports = {
        engine: run_datastructures_campaign(seed=7, n_ops=300, engine=engine)
        for engine in ("interp", "threaded")
    }
    for r in reports.values():
        assert r.ok, r.errors
        assert r.deaths > 0
    assert reports["interp"].digest == reports["threaded"].digest


def test_campaign_replays_deterministically_from_seed():
    a = run_memcached_campaign(seed=11, n_ops=120)
    b = run_memcached_campaign(seed=11, n_ops=120)
    assert a.digest == b.digest
    assert a.describe() == b.describe()
    c = run_memcached_campaign(seed=12, n_ops=120)
    assert c.digest != a.digest  # the seed is the whole schedule


def test_run_campaign_dispatch():
    r = CAMPAIGNS["datastructures"].run(1, 50)
    assert r.name == "datastructures/threaded" and r.n_ops == 50
    with pytest.raises(SystemExit):
        main(["run", "postgres"])


def test_fleet_campaign_small_run_is_deterministic():
    a = run_fleet_campaign(1, 40)
    b = run_fleet_campaign(1, 40)
    assert a.ok, a.errors
    assert a.deaths > 0 and a.counters["acked_ops"] > 0
    assert (a.digest, a.deaths, a.counters) == (b.digest, b.deaths, b.counters)


#: (campaign, seed, ops, kwargs) -> digest[:16], recorded at the commit
#: before the five drivers became one.  A refactor of the driver, the
#: request loop or the journaled-map harness must not move any of them.
#: (verify's digest was re-recorded once, when the kill schedule was
#: folded in: it was seed-independent before.)
GOLDEN_DIGESTS = [
    ("memcached", 3, 120, {"engine": "interp"}, "e90398fe6f173f3a"),
    ("memcached", 3, 120, {"engine": "threaded"}, "e90398fe6f173f3a"),
    ("redis", 5, 120, {"engine": "interp"}, "73154b8e48c5ace7"),
    ("redis", 5, 120, {"engine": "threaded"}, "73154b8e48c5ace7"),
    ("datastructures", 7, 120, {"engine": "interp"}, "513ae41a0ef413b1"),
    ("datastructures", 7, 120, {"engine": "threaded"}, "513ae41a0ef413b1"),
    ("recovery", 7, 300, {}, "b91b7f7ca102563d"),
    ("replication", 5, 200, {}, "608086c27b16a223"),
    ("replication", 5, 200, {"sync_replicas": 2}, "608086c27b16a223"),
    ("fleet", 1, 40, {}, "db24649b7273c97e"),
    ("verify", 7, 4, {}, "c9cf64f80c0cd6fb"),
]


@pytest.mark.parametrize(
    "name,seed,ops,kw,digest", GOLDEN_DIGESTS,
    ids=[f"{g[0]}-{'-'.join(map(str, g[3].values())) or 'default'}"
         for g in GOLDEN_DIGESTS],
)
def test_golden_digest(name, seed, ops, kw, digest):
    report = CAMPAIGNS[name].run(seed, ops, **kw)
    assert report.ok, report.errors
    assert report.digest[:16] == digest, report.describe()


# -- the gate driver ----------------------------------------------------------


def test_gate_passes_and_enforces_the_death_floor(capsys):
    argv = ["run", "datastructures", "--seed", "7", "--ops", "120"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "chaos[datastructures/interp]" in out
    assert "chaos[datastructures/threaded]" in out
    assert main(argv + ["--min-deaths", "1000"]) == 1
    assert "INSUFFICIENT DEATH COVERAGE" in capsys.readouterr().out


def test_gate_requires_every_crash_site(capsys):
    # 300 ops of one seed cannot reach the snapshot/compaction sites.
    argv = ["run", "recovery", "--seed", "7", "--ops", "300", "--file-backed"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "CRASH SITES NOT EXERCISED" in out
    # Real files or memory, the outcome is the same one.
    assert "digest=b91b7f7ca102563d ok" in out


def test_gate_fails_on_engine_divergence(monkeypatch, capsys):
    import dataclasses

    row = CAMPAIGNS["datastructures"]

    def diverging(seed, ops, engine):
        report = row.run(seed, ops, engine=engine)
        report.digest = engine + report.digest
        return report

    monkeypatch.setitem(
        CAMPAIGNS, "datastructures", dataclasses.replace(row, run=diverging)
    )
    assert main(["run", "datastructures", "--ops", "30"]) == 1
    assert "ENGINE DIVERGENCE" in capsys.readouterr().out


def test_file_backed_is_refused_where_unsupported():
    with pytest.raises(SystemExit):
        main(["run", "fleet", "--file-backed"])


# -- graceful degradation, examined up close ---------------------------------


def test_fallback_serves_correct_results_through_quarantine():
    """§3.4 end to end: quarantine the extension by hand, watch GET fall
    back to the surviving heap via the user mapping, SET land in the
    overlay, and re-admission replay drain the overlay into the kernel
    table."""
    from repro.apps.memcached.supervised import SupervisedMemcached
    from repro.core.runtime import KFlexRuntime
    from repro.core.supervisor import QuarantinePolicy

    policy = QuarantinePolicy(base_backoff_ns=10_000, max_backoff_ns=10_000)
    rt = KFlexRuntime(supervisor_policy=policy)
    sm = SupervisedMemcached(rt, use_locks=True, heap_size=1 << 22)

    # Healthy: values land in the kernel table.
    assert sm.set(1, 111)
    assert sm.set(2, 222)
    assert sm.get(1) == (True, 111)
    assert sm.stats.kernel_gets == 1 and sm.stats.kernel_sets == 2

    rt.supervisor.quarantine(sm.ext, "watchdog")

    # GET of an extension-written key is answered from the surviving
    # heap through the user mapping (no overlay copy exists).
    assert sm.get(2) == (True, 222)
    assert sm.stats.heap_hits == 1
    # SET during quarantine lands in the overlay; GET prefers it.
    assert sm.set(1, 999)
    assert sm.pending == 1
    assert sm.get(1) == (True, 999)
    assert sm.get(3) == (False, None)  # a miss stays a miss
    assert sm.stats.fallback_gets == 3 and sm.stats.fallback_sets == 1

    # Backoff elapses; the next request re-admits and replays.
    rt.kernel.advance_ns(policy.base_backoff_ns + 1)
    assert sm.get(1) == (True, 999)
    assert not sm.ext.dead
    assert sm.pending == 0
    assert sm.stats.replays == 1
    assert rt.supervisor.stats.readmissions == 1
    # The replayed value is now served by the kernel fast path.
    assert sm.get(1) == (True, 999)
