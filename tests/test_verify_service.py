"""Verification-as-a-service: parallel exploration, profiles, differential.

The contract under test is bit-identity: whatever the execution shape
— inline serial loop, forked worker pool, differential replay through
the region memo, or a retry after a chaos worker kill — the merged
:class:`Analysis` must equal (dataclass ``==``) the one a bare
single-threaded ``Verifier.verify()`` produces.  Everything else
(profiles, cache-key separation, fleet spec plumbing, scheduler
stats) is scaffolding around that invariant.

Marked ``verify_svc`` so the suite is selectable (`make test-verify`),
but like ``fuse`` it stays IN tier-1.
"""

import pytest

from repro.errors import LoadError, VerificationError
from repro.ebpf.isa import Reg
from repro.ebpf.macroasm import MacroAsm
from repro.ebpf.program import Program
from repro.ebpf.verifier import Verifier, VerifierConfig
from repro.verify import (
    HOOK_PROFILES,
    PROFILES,
    ProfileError,
    VerificationService,
    VerifyJob,
    list_profiles,
    profile_config,
    profile_for,
    resolve_profile,
)

pytestmark = pytest.mark.verify_svc

HEAP = 8192


def make_program(variant=0, name="vsvc"):
    """A multi-region program: bounded loop, branch diamond, second
    loop, heap-store tail — enough linear cut points that parallel
    region scheduling and differential replay have real work."""
    R = Reg
    m = MacroAsm()
    m.mov(R.R0, 0)
    m.mov(R.R6, 0)
    with m.while_("<", R.R6, 8 + (variant % 4)):
        m.add(R.R6, 1)
        m.add(R.R0, 2)
    m.mov(R.R7, variant)
    with m.if_(">", R.R7, 2):
        m.add(R.R0, 5)
    m.mov(R.R8, 0)
    with m.while_("<", R.R8, 4):
        m.add(R.R8, 1)
    m.heap_addr(R.R3, 0x40)
    m.stx(R.R3, R.R0)
    m.exit()
    return Program(f"{name}{variant}", m.assemble(), hook="bench",
                   heap_size=HEAP)


def reference_analysis(prog, config=None):
    return Verifier(prog, config or VerifierConfig()).verify()


@pytest.fixture
def pool():
    svc = VerificationService(workers=2, poll_s=0.02)
    yield svc
    svc.close()


# -- bit-identity ------------------------------------------------------------


def test_inline_service_matches_bare_verifier():
    svc = VerificationService(workers=0)
    prog = make_program(1)
    analysis = svc.verify(prog)
    assert analysis == reference_analysis(prog)


def test_pool_matches_bare_verifier(pool):
    progs = [make_program(v) for v in range(6)]
    outs = pool.submit_batch([VerifyJob(p) for p in progs])
    assert [o.jid for o in outs] == list(range(6))
    for prog, out in zip(progs, outs):
        assert out.ok, out.error
        assert out.analysis == reference_analysis(prog)
        assert out.regions_total > 1  # the program really is multi-region


def test_rejection_is_an_outcome_not_a_crash(pool):
    m = MacroAsm()
    m.mov(Reg.R0, Reg.R3)  # uninitialised read: rejected
    m.exit()
    bad = Program("bad", m.assemble(), hook="bench", heap_size=HEAP)
    good = make_program(0)
    outs = pool.submit_batch([VerifyJob(bad), VerifyJob(good)])
    assert not outs[0].ok and "uninitialised" in outs[0].error
    assert outs[1].ok and outs[1].analysis == reference_analysis(good)
    # The single-program front raises instead.
    with pytest.raises(VerificationError):
        pool.verify(bad)


# -- differential re-verification --------------------------------------------


def test_resubmission_reuses_every_region():
    svc = VerificationService(workers=0)
    prog = make_program(2)
    svc.verify(prog)
    svc.verify(prog)
    outs = svc.submit_batch([VerifyJob(prog)])
    assert outs[0].regions_reused == outs[0].regions_total
    assert outs[0].analysis == reference_analysis(prog)


def test_one_insn_patch_reexplores_under_half_the_regions():
    svc = VerificationService(workers=0)
    base = make_program(0)
    first = svc.submit_batch([VerifyJob(base)])[0]

    # Patch one immediate in the *last* region (the heap-store tail):
    # every earlier region replays from the memo.
    import dataclasses

    patched_insns = list(base.insns)
    idx = max(i for i, ins in enumerate(patched_insns) if ins.is_ld_imm64)
    patched_insns[idx] = dataclasses.replace(patched_insns[idx], imm64=0x48)
    patched = Program("vsvc0p", patched_insns, hook="bench", heap_size=HEAP)

    out = svc.submit_batch([VerifyJob(patched)])[0]
    assert out.analysis == reference_analysis(patched)
    assert out.regions_total == first.regions_total
    reexplored = out.regions_total - out.regions_reused
    assert reexplored < out.regions_total / 2, (
        f"1-insn patch re-explored {reexplored}/{out.regions_total} regions"
    )


def test_memo_disabled_by_config_divergence():
    """Different VerifierConfig values must never share memo entries."""
    svc = VerificationService(workers=0)
    prog = make_program(1)
    a = svc.verify(prog, VerifierConfig(elision=True))
    b_out = svc.submit_batch(
        [VerifyJob(prog, VerifierConfig(elision=False))]
    )[0]
    assert b_out.regions_reused == 0
    assert a == reference_analysis(prog, VerifierConfig(elision=True))
    assert b_out.analysis == reference_analysis(
        prog, VerifierConfig(elision=False)
    )


# -- profiles ----------------------------------------------------------------


def test_profile_registry_lists_known_names():
    names = [p.name for p in list_profiles()]
    assert "default" in names and "strict" in names
    assert names == sorted(names)
    assert set(names) == set(PROFILES)


def test_profile_inheritance_resolves_root_first():
    fast = resolve_profile("fast-rollout")
    canary = resolve_profile("canary")
    assert fast["widen_threshold"] == 8
    # canary inherits fast-rollout and overrides only the threshold.
    assert canary["widen_threshold"] == 6
    assert canary["max_states_per_insn"] == fast["max_states_per_insn"]


def test_profile_config_builds_a_tagged_config():
    cfg = profile_config("strict")
    assert cfg.profile == "strict"
    assert cfg.elision is False and cfg.widen_threshold == 48
    # Explicit overrides win over profile settings.
    assert profile_config("strict", widen_threshold=9).widen_threshold == 9


def test_unknown_profile_error_names_the_known_set():
    with pytest.raises(ProfileError) as e:
        resolve_profile("bogus")
    msg = str(e.value)
    assert "bogus" in msg and "default" in msg and "strict" in msg


def test_profile_for_hook_pinning():
    assert HOOK_PROFILES["lsm"] == "strict"
    assert profile_for("lsm", "") == "strict"
    # A tenant profile wins over the hook default.
    assert profile_for("lsm", "canary") == "canary"
    assert profile_for("bench", "") == "default"


def test_runtime_load_accepts_profile():
    from repro.core.runtime import KFlexRuntime

    rt = KFlexRuntime()
    heap = rt.create_heap(HEAP, name="vsvc")
    ext = rt.load(make_program(0), heap=heap, attach=False,
                  profile="strict")
    assert ext is not None
    with pytest.raises(ProfileError):
        rt.load(make_program(1), heap=heap, attach=False, profile="nope")


def test_runtime_load_profile_mode_governs_heap():
    from repro.core.runtime import KFlexRuntime

    rt = KFlexRuntime()
    heap = rt.create_heap(HEAP, name="vsvc2")
    with pytest.raises(LoadError):
        rt.load(make_program(0), heap=heap, attach=False,
                profile="ebpf-compat")


# -- pipeline seam -----------------------------------------------------------


def test_pipeline_uses_the_service_and_reports_subtimings():
    from repro.core.runtime import KFlexRuntime

    svc = VerificationService(workers=0)
    rt = KFlexRuntime(verify_service=svc)
    heap = rt.create_heap(HEAP, name="seam")
    rt.load(make_program(3), heap=heap, attach=False)
    assert svc.stats["jobs"] == 1
    stages = rt.pipeline.stats.stages
    assert {"verify:queue", "verify:explore", "verify:merge"} <= set(stages)
    assert stages["verify:explore"].total_ns > 0


def test_seed_verify_makes_the_load_warm():
    from repro.core.runtime import KFlexRuntime

    prog = make_program(4)
    cfg = profile_config("default")
    analysis = VerificationService(workers=0).verify(prog, cfg, HEAP)

    rt = KFlexRuntime()
    rt.pipeline.seed_verify(prog, cfg, analysis, heap=None)
    heap = rt.create_heap(HEAP, name="seed")
    rt.load(prog, heap=heap, attach=False, profile="default")
    st = rt.pipeline.stats.stages["verify"]
    assert st.runs == 1 and st.cached == 1  # seeded: the verifier never ran


# -- fleet plumbing ----------------------------------------------------------


def test_fleet_spec_roundtrips_verify_profile():
    from repro.fleet.spec import FleetSpec

    spec = FleetSpec(verify_profile="fast-rollout")
    d = spec.to_dict()
    assert d["verify_profile"] == "fast-rollout"
    assert FleetSpec.from_dict(d).verify_profile == "fast-rollout"
    assert FleetSpec.from_dict({"shards": 1}).verify_profile == ""


# -- scheduler stats & chaos -------------------------------------------------


def test_stats_dict_shape(pool):
    pool.submit_batch([VerifyJob(make_program(v)) for v in range(3)])
    d = pool.stats_dict()
    for key in (
        "workers", "batches", "jobs", "failures", "retries",
        "regions_total", "regions_reused", "queue_depth_peak",
        "utilization", "differential_saved", "memo",
    ):
        assert key in d, key
    assert d["workers"] == 2 and d["jobs"] == 3
    assert d["queue_depth_peak"] >= 3
    assert 0.0 <= d["differential_saved"] <= 1.0


def test_worker_kill_retries_and_admits_identical_analysis():
    from repro.sim.chaos import run_verify_campaign

    report = run_verify_campaign(1, 6, workers=2)
    assert report.ok, report.errors
    assert report.deaths > 0, "campaign must actually kill a worker"
    assert report.counters["retries"] >= report.deaths
    assert report.counters["mismatches"] == 0
    assert report.counters["failures"] == 0


def test_verify_campaign_digest_is_seed_stable():
    from repro.sim.chaos import run_verify_campaign

    a = run_verify_campaign(7, 4, workers=2)
    b = run_verify_campaign(7, 4, workers=2)
    assert a.ok and b.ok
    assert a.digest == b.digest
    # Seed 8 kills as many workers as seed 7 but at other regions: the
    # kill schedule is in the digest.
    c = run_verify_campaign(8, 4, workers=2)
    assert c.ok and c.deaths == a.deaths
    assert c.digest != a.digest
