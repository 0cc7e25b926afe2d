"""Verification-service benchmark: parallel + differential vs serial.

A fleet rollout re-verifies one extension *family* across every shard:
64 variants of a verification-heavy program (eight unbounded
pointer-chasing loops apiece — each loop forces widening and is its
own CFG region) that differ only in their final heap-store region, the
shape of a per-tenant patched artifact.  The serial baseline runs the
single-threaded ``Verifier.verify()`` over all 64 from scratch — the
pre-service world.  The service fans the batch over 4 worker
processes whose long-lived per-worker region memos make every variant
after a worker's first a differential re-verification: only the
changed tail region is re-explored, the rest replay from the memo and
merge to a bit-identical analysis (checked here against the serial
references).

Also measured: the single-program differential case — a 1-instruction
patch must re-explore < 50% of the regions.

Run under pytest (``pytest benchmarks/bench_verify_service.py``) or
standalone:

.. code-block:: console

    $ python benchmarks/bench_verify_service.py            # print results
    $ python benchmarks/bench_verify_service.py --update   # refresh baseline
    $ python benchmarks/bench_verify_service.py --check    # gate vs baseline

``--check`` enforces the acceptance floors (4-worker rollout >= 2x
over serial; 1-insn patch re-explores < 50% of regions) and compares
the measured speedup against the committed baseline
``benchmarks/results/BENCH_verify.json`` with 40% tolerance.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time

HERE = pathlib.Path(__file__).parent
BASELINE_JSON = HERE / "results" / "BENCH_verify.json"

#: Acceptance floors.
PARALLEL_SPEEDUP_FLOOR = 2.0
DIFF_REEXPLORE_CEILING = 0.5
#: Additional gate vs the committed baseline speedup.
REGRESSION_TOLERANCE = 0.40

N_PROGRAMS = 64
WORKERS = 4
N_LOOPS = 8
LOOP_BODY = 128
HEAP_SIZE = 1 << 16


def build_variant(variant: int):
    """One member of the rollout family: N_LOOPS unbounded list walks
    (one widened region each) plus a variant-specific heap-store tail —
    the only region that differs between family members."""
    from repro.ebpf.isa import Reg
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program

    R = Reg
    m = MacroAsm()
    m.mov(R.R0, 0)
    for i in range(N_LOOPS):
        m.heap_addr(R.R6, 0x40 + 8 * i)  # &head_i
        m.ldx(R.R7, R.R6)                # e = head_i
        with m.while_("!=", R.R7, 0):    # unbounded: widened
            for j in range(LOOP_BODY):
                m.ldx(R.R2, R.R7, 8 * (j % 4))
                m.add(R.R0, R.R2)
            m.ldx(R.R7, R.R7, 8)         # e = e->next
    m.heap_addr(R.R3, 0x800 + 8 * (variant % 64))
    m.stx(R.R3, R.R0)
    m.exit()
    return Program(f"rollout{variant}", m.assemble(), hook="bench",
                   heap_size=HEAP_SIZE)


def _trivial_program(name="warm"):
    from repro.ebpf.isa import Reg
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program

    m = MacroAsm()
    m.mov(Reg.R0, 0)
    m.exit()
    return Program(name, m.assemble(), hook="bench", heap_size=HEAP_SIZE)


def run_benchmark() -> dict:
    from repro.ebpf.verifier import Verifier, VerifierConfig
    from repro.verify import VerificationService, VerifyJob

    progs = [build_variant(v) for v in range(N_PROGRAMS)]

    # Serial baseline: single-threaded verifier, from scratch each time.
    t0 = time.perf_counter()
    refs = [Verifier(p, VerifierConfig()).verify() for p in progs]
    serial_s = time.perf_counter() - t0

    # The service, as a fleet runs it: a long-lived pool (fork +
    # interpreter warmup are deployment one-time costs, primed here
    # with trivial programs that share nothing with the family), then
    # one timed 64-program rollout batch.
    svc = VerificationService(workers=WORKERS, poll_s=0.02)
    try:
        svc.submit_batch(
            [VerifyJob(_trivial_program(f"w{i}")) for i in range(2 * WORKERS)]
        )
        t0 = time.perf_counter()
        outs = svc.submit_batch([VerifyJob(p) for p in progs])
        parallel_s = time.perf_counter() - t0
    finally:
        svc.close()

    mismatches = sum(
        1 for out, ref in zip(outs, refs)
        if not out.ok or out.analysis != ref
    )
    regions_total = sum(o.regions_total for o in outs)
    regions_reused = sum(o.regions_reused for o in outs)

    # Differential re-verification: patch ONE instruction (the tail
    # store offset) and re-verify through a warm memo.
    diff_svc = VerificationService(workers=0)
    base = build_variant(0)
    diff_svc.verify(base)
    patched_insns = list(base.insns)
    idx = max(i for i, ins in enumerate(patched_insns) if ins.is_ld_imm64)
    patched_insns[idx] = dataclasses.replace(patched_insns[idx], imm64=0x808)
    from repro.ebpf.program import Program

    patched = Program("rollout0p", patched_insns, hook="bench",
                      heap_size=HEAP_SIZE)
    out = diff_svc.submit_batch([VerifyJob(patched)])[0]
    diff_ok = out.ok and out.analysis == Verifier(
        patched, VerifierConfig()
    ).verify()
    diff_fraction = (
        (out.regions_total - out.regions_reused) / out.regions_total
    )

    return {
        "workload": f"{N_PROGRAMS}-program rollout, {WORKERS} workers",
        "program_insns": len(progs[0].insns),
        "regions_per_program": outs[0].regions_total,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 2),
        "mismatches": mismatches,
        "regions_total": regions_total,
        "regions_reused": regions_reused,
        "differential_saved": round(regions_reused / regions_total, 3),
        "diff_regions_total": out.regions_total,
        "diff_regions_reexplored": out.regions_total - out.regions_reused,
        "diff_reexplore_fraction": round(diff_fraction, 3),
        "diff_identical": bool(diff_ok),
    }


def format_result(r: dict) -> str:
    return "\n".join([
        f"verification-service benchmark ({r['workload']}, "
        f"{r['program_insns']} insns each)",
        f"  serial      {r['serial_s']:8.3f} s   (single-threaded verifier)",
        f"  service     {r['parallel_s']:8.3f} s   (pool + differential memos)",
        f"  speedup     {r['speedup']:8.2f} x   "
        f"(floor {PARALLEL_SPEEDUP_FLOOR}x)",
        f"  regions     {r['regions_reused']}/{r['regions_total']} reused "
        f"({100 * r['differential_saved']:.0f}% differential savings)",
        f"  1-insn patch re-explores "
        f"{r['diff_regions_reexplored']}/{r['diff_regions_total']} regions "
        f"({100 * r['diff_reexplore_fraction']:.0f}%, "
        f"ceiling {100 * DIFF_REEXPLORE_CEILING:.0f}%)",
        f"  bit-identical to serial: "
        f"{'yes' if not r['mismatches'] and r['diff_identical'] else 'NO'}",
    ])


def check_result(r: dict) -> tuple[bool, str]:
    if r["mismatches"] or not r["diff_identical"]:
        return False, f"{r['mismatches']} analyses diverged from serial"
    if r["speedup"] < PARALLEL_SPEEDUP_FLOOR:
        return False, (
            f"rollout speedup {r['speedup']:.2f}x below the "
            f"{PARALLEL_SPEEDUP_FLOOR}x acceptance floor"
        )
    if r["diff_reexplore_fraction"] >= DIFF_REEXPLORE_CEILING:
        return False, (
            f"1-insn patch re-explored "
            f"{100 * r['diff_reexplore_fraction']:.0f}% of regions "
            f"(ceiling {100 * DIFF_REEXPLORE_CEILING:.0f}%)"
        )
    if not BASELINE_JSON.exists():
        return True, f"no baseline at {BASELINE_JSON}; floor-only gate passed"
    baseline = json.loads(BASELINE_JSON.read_text())
    floor = baseline["speedup"] * (1.0 - REGRESSION_TOLERANCE)
    ok = r["speedup"] >= floor
    msg = (
        f"speedup {r['speedup']:.2f}x vs baseline "
        f"{baseline['speedup']:.2f}x (floor {floor:.2f}x): "
        + ("OK" if ok else "REGRESSION")
    )
    return ok, msg


GATE = (BASELINE_JSON, run_benchmark, format_result, check_result)


def test_verify_service_rollout():
    from conftest import gate_test

    gate_test(*GATE)


if __name__ == "__main__":
    from conftest import gate_main

    raise SystemExit(gate_main(
        *GATE, __doc__,
        "fail below the floors or on a >40%% baseline "
        "regression",
    ))
