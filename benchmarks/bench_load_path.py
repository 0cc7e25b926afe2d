"""Load-path benchmark: cold vs warm (cache-hit) extension loads.

The staged compilation pipeline (:mod:`repro.ebpf.pipeline`) memoizes
verification analyses and lowered programs in a content-addressed
cache, so repeated loads of the same bytecode — per-CPU deployments,
supervisor re-admission after quarantine — skip the symbolic-execution
verifier entirely.  This benchmark measures what that buys: wall-clock
latency of a *cold* load (empty cache; the verifier runs) vs a *warm*
load (same program, same heap; every cacheable stage hits).

The workload program is deliberately verification-heavy: several
unbounded pointer-chasing loops (each forces loop widening and a
cancellation point) plus a block of heap stores for the range analysis
to chew on — the shape of a realistic KFlex data-structure extension.

Run under pytest (``pytest benchmarks/bench_load_path.py``) or
standalone:

.. code-block:: console

    $ python benchmarks/bench_load_path.py            # print results
    $ python benchmarks/bench_load_path.py --update   # refresh baseline
    $ python benchmarks/bench_load_path.py --check    # gate vs baseline

``--check`` enforces the acceptance floor (warm >= 5x faster than
cold) and compares the measured ratio against the committed baseline
``benchmarks/results/BENCH_load.json`` with 50% tolerance (load
latency ratios are noisier than steady-state throughput).
"""

from __future__ import annotations

import json
import pathlib
import time

HERE = pathlib.Path(__file__).parent
BASELINE_JSON = HERE / "results" / "BENCH_load.json"

#: Hard floor from the acceptance criteria: a cache-hit load must be at
#: least this much faster than a cold load.
SPEEDUP_FLOOR = 5.0
#: Additional gate vs the committed baseline ratio.
REGRESSION_TOLERANCE = 0.50

COLD_REPS = 5
WARM_REPS = 50
N_LOOPS = 4
N_HEAP_STORES = 24
HEAP_SIZE = 1 << 16


def build_program():
    """A verification-heavy extension: N unbounded list walks plus a
    run of heap stores (guards subject to range-analysis elision)."""
    from repro.ebpf.isa import Reg
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program

    R = Reg
    m = MacroAsm()
    m.mov(R.R0, 0)
    for i in range(N_LOOPS):
        m.heap_addr(R.R6, 0x40 + 8 * i)  # &head_i
        m.ldx(R.R7, R.R6)                # e = head_i
        with m.while_("!=", R.R7, 0):    # unbounded: widened, gets a Cp
            m.ldx(R.R2, R.R7, 0)
            m.add(R.R0, R.R2)
            m.ldx(R.R7, R.R7, 8)         # e = e->next
    for i in range(N_HEAP_STORES):
        m.heap_addr(R.R3, 0x200 + 8 * i)
        m.stx(R.R3, R.R0)
    m.exit()
    return Program("loadbench", m.assemble(), hook="bench",
                   heap_size=HEAP_SIZE)


def _time_load(rt, prog, heap) -> float:
    t0 = time.perf_counter()
    rt.load(prog, attach=False, heap=heap)
    return time.perf_counter() - t0


def run_benchmark() -> dict:
    from repro.core.runtime import KFlexRuntime

    prog = build_program()

    # Cold: a fresh runtime (empty program cache) per repetition.
    cold = float("inf")
    for _ in range(COLD_REPS):
        rt = KFlexRuntime()
        heap = rt.create_heap(HEAP_SIZE, name="loadbench")
        cold = min(cold, _time_load(rt, prog, heap))

    # Warm: one runtime, one heap; every load after the first is a
    # content-addressed cache hit across verify/instrument/lower.
    rt = KFlexRuntime()
    heap = rt.create_heap(HEAP_SIZE, name="loadbench")
    rt.load(prog, attach=False, heap=heap)  # prime the cache
    warm = float("inf")
    for _ in range(WARM_REPS):
        warm = min(warm, _time_load(rt, prog, heap))

    stats = rt.pipeline.stats
    assert stats.warm_loads == WARM_REPS, (
        f"expected {WARM_REPS} warm loads, pipeline saw {stats.warm_loads}"
    )
    return {
        "workload": "load-path cold vs warm",
        "program_insns": len(prog.insns),
        "cold_ms": round(cold * 1e3, 4),
        "warm_ms": round(warm * 1e3, 4),
        "speedup": round(cold / warm, 2),
        "stages_ms": {
            name: round(st.total_ns / 1e6, 3)
            for name, st in stats.stages.items()
        },
        "cache": rt.pipeline.cache.stats.as_dict(),
    }


def format_result(result: dict) -> str:
    return "\n".join([
        f"load-path benchmark ({result['program_insns']} insns)",
        f"  cold load  {result['cold_ms']:9.3f} ms   (verifier runs)",
        f"  warm load  {result['warm_ms']:9.3f} ms   (cache hit)",
        f"  speedup    {result['speedup']:9.2f} x   (floor {SPEEDUP_FLOOR}x)",
    ])


def check_result(result: dict) -> tuple[bool, str]:
    if result["speedup"] < SPEEDUP_FLOOR:
        return False, (
            f"warm-load speedup {result['speedup']:.2f}x below the "
            f"{SPEEDUP_FLOOR}x acceptance floor"
        )
    if not BASELINE_JSON.exists():
        return True, f"no baseline at {BASELINE_JSON}; floor-only gate passed"
    baseline = json.loads(BASELINE_JSON.read_text())
    floor = baseline["speedup"] * (1.0 - REGRESSION_TOLERANCE)
    ok = result["speedup"] >= floor
    msg = (
        f"speedup {result['speedup']:.2f}x vs baseline "
        f"{baseline['speedup']:.2f}x (floor {floor:.2f}x): "
        + ("OK" if ok else "REGRESSION")
    )
    return ok, msg


GATE = (BASELINE_JSON, run_benchmark, format_result, check_result)


def test_load_path_speedup():
    from conftest import gate_test

    gate_test(*GATE)


if __name__ == "__main__":
    from conftest import gate_main

    raise SystemExit(gate_main(
        *GATE, __doc__,
        "fail below the 5x floor or on >50%% baseline "
        "regression",
    ))
