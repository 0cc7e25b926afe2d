"""Engine micro-benchmark: reference interpreter vs threaded engine.

Times the Fig. 5 data-structure workload (update/lookup/delete over
hashmap, linked list, skiplist) end-to-end through ``KFlexRuntime``
under each execution engine.  The one committed baseline is
``benchmarks/results/BENCH_engine.json``: ``--check`` gates against it
and ``--update`` is its only writer.

The headline ``speedup`` is aggregate wall-clock (interp total /
threaded total) over the whole workload.  Cost-model output (cycle
accounting) is engine-independent; only wall-clock changes.

Run under pytest (``pytest benchmarks/bench_engine_speed.py``) or
standalone:

.. code-block:: console

    $ python benchmarks/bench_engine_speed.py            # print only
    $ python benchmarks/bench_engine_speed.py --update   # re-record baseline
    $ python benchmarks/bench_engine_speed.py --check    # gate vs baseline

``--check`` compares the measured *speedup ratio* (not absolute
wall-clock, which is machine-dependent) against the committed baseline
and fails if the threaded engine regressed more than 20%.
"""

from __future__ import annotations

import json
import pathlib
import random
import time

HERE = pathlib.Path(__file__).parent
BASELINE_JSON = HERE / "results" / "BENCH_engine.json"

#: Fig. 5 structures exercised (rbtree/sketches behave like hashmap —
#: short programs; the pointer-chasing structures are the hot case).
STRUCTURES = ("hashmap", "linkedlist", "skiplist")
ENGINES = ("interp", "threaded")

#: >20% regression of the speedup ratio fails ``--check``.
REGRESSION_TOLERANCE = 0.20

N_ELEMS = {"hashmap": 1024, "linkedlist": 192, "skiplist": 512}
N_OPS = {"hashmap": 1500, "linkedlist": 250, "skiplist": 500}
REPEATS = 3


def _time_structure(engine: str, struct: str) -> float:
    """Wall-clock seconds for one op mix on a freshly built structure."""
    from repro.core.runtime import KFlexRuntime
    from repro.apps.datastructures import ALL_STRUCTURES

    rt = KFlexRuntime(engine=engine)
    ds = ALL_STRUCTURES[struct](rt)
    n_elems = N_ELEMS[struct]
    n_ops = N_OPS[struct]
    for k in range(n_elems):
        ds.update(k, k ^ 0xABCD)
    rng = random.Random(11)
    # Fig. 5 mix: lookup-heavy with updates and occasional deletes.
    ops = []
    for _ in range(n_ops):
        r = rng.random()
        k = rng.randrange(n_elems)
        ops.append(("lookup" if r < 0.7 else "update" if r < 0.9 else "delete", k))
    for op, k in ops[: n_ops // 10]:  # warm caches / translation
        getattr(ds, op)(k) if op != "update" else ds.update(k, k)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for op, k in ops:
            if op == "update":
                ds.update(k, k * 7 + 1)
            elif op == "lookup":
                ds.lookup(k)
            else:
                ds.delete(k)
        best = min(best, time.perf_counter() - t0)
    return best


def run_benchmark() -> dict:
    per_struct: dict[str, dict[str, float]] = {}
    totals = dict.fromkeys(ENGINES, 0.0)
    for struct in STRUCTURES:
        per_struct[struct] = {}
        for engine in ENGINES:
            t = _time_structure(engine, struct)
            per_struct[struct][engine] = t
            totals[engine] += t
    result = {
        "workload": "fig5-datastructures",
        "structures": {
            s: {
                "interp_s": round(v["interp"], 6),
                "threaded_s": round(v["threaded"], 6),
                "speedup": round(v["interp"] / v["threaded"], 3),
            }
            for s, v in per_struct.items()
        },
        "interp_total_s": round(totals["interp"], 6),
        "threaded_total_s": round(totals["threaded"], 6),
        "speedup": round(totals["interp"] / totals["threaded"], 3),
    }
    return result


def format_result(result: dict) -> str:
    lines = ["engine micro-benchmark (Fig 5 workload)"]
    for s, row in result["structures"].items():
        lines.append(
            f"  {s:<12s} interp {row['interp_s'] * 1e3:9.1f} ms   "
            f"threaded {row['threaded_s'] * 1e3:9.1f} ms   "
            f"speedup {row['speedup']:5.2f}x"
        )
    lines.append(
        f"  {'total':<12s} interp {result['interp_total_s'] * 1e3:9.1f} ms   "
        f"threaded {result['threaded_total_s'] * 1e3:9.1f} ms   "
        f"speedup {result['speedup']:5.2f}x"
    )
    return "\n".join(lines)


def check_result(result: dict) -> tuple[bool, str]:
    if not BASELINE_JSON.exists():
        return True, f"no baseline at {BASELINE_JSON}; skipping gate"
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


def test_engine_speed():
    from conftest import gate_test

    result = gate_test(*GATE)
    # The threaded engine must be a clear win over the reference
    # interpreter on the aggregate workload.  (The committed baseline
    # records the >=3x acceptance measurement; this run-time assertion
    # is looser to tolerate loaded CI machines.)
    assert result["speedup"] >= 2.0, format_result(result)


if __name__ == "__main__":
    from conftest import gate_main

    raise SystemExit(gate_main(
        *GATE, __doc__,
        "fail if speedup regressed >20%% vs the baseline",
    ))
