"""Fleet benchmark: live scale-out migration time, zero failed cutover.

Elastic scale is only practical if growing the fleet is fast and
invisible: the new shard's ring segment ships over snapshot + WAL-tail
while the fleet keeps serving, and the atomic cutover *holds* requests
behind the router's pause gate rather than failing them.  This
benchmark gates both:

* **Migration time** — a 2-shard fleet is seeded with a full key
  population, then grown to 3 while a closed-loop TCP load generator
  hammers the front.  The clock runs over the whole ``apply`` (segment
  images + tail catch-up + paused cutover + source cleanup); must
  finish within ``MIGRATION_BUDGET_S`` and not regress >50% vs the
  committed baseline.

* **Requests failed during cutover** — must be exactly zero.  The
  pause gate turns the ring flip into added latency, never refusals;
  a single failed request fails the gate.

.. code-block:: console

    $ python benchmarks/bench_fleet.py            # print results
    $ python benchmarks/bench_fleet.py --update   # refresh baseline
    $ python benchmarks/bench_fleet.py --check    # gate (make bench-fleet)
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import time

HERE = pathlib.Path(__file__).parent
BASELINE_JSON = HERE / "results" / "BENCH_fleet.json"

#: Acceptance budget: apply(shards=3) wall time under load, seconds.
MIGRATION_BUDGET_S = 30.0
#: Loose regression gate vs the committed baseline (wall clock).
REGRESSION_TOLERANCE = 0.50

N_KEYS = 2000
N_CLIENTS = 4
REQUESTS_PER_CLIENT = 500


def _workload(cid, seq):
    from repro.apps.memcached import protocol as P

    key = (cid * 7919 + seq) % N_KEYS
    if seq % 4 == 0:
        return key, P.encode_set(key, cid * 100_000 + seq)
    return key, P.encode_get(key)


def run_benchmark() -> dict:
    from repro.apps.memcached import protocol as P
    from repro.fleet import FleetController, FleetSpec
    from repro.net import TcpLoadGenerator

    async def run() -> dict:
        fleet = await FleetController().start(n_shards=2)
        # Full key population: the migration moves a real segment, not
        # an empty map.
        seed = TcpLoadGenerator(
            [fleet.port],
            lambda cid, seq: (seq, P.encode_set(seq, seq * 3 + 1)),
            n_clients=1, requests_per_client=N_KEYS,
        )
        sres = await seed.run()
        assert sres.failures == 0

        gen = TcpLoadGenerator(
            [fleet.port], _workload, n_clients=N_CLIENTS,
            requests_per_client=REQUESTS_PER_CLIENT,
        )
        load = asyncio.ensure_future(gen.run())
        await asyncio.sleep(0.1)
        t0 = time.perf_counter()
        report = await fleet.apply(FleetSpec(shards=3))
        migration_s = time.perf_counter() - t0
        res = await load

        entries_moved = sum(m.entries_moved for m in report["migrations"])
        tail_records = sum(m.tail_records for m in report["migrations"])
        rescans = sum(m.rescans for m in report["migrations"])
        out = {
            "scale_out_s": round(migration_s, 3),
            "entries_moved": entries_moved,
            "tail_records": tail_records,
            "rescans": rescans,
            "requests_during": res.requests,
            "failed_during": res.failures,
            "retries_during": res.retries,
            "ring_after": list(fleet.ring.nodes),
        }
        await fleet.stop()
        return out

    return {
        "workload": f"scale-out 2->3 under {N_CLIENTS}-client closed-loop "
                    f"TCP load, {N_KEYS} seeded keys",
        "scale_out": asyncio.run(run()),
    }


def format_result(result: dict) -> str:
    so = result["scale_out"]
    return (
        "fleet benchmark (live scale-out migration)\n"
        f"  scale-out 2->3: {so['scale_out_s']:.3f}s "
        f"({so['entries_moved']} entries + {so['tail_records']} tail "
        f"records migrated, {so['rescans']} rescans)\n"
        f"  during cutover: {so['requests_during']} requests, "
        f"{so['failed_during']} failed, {so['retries_during']} retries "
        f"(budget {MIGRATION_BUDGET_S}s, failures must be 0)"
    )


def check_result(result: dict) -> tuple[bool, str]:
    so = result["scale_out"]
    if so["failed_during"] != 0:
        return False, (
            f"{so['failed_during']} requests failed during the live "
            f"migration — the cutover must hold requests, not refuse them"
        )
    if so["entries_moved"] <= 0:
        return False, "migration moved no entries (empty segment?)"
    if so["scale_out_s"] > MIGRATION_BUDGET_S:
        return False, (
            f"scale-out took {so['scale_out_s']:.2f}s, over the "
            f"{MIGRATION_BUDGET_S}s budget"
        )
    if not BASELINE_JSON.exists():
        return True, f"no baseline at {BASELINE_JSON}; budget-only gate passed"
    baseline = json.loads(BASELINE_JSON.read_text())
    base_s = baseline["scale_out"]["scale_out_s"]
    ceiling = max(base_s * (1.0 + REGRESSION_TOLERANCE), 1.0)
    ok = so["scale_out_s"] <= ceiling
    msg = (
        f"scale-out {so['scale_out_s']:.3f}s vs baseline {base_s:.3f}s "
        f"(ceiling {ceiling:.3f}s), 0 failed during cutover: "
        + ("OK" if ok else "REGRESSION")
    )
    return ok, msg


GATE = (BASELINE_JSON, run_benchmark, format_result, check_result)


def test_fleet_benchmark():
    from conftest import gate_test

    gate_test(*GATE)


if __name__ == "__main__":
    from conftest import gate_main

    raise SystemExit(gate_main(
        *GATE, __doc__,
        "fail on any request failed during cutover, the "
        "migration budget, or a >50%% baseline regression",
    ))
