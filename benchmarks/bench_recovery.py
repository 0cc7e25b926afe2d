"""Durability benchmark: WAL overhead on the hot path + recovery time.

Durable state is only practical if (a) journaling acknowledged writes
costs little on the serving path and (b) a crashed shard's replacement
comes back fast.  This benchmark gates both:

* **WAL overhead** — the map-authoritative Memcached extension
  (:mod:`repro.apps.memcached.durable_ext`) serves the Fig-2 workload
  shape (Zipfian(0.99) keys, 32 B keys/values, the paper's three
  GET:SET mixes) through real XDP invocations, once with no store and
  once with every SET journaled + flushed (``sync_every=1`` — the
  acked=>durable configuration the failover test relies on).  The gate:
  on the canonical 90:10 mix the WAL may cost at most
  ``OVERHEAD_CEILING`` of throughput.  SET-heavy mixes are reported
  for the curve but not gated — journaling is per-SET, so overhead
  scales with the SET share by construction.

* **Warm recovery** — a 100k-entry map is snapshotted to real files
  (:class:`~repro.state.storage.DirStorage`), then rebuilt into a
  fresh kernel the way ``KFlexRuntime.recover`` would; must finish
  within ``RECOVERY_BUDGET_S``.

.. code-block:: console

    $ python benchmarks/bench_recovery.py            # print results
    $ python benchmarks/bench_recovery.py --update   # refresh baseline
    $ python benchmarks/bench_recovery.py --check    # gate (make bench-recovery)
"""

from __future__ import annotations

import json
import pathlib
import random
import tempfile
import time

HERE = pathlib.Path(__file__).parent
BASELINE_JSON = HERE / "results" / "BENCH_recovery.json"

#: Acceptance ceiling: WAL-on throughput loss on the 90:10 mix.
OVERHEAD_CEILING = 0.15
#: Acceptance budget: warm recovery of a 100k-entry map, seconds.
RECOVERY_BUDGET_S = 5.0
#: Loose regression gate vs the committed baseline (wall clock).
REGRESSION_TOLERANCE = 0.50

MIXES = {"90:10": 0.9, "50:50": 0.5, "10:90": 0.1}
N_REQUESTS = 4000
N_KEYS = 1000
MAP_CAPACITY = 2048
ZIPF_S = 0.99
BEST_OF = 3

RECOVERY_ENTRIES = 100_000


def _zipf_keys(rng: random.Random, n: int) -> list[int]:
    weights = [1.0 / (k + 1) ** ZIPF_S for k in range(N_KEYS)]
    return rng.choices(range(N_KEYS), weights=weights, k=n)


def _requests(mix_ratio: float, seed: str) -> list[bytes]:
    from repro.apps.memcached import protocol as P

    rng = random.Random(f"bench-recovery:{seed}")  # deterministic per mix
    return [
        P.encode_get(key) if rng.random() < mix_ratio
        else P.encode_set(key, key * 7 + 1)
        for key in _zipf_keys(rng, N_REQUESTS)
    ]


def _serve(requests: list[bytes], store) -> float:
    """One serving run: returns wall-clock seconds for all requests."""
    from repro.apps.memcached import protocol as P
    from repro.apps.memcached.durable_ext import build_durable_memcached_program
    from repro.core.runtime import KFlexRuntime
    from repro.ebpf.maps import HashMap
    from repro.kernel.machine import Kernel

    rt = KFlexRuntime(Kernel())
    cache = HashMap(
        rt.kernel.aspace, rt.kernel.vmalloc,
        key_size=P.KEY_SIZE, value_size=P.VAL_SIZE,
        max_entries=MAP_CAPACITY,
    )
    if store is not None:
        rt.pin_map("bench/cache", cache, store)
    ext = rt.load(build_durable_memcached_program(cache), mode="ebpf")
    # Warm the table so GETs mostly hit, as in the Fig-2 setup.
    for key in range(int(N_KEYS * 0.6)):
        cache.update(P.key_bytes(key), P.value_bytes(key))
    t0 = time.perf_counter()
    for pkt in requests:
        ext.invoke(ext.xdp_ctx(pkt, 0), cpu=0)
    return time.perf_counter() - t0


def bench_wal_overhead() -> dict:
    from repro.state import DurableStore, MemStorage

    out = {}
    for mix, ratio in MIXES.items():
        requests = _requests(ratio, seed=mix)
        off = min(_serve(requests, None) for _ in range(BEST_OF))
        on = min(
            _serve(
                requests,
                DurableStore(storage=MemStorage(), sync_every=1),
            )
            for _ in range(BEST_OF)
        )
        out[mix] = {
            "wal_off_krps": round(N_REQUESTS / off / 1e3, 2),
            "wal_on_krps": round(N_REQUESTS / on / 1e3, 2),
            "overhead": round((on - off) / off, 4),
        }
    return out


def bench_warm_recovery() -> dict:
    from repro.ebpf.maps import HashMap
    from repro.kernel.machine import Kernel
    from repro.state import DirStorage, DurableStore

    with tempfile.TemporaryDirectory(prefix="kflex-bench-rec.") as tmp:
        store = DurableStore(storage=DirStorage(tmp), sync_every=None)
        k = Kernel()
        m = HashMap(
            k.aspace, k.vmalloc,
            key_size=8, value_size=16, max_entries=RECOVERY_ENTRIES,
        )
        store.attach("bench/big", m)
        for i in range(RECOVERY_ENTRIES):
            m.update(
                i.to_bytes(8, "little"),
                (i * 2654435761 % (1 << 128)).to_bytes(16, "little"),
            )
        store.wal("bench/big").flush()
        store.snapshot("bench/big")  # recovery will be snapshot-only
        store.close()

        best = float("inf")
        for _ in range(BEST_OF):
            store2 = DurableStore(storage=DirStorage(tmp))
            k2 = Kernel()
            t0 = time.perf_counter()
            m2, rec = store2.recover_map("bench/big", k2.aspace, k2.vmalloc)
            best = min(best, time.perf_counter() - t0)
            assert rec.recovered_seq == RECOVERY_ENTRIES
            assert len(m2) == RECOVERY_ENTRIES
            store2.close()
    return {
        "entries": RECOVERY_ENTRIES,
        "recovery_s": round(best, 3),
        "entries_per_s": round(RECOVERY_ENTRIES / best),
    }


def run_benchmark() -> dict:
    return {
        "workload": "durable memcached WAL overhead + warm recovery",
        "wal": bench_wal_overhead(),
        "recovery": bench_warm_recovery(),
    }


def format_result(result: dict) -> str:
    lines = ["durability benchmark (WAL on hot path, warm recovery)"]
    for mix, row in result["wal"].items():
        gate = "  (gated)" if mix == "90:10" else ""
        lines.append(
            f"  {mix}: {row['wal_off_krps']:8.1f} -> "
            f"{row['wal_on_krps']:8.1f} kreq/s, "
            f"overhead {row['overhead'] * 100:5.1f}%{gate}"
        )
    rec = result["recovery"]
    lines.append(
        f"  recovery: {rec['entries']:,} entries in {rec['recovery_s']:.3f}s "
        f"({rec['entries_per_s']:,} entries/s, budget {RECOVERY_BUDGET_S}s)"
    )
    return "\n".join(lines)


def check_result(result: dict) -> tuple[bool, str]:
    overhead = result["wal"]["90:10"]["overhead"]
    if overhead > OVERHEAD_CEILING:
        return False, (
            f"WAL overhead {overhead * 100:.1f}% on the 90:10 mix exceeds "
            f"the {OVERHEAD_CEILING * 100:.0f}% ceiling"
        )
    rec_s = result["recovery"]["recovery_s"]
    if rec_s > RECOVERY_BUDGET_S:
        return False, (
            f"warm recovery took {rec_s:.2f}s, over the "
            f"{RECOVERY_BUDGET_S}s budget"
        )
    if not BASELINE_JSON.exists():
        return True, f"no baseline at {BASELINE_JSON}; ceiling-only gate passed"
    baseline = json.loads(BASELINE_JSON.read_text())
    base_rec = baseline["recovery"]["recovery_s"]
    ceiling = base_rec * (1.0 + REGRESSION_TOLERANCE)
    ok = rec_s <= ceiling
    msg = (
        f"overhead {overhead * 100:.1f}% (ceiling "
        f"{OVERHEAD_CEILING * 100:.0f}%), recovery {rec_s:.3f}s vs baseline "
        f"{base_rec:.3f}s (ceiling {ceiling:.3f}s): "
        + ("OK" if ok else "REGRESSION")
    )
    return ok, msg


GATE = (BASELINE_JSON, run_benchmark, format_result, check_result)


def test_recovery_benchmark():
    from conftest import gate_test

    gate_test(*GATE)


if __name__ == "__main__":
    from conftest import gate_main

    raise SystemExit(gate_main(
        *GATE, __doc__,
        "fail over the 15%% overhead ceiling, the "
        "recovery budget, or a >50%% baseline regression",
    ))
