"""``ds_ops``: the Fig. 5 data structures, called in-process."""

from __future__ import annotations

import gc
import math
import random
import time
from array import array
from statistics import median

from benchmarks.kbench import spec, streams
from benchmarks.kbench import trace as T
from benchmarks.kbench.workloads import (
    append_row,
    engine_metrics,
    latency_row,
    medians,
    n_rounds,
    own_peak_rss_mb,
    result,
    static_shares,
)


def _build(name: str):
    """One structure on its own runtime, populated with every key."""
    from repro.apps.datastructures import ALL_STRUCTURES
    from repro.core.runtime import KFlexRuntime

    ds = ALL_STRUCTURES[name](KFlexRuntime())
    for k in range(spec.DS_STRUCTURES[name][0]):
        ds.update(k, streams.seed_value(k))
    return ds


def _instrument(tracer, name: str, ds) -> None:
    T.instrument_translate(tracer, ds.runtime, f"ebpf.engine.run:{name}")
    for op, ext in ds.exts.items():
        tracer.patch(ext, "invoke", "core.runtime.invoke")
        tracer.patch(ds, op, "apps.datastructures.op", new_req=True)


def geomean(values) -> float:
    return math.exp(sum(map(math.log, values)) / len(values))


def _latency_row(lat: dict) -> dict:
    """One structure's latencies in one round."""
    pooled = sorted(lat["lookup"] + lat["update"] + lat["delete"])
    return {
        **latency_row(pooled, 1e-3),
        "get_p50_us": median(lat["lookup"]) / 1e3,
        "set_p50_us": median(lat["update"]) / 1e3,
    }


def measure(workload, seed, rounds, tracer, ready=None) -> dict:
    """``ready`` is called once every structure is populated and has
    answered one lookup: the end of set-up."""
    structures = {name: _build(name) for name in spec.DS_STRUCTURES}
    attempted = len(structures)
    failed = sum(ds.lookup(0) != streams.seed_value(0)
                 for ds in structures.values())
    if ready is not None:
        ready()
    program_rows = [T.program_row(ext) for ds in structures.values()
                    for ext in ds.exts.values()]
    rngs, shadows = {}, {}
    for name, ds in structures.items():
        rngs[name] = random.Random(f"kbench:{seed}:{name}")
        shadows[name] = streams.seeded_shadow(spec.DS_STRUCTURES[name][0])
        if tracer is not None:
            _instrument(tracer, name, ds)

    per_round: dict = {}
    clock = time.perf_counter_ns
    sizes = {name: (n_elems, n_ops // workload.ops_scale)
             for name, (n_elems, n_ops) in spec.DS_STRUCTURES.items()}
    ops_per_round = sum(n for _, n in sizes.values())
    for rnd in range(workload.warmup_rounds + rounds):
        measured = rnd >= workload.warmup_rounds
        rates, rows, round_cpu = [], [], 0
        for name, (n_elems, n_ops) in sizes.items():
            if name in spec.DS_REBUILD_EACH_ROUND and rnd:
                structures[name] = _build(name)
                shadows[name] = streams.seeded_shadow(n_elems)
                if tracer is not None:
                    _instrument(tracer, name, structures[name])
            ds = structures[name]
            fns = {"lookup": ds.lookup, "update": ds.update,
                   "delete": ds.delete}
            calls = [
                (fns[op], (k, v) if op == "update" else (k,), want, op)
                for op, k, v, want in streams.ds_ops(
                    rngs[name], shadows[name], n_elems, n_ops,
                    stacked=name in spec.DS_REBUILD_EACH_ROUND)
            ]
            lat = {op: array("q") for op, _ in spec.DS_MIX}
            gc.collect()
            if tracer is not None:
                tracer.enabled = measured
            cpu0 = time.process_time_ns()
            t0 = clock()
            for fn, args, want, op in calls:
                ta = clock()
                got = fn(*args)
                tb = clock()
                if got != want:
                    failed += 1
                lat[op].append(tb - ta)
            rates.append(n_ops / ((clock() - t0) / 1e9))
            round_cpu += time.process_time_ns() - cpu0
            if tracer is not None:
                tracer.enabled = False
            attempted += n_ops
            rows.append(_latency_row(lat))
        if measured:
            # Each latency is the geometric mean over structures of that
            # structure's own percentile, as the rate is.  A percentile
            # of the pooled ops would sit on the boundary between two
            # structures' distributions and move with which side of it
            # a few samples fall.
            append_row(per_round, {
                "ops_per_s": geomean(rates),
                "cpu_us_per_op": round_cpu / 1e3 / ops_per_round,
                **{key: geomean([row[key] for row in rows])
                   for key in rows[0]},
            })
    return {
        "rounds": per_round, "attempted": attempted, "failed": failed,
        "ops": ops_per_round * rounds, "program_rows": program_rows,
    }


def run(workload: spec.Workload, seed: int, seconds: float, trace: bool,
        ready) -> dict:
    rounds, ref_rounds = n_rounds(workload, seconds, trace)
    if not trace:
        raw = measure(workload, seed, rounds, None, ready)
        metrics = {
            **medians(raw["rounds"]),
            "ok_share": (raw["attempted"] - raw["failed"]) / raw["attempted"],
            "peak_rss_mb": own_peak_rss_mb(),
        }
        return result(workload, seed, metrics, raw["attempted"],
                      raw["failed"], samples=raw["ops"])
    ref = measure(workload, seed, ref_rounds, None, ready)
    tracer = T.Tracer()
    raw = measure(workload, seed, rounds, tracer)
    trace_file = tracer.dump(workload.name)
    agg = T.aggregate(*T.load(trace_file))
    cpu = median(raw["rounds"]["cpu_us_per_op"])
    metrics = {
        "core.runtime.invoke_us_per_req":
            agg["by_layer_self_ns"]["core.runtime"] / 1e3 / agg["requests"],
        "trace.cpu_us_per_op": cpu,
        "trace.layer_sum_us_per_op":
            sum(agg["by_layer_self_ns"].values()) / 1e3 / agg["requests"],
        "trace.overhead_ratio": cpu / median(ref["rounds"]["cpu_us_per_op"]),
    }
    for name in spec.DS_STRUCTURES:
        span = f"ebpf.engine.run:{name}"
        calls, steps, _, _ = agg["exec_counts"][span]
        metrics[f"ebpf.engine.{name}_p50_us"] = agg["tagged_p50_ns"][span] / 1e3
        metrics[f"ebpf.engine.{name}_insns_per_op"] = steps / calls
    metrics.update(engine_metrics(agg))
    metrics.update(static_shares(raw["program_rows"]))
    return result(workload, seed, metrics, raw["attempted"], raw["failed"],
                  samples=raw["ops"], trace_file=trace_file)
