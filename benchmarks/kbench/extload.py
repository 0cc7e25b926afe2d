"""``ext_load``: what loading the shipped extensions costs — cold on a
fresh runtime, warm from the program cache, and after a 1-insn patch."""

from __future__ import annotations

import gc
import random
import time
from dataclasses import replace
from statistics import mean, median

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
    share,
    static_shares,
)

#: Warm and patched reloads of every corpus program, after the passes.
RELOAD_REPS = 16
P = streams.P


def corpus() -> dict:
    """``name -> build(runtime, built)`` for every shipped extension.
    ``built`` holds the apps already built on this runtime: the shedder
    and the balancer front the durable memcached."""
    from repro.apps.datastructures import ALL_STRUCTURES
    from repro.apps.l4lb import L4LBService
    from repro.apps.ratelimit import RateLimitedService
    from repro.net import build_service
    from repro.net.service import DurableMemcachedService
    from repro.state import DurableStore, MemStorage

    out = {
        "durable": lambda rt, built: DurableMemcachedService(
            rt, store=DurableStore(storage=MemStorage()), pin="mc"),
        "memcached": lambda rt, built: build_service(
            "memcached", fallback="none", runtime=rt, perf_mode=True),
        "redis": lambda rt, built: build_service(
            "redis", fallback="none", runtime=rt),
        "ratelimit": lambda rt, built: RateLimitedService(built["durable"]),
        "l4lb": lambda rt, built: L4LBService(
            rt, store=DurableStore(storage=MemStorage()),
            backends={0: built["durable"]}),
    }
    for name, cls in ALL_STRUCTURES.items():
        out[name] = lambda rt, built, cls=cls: cls(rt)
    return out


def smoke(name: str, app, key: int, value: int) -> tuple:
    """A write of ``key -> value`` and a read through a freshly loaded
    app, checked; returns ``(attempted, failed)``.  It is also the app's
    first translation."""
    from repro.apps.datastructures.common import OK
    from repro.apps.l4lb.ext import wrap as lb_wrap
    from repro.apps.ratelimit.ext import wrap as rl_wrap
    from repro.apps.redis import protocol as RP

    k, v = key, value
    mc_set = (P.encode_set(k, v), P.encode_reply(P.OP_SET, k, True, v))
    mc_get = (P.encode_get(k), P.encode_reply(P.OP_GET, k, True, v))
    if name in ("memcached", "durable"):
        pairs = [mc_set, mc_get]
    elif name == "redis":
        pairs = [(RP.encode_set(k, v), RP.encode_reply(RP.OP_SET, k, True, v)),
                 (RP.encode_get(k), RP.encode_reply(RP.OP_GET, k, True, v))]
    elif name == "ratelimit":
        pairs = [(rl_wrap(7, mc_get[0]), mc_get[1])]
    elif name == "l4lb":
        pairs = [(lb_wrap(5, mc_get[0]), mc_get[1])]
    elif name.startswith("count"):  # sketches estimate; only the write
        return 1, int(app.update(k, v) != OK)
    else:
        return 2, (app.update(k, v) != OK) + (app.lookup(k) != v)
    return len(pairs), sum(app.ingress(req)[0] != want for req, want in pairs)


def cold_pass(apps: dict, runtime, probe, tracer=None) -> tuple:
    """Load every app of ``apps``, in order, on ``runtime`` and push the
    ``probe`` key/value through each.  Returns ``(per-app seconds,
    attempted, failed, programs loaded)``; a rejected load is a failure."""
    from repro.errors import ReproError

    def load(name):
        built[name] = apps[name](runtime, built)
        return smoke(name, built[name], *probe)

    if tracer is not None:
        T.instrument_runtime(tracer, runtime)
        load = tracer.wrap("apps.load", load, new_req=True)
    built, app_s = {}, []
    attempted = failed = 0
    for name in apps:
        t0 = time.perf_counter()
        try:
            att, bad = load(name)
        except ReproError:
            att, bad = 1, 1
        app_s.append(time.perf_counter() - t0)
        attempted += att
        failed += bad
    loads = runtime.pipeline.stats.loads
    return app_s, attempted + loads, failed, loads


def patch_one_insn(program, rng):
    """A copy of ``program`` whose last ``mov r0, imm`` returns another
    constant: one instruction changed, still verifiable.  None when the
    program has no such instruction."""
    from repro.ebpf import isa

    mov_k = isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K
    idx = max((i for i, ins in enumerate(program.insns)
               if ins.opcode == mov_k and ins.dst == 0), default=None)
    if idx is None:
        return None
    insns = list(program.insns)
    insns[idx] = replace(insns[idx], imm=rng.randrange(2, 1 << 20))
    return replace(program, name=program.name + "-patched", insns=insns)


def reload(rt, ext, program) -> float:
    """Load ``program`` the way ``ext`` was loaded; returns seconds."""
    cfg = ext.load_config
    t0 = time.perf_counter()
    if cfg.mode == "ebpf":
        rt.load(program, mode="ebpf", attach=False)
    else:
        rt.load(program, heap=ext.heap, attach=False,
                perf_mode=cfg.perf_mode, elision=cfg.elision,
                share_heap=cfg.translate_on_store)
    return time.perf_counter() - t0


def timed_cold_pass(apps, probe, tracer) -> tuple:
    """One cold pass on a runtime of its own.  Returns ``(this round's
    metrics, attempted, failed, programs loaded, program rows)``.  The
    runtime is garbage by the time this returns, so the ``gc.collect()``
    before the next pass frees it and every pass starts from the same
    heap."""
    from repro.core.runtime import KFlexRuntime

    cpu0, t0 = time.process_time_ns(), time.perf_counter()
    rt = KFlexRuntime()
    app_s, attempted, failed, loads = cold_pass(apps, rt, probe, tracer)
    wall = time.perf_counter() - t0
    used = time.process_time_ns() - cpu0
    row = {
        "ops_per_s": loads / wall,
        "cpu_us_per_op": used / 1e3 / loads,
        **latency_row(sorted(app_s), 1e6),
    }
    return (row, attempted, failed, loads,
            [T.program_row(e) for e in rt.extensions])


def measure_cold(workload, apps, probe, rounds, tracer) -> dict:
    out = {"rounds": {}, "loads": 0, "samples": 0, "attempted": 0,
           "failed": 0, "rows": []}
    for rnd in range(workload.warmup_rounds + rounds):
        measured = rnd >= workload.warmup_rounds
        gc.collect()
        if tracer is not None:
            tracer.enabled = measured
        row, attempted, failed, loads, rows = timed_cold_pass(
            apps, probe, tracer)
        if tracer is not None:
            tracer.enabled = False
        out["attempted"] += attempted
        out["failed"] += failed
        if measured:
            append_row(out["rounds"], row)
            out["samples"] += len(apps)
            out["loads"] += loads
            out["rows"] = rows
    return out


def measure_reloads(apps, probe, rng) -> dict:
    """Warm and patched reloads on one runtime whose verify stage keeps
    a per-region memo (differential re-verification)."""
    from repro.core.runtime import KFlexRuntime
    from repro.errors import ReproError
    from repro.verify import VerificationService

    svc = VerificationService(workers=0)
    rt = KFlexRuntime(verify_service=svc)
    _, attempted, failed, _ = cold_pass(apps, rt, probe)
    originals = list(rt.extensions)
    cold = dict(svc.stats)
    cache0 = rt.pipeline.cache.stats.as_dict()
    # Seconds per program, one value per repetition.  A program's cost
    # is its median over the repetitions (a collector pass lands in a
    # few of them); the corpus's cost is the mean over programs (a
    # median over programs would sit between two programs' costs).
    warm_s = [[] for _ in originals]
    patched_s = [[] for _ in originals]
    for _ in range(RELOAD_REPS):
        gc.collect()
        warm_before = rt.pipeline.stats.warm_loads
        for ext, times in zip(originals, warm_s):
            times.append(reload(rt, ext, ext.program))
        attempted += len(originals)
        failed += len(originals) - (rt.pipeline.stats.warm_loads - warm_before)
        for ext, times in zip(originals, patched_s):
            # Only the bench-hook programs may return any constant.
            prog = (patch_one_insn(ext.program, rng)
                    if ext.program.hook == "bench" else None)
            if prog is None:
                continue
            attempted += 1
            try:
                times.append(reload(rt, ext, prog))
            except ReproError:
                failed += 1
    cache1 = rt.pipeline.cache.stats.as_dict()
    hits = cache1["hits"] - cache0["hits"]
    re_total = svc.stats["regions_total"] - cold["regions_total"]
    re_reused = svc.stats["regions_reused"] - cold["regions_reused"]
    return {
        "warm_us": mean(median(t) for t in warm_s) * 1e6,
        "patched_us": mean(median(t) for t in patched_s if t) * 1e6,
        "attempted": attempted, "failed": failed,
        "regions_per_prog": share(cold["regions_total"], cold["jobs"]),
        "reverify_share": share(re_total - re_reused, re_total),
        "cache_hit_share": share(
            hits, hits + cache1["misses"] - cache0["misses"]),
    }


def run(workload: spec.Workload, seed: int, seconds: float, trace: bool,
        ready) -> dict:
    from repro.core.runtime import KFlexRuntime

    # The seed picks the key and value pushed through every loaded app
    # and the patched constants.  The load order is fixed: what an app
    # costs depends on what was loaded before it (shared maps, imports),
    # and a seed-drawn order would make the seed a workload parameter.
    rng = random.Random(f"kbench:{seed}:ext_load")
    probe = (rng.randrange(1, 1 << 10), rng.randrange(1, 1 << 30))
    apps = corpus()
    rounds, ref_rounds = n_rounds(workload, seconds, trace)

    # Set-up ends with the first extension loaded and answering.
    _, attempted, failed, _ = cold_pass(
        {"memcached": apps["memcached"]}, KFlexRuntime(), probe)
    ready()

    # Reloads first, while the process is as small as it will be: after
    # the cold passes have grown and fragmented the heap, a warm load
    # costs 90 or 100 us depending on the run.
    reloads = measure_reloads(apps, probe, rng)
    tracer = T.Tracer() if trace else None
    if trace:
        ref = measure_cold(workload, apps, probe, ref_rounds, None)
    cold = measure_cold(workload, apps, probe, rounds, tracer)
    attempted += cold["attempted"] + reloads["attempted"]
    failed += cold["failed"] + reloads["failed"]

    if not trace:
        metrics = {
            **medians(cold["rounds"]),
            "get_p50_us": reloads["warm_us"],
            "set_p50_us": reloads["patched_us"],
            "ok_share": (attempted - failed) / attempted,
            "peak_rss_mb": own_peak_rss_mb(),
        }
        return result(workload, seed, metrics, attempted, failed,
                      samples=cold["samples"])

    trace_file = tracer.dump(workload.name)
    agg = T.aggregate(*T.load(trace_file))
    by = agg["by_name"]
    loads = cold["loads"]
    cpu = median(cold["rounds"]["cpu_us_per_op"])
    metrics = {
        "core.runtime.load_self_ms_per_prog":
            by["core.runtime.load"]["self_ns"] / 1e6 / loads,
        "ebpf.verifier.verify_ms_per_prog":
            by["ebpf.verifier.verify"]["total_ns"] / 1e6 / loads,
        "ebpf.verifier.regions_per_prog": reloads["regions_per_prog"],
        "ebpf.verifier.reverify_regions_share": reloads["reverify_share"],
        "ebpf.pipeline.warm_load_us": reloads["warm_us"],
        "ebpf.pipeline.cache_hit_share": reloads["cache_hit_share"],
        "trace.cpu_us_per_op": cpu,
        "trace.layer_sum_us_per_op":
            sum(agg["by_layer_self_ns"].values()) / 1e3 / loads,
        "trace.overhead_ratio": cpu / median(ref["rounds"]["cpu_us_per_op"]),
    }
    for stage in ("instrument", "lower", "fuse", "translate"):
        metrics[f"ebpf.pipeline.{stage}_ms_per_prog"] = (
            by[f"ebpf.pipeline.{stage}"]["total_ns"] / 1e6 / loads)
    metrics.update(engine_metrics(agg))
    metrics.update(static_shares(cold["rows"]))
    return result(workload, seed, metrics, attempted, failed,
                  samples=loads, trace_file=trace_file)
