"""Run one workload and name its metrics.

Every workload follows the same discipline: start the program under
test ``workload.setups`` times, each in a process of its own (reporting
the median set-up time and measuring on the last), discard the warm-up
rounds, ``gc.collect()`` before each measured round, run a fixed op
count per round, and report the median over rounds.  The number of
rounds is a fixed function of ``--seconds``, so two commits always
execute the same operations.

A traced run measures fewer rounds, after a short untraced reference
that the tracing overhead is taken against.
"""

from __future__ import annotations

import json
import math
import resource
import subprocess
import sys
import time
from statistics import median

from benchmarks.kbench import spec


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def share(num, den) -> float:
    return num / den if den else 0.0


def latency_row(sorted_values, to_us: float) -> dict:
    """Median and tail of one round's already sorted latencies."""
    return {
        "p50_us": median(sorted_values) * to_us,
        "p95_us": percentile(sorted_values, 0.95) * to_us,
        "p99_us": percentile(sorted_values, 0.99) * to_us,
    }


def append_row(per_round: dict, row: dict) -> None:
    for name, value in row.items():
        per_round.setdefault(name, []).append(value)


def medians(per_round: dict) -> dict:
    """Metric -> median over the measured rounds of a run."""
    return {name: median(values) for name, values in per_round.items()}


def own_peak_rss_mb() -> float:
    """Peak resident set of this process: ``VmHWM``, which starts at 0
    on exec.  Linux folds the parent's peak at fork time into the
    child's ``ru_maxrss``, so a bench process grown by its request
    streams would be reported as the server's memory."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def n_rounds(workload: spec.Workload, seconds: float, trace: bool) -> tuple:
    """``(measured rounds, untraced reference rounds)``."""
    floor = workload.min_rounds
    rounds = max(floor, round(workload.rounds_per_second * seconds))
    if trace:
        return max(floor, rounds // 2), max(floor, rounds // 4)
    return rounds, 0


def static_shares(program_rows) -> dict:
    """Exact instrumentation shares over ``trace.program_row`` rows."""
    total = [sum(col) for col in zip(*program_rows)] or [0, 0, 0, 0]
    return {
        "ebpf.pipeline.guards_elided_share": share(total[1], total[0]),
        "ebpf.pipeline.fused_share": share(total[2], total[3]),
    }


def engine_metrics(agg: dict) -> dict:
    """``ebpf.engine.*`` from the exact ExecResult counts and the
    engine spans, over every (possibly tagged) engine span name."""
    rows = list(agg["exec_counts"].values()) or [[0, 0, 0, 0]]
    calls, steps, cost, faults = (sum(col) for col in zip(*rows))
    self_ns = sum(v["self_ns"] for k, v in agg["by_name"].items()
                  if k.startswith("ebpf.engine.run"))
    return {
        "ebpf.engine.insns_per_req": share(steps, calls),
        "ebpf.engine.cost_per_req": share(cost, calls),
        "ebpf.engine.ns_per_insn": share(self_ns, steps),
        "ebpf.engine.faults": faults,
    }


def result(workload, seed, metrics, attempted, failed, problems=(), *,
           samples, trace_file=None) -> dict:
    out = {
        "workload": workload.name,
        "seed": seed,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": list(problems),
        "samples": samples,
        "metrics": metrics,
    }
    if trace_file is not None:
        out["trace_file"] = trace_file
    return out


#: A run has to end within the driver's 180 s; a child that has not
#: finished by then never will.
CHILD_TIMEOUT_S = 170


def run_in_child(workload: spec.Workload, seed: int, seconds: float,
                 trace: bool, quick: bool) -> dict:
    """An in-process workload, in ``workload.setups`` interpreters of
    their own: all are timed up to ``READY``, the last one measures."""
    cmd = [sys.executable, "-m", "benchmarks.kbench.inproc",
           "--workload", workload.name, "--seed", str(seed),
           "--seconds", str(seconds)]
    cmd += ["--trace"] * trace + ["--quick"] * quick
    setups = 1 if trace else workload.setups
    setup_s = []
    for i in range(setups):
        last = i == setups - 1
        t0 = time.perf_counter()
        with subprocess.Popen(cmd + ["--first-only"] * (not last),
                              cwd=spec.ROOT, env=spec.child_env(), text=True,
                              stdout=subprocess.PIPE) as child:
            ready = child.stdout.readline()
            setup_s.append(time.perf_counter() - t0)
            try:
                rest, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                raise
        if ready != "READY\n" or child.returncode:
            raise RuntimeError(f"kbench {workload.name} child failed "
                               f"(code {child.returncode})")
    out = json.loads(rest)
    if not trace:
        out["metrics"] = {"setup_s": median(setup_s), **out["metrics"]}
    return out


def run(name: str, seed: int, seconds: float, trace: bool,
        quick: bool = False) -> dict:
    """One run of one workload.  Without ``trace`` the metrics are the
    end-to-end set; with it, the per-layer set (every name, 0 where a
    layer is not on the workload's path)."""
    workload = spec.WORKLOAD_BY_NAME[name]
    if quick:
        workload = spec.quick(workload)
    if workload.kind in ("ds", "load"):
        out = run_in_child(workload, seed, seconds, trace, quick)
    else:
        from benchmarks.kbench import net

        out = net.run(workload, seed, seconds, trace)
    if trace:
        out["metrics"] = {m.name: out["metrics"].get(m.name, 0.0)
                          for m in spec.PER_LAYER}
    return out
