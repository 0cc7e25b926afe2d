"""``python -m benchmarks.kbench {run,compare,trace}``."""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from statistics import median

from benchmarks.kbench import spec, workloads
from benchmarks.kbench import trace as T


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _summary(runs: list) -> dict:
    """``metric -> {median, min, max}`` over the runs of one workload."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        out[name] = {"median": median(values), "min": min(values),
                     "max": max(values)}
    return out


def _print_metrics(title: str, summary: dict, units: dict) -> None:
    print(title)
    for name, row in summary.items():
        print(f"  {name:<44s} {row['median']:>14.4f} {units[name]:<6s}"
              f" [{row['min']:.4f} .. {row['max']:.4f}]")


def cmd_run(args) -> int:
    units = {m.name: m.unit for m in spec.END_TO_END + spec.PER_LAYER}
    seconds = args.seconds if args.seconds is not None else spec.run_seconds()
    names = args.workload or [w.name for w in spec.WORKLOADS]
    doc = {
        "meta": {
            "seed": args.seed, "runs": args.runs, "seconds": seconds,
            "quick": args.quick, "git_sha": _git_sha(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
        },
        "workloads": {},
    }
    ok = True
    for name in names:
        runs = [workloads.run(name, args.seed, seconds, False, args.quick)
                for _ in range(args.runs)]
        entry = doc["workloads"][name] = {
            "runs": runs, "summary": _summary(runs),
            "samples": [r["samples"] for r in runs],
        }
        _print_metrics(f"{name}  (seed {args.seed}, {args.runs} runs, "
                       f"{runs[0]['samples']} samples each)",
                       entry["summary"], units)
        checked = list(runs)
        if args.trace:
            traced = workloads.run(name, args.seed, seconds, True, args.quick)
            checked.append(traced)
            entry["trace"] = traced
            _print_metrics(
                f"{name}  traced ({traced['samples']} samples, spans in "
                f"{traced['trace_file']})",
                {k: {"median": v, "min": v, "max": v}
                 for k, v in traced["metrics"].items()}, units)
        for r in checked:
            for problem in r["problems"]:
                print(f"  PROBLEM: {problem}")
            if not r["correct"]:
                ok = False
                print(f"  INCORRECT: {r['failed']} of {r['attempted']} "
                      f"operations failed")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


def verdict(metric: spec.Metric, base: dict, new: dict) -> str:
    """Judge one end-to-end metric of one workload.

    ``same`` within the bound; beyond it ``better``/``worse`` only when
    the two sets of runs do not overlap, else ``unresolved``."""
    sign = 1 if metric.better == "lower" else -1
    change = sign * (new["median"] - base["median"]) / base["median"]
    if abs(change) <= metric.bound:
        return "same"
    overlap = new["min"] <= base["max"] and base["min"] <= new["max"]
    if overlap:
        return "unresolved"
    return "worse" if change > 0 else "better"


def cmd_compare(args) -> int:
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    print(f"base {args.base} ({base['meta']['git_sha'][:12]})   "
          f"new {args.new} ({new['meta']['git_sha'][:12]})")
    print(f"{'workload':<18s}{'metric':<16s}{'base':>14s}{'new':>14s}"
          f"{'new/base':>10s}  {'bound':>6s}  verdict")
    worse = 0
    for name, entry in base["workloads"].items():
        other = new["workloads"].get(name)
        if other is None:
            continue
        for metric in spec.END_TO_END:
            b, n = entry["summary"][metric.name], other["summary"][metric.name]
            v = verdict(metric, b, n)
            worse += v == "worse"
            print(f"{name:<18s}{metric.name:<16s}{b['median']:>14.4f}"
                  f"{n['median']:>14.4f}{n['median'] / b['median']:>10.4f}"
                  f"  {metric.bound:>6.3f}  {v}")
        if not all(r["correct"] for r in other["runs"]):
            worse += 1
            print(f"{name:<18s}{'correct':<16s}{'':>14s}{'false':>14s}"
                  f"{'':>10s}  {'':>6s}  worse")
    return 1 if worse else 0


def cmd_trace(args) -> int:
    head, spans = T.load(args.file)
    if args.req is not None:
        print(T.format_request(head, spans, args.req))
        return 0
    agg = T.aggregate(head, spans)
    print(f"{'span':<40s}{'count':>10s}{'total ms':>12s}{'self ms':>12s}")
    for name, row in sorted(agg["by_name"].items(),
                            key=lambda kv: -kv[1]["self_ns"]):
        print(f"{name:<40s}{row['count']:>10d}{row['total_ns'] / 1e6:>12.2f}"
              f"{row['self_ns'] / 1e6:>12.2f}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python -m benchmarks.kbench",
                                description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run workloads, print every metric")
    r.add_argument("--workload", action="append",
                   choices=[w.name for w in spec.WORKLOADS],
                   help="repeatable; default: all")
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--runs", type=int, default=3)
    r.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    r.add_argument("--quick", action="store_true",
                   help="1/20 op counts, one round: correctness and schema")
    r.add_argument("--trace", action="store_true",
                   help="also one traced run per workload (per-layer metrics)")
    r.add_argument("--json", metavar="OUT")
    r.set_defaults(fn=cmd_run)
    c = sub.add_parser("compare", help="judge result set NEW against BASE")
    c.add_argument("base")
    c.add_argument("new")
    c.set_defaults(fn=cmd_compare)
    t = sub.add_parser("trace", help="summarise a dumped trace")
    t.add_argument("file", help="out/<workload>.trace.json")
    t.add_argument("--req", type=int, help="print one request's span tree")
    t.set_defaults(fn=cmd_trace)
    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
