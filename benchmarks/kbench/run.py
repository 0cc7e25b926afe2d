"""Benchmark-driver entry (the ``command`` of ``BENCHMARK.json``):

    python3 benchmarks/kbench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload once and prints, as the last line of stdout, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero without a result line when the program
under test is missing or a run cannot be completed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"kbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.kbench import spec, workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w.name for w in spec.WORKLOADS])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    out = workloads.run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    for problem in out["problems"]:
        print(f"kbench: {problem}", file=sys.stderr)
    units = {m.name: m.unit for m in spec.END_TO_END + spec.PER_LAYER}
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
