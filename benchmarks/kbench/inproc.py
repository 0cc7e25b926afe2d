"""The child process of the in-process workloads (``ds_ops``,
``ext_load``): the program under test gets an interpreter of its own,
with the pinned environment, as the server child of the network
workloads does.

Prints ``READY`` when set-up is over — everything imported and built,
first correct result obtained — then, unless ``--first-only``, measures
and prints the result as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.kbench import ds, extload, spec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w.name for w in spec.WORKLOADS
                            if w.kind in ("ds", "load")])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--first-only", action="store_true")
    args = p.parse_args(argv)
    workload = spec.WORKLOAD_BY_NAME[args.workload]
    if args.quick:
        workload = spec.quick(workload)

    def ready() -> None:
        print("READY", flush=True)
        if args.first_only:
            sys.exit(0)

    runner = {"ds": ds.run, "load": extload.run}[workload.kind]
    print(json.dumps(runner(workload, args.seed, args.seconds, args.trace,
                            ready)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
