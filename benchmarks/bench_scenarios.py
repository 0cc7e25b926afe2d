"""Hostile-traffic benchmark: per-scenario p99 and shed-rate envelopes.

The scenario matrix's oracles are boolean (acked writes never lost,
graceful shed, bounded recovery); this benchmark pins the *numbers*
behind them so a resilience regression that still squeaks past the
oracles is caught:

* **Loaded p99** — per scenario, the p99 of legitimate traffic while
  the hostile phase is active must stay within ``P99_TOLERANCE`` of
  the committed baseline (scenarios already bound it at 3x their own
  unloaded baseline; this gate catches drift *between* commits).
* **Shed rate** — flood scenarios must keep shedding at least
  ``SHED_FLOOR`` of the attack volume; a shedder that quietly starts
  letting the flood through regresses resilience without failing a
  latency oracle.
* **Oracles** — every scenario must pass outright; a FAIL fails the
  gate before any envelope math.

Each scenario runs ``RUNS_PER_SCENARIO`` seeds and the *median* loaded
p99 is compared, so one unlucky OS stall cannot fail the gate.

.. code-block:: console

    $ python benchmarks/bench_scenarios.py            # print results
    $ python benchmarks/bench_scenarios.py --update   # refresh baseline
    $ python benchmarks/bench_scenarios.py --check    # gate (make bench-scenarios)
"""

from __future__ import annotations

import json
import pathlib
import statistics

HERE = pathlib.Path(__file__).parent
BASELINE_JSON = HERE / "results" / "BENCH_scenarios.json"

#: Loaded-p99 drift allowed vs the committed baseline (median of runs).
P99_TOLERANCE = 1.0  # 2x: loopback latency is noisy between machines
#: Absolute floor before the relative gate kicks in (microseconds) —
#: sub-floor baselines are all "fast enough" and drift freely.
P99_FLOOR_US = 4000.0
#: Flood scenarios must shed at least this fraction of attack volume.
SHED_FLOOR = 0.90
#: Scenarios whose shed rate is a resilience property (open-loop floods).
FLOOD_SCENARIOS = ("syn_flood", "udp_flood")

RUNS_PER_SCENARIO = 3


def run_benchmark() -> dict:
    from repro.sim.scenarios import SCENARIOS, run_scenario

    scenarios: dict = {}
    for name in sorted(SCENARIOS):
        runs = [run_scenario(name, seed) for seed in range(RUNS_PER_SCENARIO)]
        scenarios[name] = {
            "ok": all(r.ok for r in runs),
            "errors": [e for r in runs for e in r.errors],
            "baseline_p99_us": round(
                statistics.median(r.baseline_p99_us for r in runs), 1
            ),
            "loaded_p99_us": round(
                statistics.median(r.loaded_p99_us for r in runs), 1
            ),
            "shed_rate": round(min(r.shed_rate for r in runs), 4),
            "acked_checked": sum(r.acked_checked for r in runs),
            "recovery_s": round(max(r.recovery_s for r in runs), 3),
        }
    return {
        "workload": f"{len(scenarios)} scenarios x {RUNS_PER_SCENARIO} seeds, "
                    "median loaded p99 / min shed rate per scenario",
        "scenarios": scenarios,
    }


def format_result(result: dict) -> str:
    lines = ["hostile-traffic benchmark (scenario matrix envelopes)"]
    for name, s in result["scenarios"].items():
        shed = f" shed={s['shed_rate']:.1%}" if s["shed_rate"] else ""
        lines.append(
            f"  {name:<18} {'OK ' if s['ok'] else 'FAIL'} "
            f"p99 {s['baseline_p99_us']:.0f}us→{s['loaded_p99_us']:.0f}us"
            f"{shed} acked={s['acked_checked']}"
        )
    return "\n".join(lines)


def check_result(result: dict) -> tuple[bool, str]:
    problems = []
    for name, s in result["scenarios"].items():
        if not s["ok"]:
            problems.append(f"{name}: oracle FAIL ({'; '.join(s['errors'])})")
        if name in FLOOD_SCENARIOS and s["shed_rate"] < SHED_FLOOR:
            problems.append(
                f"{name}: shed rate {s['shed_rate']:.1%} below the "
                f"{SHED_FLOOR:.0%} floor"
            )
    if problems:
        return False, "; ".join(problems)
    if not BASELINE_JSON.exists():
        return True, f"no baseline at {BASELINE_JSON}; oracle-only gate passed"
    baseline = json.loads(BASELINE_JSON.read_text())["scenarios"]
    for name, s in result["scenarios"].items():
        base = baseline.get(name)
        if base is None:
            continue  # new scenario: no envelope yet
        ceiling = max(base["loaded_p99_us"], P99_FLOOR_US) * (
            1.0 + P99_TOLERANCE
        )
        if s["loaded_p99_us"] > ceiling:
            problems.append(
                f"{name}: loaded p99 {s['loaded_p99_us']:.0f}us vs baseline "
                f"{base['loaded_p99_us']:.0f}us (ceiling {ceiling:.0f}us)"
            )
    if problems:
        return False, "; ".join(problems)
    return True, (
        f"{len(result['scenarios'])} scenarios within envelope "
        f"(p99 drift <= {P99_TOLERANCE:.0%} over baseline, floods shed "
        f">= {SHED_FLOOR:.0%})"
    )


GATE = (BASELINE_JSON, run_benchmark, format_result, check_result)


def test_scenarios_benchmark():
    from conftest import gate_test

    gate_test(*GATE)


if __name__ == "__main__":
    from conftest import gate_main

    raise SystemExit(gate_main(
        *GATE, __doc__,
        "fail on oracle failures, a shed-rate floor breach, "
        "or a loaded-p99 envelope blow-out vs the baseline",
    ))
