"""Shared benchmark plumbing.

Each benchmark regenerates one paper figure/table.  Results are saved
under ``benchmarks/results/`` and replayed in pytest's terminal summary
(which survives output capture), so a plain
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` records
every figure's rows.
"""

import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    from repro.ebpf.engine import ENGINES

    parser.addoption(
        "--engine",
        action="store",
        default=None,
        choices=sorted(ENGINES),
        help="execution engine for all benchmarks (default: threaded)",
    )


def pytest_configure(config):
    from repro.ebpf.engine import set_default_engine

    engine = config.getoption("--engine", default=None)
    if engine:
        set_default_engine(engine)


def pytest_collection_modifyitems(items):
    import pytest

    for item in items:
        item.add_marker(pytest.mark.bench)

_EMITTED: list = []


def emit(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    _EMITTED.append(text)


def pytest_terminal_summary(terminalreporter):
    if not _EMITTED:
        return
    terminalreporter.section("reproduced paper results")
    for block in _EMITTED:
        terminalreporter.write_line("")
        for line in block.splitlines():
            terminalreporter.write_line(line)


# -- gated benches ------------------------------------------------------------
#
# A gated bench module declares ``GATE = (baseline path, run_benchmark,
# format_result, check_result)``; these two are the pytest and the
# standalone entry every one of them shares.


def gate_test(baseline, run_benchmark, format_result, check_result) -> dict:
    """Run the bench, emit its table under the baseline's name, apply
    the gate."""
    result = run_benchmark()
    text = format_result(result)
    emit(baseline.stem, text)
    ok, msg = check_result(result)
    assert ok, msg + "\n" + text
    return result


def gate_main(
    baseline, run_benchmark, format_result, check_result, doc, check_help
) -> int:
    """Print the bench's table; ``--update`` rewrites the committed
    baseline (its only writer), ``--check`` turns the gate into the
    exit code."""
    import argparse
    import json

    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))
    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    p.add_argument("--update", action="store_true",
                   help=f"rewrite the committed baseline {baseline.name}")
    p.add_argument("--check", action="store_true", help=check_help)
    args = p.parse_args()

    result = run_benchmark()
    print(format_result(result))
    if args.update:
        baseline.parent.mkdir(exist_ok=True)
        baseline.write_text(json.dumps(result, indent=2) + "\n")
        print(f"baseline updated: {baseline}")
    if args.check:
        ok, msg = check_result(result)
        print(msg)
        return 0 if ok else 1
    return 0
