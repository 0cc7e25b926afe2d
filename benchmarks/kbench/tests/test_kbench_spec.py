"""The names kbench prints are the names BENCHMARK.json promises."""

import ast
import json
import re

from benchmarks.kbench import spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_spec_table():
    assert json.loads(spec.BENCHMARK_JSON.read_text()) == spec.benchmark_json()


def test_names_units_and_bounds_are_well_formed():
    metrics = spec.END_TO_END + spec.PER_LAYER
    names = [w.name for w in spec.WORKLOADS] + [m.name for m in metrics]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m.unit) for m in metrics)
    assert all(m.better in ("lower", "higher") for m in metrics)
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    assert all(m.bound is None for m in spec.PER_LAYER)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in spec.WORKLOADS)
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert len(spec.END_TO_END) <= 16 and len(spec.PER_LAYER) <= 128
    setup = spec.END_TO_END_BY_NAME["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)


def _modules():
    return [p for p in spec.HERE.glob("*.py")]


def test_pytest_does_not_collect_the_benchmark_itself():
    # `make bench` runs `pytest benchmarks/` with python_files
    # test_*.py and bench_*.py: only tests/ may match.
    assert not [p.name for p in _modules()
                if p.name.startswith(("bench_", "test_"))]


def test_the_client_is_not_the_repositorys_own():
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [
                    f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                imported = [a.name for a in node.names]
            else:
                continue
            assert not [m for m in imported
                        if m.startswith("repro.net.client")], path.name
