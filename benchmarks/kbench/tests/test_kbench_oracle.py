"""A benchmark that cannot fail is not a gate: one spoiled reply must
show as a failed operation, an ``ok_share`` below 1, an incorrect run
and a disagreement with the server's own counts."""

import pytest

from benchmarks.kbench import cli, net, spec

FAULTY = "benchmarks.kbench.tests.faulty_server"


def _run(name, monkeypatch, fault, at=50):
    workload = spec.quick(spec.WORKLOAD_BY_NAME[name])
    # Past the seeding SETs and the first GETs, inside the one round.
    monkeypatch.setenv("KBENCH_FAULT", f"{fault}:{workload.n_keys + at}")
    raw = net.measure(workload, seed=5, rounds=1, trace=False, setups=1,
                      server=FAULTY)
    return net.end_to_end(raw)


@pytest.mark.parametrize("name", ["udp_read_idle", "tcp_quorum_mixed"])
@pytest.mark.parametrize("fault", ["flip", "drop"])
def test_one_spoiled_reply_is_one_failure(name, fault, monkeypatch):
    metrics, attempted, failed, problems = _run(name, monkeypatch, fault)
    assert failed == 1
    assert metrics["ok_share"] == (attempted - 1) / attempted < 1
    if fault == "flip":
        # The server believes it answered one request more than the
        # oracle accepted.
        assert any("replied" in p for p in problems), problems


def test_clean_server_passes_the_same_check(monkeypatch):
    metrics, attempted, failed, problems = _run(
        "udp_read_idle", monkeypatch, "flip", at=-10**9)
    assert (failed, problems, metrics["ok_share"]) == (0, [], 1.0)


def _row(median, lo=None, hi=None):
    return {"median": median, "min": lo or median, "max": hi or median}


def test_compare_verdicts():
    lower = spec.END_TO_END_BY_NAME["p50_us"]       # bound 5 %, lower is better
    higher = spec.END_TO_END_BY_NAME["ops_per_s"]   # bound 5 %, higher is better
    assert cli.verdict(lower, _row(100), _row(104)) == "same"
    assert cli.verdict(lower, _row(100), _row(110)) == "worse"
    assert cli.verdict(lower, _row(100), _row(90)) == "better"
    assert cli.verdict(lower, _row(100, 95, 108), _row(110, 107, 112)) == "unresolved"
    assert cli.verdict(higher, _row(100), _row(90)) == "worse"
    assert cli.verdict(higher, _row(100), _row(110)) == "better"
    ok = spec.END_TO_END_BY_NAME["ok_share"]
    assert cli.verdict(ok, _row(1.0), _row(0.99)) == "worse"
