"""kbench's oracle still catches one spoiled reply on the TCP workload
(``net`` tier: spawns the benchmark's server child; ``make
kbench-selftest`` runs it next to kbench's own tests).

kbench's own self-test plants its fault on ``service.ingress``
(``benchmarks/kbench/tests/faulty_server.py``), the entry the TCP
datapath left when it began serving each drained read as one
``ingress_batch``.  This is the same check with the fault planted on
the batched entry; run as ``python -m tests.test_kbench_tcp_oracle`` the
module is that faulty server child.
"""

import os

import pytest

server = pytest.importorskip("benchmarks.kbench.server")

from benchmarks.kbench import net, spec  # noqa: E402


def _faulty(build, kind: str, at: int):
    def wrapped(workload):
        service, datapath = build(workload)
        inner, seen = service.ingress_batch, 0

        def ingress_batch(payloads, cpu=0):
            nonlocal seen
            results = inner(payloads, cpu)
            hit = at - seen - 1
            seen += len(results)
            if 0 <= hit < len(results):
                reply, path = results[hit]
                results[hit] = (None if kind == "drop" else
                                reply[:-1] + bytes([reply[-1] ^ 1])), path
            return results

        service.ingress_batch = ingress_batch
        return service, datapath

    return wrapped


@pytest.mark.net
@pytest.mark.parametrize("fault", ["flip", "drop"])
def test_one_spoiled_batched_reply_is_one_failure(fault, monkeypatch):
    workload = spec.quick(spec.WORKLOAD_BY_NAME["tcp_quorum_mixed"])
    # Past the seeding SETs and the first GETs, inside the one round.
    monkeypatch.setenv("KBENCH_FAULT", f"{fault}:{workload.n_keys + 50}")
    raw = net.measure(workload, seed=5, rounds=1, trace=False, setups=1,
                      server=__name__)
    metrics, attempted, failed, problems = net.end_to_end(raw)
    assert failed == 1
    assert metrics["ok_share"] == (attempted - 1) / attempted < 1
    if fault == "flip":
        assert any("replied" in p for p in problems), problems


if __name__ == "__main__":
    kind, at = os.environ["KBENCH_FAULT"].split(":")
    server.build = _faulty(server.build, kind, int(at))
    raise SystemExit(server.main())
