"""Tier-1 pin of the surface kbench's tracer patches.

``benchmarks/kbench/trace.py`` wraps the packet path from outside, by
attribute name, and kbench's own self-tests are not part of tier-1 —
so a refactor of the path could break the traced run unnoticed.  This
builds both network services the way kbench's server child does,
instruments them, and checks that a request entering through either
``ingress`` or ``ingress_batch`` is numbered once and crosses each
layer boundary exactly once.
"""

from collections import Counter

import pytest

trace = pytest.importorskip("benchmarks.kbench.trace")

from benchmarks.kbench import server, spec  # noqa: E402
from repro.apps.memcached import protocol as P  # noqa: E402

ONCE_PER_REQUEST = (
    "core.runtime.invoke",
    "kernel.net.stage",
    "kernel.net.read",
    "ebpf.engine.run",
)


@pytest.mark.parametrize("workload", ["udp_read_sat", "tcp_quorum_mixed"])
def test_traced_request_crosses_each_layer_once(workload):
    service, datapath = server.build(spec.WORKLOAD_BY_NAME[workload])
    tracer = trace.Tracer()
    trace.instrument_service(tracer, service, datapath)
    tracer.enabled = True
    pkts = [P.encode_set(k, k + 1) for k in range(10)]
    pkts += [P.encode_get(k) for k in range(10)]

    results = [service.ingress(p, 0) for p in pkts]
    results += service.ingress_batch(pkts, 0)

    assert [path for _, path in results] == ["kernel"] * 40
    assert tracer.n_req == 40
    per_request = Counter()
    width = len(trace.FIELDS)
    for i in range(0, len(tracer.spans), width):
        name_id, _, _, _, req = tracer.spans[i:i + width]
        per_request[req, tracer.names[name_id]] += 1
    for req in range(40):
        for name in ONCE_PER_REQUEST:
            assert per_request[req, name] == 1, (req, name)
    entries = Counter()
    for (_, name), n in per_request.items():
        entries[name] += n
    assert entries["net.service.ingress"] == 20
    assert entries["net.service.ingress_batch"] == 1
    service.close()
