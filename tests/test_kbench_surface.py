"""Tier-1 pin of the surface kbench's tracer patches.

``benchmarks/kbench/trace.py`` wraps the packet path from outside, by
attribute name, and kbench's own self-tests are not part of tier-1 —
so a refactor of the path could break the traced run unnoticed.  This
builds both network services the way kbench's server child does,
instruments them, and checks that a request entering through either
``ingress`` or ``ingress_batch`` is numbered once and crosses each
layer boundary exactly once — and that on the TCP service the spans of
the commit path follow the group: per SET through ``ingress``, per
batch through ``ingress_batch``.
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


def _span_counts(tracer, since):
    width = len(trace.FIELDS)
    return Counter(tracer.names[tracer.spans[i]]
                   for i in range(since * width, len(tracer.spans), width))


def test_commit_path_spans_follow_the_group():
    service, datapath = server.build(spec.WORKLOAD_BY_NAME["tcp_quorum_mixed"])
    tracer = trace.Tracer()
    trace.instrument_service(tracer, service, datapath)
    tracer.enabled = True
    service.ingress(P.encode_set(0, 1), 0)  # re-bases the fresh followers
    pkts = [P.encode_set(1, 2), P.encode_get(1), P.encode_set(2, 3),
            P.encode_get(2), P.encode_set(1, 4), P.encode_get(0)]
    followers = spec.TCP_FOLLOWERS

    mark, n_req = len(tracer.spans) // len(trace.FIELDS), tracer.n_req
    assert [path for _, path in service.ingress_batch(pkts, 0)] \
        == ["kernel"] * 6
    spans = _span_counts(tracer, mark)
    assert tracer.n_req == n_req + 6
    assert spans["state.replication.stage"] == 3
    assert spans["state.wal.append"] == 3
    assert spans["state.wal.flush"] == 1
    assert spans["state.replication.commit"] == 1
    assert spans["state.replication.follower"] == followers

    mark, n_req = len(tracer.spans) // len(trace.FIELDS), tracer.n_req
    assert [service.ingress(p, 0)[1] for p in pkts] == ["kernel"] * 6
    spans = _span_counts(tracer, mark)
    assert tracer.n_req == n_req + 6
    for name in ("state.replication.stage", "state.wal.append",
                 "state.wal.flush", "state.replication.commit"):
        assert spans[name] == 3, name
    assert spans["state.replication.follower"] == 3 * followers
    service.close()
