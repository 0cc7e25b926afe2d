"""Inputs are a function of the seed, and the oracle knows the answers."""

import random

from benchmarks.kbench import server, spec, streams


def _load(seed, workload=spec.WORKLOAD_BY_NAME["tcp_quorum_mixed"], n=600):
    return [streams.memcached_stream(seed, sock, workload.n_keys, n,
                                     workload.get_share)
            for sock in range(spec.N_SOCKETS)]


def test_same_seed_same_bytes_other_seed_other_bytes():
    assert streams.digest(_load(7)) == streams.digest(_load(7))
    assert streams.digest(_load(7)) != streams.digest(_load(8))


def test_sockets_own_disjoint_keys():
    a, b = (set(streams.socket_keys(4096, s)) for s in range(spec.N_SOCKETS))
    assert not a & b and len(a | b) == 4096


def test_ds_streams_repeat_for_a_seed():
    def ops(seed):
        return streams.ds_ops(random.Random(f"kbench:{seed}:rbtree"),
                              streams.seeded_shadow(64), 64, 300,
                              stacked=False)

    assert ops(3) == ops(3)
    assert ops(3) != ops(4)


def test_oracle_agrees_with_the_real_service():
    workload = spec.WORKLOAD_BY_NAME["tcp_quorum_mixed"]
    service, _ = server.build(workload)
    try:
        for sock, load in enumerate(_load(11)):
            seeds = streams.seed_stream(
                streams.socket_keys(workload.n_keys, sock))
            for s in (seeds, load):
                got = [service.ingress(req)[0] for req in s.requests]
                assert got == s.expected
            assert any(load.is_set) and not all(load.is_set)
    finally:
        service.close()
