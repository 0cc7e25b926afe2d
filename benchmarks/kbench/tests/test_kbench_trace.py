"""A ``--quick --trace`` run of every workload: the result has every
per-layer metric, the exact counts repeat, and the layer self times add
up to the CPU the process was charged."""

import pytest

from benchmarks.kbench import spec, workloads

NET = ("udp_read_sat", "udp_read_idle", "tcp_quorum_mixed")
EXACT = {
    "tcp_quorum_mixed": ("ebpf.engine.insns_per_req",
                         "state.wal.bytes_per_set", "state.wal.flushes_per_set",
                         "state.wal.write_amp",
                         "state.replication.frames_per_set",
                         "state.replication.records_per_commit"),
    "ds_ops": tuple(f"ebpf.engine.{s}_insns_per_op"
                    for s in spec.DS_STRUCTURES),
}


@pytest.fixture(scope="module")
def traced():
    return {w.name: workloads.run(w.name, 3, 1, trace=True, quick=True)
            for w in spec.WORKLOADS}


def test_every_per_layer_metric_is_reported(traced):
    names = [m.name for m in spec.PER_LAYER]
    for name, out in traced.items():
        assert out["correct"] and out["failed"] == 0, (name, out["problems"])
        assert list(out["metrics"]) == names


@pytest.mark.parametrize("name", NET)
def test_layer_self_times_reconcile_with_cpu(traced, name):
    # A full run has to be within 10 % (README, "First run").  A quick
    # one serves a few hundred requests, against which the loop
    # iterations that handle MARK and the final drain still weigh; the
    # room left here catches a layer counted twice or not at all.
    m = traced[name]["metrics"]
    assert m["trace.layer_sum_us_per_op"] == pytest.approx(
        m["trace.cpu_us_per_op"], rel=0.25)
    assert m["net.service.kernel_tx_share"] == 1.0
    assert m["net.backpressure.shed_share"] == 0
    assert m["ebpf.engine.faults"] == 0


def test_workloads_separate_the_layers(traced):
    sat, idle, tcp = (traced[n]["metrics"] for n in NET)
    assert sat["net.datapath.mean_batch"] >= 12
    assert idle["net.datapath.mean_batch"] <= 1
    assert (idle["net.datapath.self_us_per_req"]
            > sat["net.datapath.self_us_per_req"])
    for m in (sat, idle):
        assert m["state.wal.append_us_per_set"] == 0
        assert m["state.replication.commit_us_per_set"] == 0
    assert tcp["state.wal.flushes_per_set"] == 1
    assert tcp["state.wal.append_us_per_set"] > 0
    assert tcp["state.replication.commit_us_per_set"] > 0


@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact_counts_repeat_for_a_seed(traced, name):
    again = workloads.run(name, 3, 1, trace=True, quick=True)["metrics"]
    for metric in EXACT[name]:
        assert again[metric] == traced[name]["metrics"][metric] != 0, metric
