"""What kbench measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root lists the same names; the
self-tests assert the two agree.  Definitions live here so that the
README glossary, the runner and ``compare`` read one table.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, replace

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

#: Environment pinned for every process whose time is measured.
#:
#: glibc malloc: asyncio's socket transports allocate a 256 KiB buffer
#: for every ``recv``/``recvfrom``.  With glibc's default *dynamic* mmap
#: threshold that allocation is an mmap/munmap pair per packet, or a
#: heap bump, depending on what the process happened to free earlier:
#: the server's CPU per request sat at either 62 or 42 us (measured on
#: udp_read_sat), and the length of the environment or the way Python
#: was launched was enough to flip it.  Fixed thresholds leave one
#: regime (the heap one), so a change in the numbers is a change in the
#: program.  A fixed hash seed takes str-keyed dict layout out of the
#: run-to-run spread the same way.
PINNED_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict:
    """Environment of a measured child: pinned, importing this checkout."""
    return {**os.environ, **PINNED_ENV,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}


#: Client sockets every network workload uses (one client process).
N_SOCKETS = 2
ZIPF_S = 0.99


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "udp" | "tcp" | "ds" | "load"
    kind: str
    #: Requests (net), ops per structure (ds) or corpus passes (load)
    #: in one round.  A run measures ``rounds_per_second * seconds``
    #: rounds after ``warmup_rounds`` discarded ones, so the op count is
    #: a fixed function of ``--seconds`` — never of how fast the code is.
    round_ops: int
    rounds_per_second: float
    warmup_rounds: int = 2
    min_rounds: int = 3
    #: Set-ups per run; the median is reported, the last one measured.
    setups: int = 3
    #: Divides every per-round op count (``--quick``).
    ops_scale: int = 1
    #: Net workloads only.
    window: int = 0
    batch_size: int = 1
    get_share: float = 1.0
    n_keys: int = 0


WORKLOADS = (
    Workload(
        "udp_read_sat",
        "Fig. 2 shape: batched UDP ingress with the server saturated, so "
        "core.runtime + ebpf.engine do most of the work; engine and "
        "batch-path gains must show here.",
        kind="udp", round_ops=24_000, rounds_per_second=1.0,
        window=16, batch_size=16, get_share=0.95, n_keys=4096,
    ),
    Workload(
        "udp_read_idle",
        "Same service unbatched with one request in flight per socket: "
        "net.datapath and asyncio wake-ups dominate; a datapath gain shows "
        "here first and an engine gain only by its small share.",
        kind="udp", round_ops=16_000, rounds_per_second=1.0,
        window=1, batch_size=1, get_share=0.95, n_keys=4096,
    ),
    Workload(
        "tcp_quorum_mixed",
        "Durable memcached over TCP, 50:50 GET:SET, WAL flushed per SET "
        "and quorum-acked by 1 of 2 in-process followers: state.wal + "
        "state.replication dominate SETs; GET and SET latency reported apart.",
        kind="tcp", round_ops=11_000, rounds_per_second=1.0,
        window=8, batch_size=1, get_share=0.5, n_keys=2000,
    ),
    Workload(
        "ds_ops",
        "In-process Fig. 5: hashmap/rbtree/skiplist/linkedlist at "
        "70/20/10 lookup/update/delete; ebpf.engine is nearly all of the "
        "time and net/state none, so a codegen tier shows here.",
        kind="ds", round_ops=1, rounds_per_second=1.0, warmup_rounds=1,
    ),
    Workload(
        "ext_load",
        "Cold-load the shipped corpus on a fresh runtime per pass, then "
        "warm and 1-insn-patched reloads: the verify/instrument/lower/fuse/"
        "translate cost a faster execution tier must not hide.",
        kind="load", round_ops=1, rounds_per_second=2.0, warmup_rounds=1,
    ),
)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


def quick(workload: Workload) -> Workload:
    """1/20 of the ops, one round, one set-up, no warm-up: checks
    correctness and the result schema, measures nothing."""
    return replace(workload, ops_scale=20, min_rounds=1, setups=1,
                   warmup_rounds=0, rounds_per_second=0)


#: ds_ops: structure -> (elements, ops per round).  Op counts are sized
#: so every structure gets about a fifth of a second of a round, and the
#: list two: its lookups cost anything from one node to 192, and its
#: median needs the samples.
DS_STRUCTURES = {
    "hashmap": (1024, 16000),
    "rbtree": (512, 6400),
    "skiplist": (512, 4800),
    "linkedlist": (192, 1600),
}
DS_MIX = (("lookup", 0.7), ("update", 0.2), ("delete", 0.1))
#: The list's update pushes a new binding and its delete removes one,
#: so under the 20:10 mix it grows without bound and each round would
#: be slower than the last.  It is rebuilt (untimed) before every round
#: so rounds repeat the same experiment; the map-like structures reach
#: a steady population within the warm-up round and are kept.
DS_REBUILD_EACH_ROUND = frozenset({"linkedlist"})

#: tcp_quorum_mixed store policy (stated, not a device's numbers).
TCP_SNAPSHOT_EVERY = 8192
TCP_FOLLOWERS = 2
TCP_SYNC_REPLICAS = 1


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    definition: str
    #: End-to-end only: share of the parent's median by which the
    #: metric may worsen before ``compare`` (and the driver) say worse.
    bound: float | None = None


#: Every timing below is taken per round and reported as the median
#: over the measured rounds of a run.
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "Starting the process under test to its first correct result: "
           "interpreter start, imports, building the service or structures, "
           "seeding every key, one checked reply.  Median of 3 set-ups in "
           "a run.", 0.25),
    Metric("ops_per_s", "1/s", "higher",
           "Correct replies per second of wall time; geometric mean of the "
           "per-structure rates on ds_ops, cold program loads per second on "
           "ext_load.", 0.05),
    Metric("cpu_us_per_op", "us", "lower",
           "CPU time of the process under test (server child; the measured "
           "loop in the in-process child) divided by ops.", 0.05),
    Metric("p50_us", "us", "lower",
           "Median client-observed latency (send to matching reply); "
           "geometric mean of the per-structure median call latencies on "
           "ds_ops; median per-app cold load on ext_load.", 0.05),
    Metric("p95_us", "us", "lower",
           "95th percentile of the same samples: the tail this sandbox can "
           "resolve.  Slowest app of a pass on ext_load (11 apps).", 0.05),
    Metric("p99_us", "us", "lower",
           "99th percentile of the same samples (>= 100 samples beyond it "
           "per round on the net workloads).  On udp_read_idle it flips "
           "between two regimes ~16 % apart from one server process to the "
           "next, hence the widest bound.", 0.25),
    Metric("get_p50_us", "us", "lower",
           "Median GET latency; lookup on ds_ops (geometric mean over "
           "structures); warm (cache-hit) reload of a corpus program on "
           "ext_load, mean over programs of each one's median.", 0.05),
    Metric("set_p50_us", "us", "lower",
           "Median SET latency; update on ds_ops; 1-insn-patched reload of "
           "a bench-hook program on ext_load, mean over programs of each "
           "one's median.", 0.05),
    Metric("ok_share", "share", "higher",
           "1 - fail_share: ops whose reply arrived and the oracle "
           "accepted, over ops attempted.  Expected exactly 1.", 0.001),
    Metric("peak_rss_mb", "MB", "lower",
           "Peak resident set (VmHWM) of the process under test at the end "
           "of the run.",
           0.10),
)

_DS = tuple(DS_STRUCTURES)
PER_LAYER = (
    Metric("net.datapath.self_us_per_req", "us", "lower",
           "Event-loop busy CPU time (between selector waits) not covered by "
           "admission or service spans: asyncio, socket syscalls, framing, "
           "the datapath's own code."),
    Metric("net.datapath.offcpu_us_per_req", "us", "lower",
           "Event-loop busy time by the wall clock that the process was not "
           "charged for: loopback softirq work inside sendto, and "
           "preemption."),
    Metric("net.datapath.mean_batch", "count", "higher",
           "Server DatapathStats: requests per drained ingress batch "
           "(0 when the unbatched per-datagram path served everything)."),
    Metric("net.backpressure.admit_us_per_req", "us", "lower",
           "Self time of AdmissionControl.try_admit + release."),
    Metric("net.backpressure.shed_share", "share", "lower",
           "Server ShedStats: shed requests over received.  Expected 0."),
    Metric("net.service.ingress_us_per_req", "us", "lower",
           "Inclusive time of service.ingress / ingress_batch."),
    Metric("net.service.self_us_per_req", "us", "lower",
           "Self time of the same spans (verdict mapping, stats, clock "
           "coupling)."),
    Metric("net.service.get_ingress_us", "us", "lower",
           "Mean inclusive service.ingress time of requests that journaled "
           "nothing (unbatched path only)."),
    Metric("net.service.set_ingress_us", "us", "lower",
           "Mean inclusive service.ingress time of requests that journaled "
           "a write (durable service only)."),
    Metric("net.service.kernel_tx_share", "share", "higher",
           "Server ServiceStats: kernel_tx over requests.  Must be 1."),
    Metric("kernel.net.stage_us_per_req", "us", "lower",
           "Self time staging the packet and hook context "
           "(ext.xdp_ctx, or packet_stager + ctx_writer when batched)."),
    Metric("kernel.net.read_us_per_req", "us", "lower",
           "Self time of read_packet / packet_reader (XDP_TX reply copy)."),
    Metric("core.runtime.invoke_us_per_req", "us", "lower",
           "Self time of ext.invoke / the batch invoker around the engine "
           "(env, watchdog, cost accounting)."),
    Metric("core.runtime.load_self_ms_per_prog", "ms", "lower",
           "ext_load: runtime.load time outside the pipeline passes "
           "(heap, helpers, extension object), per program."),
    Metric("ebpf.engine.insns_per_req", "count", "lower",
           "Exact: ExecResult.steps per invocation."),
    Metric("ebpf.engine.cost_per_req", "count", "lower",
           "Exact: ExecResult.cost (native cost units) per invocation."),
    Metric("ebpf.engine.ns_per_insn", "ns", "lower",
           "engine.run self time over instructions executed."),
    Metric("ebpf.engine.faults", "count", "lower",
           "Invocations whose ExecResult carried a fault.  Expected 0."),
    *(Metric(f"ebpf.engine.{s}_p50_us", "us", "lower",
             f"ds_ops: median engine.run time of one {s} op.") for s in _DS),
    *(Metric(f"ebpf.engine.{s}_insns_per_op", "count", "lower",
             f"ds_ops, exact: instructions per {s} op.") for s in _DS),
    Metric("ebpf.maps.update_us", "us", "lower",
           "Self time of one HashMap.update (journal hook excluded)."),
    Metric("ebpf.maps.lookup_us", "us", "lower",
           "Self time of one HashMap.lookup."),
    Metric("state.store.journal_us_per_set", "us", "lower",
           "Self time of MapJournal.record_update per SET."),
    Metric("state.wal.append_us_per_set", "us", "lower",
           "Self time of MapWal.append + flush per SET."),
    Metric("state.wal.bytes_per_set", "B", "lower",
           "Exact: WAL bytes appended per SET."),
    Metric("state.wal.write_amp", "ratio", "lower",
           "Exact: WAL bytes over key+value payload bytes."),
    Metric("state.wal.flushes_per_set", "count", "lower",
           "Exact: WAL flushes per SET (1 at sync_every=1)."),
    Metric("state.store.snapshot_ms", "ms", "lower",
           "Mean time of one compacting snapshot, follower propagation "
           "included."),
    Metric("state.store.snapshots", "count", "lower",
           "Exact: snapshots taken in the measured rounds."),
    Metric("state.replication.commit_us_per_set", "us", "lower",
           "Self time of QuorumShipper.stage + commit per SET (frame "
           "encode, channel round trips, ack decode)."),
    Metric("state.replication.records_per_commit", "count", "higher",
           "Exact: records shipped per commit (1 without group commit)."),
    Metric("state.replication.frames_per_set", "count", "lower",
           "Exact: follower frames handled per SET."),
    Metric("state.replication.follower_append_us", "us", "lower",
           "Mean ReplicaSession.handle_frame time (follower WAL append + "
           "flush)."),
    Metric("state.replication.quorum_drop_share", "share", "lower",
           "Writes dropped for lack of quorum over SETs.  Expected 0."),
    Metric("state.replication.resyncs", "count", "lower",
           "ShipStats.resyncs in the measured rounds.  Expected 0."),
    Metric("ebpf.verifier.verify_ms_per_prog", "ms", "lower",
           "ext_load: verify pass self time per cold program load."),
    Metric("ebpf.verifier.regions_per_prog", "count", "lower",
           "ext_load, exact: verifier regions per program."),
    Metric("ebpf.verifier.reverify_regions_share", "share", "lower",
           "ext_load, exact: regions re-explored by the 1-insn-patched "
           "reloads over their total regions."),
    *(Metric(f"ebpf.pipeline.{p}_ms_per_prog", "ms", "lower",
             f"ext_load: {p} pass time per cold program load.")
      for p in ("instrument", "lower", "fuse", "translate")),
    Metric("ebpf.pipeline.warm_load_us", "us", "lower",
           "ext_load: runtime.load time when every stage hits the program "
           "cache (same value as the untraced get_p50_us)."),
    Metric("ebpf.pipeline.cache_hit_share", "share", "higher",
           "ext_load, exact: program-cache hits over lookups on the reload "
           "runtime."),
    Metric("ebpf.pipeline.guards_elided_share", "share", "higher",
           "Exact: guards the range analysis elided over guard candidates, "
           "over the programs the workload loads."),
    Metric("ebpf.pipeline.fused_share", "share", "higher",
           "Exact: lowered instructions covered by a fuse-plan block."),
    Metric("trace.cpu_us_per_op", "us", "lower",
           "cpu_us_per_op of the traced rounds."),
    Metric("trace.layer_sum_us_per_op", "us", "lower",
           "Sum of all span self times per op; reconciles with "
           "trace.cpu_us_per_op within 10 % on the net workloads."),
    Metric("trace.overhead_ratio", "ratio", "lower",
           "trace.cpu_us_per_op over the cpu_us_per_op of untraced rounds "
           "run first in the same invocation."),
)

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` this table implies."""
    return {
        "command": ["python3", "benchmarks/kbench/run.py"],
        "paths": ["benchmarks/kbench"],
        "run_seconds": 10,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def run_seconds() -> int:
    return json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
