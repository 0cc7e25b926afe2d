"""The three network workloads: a server child driven over loopback by
this process's two client sockets."""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from statistics import median

from benchmarks.kbench import spec, streams
from benchmarks.kbench import trace as T
from benchmarks.kbench.loadgen import LoadGen
from benchmarks.kbench.workloads import (
    append_row,
    engine_metrics,
    latency_row,
    medians,
    n_rounds,
    result,
    share,
    static_shares,
)

P = streams.P


class ServerChild:
    """The server process and its stdin/stdout control channel."""

    def __init__(self, workload: spec.Workload, trace: bool, module: str):
        cmd = [sys.executable, "-m", module, "--workload", workload.name]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(
            cmd, cwd=spec.ROOT, env=spec.child_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            self.port = int(self._line().split()[1])
        except BaseException:
            self.kill()
            raise

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"kbench server exited early (code {self.proc.poll()})"
            )
        return line

    def command(self, word: str) -> None:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()

    def mark(self) -> dict:
        self.command("MARK")
        return json.loads(self._line())

    def finish(self) -> dict:
        """Close stdin, read the final counters, wait for exit."""
        self.proc.stdin.close()
        final = json.loads(self._line())
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()


def _first_gets(workload: spec.Workload) -> list:
    """One GET of a seeded key per socket: the first correct reply."""
    out = []
    for sock in range(spec.N_SOCKETS):
        k = streams.socket_keys(workload.n_keys, sock)[0]
        out.append(streams.Stream(
            [P.encode_get(k)],
            [P.encode_reply(P.OP_GET, k, True, streams.seed_value(k))],
            [False],
        ))
    return out


def _setup(workload: spec.Workload, trace: bool, server: str):
    """Spawn, seed every key over the wire, get one correct reply.
    Returns ``(child, loadgen, seconds, attempted, failed)``."""
    t0 = time.perf_counter()
    child = ServerChild(workload, trace, server)
    try:
        seeds = [streams.seed_stream(streams.socket_keys(workload.n_keys, s))
                 for s in range(spec.N_SOCKETS)]
        gen = LoadGen(child.port, seeds, transport=workload.kind,
                      window=workload.window)
        seeded = gen.run(len(seeds[0].requests))
        gen.set_streams(_first_gets(workload))
        first = gen.run(1)
        elapsed = time.perf_counter() - t0
    except BaseException:
        child.kill()
        raise
    return (child, gen, elapsed, seeded.attempted + first.attempted,
            seeded.failed + first.failed)


def measure(workload, seed, rounds, trace, setups,
            server="benchmarks.kbench.server") -> dict:
    """Set up, warm up, measure: client round results, the server's
    mark after every round, and its final counters.  ``server`` is the
    module run as the child (the self-tests plant a faulty one)."""
    per_sock = workload.round_ops // workload.ops_scale // spec.N_SOCKETS
    total_rounds = workload.warmup_rounds + rounds
    load = [
        streams.memcached_stream(seed, s, workload.n_keys,
                                 per_sock * total_rounds, workload.get_share)
        for s in range(spec.N_SOCKETS)
    ]
    setup_s, attempted, failed = [], 0, 0
    child = gen = None
    for _ in range(setups):
        if child is not None:
            gen.close()
            child.finish()
        child, gen, secs, att, bad = _setup(workload, trace, server)
        setup_s.append(secs)
        attempted += att
        failed += bad
    try:
        gen.set_streams(load)
        for _ in range(workload.warmup_rounds):
            gen.run(per_sock)
        if trace:
            child.command("TRACE")
        gc.collect()
        marks = [child.mark()]
        results = []
        for _ in range(rounds):
            results.append(gen.run(per_sock))
            gc.collect()
            marks.append(child.mark())
        gen.close()
        final = child.finish()
    except BaseException:
        child.kill()
        raise
    return {
        "setup_s": setup_s, "results": results, "marks": marks,
        "final": final, "attempted": attempted, "failed": failed,
    }


def _delta(marks, *path):
    def pick(m):
        for key in path:
            m = m[key]
        return m

    return pick(marks[-1]) - pick(marks[0])


def _round_cpu_ns(marks) -> list:
    """CPU of each round: from the mark that began it (after its
    ``gc.collect()``) to the mark that ended it (before the next)."""
    return [after["end_cpu_ns"] - before["start_cpu_ns"]
            for before, after in zip(marks, marks[1:])]


def end_to_end(raw: dict) -> tuple:
    """``(metrics, attempted, failed, problems)`` of one measurement."""
    per_round: dict = {}
    attempted, failed = raw["attempted"], raw["failed"]
    for res, cpu_ns in zip(raw["results"], _round_cpu_ns(raw["marks"])):
        ok = res.attempted - res.failed
        attempted += res.attempted
        failed += res.failed
        if ok == 0:
            continue
        append_row(per_round, {
            "ops_per_s": ok / res.wall_s,
            "cpu_us_per_op": cpu_ns / 1e3 / ok,
            **latency_row(sorted(res.get_ns + res.set_ns), 1e-3),
            "get_p50_us": median(res.get_ns) / 1e3,
            "set_p50_us": median(res.set_ns) / 1e3,
        })
    if not per_round:
        raise RuntimeError("no request of any round was answered correctly")
    metrics = {
        "setup_s": median(raw["setup_s"]),
        **medians(per_round),
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": raw["final"]["peak_rss_mb"],
    }
    return metrics, attempted, failed, cross_check(raw)


def cross_check(raw: dict) -> list:
    """The server's own counts must tell the client's story: every
    measured request seen, each answered from the hook, none shed, and
    a quiescent kernel after the drain."""
    marks = raw["marks"]
    sent = sum(r.attempted for r in raw["results"])
    accepted = sent - sum(r.failed for r in raw["results"])
    problems = []
    seen = _delta(marks, "service", "requests")
    if seen != sent:
        problems.append(f"server saw {seen} requests, client sent {sent}")
    if _delta(marks, "service", "kernel_tx") != seen:
        problems.append("not every request was answered at the hook")
    replied = _delta(marks, "datapath", "replied")
    if replied != accepted:
        problems.append(
            f"server replied {replied}, oracle accepted {accepted}")
    shed = sum(v for k, v in marks[-1]["shed"].items()
               if k.startswith("shed_"))
    if shed:
        problems.append(f"server shed {shed} requests")
    q = raw["final"]["quiescence"]
    if q["sock_refs"] or q["held_locks"]:
        problems.append(f"kernel not quiescent after drain: {q}")
    return problems


def per_layer(raw: dict, agg: dict, untraced_cpu_us: float) -> dict:
    marks = raw["marks"]
    reqs = _delta(marks, "service", "requests")
    by = agg["by_name"]
    layer = agg["by_layer_self_ns"]

    def self_us(*names):
        return sum(by[n]["self_ns"] for n in names if n in by) / 1e3

    def total_us(*names):
        return sum(by[n]["total_ns"] for n in names if n in by) / 1e3

    def count(name):
        return by[name]["count"] if name in by else 0

    # The loop's busy time by the CPU clock, less what its child spans
    # account for, is the datapath's own (asyncio + socket) cost.
    datapath_ns = agg["root_cpu_ns"] - agg["root_children_ns"]
    layer_sum_ns = datapath_ns + sum(
        v for k, v in layer.items() if k not in ("net.datapath", "bench"))
    cpu_us = sum(_round_cpu_ns(marks)) / 1e3 / reqs
    m = {
        "net.datapath.self_us_per_req": datapath_ns / 1e3 / reqs,
        "net.datapath.offcpu_us_per_req":
            (layer["net.datapath"] - datapath_ns) / 1e3 / reqs,
        "net.datapath.mean_batch": share(
            _delta(marks, "batched_requests"),
            _delta(marks, "datapath", "batches")),
        "net.backpressure.admit_us_per_req":
            layer.get("net.backpressure", 0) / 1e3 / reqs,
        "net.backpressure.shed_share": share(
            sum(_delta(marks, "shed", k) for k in marks[0]["shed"]
                if k.startswith("shed_")),
            _delta(marks, "datapath", "received")),
        "net.service.ingress_us_per_req": total_us(
            "net.service.ingress", "net.service.ingress_batch") / reqs,
        "net.service.self_us_per_req": layer["net.service"] / 1e3 / reqs,
        "net.service.get_ingress_us": agg["get_ingress_ns"] / 1e3,
        "net.service.set_ingress_us": agg["set_ingress_ns"] / 1e3,
        "net.service.kernel_tx_share": share(
            _delta(marks, "service", "kernel_tx"), reqs),
        "kernel.net.stage_us_per_req": self_us("kernel.net.stage") / reqs,
        "kernel.net.read_us_per_req": self_us("kernel.net.read") / reqs,
        "core.runtime.invoke_us_per_req": layer["core.runtime"] / 1e3 / reqs,
        "ebpf.maps.update_us": share(
            self_us("ebpf.maps.update"), count("ebpf.maps.update")),
        "ebpf.maps.lookup_us": share(
            self_us("ebpf.maps.lookup"), count("ebpf.maps.lookup")),
        "trace.cpu_us_per_op": cpu_us,
        "trace.layer_sum_us_per_op": layer_sum_ns / 1e3 / reqs,
        "trace.overhead_ratio": cpu_us / untraced_cpu_us,
    }
    m.update(engine_metrics(agg))
    m.update(static_shares([raw["final"]["program_row"]]))
    if "wal" not in marks[0]:
        return m
    sets = _delta(marks, "wal", "records")
    wal_bytes = _delta(marks, "wal", "bytes")
    frames = count("state.replication.follower")
    snaps = count("state.store.snapshot")
    m.update({
        "state.store.journal_us_per_set":
            self_us("state.store.journal") / sets,
        "state.wal.append_us_per_set": layer["state.wal"] / 1e3 / sets,
        "state.wal.bytes_per_set": wal_bytes / sets,
        "state.wal.write_amp": wal_bytes / (sets * (P.KEY_SIZE + P.VAL_SIZE)),
        "state.wal.flushes_per_set": _delta(marks, "wal", "flushes") / sets,
        "state.store.snapshot_ms": share(
            total_us("state.store.snapshot") / 1e3, snaps),
        "state.store.snapshots": snaps,
        "state.replication.commit_us_per_set": self_us(
            "state.replication.stage", "state.replication.commit") / sets,
        "state.replication.records_per_commit": share(
            _delta(marks, "ship", "records_shipped"),
            count("state.replication.commit")),
        "state.replication.frames_per_set": frames / sets,
        "state.replication.follower_append_us": share(
            total_us("state.replication.follower"), frames),
        "state.replication.quorum_drop_share":
            _delta(marks, "quorum_drops") / sets,
        "state.replication.resyncs": _delta(marks, "ship", "resyncs"),
    })
    return m


def run(workload: spec.Workload, seed: int, seconds: float,
        trace: bool) -> dict:
    rounds, ref_rounds = n_rounds(workload, seconds, trace)
    if not trace:
        raw = measure(workload, seed, rounds, False, workload.setups)
        metrics, attempted, failed, problems = end_to_end(raw)
        return result(workload, seed, metrics, attempted, failed, problems,
                      samples=sum(r.attempted for r in raw["results"]))
    ref, _, _, _ = end_to_end(measure(workload, seed, ref_rounds, False, 1))
    raw = measure(workload, seed, rounds, True, 1)
    _, attempted, failed, problems = end_to_end(raw)
    trace_file = raw["final"]["trace_file"]
    agg = T.aggregate(*T.load(trace_file))
    return result(workload, seed,
                  per_layer(raw, agg, ref["cpu_us_per_op"]),
                  attempted, failed, problems,
                  samples=agg["requests"], trace_file=trace_file)
