"""The server child process of the network workloads.

Built only from the repository's public constructors.  Protocol with
the parent (the bench client):

* stdout ``PORT <n>`` once the datapath listens;
* each ``MARK`` line on stdin ends a round: the child answers with one
  JSON line holding its counters *before* and CPU time *after* a
  ``gc.collect()``, so a round's CPU is ``next.end_cpu_ns -
  this.start_cpu_ns`` and collection between rounds is charged to
  neither;
* ``TRACE`` switches span recording on (traced children only);
* closing stdin drains the datapath, writes the spans out when tracing,
  prints a final JSON line and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import gc
import json
import os
import selectors
import time

from benchmarks.kbench import spec, trace
from benchmarks.kbench.workloads import own_peak_rss_mb


def build(workload: spec.Workload):
    """``(service, datapath)`` for one workload (datapath not started)."""
    from repro.net import TcpDatapath, UdpDatapath, build_service

    if workload.kind == "udp":
        service = build_service("memcached", fallback="none", perf_mode=True)
        return service, UdpDatapath(service, batch_size=workload.batch_size)
    from repro.net.service import DurableMemcachedService
    from repro.state import DurableStore, MemStorage
    from repro.state.replication import (
        LocalChannel,
        QuorumShipper,
        ReplicaSession,
    )

    channels = [
        LocalChannel(f"n{i}", ReplicaSession(MemStorage(), node_id=f"n{i}"))
        for i in range(spec.TCP_FOLLOWERS)
    ]
    shipper = QuorumShipper(channels, sync_replicas=spec.TCP_SYNC_REPLICAS)
    store = DurableStore(
        storage=MemStorage(), sync_every=1,
        snapshot_every=spec.TCP_SNAPSHOT_EVERY, shipper=shipper,
    )
    service = DurableMemcachedService(
        store=store, pin="kbench/cache", capacity=2 * workload.n_keys
    )
    return service, TcpDatapath(service)


def counters(service, datapath) -> dict:
    """The server's own counts, for cross-checking the client's."""
    out = {
        "service": dataclasses.asdict(service.stats),
        "datapath": {
            k: v for k, v in dataclasses.asdict(datapath.stats).items()
            if k != "batch_hist"
        },
        "batched_requests": sum(
            s * c for s, c in datapath.stats.batch_hist.items()
        ),
        "shed": {
            k: v for k, v in dataclasses.asdict(datapath.admission.stats).items()
            if k != "shed_by_source"
        },
    }
    shipper = getattr(service, "shipper", None)
    if shipper is not None:
        wal = service.store.wal(service.pin)
        out["ship"] = dataclasses.asdict(shipper.stats)
        out["quorum_drops"] = service.quorum_drops + service.fenced_drops
        out["wal"] = {
            "records": wal.records_appended,
            "bytes": wal.bytes_appended,
            "flushes": wal.flushes,
        }
    return out


async def serve(workload: spec.Workload, tracer) -> None:
    loop = asyncio.get_running_loop()
    service, datapath = build(workload)
    if tracer is not None:
        trace.instrument_service(tracer, service, datapath)
    await datapath.start()
    print(f"PORT {datapath.port}", flush=True)

    stop = asyncio.Event()
    pending = bytearray()

    def mark() -> None:
        out = counters(service, datapath)
        out["end_cpu_ns"] = time.process_time_ns()
        gc.collect()
        out["start_cpu_ns"] = time.process_time_ns()
        print(json.dumps(out), flush=True)

    if tracer is not None:
        # Keeps round bookkeeping out of the event loop's self time.
        mark = tracer.wrap("bench.mark", mark)

    def on_stdin() -> None:
        data = os.read(0, 4096)
        if not data:
            loop.remove_reader(0)
            stop.set()
            return
        pending.extend(data)
        while b"\n" in pending:
            line, _, rest = bytes(pending).partition(b"\n")
            pending[:] = rest
            if line.strip() == b"MARK":
                mark()
            elif line.strip() == b"TRACE":
                tracer.enabled = True

    loop.add_reader(0, on_stdin)
    await stop.wait()
    final = counters(service, datapath)
    final["quiescence"] = await datapath.stop(drain_timeout=2.0)
    final["peak_rss_mb"] = own_peak_rss_mb()
    if tracer is not None:
        final["program_row"] = trace.program_row(service.ext)
        final["trace_file"] = tracer.dump(workload.name)
    print(json.dumps(final), flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w.name for w in spec.WORKLOADS
                            if w.kind in ("udp", "tcp")])
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    workload = spec.WORKLOAD_BY_NAME[args.workload]
    tracer = None
    selector = selectors.DefaultSelector()
    if args.trace:
        tracer = trace.Tracer()
        selector = trace.TracedSelector(tracer, selector)
    loop = asyncio.SelectorEventLoop(selector)
    try:
        loop.run_until_complete(serve(workload, tracer))
    finally:
        loop.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
