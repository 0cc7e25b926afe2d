"""Span tracing from outside the program.

Everything here wraps calls *into* a layer's public functions from the
benchmark's side: instance attributes on the objects a workload built
are replaced by timing proxies.  No file under ``src/`` knows about it,
and an untraced run executes none of this module.

A span is ``(name, start_ns, end_ns, parent, req)``; ``parent`` is the
index of the enclosing span (-1 for a root) and ``req`` numbers the
request being served (-1 outside any request).  Spans are kept in one
``array('q')`` in memory and written out when the run ends.  A span's
*self time* is its duration minus the durations of its direct children;
a layer's self time is the sum over its spans, and the layer of a span
is the first two dotted components of its name (``state.wal.flush`` →
``state.wal``).
"""

from __future__ import annotations

import json
import time
from array import array
from statistics import median

from benchmarks.kbench import spec

FIELDS = ("name", "start_ns", "end_ns", "parent", "req")
_N = len(FIELDS)


def layer_of(name: str) -> str:
    return ".".join(name.split(":")[0].split(".")[:2])


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans = array("q")
        self.enabled = False
        self.n_req = 0
        self._req = -1
        self._stack: list = []
        #: engine span name -> [invocations, steps, cost, faults]
        self.exec_counts: dict = {}
        #: CPU time of this thread inside root spans.  Wall time in a
        #: root also holds loopback softirq work done in ``sendto`` and
        #: involuntary preemption, neither charged to the process, so
        #: reconciliation with process CPU needs the CPU clock here.
        self.root_cpu_ns = 0
        self._root_cpu0 = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, *, new_req: bool = False, on_result=None):
        """Timing proxy for ``fn``.  ``new_req`` makes each call start
        a new request id; ``on_result`` sees the return value."""
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if new_req:
                self._req = self.n_req
                self.n_req += 1
            at = len(spans)
            spans.extend((nid, 0, 0, stack[-1] if stack else -1, self._req))
            stack.append(at // _N)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[at + 2] = clock()
                spans[at + 1] = t0
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_factory(self, name: str, factory, **kw):
        """Proxy for a function that *returns* the hot closure
        (``packet_stager``, ``batch_invoker``, ...): the closure it
        returns is wrapped, once per distinct closure."""
        wrapped: dict = {}

        def make(*args, **kwargs):
            inner = factory(*args, **kwargs)
            proxy = wrapped.get(id(inner))
            if proxy is None or proxy[0] is not inner:
                proxy = wrapped[id(inner)] = (inner, self.wrap(name, inner, **kw))
            return proxy[1]

        return make

    def patch(self, obj, attr: str, name: str, **kw) -> None:
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), **kw))

    def patch_factory(self, obj, attr: str, name: str, **kw) -> None:
        setattr(obj, attr, self.wrap_factory(name, getattr(obj, attr), **kw))

    def exec_counter(self, name: str):
        row = self.exec_counts.setdefault(name, [0, 0, 0, 0])

        def note(result) -> None:
            if self.enabled:
                row[0] += 1
                row[1] += result.steps
                row[2] += result.cost
                row[3] += result.fault is not None

        return note

    # The event loop's busy time is the root of every server-side span:
    # it opens when the selector returns and closes when the loop goes
    # back to wait.

    def begin_root(self, nid: int) -> None:
        if self.enabled:
            self._req = -1
            self._stack.append(len(self.spans) // _N)
            self.spans.extend((nid, time.perf_counter_ns(), 0, -1, -1))
            self._root_cpu0 = time.thread_time_ns()

    def end_root(self) -> None:
        if self._stack:
            self.root_cpu_ns += time.thread_time_ns() - self._root_cpu0
            self.spans[self._stack.pop() * _N + 2] = time.perf_counter_ns()

    # -- output ------------------------------------------------------------

    def dump(self, stem: str) -> str:
        """Write ``out/<stem>.trace.json`` (names, field order, span
        count) and ``out/<stem>.trace.bin`` (int64 × 5 per span)."""
        self.enabled = False
        self.end_root()  # the loop iteration that is writing this
        spec.OUT_DIR.mkdir(exist_ok=True)
        head = spec.OUT_DIR / f"{stem}.trace.json"
        with open(spec.OUT_DIR / f"{stem}.trace.bin", "wb") as f:
            self.spans.tofile(f)
        head.write_text(json.dumps({
            "fields": FIELDS,
            "names": self.names,
            "spans": len(self.spans) // _N,
            "requests": self.n_req,
            "exec_counts": self.exec_counts,
            "root_cpu_ns": self.root_cpu_ns,
        }) + "\n")
        return str(head)


def load(head_path) -> tuple:
    """``(header, spans array)`` of a dumped trace."""
    head = json.loads(open(head_path).read())
    spans = array("q")
    with open(str(head_path)[: -len("json")] + "bin", "rb") as f:
        spans.fromfile(f, head["spans"] * _N)
    return head, spans


def aggregate(head: dict, spans) -> dict:
    """Per-name ``count`` / ``total_ns`` / ``self_ns``, plus what the
    per-layer metrics need beyond sums: inclusive ingress time split
    by whether the request journaled a write, and median engine time
    per tagged engine span (``ebpf.engine.run:<structure>``)."""
    names = head["names"]
    n = len(spans) // _N
    child = [0] * n
    for i in range(n):
        parent = spans[i * _N + 3]
        if parent >= 0:
            child[parent] += spans[i * _N + 2] - spans[i * _N + 1]
    by_name = {name: {"count": 0, "total_ns": 0, "self_ns": 0}
               for name in names}
    journal = {i for i, name in enumerate(names)
               if name == "state.store.journal"}
    ingress = {i for i, name in enumerate(names)
               if name == "net.service.ingress"}
    tagged = {i: [] for i, name in enumerate(names) if ":" in name}
    wrote = set()
    ingress_spans = []
    root_children_ns = 0
    for i in range(n):
        nid, t0, t1, parent, req = spans[i * _N: i * _N + _N]
        dur = t1 - t0
        if parent < 0:
            root_children_ns += child[i]
        row = by_name[names[nid]]
        row["count"] += 1
        row["total_ns"] += dur
        row["self_ns"] += dur - child[i]
        if nid in journal:
            wrote.add(req)
        elif nid in ingress:
            ingress_spans.append((req, dur))
        elif nid in tagged:
            tagged[nid].append(dur)
    set_ns = [d for r, d in ingress_spans if r in wrote]
    get_ns = [d for r, d in ingress_spans if r not in wrote]
    by_layer: dict = {}
    for name, row in by_name.items():
        by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0) + row["self_ns"]
    return {
        "by_name": by_name,
        "by_layer_self_ns": by_layer,
        "requests": head["requests"],
        "exec_counts": head["exec_counts"],
        "root_cpu_ns": head["root_cpu_ns"],
        "root_children_ns": root_children_ns,
        "set_ingress_ns": sum(set_ns) / len(set_ns) if set_ns else 0.0,
        "get_ingress_ns": sum(get_ns) / len(get_ns) if get_ns else 0.0,
        "tagged_p50_ns": {names[i]: median(v) for i, v in tagged.items() if v},
    }


def format_request(head: dict, spans, req: int) -> str:
    """The span tree of one request, indented by depth."""
    names = head["names"]
    n = len(spans) // _N
    depth: dict = {}
    lines = []
    for i in range(n):
        nid, t0, t1, parent, r = spans[i * _N: i * _N + _N]
        if r != req:
            continue
        d = depth[i] = depth.get(parent, -1) + 1
        lines.append(f"{'  ' * d}{names[nid]:<40s} {(t1 - t0) / 1e3:9.2f} us")
    return "\n".join(lines) or f"no spans for request {req}"


def program_row(ext) -> tuple:
    """Static instrumentation counts of one loaded extension:
    ``(guard candidates, guards elided, fused insns, lowered insns)``."""
    an = ext.lowered.analysis
    plan = getattr(ext.lowered, "plan", ())
    return (
        an.guards_total_candidates if an is not None else 0,
        an.guards_elided if an is not None else 0,
        sum(length for _, length, _ in plan),
        len(ext.jprog.insns),
    )


# ---------------------------------------------------------------------------
# Where the proxies go
# ---------------------------------------------------------------------------


class TracedSelector:
    """Selector proxy handed to ``asyncio.SelectorEventLoop``: the time
    between two ``select`` calls is one ``net.datapath.loop`` span."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner
        self._nid = tracer.name_id("net.datapath.loop")

    def select(self, timeout=None):
        self._tracer.end_root()
        try:
            return self._inner.select(timeout)
        finally:
            self._tracer.begin_root(self._nid)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedPass:
    """Pipeline-pass proxy: ``PassManager.replace`` hands back the pass
    it displaces, which the proxy then adopts."""

    def __init__(self, tracer: Tracer, span: str):
        self._tracer = tracer
        self._span = span

    def adopt(self, inner) -> None:
        self._inner = inner
        self.name = inner.name
        self.run = self._tracer.wrap(self._span, inner.run)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def instrument_runtime(tracer: Tracer, runtime) -> None:
    """Load path: ``runtime.load``, every pipeline pass, translate."""
    tracer.patch(runtime, "load", "core.runtime.load")
    passes = runtime.pipeline.passes
    for name in passes.names:
        span = ("ebpf.verifier.verify" if name == "verify"
                else f"ebpf.pipeline.{name}")
        proxy = TracedPass(tracer, span)
        proxy.adopt(passes.replace(name, proxy))
    instrument_translate(tracer, runtime, "ebpf.engine.run")


def instrument_translate(tracer: Tracer, runtime, engine_span: str) -> None:
    """Wrap ``pipeline.translate`` so every engine it builds has a
    traced ``run`` that also collects the exact ExecResult counts."""
    inner = runtime.pipeline.translate
    note = tracer.exec_counter(engine_span)

    def translate(*args, **kwargs):
        tp = inner(*args, **kwargs)
        tracer.patch(tp.engine, "run", engine_span, on_result=note)
        return tp

    runtime.pipeline.translate = tracer.wrap("ebpf.pipeline.translate",
                                             translate)


def instrument_ext(tracer: Tracer, ext) -> None:
    """Invocation path of one loaded extension."""
    net = ext.kernel.net
    tracer.patch(ext, "xdp_ctx", "core.runtime.ctx")
    tracer.patch(ext, "invoke", "core.runtime.invoke")
    tracer.patch_factory(ext, "batch_invoker", "core.runtime.invoke")
    tracer.patch(net, "stage_packet", "kernel.net.stage")
    tracer.patch(net, "read_packet", "kernel.net.read")
    # Batched ingress stages first, so that is where a request begins.
    tracer.patch_factory(net, "packet_stager", "kernel.net.stage",
                         new_req=True)
    tracer.patch_factory(net, "packet_reader", "kernel.net.read")
    tracer.patch_factory(ext.runtime, "ctx_writer", "core.runtime.ctx")


def instrument_service(tracer: Tracer, service, datapath) -> None:
    """Every layer boundary a served request crosses."""
    instrument_translate(tracer, service.runtime, "ebpf.engine.run")
    instrument_ext(tracer, service.ext)
    tracer.patch(service, "ingress", "net.service.ingress", new_req=True)
    tracer.patch(service, "ingress_batch", "net.service.ingress_batch")
    tracer.patch(datapath.admission, "try_admit", "net.backpressure.admit")
    tracer.patch(datapath.admission, "release", "net.backpressure.release")
    cache = getattr(service, "cache", None)
    if cache is None:
        return
    tracer.patch(cache, "lookup", "ebpf.maps.lookup")
    tracer.patch(cache, "update", "ebpf.maps.update")
    tracer.patch(cache.journal, "record_update", "state.store.journal")
    store = service.store
    wal = store.wal(service.pin)
    tracer.patch(wal, "append", "state.wal.append")
    tracer.patch(wal, "flush", "state.wal.flush")
    tracer.patch(store, "snapshot", "state.store.snapshot")
    shipper = service.shipper
    tracer.patch(shipper, "stage", "state.replication.stage")
    tracer.patch(shipper, "commit", "state.replication.commit")
    tracer.patch(shipper, "ship_snapshot", "state.replication.ship_snapshot")
    for ch in shipper.channels:
        tracer.patch(ch.session, "handle_frame", "state.replication.follower")
