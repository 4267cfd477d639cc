"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public entry points of each layer of ``repro`` from the
outside: a function is replaced at the module attribute its caller looks
it up by (``repro.parallel.node.route_wire``), a method on its class
(``CostArray.apply_path``).  No file of the program is edited.

Each call records one span: layer, entry-point name, start and end
(``perf_counter_ns``, CLOCK_MONOTONIC on Linux, so spans from different
processes share a time base), the parent span on the same thread, the
thread and a request id.  Spans stay in memory; self time is a span's
duration minus the time covered by its direct child spans.  Counts
(cells touched, packets built, events executed, ...) are gathered by
small hooks at the same boundaries.

An entry point that no longer exists is skipped; a layer none of whose
entry points exist is reported ``absent`` and the run carries on.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "EntryPoint",
    "Layer",
    "Tracer",
    "default_layers",
    "LAYER_NAMES",
    "PER_LAYER_METRICS",
    "per_layer_metrics",
]


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``attr`` is ``"func"`` or ``"Class.method"``."""

    module: str
    attr: str
    #: ``before(args, kwargs) -> state`` runs just before the call.
    before: Optional[Callable[..., Any]] = None
    #: ``after(counters, args, kwargs, result, state)`` runs after it.
    after: Optional[Callable[..., None]] = None
    #: ``request(args, kwargs, result) -> id or None`` names the request.
    request: Optional[Callable[..., Any]] = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attr}"


@dataclass(frozen=True)
class Layer:
    name: str
    entries: List[EntryPoint]


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[list] = []
        self.counters: Optional[Dict[str, Any]] = None
        self.request: Any = None


class Tracer:
    """Records spans and counters for the entry points it installs."""

    def __init__(self) -> None:
        #: ``[span id, parent id, layer, name, t0_ns, t1_ns, child_ns,
        #: thread id, request id]`` per finished call.
        self.spans: List[list] = []
        self.request: Any = None  # default request id (single-threaded callers)
        self.wrapped: Dict[str, List[str]] = {}
        self.missing: Dict[str, List[str]] = {}
        self._ids = itertools.count(1)
        self._thread = _ThreadState()
        self._thread_counters: List[Dict[str, Any]] = []

    # -- installation --------------------------------------------------
    def install(self, layers: List[Layer]) -> None:
        for layer in layers:
            self.wrapped.setdefault(layer.name, [])
            for entry in layer.entries:
                try:
                    owner, attr, raw = _resolve(entry)
                except (ImportError, AttributeError, KeyError):
                    self.missing.setdefault(layer.name, []).append(entry.label)
                    continue
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                traced = self._wrap(layer.name, entry, fn)
                if isinstance(raw, staticmethod):
                    traced = staticmethod(traced)
                elif isinstance(raw, classmethod):
                    traced = classmethod(traced)
                setattr(owner, attr, traced)
                self.wrapped[layer.name].append(entry.label)

    @property
    def absent(self) -> List[str]:
        """Layers none of whose entry points could be wrapped."""
        return sorted(name for name, got in self.wrapped.items() if not got)

    def _counters(self) -> Dict[str, Any]:
        state = self._thread
        if state.counters is None:
            state.counters = {}
            self._thread_counters.append(state.counters)
        return state.counters

    def _wrap(self, layer: str, entry: EntryPoint, fn: Callable) -> Callable:
        tracer = self
        state = self._thread
        spans = self.spans
        ids = self._ids
        name = entry.attr
        before, after, request = entry.before, entry.after, entry.request
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = state.stack
            parent = stack[-1] if stack else None
            if parent is not None:
                req = parent[2]
            elif state.request is not None:
                req = state.request
            else:
                req = tracer.request
            frame = [next(ids), 0, req]
            memo = before(args, kwargs) if before is not None else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                span = [frame[0], parent[0] if parent else 0, layer, name,
                        t0, t1, frame[1], threading.get_ident(), frame[2]]
                spans.append(span)
            if request is not None:
                named = request(args, kwargs, result)
                if named is not None:
                    span[8] = named
                    state.request = named
            if after is not None:
                after(tracer._counters(), args, kwargs, result, memo)
            return result

        return traced

    # -- results -------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Per-layer self/inclusive time, call counts and counters."""
        self_ns: Dict[str, int] = {}
        calls: Dict[str, int] = {}
        inclusive_ns: Dict[str, int] = {}  # keyed "layer:name"
        for _sid, _parent, layer, name, t0, t1, child, _tid, _req in self.spans:
            self_ns[layer] = self_ns.get(layer, 0) + (t1 - t0) - child
            calls[layer] = calls.get(layer, 0) + 1
            key = f"{layer}:{name}"
            inclusive_ns[key] = inclusive_ns.get(key, 0) + (t1 - t0)
        counters: Dict[str, float] = {}
        for per_thread in self._thread_counters:
            for key, value in per_thread.items():
                if isinstance(value, set):
                    merged = counters.setdefault(key, set())
                    merged |= value
                else:
                    counters[key] = counters.get(key, 0) + value
        counters = {k: (len(v) if isinstance(v, set) else v) for k, v in counters.items()}
        return {
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "calls": calls,
            "inclusive_s": {k: v / 1e9 for k, v in inclusive_ns.items()},
            "counters": counters,
            "absent": self.absent,
            "missing": self.missing,
            "spans": len(self.spans),
        }

    def write_chrome(self, path: str) -> None:
        """Write every span as gzipped Chrome trace-event JSON.

        Perfetto and ``chrome://tracing`` open the ``.json.gz`` directly.
        """
        pid = os.getpid()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        encode = json.JSONEncoder(separators=(",", ":"), default=str).encode
        requests: Dict[Any, str] = {}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            sep = ""
            for sid, parent, layer, name, t0, t1, _child, tid, req in self.spans:
                req_json = requests.get(req)
                if req_json is None:
                    req_json = requests[req] = encode(req)
                out.write(
                    f'{sep}{{"name":"{name}","cat":"{layer}","ph":"X","pid":{pid},'
                    f'"tid":{tid},"ts":{t0 / 1e3:.3f},"dur":{(t1 - t0) / 1e3:.3f},'
                    f'"args":{{"span":{sid},"parent":{parent},"request":{req_json}}}}}'
                )
                sep = ",\n"
            out.write("\n]}\n")


def _resolve(entry: EntryPoint):
    module = importlib.import_module(entry.module)
    if "." in entry.attr:
        cls_name, attr = entry.attr.split(".", 1)
        owner = getattr(module, cls_name)
        raw = owner.__dict__[attr]
    else:
        owner, attr = module, entry.attr
        raw = getattr(module, attr)
    return owner, attr, raw


# ----------------------------------------------------------------------
# the layer table
# ----------------------------------------------------------------------
def _count(key: str, amount: Callable[..., float] = lambda *a: 1):
    def after(c, args, kwargs, result, memo):
        c[key] = c.get(key, 0) + amount(args, kwargs, result, memo)
    return after


def _n_cells(args, kwargs, result, memo) -> int:
    target = args[1] if len(args) > 1 else next(iter(kwargs.values()), None)
    if hasattr(target, "area"):
        return int(target.area)
    return int(getattr(target, "size", 0))


def _refs(trace) -> int:
    return int(getattr(trace, "n_read_refs", 0)) + int(getattr(trace, "n_write_refs", 0))


def _seen_wire(c, args, kwargs, result, memo) -> None:
    wire = args[0] if args else kwargs.get("wire")
    c.setdefault("route.geometry.builds", set()).add(id(wire))


def _order_len(c, args, kwargs, result, memo) -> None:
    order = args[2] if len(args) > 2 else kwargs.get("order", ())
    c["route.wavefront.wires"] = c.get("route.wavefront.wires", 0) + len(order)


def _packet_built(c, args, kwargs, result, memo) -> None:
    if result is not None:  # build_* returns None when there is nothing to send
        c["updates.packets.packets"] = c.get("updates.packets.packets", 0) + 1
        c["updates.packets.payload_cells"] = (
            c.get("updates.packets.payload_cells", 0) + int(result.payload_cells))


def _steps_before(args, kwargs) -> int:
    return args[0].steps


def _steps_after(c, args, kwargs, result, before) -> None:
    c["events.events"] = c.get("events.events", 0) + args[0].steps - before


def _live_after(c, args, kwargs, result, memo) -> None:
    c["parallel.live.routing_s"] = c.get("parallel.live.routing_s", 0) + result.routing_wall_s
    c["parallel.live.spawn_s"] = (
        c.get("parallel.live.spawn_s", 0) + result.wall_s - result.routing_wall_s
    )


def _submit_after(c, args, kwargs, result, memo) -> None:
    c["service.daemon.submissions"] = c.get("service.daemon.submissions", 0) + 1
    if result.get("status") == "done":
        c["service.daemon.hits"] = c.get("service.daemon.hits", 0) + 1


def _now_ns(args, kwargs) -> int:
    return time.perf_counter_ns()


def _pending_after(c, args, kwargs, result, t0_ns) -> None:
    """Time of ``result`` calls that answered "pending" (polls)."""
    if result[1] == "pending":
        c["service.daemon.pending_s"] = (
            c.get("service.daemon.pending_s", 0) + (time.perf_counter_ns() - t0_ns) / 1e9)


def _job_arg(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs.get("job_id")


def _repository_entry(method: str) -> EntryPoint:
    takes_job = method in ("add_job", "set_status", "get_job")
    return EntryPoint("repro.service.repository", f"Repository.{method}",
                      request=_job_arg if takes_job else None)


REPOSITORY_READS = ("get_job", "jobs", "counts", "get_result", "history")
REPOSITORY_WRITES = ("add_job", "set_status", "record_result")


def default_layers() -> List[Layer]:
    """Every layer the benchmark attributes time to, with its entry points."""
    cost = "repro.grid.cost_array"
    delta = "repro.grid.delta"
    node = "repro.parallel.node"
    return [
        Layer("route.twobend", [
            EntryPoint(node, "route_wire"),
            EntryPoint("repro.parallel.sm_sim", "route_wire"),
        ]),
        Layer("route.geometry", [
            EntryPoint("repro.route.wavefront", "wire_geometry", after=_seen_wire),
        ]),
        Layer("route.plan_waves", [
            EntryPoint("repro.route.wavefront", "plan_waves",
                       after=_count("route.plan_waves.waves",
                                    lambda a, k, r, m: len(r))),
        ]),
        Layer("route.wavefront", [
            EntryPoint("repro.route.engine", "route_iteration_wavefront",
                       after=_order_len),
        ]),
        Layer("grid.cost_array", [
            EntryPoint(cost, f"CostArray.{m}", after=_count("grid.cost_array.cells", _n_cells))
            for m in ("apply_path", "remove_path", "path_cost", "extract",
                      "replace", "accumulate")
        ]),
        Layer("grid.delta", [
            EntryPoint(delta, f"DeltaArray.{m}")
            for m in ("record_path", "region_dirty_bbox", "dirty_bboxes_by_owner",
                      "accumulate", "extract", "clear_region", "clear_all",
                      "is_clean", "nonzero_count")
        ]),
        Layer("updates.packets", [
            EntryPoint(node, name, after=_packet_built)
            for name in ("build_loc_data", "build_rmt_data", "build_request",
                         "build_response", "build_control")
        ]),
        Layer("parallel.node", [
            EntryPoint(node, "MPNode.start"),
            EntryPoint(node, "MPNode.deliver", after=_count("parallel.node.deliveries")),
            EntryPoint(node, "MPNode._activate"),
            EntryPoint(node, "MPNode._finish_wire"),
        ]),
        Layer("netsim.wormhole", [
            EntryPoint("repro.netsim.wormhole", "WormholeNetwork.send"),
        ]),
        Layer("events", [
            EntryPoint("repro.events.sim", "Simulator.run",
                       before=_steps_before, after=_steps_after),
        ]),
        Layer("memsim.tango", [
            EntryPoint("repro.memsim.tango", f"TangoCollector.{m}")
            for m in ("record_evaluation", "record_commit", "record_ripup",
                      "record_loop_grab")
        ]),
        Layer("memsim.coherence", [
            EntryPoint("repro.memsim.columnar", "ColumnarTrace.from_trace",
                       after=_count("memsim.tango.references",
                                    lambda a, k, r, m: _refs(r))),
            EntryPoint("repro.memsim.columnar", "ColumnarTrace.replay",
                       after=_count("memsim.coherence.references",
                                    lambda a, k, r, m: _refs(a[0]))),
        ]),
        Layer("circuits.generate", [
            EntryPoint("repro.circuits", name)
            for name in ("generate_scaled", "bnre_like", "mdc_like")
        ] + [
            EntryPoint("repro.harness.simjobs", name) for name in ("bnre_like", "mdc_like")
        ]),
        Layer("service.daemon", [
            EntryPoint("repro.service.daemon", "RoutingService.submit",
                       after=_submit_after,
                       request=lambda a, k, r: r.get("job_id")),
            EntryPoint("repro.service.daemon", "RoutingService.status", request=_job_arg),
            EntryPoint("repro.service.daemon", "RoutingService.result", request=_job_arg,
                       before=_now_ns, after=_pending_after),
        ]),
        Layer("service.repository", [
            _repository_entry(m) for m in REPOSITORY_READS + REPOSITORY_WRITES
        ]),
        Layer("service.jobs", [
            EntryPoint("repro.service.jobs", "execute_job",
                       after=_count("service.jobs.executions")),
            EntryPoint("repro.service.daemon", "read_through"),
        ] + [
            EntryPoint("repro.harness.cache", f"ResultCache.{m}",
                       after=_count("service.jobs.cache_writes") if m.startswith("put") else None)
            for m in ("get_experiment", "put_experiment", "get_sim", "put_sim")
        ]),
        Layer("parallel.live", [
            EntryPoint("repro.parallel.live", "run_live_shared_memory", after=_live_after),
            EntryPoint("repro.parallel.live", "run_live_message_passing", after=_live_after),
            EntryPoint("repro.parallel.live.sm_live", "replay_records"),
            EntryPoint("repro.parallel.live.mp_live", "replay_records"),
        ]),
    ]


#: Layers in report order; ``service.http``, ``service.queue`` and
#: ``other`` are derived rather than wrapped.
LAYER_NAMES = [layer.name for layer in default_layers()] + [
    "service.http", "service.queue", "other",
]

#: Extra metrics of each layer beyond ``self_s`` and ``share``, with units.
LAYER_EXTRAS: Dict[str, List[tuple]] = {
    "route.twobend": [("wires", "count"), ("us_per_wire", "us")],
    "route.geometry": [("builds", "count")],
    "route.plan_waves": [("waves", "count")],
    "route.wavefront": [("wires_per_wave", "count")],
    "grid.cost_array": [("calls", "count"), ("cells", "count")],
    "grid.delta": [("calls", "count")],
    "updates.packets": [("packets", "count"), ("payload_cells", "count")],
    "parallel.node": [("deliveries", "count"), ("blocked_frac", "fraction")],
    "netsim.wormhole": [("messages", "count"), ("mbytes", "MB")],
    "events": [("events", "count"), ("ns_per_event", "ns")],
    "memsim.tango": [("references", "count")],
    "memsim.coherence": [("ns_per_reference", "ns")],
    "circuits.generate": [],
    "service.daemon": [("hit_ratio", "fraction")],
    "service.repository": [("read_s", "s"), ("write_s", "s"), ("calls", "count")],
    "service.jobs": [("executions", "count"), ("cache_writes", "count")],
    "parallel.live": [("routing_s", "s"), ("spawn_s", "s"), ("replay_s", "s"),
                      ("sm_speedup", "x")],
    "service.http": [("requests", "count")],
    "service.queue": [("wait_s", "s")],
    "other": [],
}

PER_LAYER_METRICS: List[tuple] = [("trace.overhead_frac", "fraction")]
for _layer in LAYER_NAMES:
    PER_LAYER_METRICS += [(f"{_layer}.self_s", "s"), (f"{_layer}.share", "fraction")]
    PER_LAYER_METRICS += [(f"{_layer}.{m}", u) for m, u in LAYER_EXTRAS[_layer]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(summary: Dict[str, Any], wall_s: float,
                      extra: Dict[str, float]) -> Dict[str, float]:
    """Every declared per-layer metric from one traced run.

    ``summary`` is :meth:`Tracer.summary` output; ``wall_s`` the traced
    window; ``extra`` carries what only ``run.py`` knows:
    simulated statistics (``parallel.node.blocked_frac``,
    ``netsim.wormhole.mbytes``), client-side service times
    (``service.http.self_s``, ``service.http.requests``), queue waits and
    ``trace.overhead_frac``.  A layer that did not run reports zeros.
    """
    self_s = dict(summary["self_s"])
    calls = summary["calls"]
    inclusive = summary["inclusive_s"]
    counters = summary["counters"]
    for derived in ("service.http", "service.queue"):
        if f"{derived}.self_s" in extra:
            self_s[derived] = extra[f"{derived}.self_s"]
    # Queue time is waiting, not busy time, and overlaps the other layers.
    busy = sum(v for k, v in self_s.items() if k not in ("service.queue", "other"))
    self_s["other"] = max(0.0, wall_s - busy)

    def incl(layer: str, methods) -> float:
        return sum(v for k, v in inclusive.items()
                   if k.startswith(layer + ":") and k.rsplit(".", 1)[-1] in methods)

    waves = counters.get("route.plan_waves.waves", 0)
    plans = calls.get("route.plan_waves", 0)
    wf_calls = calls.get("route.wavefront", 0)
    waves_routed = _ratio(waves, plans) * wf_calls
    twobend_incl = sum(v for k, v in inclusive.items() if k.startswith("route.twobend:"))
    wires = calls.get("route.twobend", 0)
    events = counters.get("events.events", 0)
    refs = counters.get("memsim.coherence.references", 0)
    submissions = counters.get("service.daemon.submissions", 0)
    values = {
        "route.twobend.wires": wires,
        "route.twobend.us_per_wire": _ratio(twobend_incl * 1e6, wires),
        "route.geometry.builds": counters.get("route.geometry.builds", 0),
        "route.plan_waves.waves": waves,
        "route.wavefront.wires_per_wave": _ratio(
            counters.get("route.wavefront.wires", 0), waves_routed),
        "grid.cost_array.calls": calls.get("grid.cost_array", 0),
        "grid.cost_array.cells": counters.get("grid.cost_array.cells", 0),
        "grid.delta.calls": calls.get("grid.delta", 0),
        "updates.packets.packets": counters.get("updates.packets.packets", 0),
        "updates.packets.payload_cells": counters.get("updates.packets.payload_cells", 0),
        "parallel.node.deliveries": counters.get("parallel.node.deliveries", 0),
        "netsim.wormhole.messages": calls.get("netsim.wormhole", 0),
        "events.events": events,
        "events.ns_per_event": _ratio(self_s.get("events", 0.0) * 1e9, events),
        "memsim.tango.references": counters.get("memsim.tango.references", 0),
        "memsim.coherence.ns_per_reference": _ratio(
            self_s.get("memsim.coherence", 0.0) * 1e9, refs),
        "service.daemon.hit_ratio": _ratio(counters.get("service.daemon.hits", 0), submissions),
        "service.repository.read_s": incl("service.repository", REPOSITORY_READS),
        "service.repository.write_s": incl("service.repository", REPOSITORY_WRITES),
        "service.repository.calls": calls.get("service.repository", 0),
        "service.jobs.executions": counters.get("service.jobs.executions", 0),
        "service.jobs.cache_writes": counters.get("service.jobs.cache_writes", 0),
        "parallel.live.routing_s": counters.get("parallel.live.routing_s", 0.0),
        "parallel.live.spawn_s": counters.get("parallel.live.spawn_s", 0.0),
        "parallel.live.replay_s": sum(
            v for k, v in inclusive.items() if k.startswith("parallel.live:") and "replay" in k),
    }
    for layer in LAYER_NAMES:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        values[f"{layer}.share"] = _ratio(self_s.get(layer, 0.0), wall_s)
    values.update(extra)
    out = {}
    for name, _unit in PER_LAYER_METRICS:
        out[name] = float(values.get(name, 0.0))
    return out
