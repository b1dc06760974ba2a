"""Span tracing of the layer boundaries, installed from outside ``src/``.

The tracer replaces the public entry points of each ``repro`` package with
wrappers that record a span per call.  Callables that one layer hands to
another (process bodies, scheduled callbacks, delivery handlers, RPC
services) are wrapped where they are handed over and belong to the layer
their ``__module__`` names, which is how protocol work done on the kernel
thread lands in ``amoeba``/``rts``/``txn`` and not in ``sim``.

Every simulated process is an OS thread, so spans nest on a per-thread
stack.  A span's cost is measured on the *thread CPU clock*: time a thread
spends parked on the hand-off lock is never counted.  Self time is a span's
CPU minus its child spans' CPU.  Per-kind totals cover every span; a tracer
that is to write a Chrome trace file also keeps the first ``keep_spans``
spans whole and writes them once, after the run.

The wrapper's own cost (two thread-clock system calls and some bookkeeping
per span) would otherwise inflate the self time of whatever has many small
children.  :func:`calibrate` measures it on empty spans, and
:meth:`Tracer.attribute` takes it back out, scaled so that what is left adds
up to the CPU the same run used untraced.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
from time import perf_counter_ns, process_time_ns, thread_time_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The packages on the serving path of the benchmark's workloads.
LAYERS = ("sim", "amoeba", "rts", "txn", "gateway", "workloads", "metrics", "net")

#: Spans a tracer keeps whole when a trace file is wanted; totals always
#: cover every span.
KEPT_SPANS = 50_000

#: How much dearer than in :func:`calibrate`'s tight loop a span may be taken
#: to be between thread switches (the simulator workloads show 3-4x).
MAX_SPAN_COST_FACTOR = 10.0

#: ``module, class, methods``: the calls *into* each layer.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro.workloads.scenarios", "Scenario", ("perform",)),
    ("repro.workloads.runner", "WorkloadRunner", ("run",)),
    ("repro.rts.base", "RuntimeSystem", ("__init__", "invoke", "create_object", "transact")),
    ("repro.txn", "TransactionLayer", ("transact", "on_deliver")),
    ("repro.amoeba.cluster", "Cluster", ("__init__", "shutdown")),
    ("repro.amoeba.broadcast.group", "GroupMember", ("broadcast",)),
    ("repro.amoeba.broadcast.group", "BroadcastGroup", ("broadcast_from",)),
    ("repro.amoeba.rpc", "RpcEndpoint", ("call",)),
    ("repro.amoeba.network", "BaseNetwork", ("send",)),
    ("repro.amoeba.broadcast.sequencer", "Sequencer", ("handle_pb_request", "handle_bb_data")),
    ("repro.sim.process", "SimProcess", ("hold", "suspend", "wake", "join")),
    ("repro.sim.events", "EventQueue", ("push", "pop_next")),
    ("repro.sim.kernel", "Simulator", ("run", "shutdown")),
    ("repro.gateway.tier", "GatewayTier", ("build", "note_completion", "note_shed")),
    ("repro.gateway.gateway", "FairQueue", ("push", "pop")),
    ("repro.gateway.gateway", "TokenBucket", ("try_take",)),
    ("repro.gateway.session", "ClientSession", ("advance", "release")),
    ("repro.metrics.latency", "LatencyRecorder", ("record",)),
    ("repro.net.harness", "RealCluster", ("start", "run_workload", "shutdown")),
)

#: ``module, function``: module-level functions called into a layer.
FUNCTIONS: Tuple[Tuple[str, str], ...] = (("repro.net.oracle", "check_convergence"),)

#: ``module, class, method, parameter``: where a callable crosses a boundary.
HANDOVERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.kernel", "Simulator", "spawn", "target"),
    ("repro.sim.kernel", "Simulator", "schedule", "callback"),
    ("repro.sim.kernel", "Simulator", "schedule_at", "callback"),
    ("repro.amoeba.broadcast.group", "BroadcastGroup", "set_delivery_handler", "handler"),
    ("repro.amoeba.rpc", "RpcEndpoint", "register_service", "handler"),
)

#: The span that is the root of one client request.
REQUEST_ROOT = "Scenario.perform"

# Fields of a frame on a thread's span stack.
_CHILD_CPU, _CHILDREN, _CPU_START, _SPAN_ID, _REQUEST, _KIND = range(6)


def layer_of(obj: Any) -> str:
    """The layer that owns ``obj``: the package under ``repro`` its module is in."""
    parts = (getattr(obj, "__module__", None) or "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _apply(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    return fn(*args, **kwargs)


class Tracer:
    """Per-thread span stacks with per-kind self-CPU totals."""

    def __init__(self, keep_spans: int = 0) -> None:
        self.keep_spans = keep_spans
        #: Span kind -> (name, layer).
        self.kinds: List[Tuple[str, str]] = []
        #: Span kind -> [calls, self CPU ns, child spans].
        self.totals: List[List[int]] = []
        #: Kept spans: (kind, thread, start ns, end ns, self CPU ns, id, parent id, request).
        self.spans: List[Tuple[int, int, int, int, int, int, int, int]] = []
        self.dropped_spans = 0
        self.requests = 0
        #: ``SimProcess.hold`` calls that gave up the CPU (the others only
        #: advance the clock).
        self.holds_that_yield = 0
        #: Process CPU between :meth:`install` and :meth:`uninstall`.
        self.cpu_ns = 0
        self._cpu_start = 0
        self._next_span = 0
        self._local = threading.local()
        self._kind_of_code: Dict[Any, int] = {}
        self._handed_apply: Dict[int, Callable[..., Any]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span kinds ------------------------------------------------------ #

    def kind(self, name: str, layer: str) -> int:
        self.kinds.append((name, layer))
        self.totals.append([0, 0, 0])
        return len(self.kinds) - 1

    def _kind_of_callable(self, fn: Callable[..., Any]) -> int:
        """One span kind per function handed across a boundary."""
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", None) or type(func)
        kind = self._kind_of_code.get(key)
        if kind is None:
            name = getattr(func, "__qualname__", None) or type(func).__name__
            kind = self._kind_of_code[key] = self.kind(name, layer_of(func))
        return kind

    # -- the span itself ------------------------------------------------- #

    def traced(self, fn: Callable[..., Any], kind: int) -> Callable[..., Any]:
        """``fn`` with a span of ``kind`` around every call."""
        local = self._local
        totals = self.totals[kind]
        spans = self.spans
        keep_spans = self.keep_spans
        request_root = self.kinds[kind][0] == REQUEST_ROOT

        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = self._next_span = self._next_span + 1
            if request_root:
                request = self.requests = self.requests + 1
            else:
                request = stack[-1][_REQUEST] if stack else 0
            frame = [0, 0, 0, span_id, request, kind]
            stack.append(frame)
            start = perf_counter_ns()
            frame[_CPU_START] = thread_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = thread_time_ns() - frame[_CPU_START]
                end = perf_counter_ns()
                stack.pop()
                self_cpu = cpu - frame[_CHILD_CPU]
                totals[0] += 1
                totals[1] += self_cpu
                totals[2] += frame[_CHILDREN]
                parent_id = 0
                if stack:
                    parent = stack[-1]
                    parent[_CHILD_CPU] += cpu
                    parent[_CHILDREN] += 1
                    parent_id = parent[_SPAN_ID]
                if len(spans) < keep_spans:
                    thread = threading.get_ident()
                    spans.append((kind, thread, start, end, self_cpu, span_id, parent_id, request))
                else:
                    self.dropped_spans += 1

        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- installation ---------------------------------------------------- #

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Replace the entry points; :meth:`uninstall` restores them."""
        for module_name, class_name, methods in ENTRY_POINTS:
            base = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                kind = self.kind(f"{class_name}.{method}", layer_of(base))
                for cls in _subclasses(base):
                    fn = cls.__dict__.get(method)
                    if inspect.isfunction(fn):
                        self._patch(cls, method, self.traced(fn, kind))
        for module_name, function in FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, function)
            self._patch(module, function, self.traced(fn, self.kind(function, layer_of(fn))))
        for module_name, class_name, method, parameter in HANDOVERS:
            cls = getattr(importlib.import_module(module_name), class_name)
            kind = self.kind(f"{class_name}.{method}", layer_of(cls))
            if method in ("schedule", "schedule_at"):
                wrapper = self._schedule_handover(cls.__dict__[method])
            else:
                wrapper = self._handover(cls.__dict__[method], parameter)
            self._patch(cls, method, self.traced(wrapper, kind))
        self._cpu_start = process_time_ns()

    def _schedule_handover(self, original: Callable[..., Any]) -> Callable[..., Any]:
        """The hot hand-over, one per event: no closure is built per call.

        The event's callback becomes the traced ``_apply`` of the callback's
        kind, and the callback itself rides along as its first argument.
        """
        hold_kind = next(i for i, (name, _) in enumerate(self.kinds) if name == "SimProcess.hold")
        handed_apply = self._handed_apply
        local = self._local

        def schedule(sim: Any, when: float, callback: Any, *args: Any, **kwargs: Any) -> Any:
            kind = self._kind_of_callable(callback)
            apply = handed_apply.get(kind)
            if apply is None:
                apply = handed_apply[kind] = self.traced(_apply, kind)
            # The stack ends [..., caller's span, this schedule span]; hold()
            # schedules (its own resume) only on the path that yields.
            stack = local.stack
            if len(stack) > 1 and stack[-2][_KIND] == hold_kind:
                self.holds_that_yield += 1
            return original(sim, when, apply, callback, *args, **kwargs)

        return schedule

    def _handover(self, original: Callable[..., Any], parameter: str) -> Callable[..., Any]:
        position = list(inspect.signature(original).parameters).index(parameter)

        def handover(*args: Any, **kwargs: Any) -> Any:
            if parameter in kwargs:
                fn = kwargs[parameter]
                kwargs[parameter] = self.traced(fn, self._kind_of_callable(fn))
            else:
                fn = args[position]
                wrapped = self.traced(fn, self._kind_of_callable(fn))
                args = args[:position] + (wrapped,) + args[position + 1 :]
            return original(*args, **kwargs)

        return handover

    def uninstall(self) -> None:
        self.cpu_ns = process_time_ns() - self._cpu_start
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------- #

    def calls(self, name: str) -> int:
        return sum(self.totals[i][0] for i, (n, _) in enumerate(self.kinds) if n == name)

    @property
    def total_spans(self) -> int:
        return sum(calls for calls, _self_ns, _children in self.totals)

    def attribute(
        self, span_cost: Tuple[float, float], untraced_cpu_ns: Optional[float] = None
    ) -> Tuple[Dict[str, float], float]:
        """Self CPU per layer (and ``"other"``) with the tracer's own cost taken out.

        ``span_cost`` is what one span costs in ns, ``(inside the span,
        inside its parent)`` as :func:`calibrate` splits it: each kind gives
        back what its own spans and its child spans cost it, but never more
        than it was charged.  Between thread switches a span costs a few
        times what it costs in a tight loop, so when ``untraced_cpu_ns`` (the
        CPU the same run used untraced) is given, the cost is scaled, within
        ``1..MAX_SPAN_COST_FACTOR``, until what the kinds keep plus the CPU
        under no span equals it.  Returns the per-layer ns and their total
        with the CPU under no span: the program's own CPU.
        """
        in_span, in_parent = span_cost
        charged = [self_ns for _calls, self_ns, _children in self.totals]
        costs = [calls * in_span + children * in_parent for calls, _, children in self.totals]
        under_no_span = max(0.0, self.cpu_ns - sum(charged))

        def kept(factor: float) -> float:
            return sum(max(0.0, c - factor * cost) for c, cost in zip(charged, costs))

        low, high = 1.0, MAX_SPAN_COST_FACTOR
        if untraced_cpu_ns is not None and kept(low) > untraced_cpu_ns - under_no_span:
            for _ in range(40):
                middle = (low + high) / 2.0
                if kept(middle) > untraced_cpu_ns - under_no_span:
                    low = middle
                else:
                    high = middle
            low = high
        layers = dict.fromkeys(LAYERS + ("other",), 0.0)
        for (_name, layer), c, cost in zip(self.kinds, charged, costs):
            layers[layer] += max(0.0, c - low * cost)
        return layers, under_no_span + sum(layers.values())

    def write_chrome_trace(self, path: str) -> None:
        """The kept spans as Chrome trace-event JSON (``chrome://tracing``)."""
        events = []
        for kind, thread, start, end, self_cpu, span_id, parent_id, request in self.spans:
            name, layer = self.kinds[kind]
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "pid": 1,
                    "tid": thread,
                    "ts": start / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "args": {
                        "span": span_id,
                        "parent": parent_id,
                        "request": request,
                        "self_cpu_us": self_cpu / 1000.0,
                    },
                }
            )
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped_spans},
        }
        with open(path, "w") as handle:
            json.dump(document, handle)


def calibrate(calls: int = 20_000) -> Tuple[float, float]:
    """The CPU one span costs, in ns: ``(inside the span, inside its parent)``.

    Measured on empty spans: what an empty child reports as self time is
    the part of the wrapper inside its own clock readings; what the parent
    is left with per child is the rest.
    """
    tracer = Tracer()
    child = tracer.traced(lambda: None, tracer.kind("child", "other"))

    def loop() -> None:
        for _ in range(calls):
            child()

    parent_kind = tracer.kind("parent", "other")
    tracer.traced(loop, parent_kind)()
    # The loop itself, untraced, is not the wrapper's cost.
    start = thread_time_ns()
    for _ in range(calls):
        _noop()
    bare = thread_time_ns() - start
    in_span = tracer.totals[0][1] / calls
    in_parent = max(0.0, (tracer.totals[parent_kind][1] - bare) / calls)
    return in_span, in_parent


def _noop() -> None:
    return None
