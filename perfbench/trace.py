"""Span recording around the public entry points of each ``repro`` layer.

The benchmark measures every layer from the outside: before any
``Cluster`` is built, :func:`install` replaces each entry point listed in
:data:`ENTRY_POINTS` with a wrapper that opens a span on entry and closes
it on exit.  Wrapping happens on the class (and on every subclass that
overrides the method) or on every loaded ``repro`` module that holds the
function, so bound methods cached at construction time and names
re-exported by package ``__init__`` files are wrapped too.

A span carries a name, a start, an end and its parent span.  Self time
is the span's duration minus the part covered by its child spans; it is
accumulated per span name as spans close, so the per-layer totals are
exact even when the raw span list is capped.  Wall time under no span at
all is reported as ``untraced``, which makes the layer self times plus
``untraced`` add up to the traced wall time.

Generator functions (``DsmEngine.fault``, ``handle_packet``, the NIC and
network process bodies, the application kernels) run inside the event
kernel's dispatch, one resume at a time.  A span around the factory call
would measure nothing, so they are timed *per resume*: the wrapper
returns a proxy generator that opens a span around each ``send``/
``throw`` into the real generator.  Time between resumes belongs to
whoever resumes it (normally ``engine``).

Hot helpers below the entry points (``Counter.inc``,
``EventQueue.push``, ``Simulator.schedule``) are not wrapped; their time
lands in the self time of the calling span's layer.

Pool workers are forked from the benchmark process after installation,
so they inherit the wrappers.  A worker resets its recorder on its first
``execute_run`` and, after each run, writes its per-name totals since
its last write to a new file in :attr:`Recorder.worker_dir`; the parent
folds those files in with :meth:`Recorder.collect_workers`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The ``repro`` subpackages, i.e. the layers every per-layer metric names.
LAYERS: Tuple[str, ...] = (
    "engine", "memory", "dsm", "core", "network", "collectives",
    "runtime", "obs", "faults", "apps", "harness", "service",
)

#: Layers whose self time inside ``Cluster.__init__`` is reported as
#: ``setup.<layer>.self_s``.
SETUP_LAYERS: Tuple[str, ...] = ("runtime", "obs", "dsm", "core", "network")

#: ``(module, qualified name)`` of every wrapped entry point.  A name
#: that no longer exists is skipped and reported by :func:`install`.
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    # engine: the event loop itself
    ("repro.engine.simulator", "Simulator.run"),
    # memory
    ("repro.memory.cache", "CacheHierarchy.__init__"),
    ("repro.memory.cache", "CacheHierarchy.access"),
    ("repro.memory.bus", "MemoryBus.dma"),
    ("repro.memory.bus", "MemoryBus.cpu_write_traffic"),
    ("repro.memory.mmu", "HostMMU.map_page"),
    ("repro.memory.mmu", "BoardTLB.rtlb_p2v_many"),
    # dsm
    ("repro.dsm.protocol", "DsmEngine.__init__"),
    ("repro.dsm.protocol", "DsmEngine.init_page_homes"),
    ("repro.dsm.protocol", "DsmEngine.fault"),
    ("repro.dsm.protocol", "DsmEngine.acquire"),
    ("repro.dsm.protocol", "DsmEngine.release"),
    ("repro.dsm.protocol", "DsmEngine.barrier"),
    ("repro.dsm.protocol", "DsmEngine.end_interval"),
    ("repro.dsm.protocol", "DsmEngine.handle_packet"),
    ("repro.dsm.page", "NodePageTable.__init__"),
    ("repro.dsm.page", "NodePageTable.apply_notice"),
    ("repro.dsm.page", "NodePageTable.apply_diffs"),
    ("repro.dsm.interval", "IntervalLog.__init__"),
    ("repro.dsm.interval", "IntervalLog.record"),
    ("repro.dsm.directory", "HomePolicy.page_homes"),
    # core: the NIC units
    ("repro.core.nic_base", "NetworkInterface.__init__"),
    ("repro.core.nic_base", "NetworkInterface.host_send"),
    ("repro.core.nic_base", "NetworkInterface.board_send"),
    ("repro.core.nic_base", "NetworkInterface._transmit_loop"),
    ("repro.core.nic_base", "NetworkInterface._receive_loop"),
    ("repro.core.message_cache", "MessageCache.__init__"),
    ("repro.core.message_cache", "MessageCache.lookup_transmit"),
    ("repro.core.message_cache", "MessageCache.insert"),
    ("repro.core.message_cache", "MessageCache.snoop"),
    ("repro.core.pathfinder", "Pathfinder.__init__"),
    ("repro.core.pathfinder", "Pathfinder.install"),
    ("repro.core.pathfinder", "Pathfinder.classify"),
    ("repro.core.aih", "HandlerRegistry.install"),
    ("repro.core.aih", "HandlerRegistry.dispatch"),
    ("repro.core.adc", "ChannelManager.open_channel"),
    ("repro.core.adc", "DeviceChannel.post_transmit"),
    ("repro.core.adc", "DeviceChannel.poll_receive"),
    ("repro.core.reliability", "ReliableTransport.__init__"),
    ("repro.core.reliability", "ReliableTransport.on_transmit"),
    ("repro.core.reliability", "ReliableTransport.on_receive"),
    # network: SAR and the fabric walk
    ("repro.network.topology", "Network.__init__"),
    ("repro.network.topology", "Network.send_train"),
    ("repro.network.topology", "Network.send_cells"),
    ("repro.network.topology", "Network._transfer"),
    ("repro.network.topology", "Network._transfer_cells"),
    ("repro.network.fabrics", "Topology.__init__"),
    ("repro.network.fabrics", "Topology.transit"),
    ("repro.network.fragmentation", "Segmenter.make_train"),
    ("repro.network.fragmentation", "Reassembler.accept_train"),
    ("repro.network.spec", "parse_topology"),
    # collectives
    ("repro.collectives.engine", "make_collective_engine"),
    ("repro.collectives.engine", "CollectiveEngine.barrier"),
    ("repro.collectives.engine", "CollectiveEngine.allreduce"),
    ("repro.collectives.engine", "CollectiveEngine.reduce"),
    ("repro.collectives.engine", "CollectiveEngine.broadcast"),
    ("repro.collectives.engine", "CollectiveEngine.multicast"),
    ("repro.collectives.engine", "CollectiveEngine.handle_packet"),
    ("repro.collectives.bench", "run_collective_bench"),
    ("repro.collectives.bench", "collective_kernel"),
    # runtime
    ("repro.runtime.cluster", "Cluster.__init__"),
    ("repro.runtime.cluster", "Cluster.run"),
    ("repro.runtime.node", "Node.__init__"),
    ("repro.runtime.context", "Context.compute"),
    ("repro.runtime.context", "Context.access_runs"),
    ("repro.runtime.context", "Context.barrier"),
    ("repro.runtime.context", "Context.allreduce"),
    ("repro.runtime.context", "Context.send"),
    ("repro.runtime.context", "Context.recv"),
    ("repro.runtime.messaging", "MessagingService.send"),
    ("repro.runtime.messaging", "MessagingService.recv"),
    ("repro.runtime.messaging", "MessagingService.remote_read"),
    ("repro.runtime.messaging", "MessagingService.remote_write"),
    ("repro.runtime.protocol", "MessagingEngine.handle_packet"),
    # obs
    ("repro.obs.metrics", "MetricsRegistry.counter"),
    ("repro.obs.metrics", "MetricsRegistry.gauge"),
    ("repro.obs.metrics", "MetricsRegistry.histogram"),
    ("repro.obs.metrics", "MetricsRegistry.snapshot"),
    ("repro.obs.metrics", "MetricsScope.counter"),
    ("repro.obs.metrics", "MetricsScope.gauge"),
    ("repro.obs.metrics", "MetricsScope.histogram"),
    ("repro.obs.metrics", "registry_from_snapshot"),
    ("repro.obs.spans", "SpanTracer.begin"),
    ("repro.obs.spans", "SpanTracer.end"),
    # faults
    ("repro.faults.plan", "parse_fault_plan"),
    ("repro.faults.plan", "FaultPlan.activate"),
    ("repro.faults.plan", "ActiveFaultPlan.train_faults"),
    ("repro.faults.plan", "ActiveFaultPlan.cell_fate"),
    # apps
    ("repro.apps.registry", "run"),
    ("repro.apps.jacobi", "jacobi_kernel"),
    ("repro.apps.water", "water_kernel"),
    ("repro.apps.cholesky", "cholesky_kernel"),
    ("repro.apps.pingpong", "pingpong_kernel"),
    ("repro.apps.halo", "halo_kernel"),
    ("repro.apps.transpose", "transpose_kernel"),
    # harness
    ("repro.harness.parallel", "run_map"),
    ("repro.harness.parallel", "execute_run"),
    ("repro.harness.parallel", "shutdown_pool"),
    ("repro.harness.parallel", "RunSpec.digest"),
    ("repro.harness.parallel", "RunSpec.to_json"),
    ("repro.harness.parallel", "RunSpec.from_json"),
    ("repro.harness.serde", "encode_params"),
    ("repro.harness.serde", "decode_params"),
    ("repro.harness.serde", "encode_workload"),
    ("repro.harness.serde", "decode_workload"),
    # service
    ("repro.service.farm", "RunFarm.__init__"),
    ("repro.service.farm", "RunFarm.submit"),
    ("repro.service.farm", "RunFarm.step"),
    ("repro.service.farm", "RunFarm.result"),
    ("repro.service.farm", "RunFarm.close"),
    ("repro.service.store", "RunStore.__init__"),
    ("repro.service.store", "RunStore.get"),
    ("repro.service.store", "RunStore.put"),
)

#: Entry points wrapped with tracing off: enough to time cluster set-up
#: in this process and in pool workers.
SETUP_ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("repro.runtime.cluster", "Cluster.__init__"),
    ("repro.harness.parallel", "execute_run"),
)

_CLUSTER_INIT = "runtime.Cluster.__init__"
_EXECUTE_RUN = "harness.execute_run"


class Recorder:
    """In-memory span store with exact per-name self-time totals.

    ``keep`` bounds the raw spans held for the trace file; totals are
    accumulated for every span regardless.
    """

    def __init__(self, keep: int = 100_000) -> None:
        self.keep = keep
        #: Where pool workers write their totals (None: they do not).
        self.worker_dir: Optional[str] = None
        self.names: List[str] = []
        self.layer_of: List[int] = []
        self.main_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Zero every total and drop the kept spans (names stay)."""
        self.pid = os.getpid()
        n = len(self.names)
        self.calls = [0] * n
        self.incl_s = [0.0] * n
        self.self_s = [0.0] * n
        self.setup_self_s = [0.0] * len(LAYERS)
        self.top_s = 0.0
        self.cluster_init_s = 0.0
        self.spans_total = 0
        self._stack: List[list] = []
        self._setup_depth = 0
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.workers = self._empty_worker_totals()
        self._flushes = getattr(self, "_flushes", 0)

    def register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self.calls.append(0)
        self.incl_s.append(0.0)
        self.self_s.append(0.0)
        self.workers["self_s"].append(0.0)
        self.workers["calls"].append(0)
        return len(self.names) - 1

    # -- the span boundary ------------------------------------------------

    def enter(self, nid: int) -> None:
        stack = self._stack
        idx = len(self.sp_name)
        if idx < self.keep:
            self.sp_name.append(nid)
            self.sp_parent.append(stack[-1][3] if stack else -1)
            self.sp_end.append(0.0)
            start = perf_counter()
            self.sp_start.append(start)
        else:
            idx = -1
            start = perf_counter()
        stack.append([nid, start, 0.0, idx])

    def leave(self) -> None:
        end = perf_counter()
        stack = self._stack
        nid, start, child, idx = stack.pop()
        dur = end - start
        own = dur - child
        self.calls[nid] += 1
        self.incl_s[nid] += dur
        self.self_s[nid] += own
        if self._setup_depth:
            self.setup_self_s[self.layer_of[nid]] += own
        if stack:
            stack[-1][2] += dur
        else:
            self.top_s += dur
        if idx >= 0:
            self.sp_end[idx] = end
        self.spans_total += 1

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        nid = self.register(name, layer)
        enter, leave = self.enter, self.leave
        if name == _CLUSTER_INIT:
            return self._wrap_cluster_init(nid, fn)
        if name == _EXECUTE_RUN:
            return self._wrap_execute_run(nid, fn)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _per_resume(enter, leave, nid, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        return wrapper

    def _wrap_cluster_init(self, nid: int, fn: Callable) -> Callable:
        rec = self

        @functools.wraps(fn)
        def cluster_init(*args, **kwargs):
            rec._setup_depth += 1
            t0 = perf_counter()
            rec.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.leave()
                rec._setup_depth -= 1
                rec.cluster_init_s += perf_counter() - t0
        return cluster_init

    def _wrap_execute_run(self, nid: int, fn: Callable) -> Callable:
        rec = self

        @functools.wraps(fn)
        def execute_run(*args, **kwargs):
            if os.getpid() != rec.pid:  # first run in a fresh worker
                rec.reset()
            rec.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.leave()
                if rec.worker_dir is not None and rec.pid != rec.main_pid:
                    rec._flush_worker()
        return execute_run

    # -- cross-process totals ----------------------------------------------

    def _flush_worker(self) -> None:
        """Write this worker's totals since its last flush, then zero
        them."""
        doc = {
            "self_s": self.self_s, "calls": self.calls,
            "setup_self_s": self.setup_self_s,
            "cluster_init_s": self.cluster_init_s,
        }
        self._flushes += 1
        path = os.path.join(self.worker_dir,
                            f"w{self.pid}-{self._flushes}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(doc, fh)
        os.replace(path + ".tmp", path)
        self.reset()

    def _empty_worker_totals(self) -> Dict[str, Any]:
        n = len(self.names)
        return {"self_s": [0.0] * n, "calls": [0] * n,
                "setup_self_s": [0.0] * len(LAYERS),
                "cluster_init_s": 0.0}

    def collect_workers(self) -> Dict[str, Any]:
        """Fold in and delete the totals the workers wrote since the
        last call, adding them to :attr:`workers`; returns just the new
        part.  A worker writes before it returns a run's result, so
        every run whose result is in has been written."""
        new = self._empty_worker_totals()
        if self.worker_dir is None or not os.path.isdir(self.worker_dir):
            return new
        for entry in sorted(os.listdir(self.worker_dir)):
            if not (entry.startswith("w") and entry.endswith(".json")):
                continue
            path = os.path.join(self.worker_dir, entry)
            with open(path) as fh:
                doc = json.load(fh)
            os.remove(path)
            for key in ("self_s", "calls", "setup_self_s"):
                for i, v in enumerate(doc[key]):
                    new[key][i] += v
                    self.workers[key][i] += v
            new["cluster_init_s"] += doc["cluster_init_s"]
            self.workers["cluster_init_s"] += doc["cluster_init_s"]
        return new

    # -- reporting ----------------------------------------------------------

    def layer_totals(self, per_name: Sequence[float]) -> Dict[str, float]:
        totals = {layer: 0 for layer in LAYERS}
        for nid, v in enumerate(per_name):
            totals[LAYERS[self.layer_of[nid]]] += v
        return totals

    def write(self, path: str, wall_s: float,
              workers: Optional[Dict[str, Any]] = None) -> None:
        """Write the kept spans and the per-name totals as JSON."""
        doc = {
            "wall_s": wall_s,
            "untraced_s": wall_s - self.top_s,
            "spans_total": self.spans_total,
            "spans_kept": len(self.sp_name),
            "names": self.names,
            "layers": [LAYERS[i] for i in self.layer_of],
            "per_name": {
                name: {"calls": self.calls[i], "incl_s": self.incl_s[i],
                       "self_s": self.self_s[i]}
                for i, name in enumerate(self.names) if self.calls[i]
            },
            "worker_self_s": ({name: workers["self_s"][i]
                               for i, name in enumerate(self.names)
                               if workers["calls"][i]}
                              if workers else {}),
            # one span per entry: [name id, start s, end s, parent index]
            "spans": [[self.sp_name[i], round(self.sp_start[i], 9),
                       round(self.sp_end[i], 9), self.sp_parent[i]]
                      for i in range(len(self.sp_name))],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _per_resume(enter: Callable, leave: Callable, nid: int, gen) -> Any:
    """Drive ``gen`` exactly as ``yield from`` would, with one span
    around each resume."""
    value: Any = None
    exc: Optional[BaseException] = None
    while True:
        enter(nid)
        try:
            item = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            leave()
            return stop.value
        except BaseException:
            leave()
            raise
        leave()
        try:
            value, exc = (yield item), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:
            value, exc = None, thrown


def _import_all_repro() -> None:
    """Import every ``repro`` module so re-exported names exist before
    wrapping (a module imported later would bind the wrapper anyway)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _replace_function(wrapped: Callable, original: Callable) -> None:
    """Rebind every ``repro`` module attribute that is ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or name.partition(".")[0] != "repro":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _wrap_method(rec: Recorder, cls: type, method: str, name: str,
                 layer: str) -> None:
    """Wrap ``method`` on ``cls`` and on every subclass overriding it."""
    todo = [cls]
    seen = set()
    while todo:
        klass = todo.pop()
        if klass in seen:
            continue
        seen.add(klass)
        todo.extend(klass.__subclasses__())
        raw = klass.__dict__.get(method)
        if raw is None:
            continue
        label = name if klass is cls else f"{layer}.{klass.__name__}.{method}"
        if isinstance(raw, classmethod):
            setattr(klass, method, classmethod(rec.wrap(label, layer,
                                                        raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(klass, method, staticmethod(rec.wrap(label, layer,
                                                         raw.__func__)))
        elif callable(raw):
            setattr(klass, method, rec.wrap(label, layer, raw))


def install(rec: Recorder,
            points: Sequence[Tuple[str, str]]) -> List[str]:
    """Wrap ``points`` (entries of :data:`ENTRY_POINTS`); returns the
    ones that no longer exist.  Install each point at most once."""
    _import_all_repro()
    missing = []
    for module_name, qualname in points:
        layer = module_name.split(".")[1]
        module = sys.modules.get(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{qualname}")
            continue
        name = f"{layer}.{qualname}"
        if owner_name:
            _wrap_method(rec, owner, attr, name, layer)
        else:
            original = getattr(module, attr)
            _replace_function(rec.wrap(name, layer, original), original)
    return missing
