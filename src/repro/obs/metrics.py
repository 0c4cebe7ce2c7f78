"""The hierarchical metrics registry.

Every observable quantity in the simulation lives in one
:class:`MetricsRegistry` per :class:`~repro.runtime.Cluster`, keyed by a
dotted name (``node0.nic.mcache.hits``).  Components never see the whole
registry; they receive a :class:`MetricsScope` — a prefixed view — and
register *relative* names into it, so the same component code produces
``node0.nic.mcache.hits`` on node 0 and ``node7.nic.mcache.hits`` on
node 7 without knowing where it was mounted.

Three metric kinds:

* :class:`Counter` — a monotonically non-decreasing count (hits, packets,
  evictions).  Counters aggregate by *summing*.
* :class:`Gauge` — a point-in-time level (queue depth, occupancy) with a
  built-in high-water-mark helper (:meth:`Gauge.track_max`).  Gauges
  aggregate by *max*, which is the only merge that preserves a
  high-water-mark's meaning.
* :class:`Histogram` — a fixed-bucket distribution (latencies).  Buckets
  are upper bounds chosen at registration; histograms aggregate
  bucket-wise and refuse to merge across different bucket layouts.

Counters and gauges may be *function-sourced* (``fn=...``): the value is
pulled from the component's own attribute at read time, so instrumenting
existing code never duplicates bookkeeping on the hot path.

Components built once per node declare their metrics as a
:class:`MetricTemplate`, validated once at import, and register the
whole set under a node's scope in one :meth:`MetricsScope.register`
call.

The registry also supports *probes* — callbacks run before every
snapshot — for metric sets whose names are only known at run time (the
cluster-wide :class:`~repro.engine.Counters` bag is exported this way).

This module is dependency-free on purpose: ``repro.engine`` and every
layer above it may import it without cycles.
"""

from __future__ import annotations

import bisect
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Default fixed buckets for latency histograms, in nanoseconds.  The
#: range spans a single bus word (~hundreds of ns at Table 1 speeds) up
#: to multi-page DMA trains; the last implicit bucket is +inf.
DEFAULT_LATENCY_BUCKETS_NS: Tuple[float, ...] = (
    250.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0,
    16_000.0, 32_000.0, 64_000.0, 128_000.0, 256_000.0, 1_000_000.0,
)


class MetricError(ValueError):
    """Registration or aggregation misuse of the metrics registry."""


def _check_name(name: str) -> None:
    if not name or name.startswith(".") or name.endswith("."):
        raise MetricError(f"bad metric name {name!r}")


def _check_bounds(name: str, buckets: Sequence[float]) -> Tuple[float, ...]:
    bounds = tuple(float(b) for b in buckets)
    if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise MetricError(
            f"histogram {name!r} buckets must be strictly increasing")
    return bounds


_DEFAULT_BOUNDS = _check_bounds("default", DEFAULT_LATENCY_BUCKETS_NS)


class Counter:
    """A monotonically non-decreasing count.

    Either *stored* (incremented via :meth:`inc`) or *function-sourced*
    (``fn`` pulls the value from existing component state; :meth:`inc`
    is then an error — there is exactly one writer per metric).
    """

    __slots__ = ("name", "_value", "_fn")
    kind = "counter"

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._value = 0
        self._fn = fn

    @property
    def value(self) -> float:
        """Current count."""
        return self._fn() if self._fn is not None else self._value

    def inc(self, by: float = 1) -> None:
        """Add ``by`` (>= 0) to a stored counter.

        The common case — a stored counter bumped by a non-negative
        amount from instrumentation on the simulator's hot path — takes
        the first branch and returns; the error checks only run on the
        way to raising.
        """
        if self._fn is None and by >= 0:
            self._value += by
            return
        if self._fn is not None:
            raise MetricError(f"counter {self.name!r} is function-sourced")
        raise MetricError(f"counter {self.name!r} decremented by {by}")

    def merge_from(self, other: "Counter") -> None:
        """Aggregate: counters sum."""
        if self._fn is not None:
            raise MetricError(f"cannot merge into function-sourced {self.name!r}")
        self._value += other.value


class Gauge:
    """A point-in-time level; aggregates by max (high-water semantics)."""

    __slots__ = ("name", "_value", "_fn")
    kind = "gauge"

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._value = 0.0
        self._fn = fn

    @property
    def value(self) -> float:
        """Current level."""
        return self._fn() if self._fn is not None else self._value

    def set(self, value: float) -> None:
        """Overwrite the level of a stored gauge."""
        if self._fn is not None:
            raise MetricError(f"gauge {self.name!r} is function-sourced")
        self._value = value

    def track_max(self, value: float) -> None:
        """High-water-mark update: keep the max of all observed levels."""
        if self._fn is not None:
            raise MetricError(f"gauge {self.name!r} is function-sourced")
        if value > self._value:
            self._value = value

    def merge_from(self, other: "Gauge") -> None:
        """Aggregate: gauges max (preserves high-water marks)."""
        if self._fn is not None:
            raise MetricError(f"cannot merge into function-sourced {self.name!r}")
        self._value = max(self._value, other.value)


class Histogram:
    """A fixed-bucket distribution (latency histograms).

    ``buckets`` are strictly increasing upper bounds; an observation
    lands in the first bucket whose bound is >= the value, or in the
    implicit +inf overflow bucket.  Tracks count and sum so means are
    recoverable without the raw stream.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum")
    kind = "histogram"

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_NS):
        if buckets is DEFAULT_LATENCY_BUCKETS_NS:
            bounds = _DEFAULT_BOUNDS
        else:
            bounds = _check_bounds(name, buckets)
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # + overflow bucket
        self.count = 0
        self.sum = 0.0

    @property
    def value(self) -> Dict[str, Any]:
        """Snapshot form: count, sum and per-bucket counts."""
        buckets = {f"{b:g}": c for b, c in zip(self.bounds, self.counts)}
        buckets["+inf"] = self.counts[-1]
        return {"count": self.count, "sum": self.sum, "buckets": buckets}

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding
        the ``q``-th observation (the last finite bound for overflow)."""
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for bound, c in zip(self.bounds, self.counts):
            seen += c
            if seen >= rank:
                return bound
        return self.bounds[-1]

    def merge_from(self, other: "Histogram") -> None:
        """Aggregate bucket-wise; bucket layouts must match."""
        if other.bounds != self.bounds:
            raise MetricError(
                f"histogram {self.name!r}: incompatible bucket layouts")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum


Metric = Any  # Counter | Gauge | Histogram (kept loose for 3.8 compat)


def _join(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


class MetricTemplate:
    """A fixed list of metric declarations, validated once and
    registered in bulk under any number of scopes.

    Each entry is ``(kind, name, reader)``: ``kind`` is ``"counter"``,
    ``"gauge"`` or ``"histogram"``; ``name`` is relative to the scope.
    A ``reader`` makes a counter or gauge function-sourced: an attribute
    name read from the source object at snapshot time, or a callable
    applied to the source.  ``None`` declares a stored metric the
    component writes itself.  Histograms are stored, on the default
    latency buckets.
    """

    __slots__ = ("entries",)

    def __init__(self, *entries: Tuple[str, str, Any]):
        classes = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
        seen = set()
        plan = []
        for kind, name, reader in entries:
            if kind not in classes:
                raise MetricError(f"{name!r}: unknown metric kind {kind!r}")
            _check_name(name)
            if name in seen:
                raise MetricError(f"{name!r} declared twice")
            if kind == "histogram" and reader is not None:
                raise MetricError(f"histogram {name!r} cannot have a reader")
            seen.add(name)
            plan.append((name, classes[kind], reader, isinstance(reader, str)))
        #: ``(name, metric class, reader, reader is an attribute name)``
        self.entries = tuple(plan)


class MetricsRegistry:
    """The per-cluster store of every metric, keyed by dotted name."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._probes: List[Callable[["MetricsRegistry"], None]] = []

    # -- registration (get-or-create) ------------------------------------------
    def _get_or_create(self, name: str, factory, kind: str) -> Metric:
        _check_name(name)
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
            return metric
        if metric.kind != kind:
            raise MetricError(
                f"{name!r} already registered as a {metric.kind}, not a {kind}")
        return metric

    def counter(self, name: str,
                fn: Optional[Callable[[], float]] = None) -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, lambda: Counter(name, fn), "counter")

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, lambda: Gauge(name, fn), "gauge")

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_NS
                  ) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(name, lambda: Histogram(name, buckets),
                                   "histogram")

    def register(self, template: MetricTemplate, prefix: str = "",
                 source: Any = None) -> Dict[str, Metric]:
        """Get or create every metric of ``template`` under ``prefix``,
        with readers bound to ``source``; returns ``{relative name:
        metric}``.  The names were validated when the template was
        built, so this does no per-name checking beyond kind conflicts
        with metrics already registered."""
        metrics = self._metrics
        out: Dict[str, Metric] = {}
        if prefix:
            _check_name(prefix)
        dotted = f"{prefix}." if prefix else ""
        for name, cls, reader, by_attr in template.entries:
            full = dotted + name
            metric = metrics.get(full)
            if metric is None:
                if reader is None:
                    metric = cls(full)
                elif by_attr:
                    metric = cls(full, partial(getattr, source, reader))
                else:
                    metric = cls(full, partial(reader, source))
                metrics[full] = metric
            elif metric.kind != cls.kind:
                raise MetricError(f"{full!r} already registered as a "
                                  f"{metric.kind}, not a {cls.kind}")
            out[name] = metric
        return out

    def scope(self, prefix: str) -> "MetricsScope":
        """A view of this registry under ``prefix`` (may be empty)."""
        return MetricsScope(self, prefix)

    def add_probe(self, probe: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run before every :meth:`snapshot`; probes
        late-register metrics whose names are only known at run time."""
        self._probes.append(probe)

    # -- access -----------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def kinds(self) -> Dict[str, str]:
        """``{dotted name: kind}`` for every registered metric (probes
        run first, so late-registered metrics are included).  Stored next
        to a snapshot, this is what lets
        :func:`registry_from_snapshot` rebuild a mergeable registry long
        after the live one is gone — e.g. in the parallel sweep executor,
        where worker processes ship snapshots back to the parent."""
        for probe in self._probes:
            probe(self)
        return {name: m.kind for name, m in self._metrics.items()}

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self, prefix: str = "") -> List[str]:
        """Sorted registered names, optionally under a dotted prefix."""
        if not prefix:
            return sorted(self._metrics)
        dotted = prefix + "."
        return sorted(n for n in self._metrics
                      if n == prefix or n.startswith(dotted))

    # -- export -----------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Flat ``{dotted name: value}`` snapshot (probes run first).

        Counter/gauge values are numbers; histogram values are
        ``{"count", "sum", "buckets"}`` dicts.  The result is plain data,
        safe to mutate and to ``json.dumps``.
        """
        for probe in self._probes:
            probe(self)
        return {name: self._metrics[name].value
                for name in sorted(self._metrics)}

    def as_tree(self) -> Dict[str, Any]:
        """The snapshot nested by dotted-name segment (for display)."""
        tree: Dict[str, Any] = {}
        for name, value in self.snapshot().items():
            node = tree
            parts = name.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value
        return tree

    # -- aggregation -------------------------------------------------------------
    def merge(self, other: "MetricsRegistry", prefix: str = "") -> None:
        """Fold ``other`` into this registry, optionally under ``prefix``.

        This is the dotted-hierarchy merge used to aggregate per-node
        registries into a cluster view, or per-run registries into a
        sweep total: counters sum, gauges max, histograms add bucket-wise.
        Kind conflicts raise :class:`MetricError`.
        """
        for name, metric in other._metrics.items():
            full = _join(prefix, name)
            if metric.kind == "counter":
                self.counter(full).merge_from(metric)
            elif metric.kind == "gauge":
                self.gauge(full).merge_from(metric)
            else:
                self.histogram(full, metric.bounds).merge_from(metric)


class MetricsScope:
    """A prefixed view of a :class:`MetricsRegistry`.

    Components receive a scope and register relative names; nesting
    scopes concatenates prefixes with dots.  A scope constructed with an
    empty prefix is a transparent passthrough, which is what a component
    gets when instantiated standalone (tests, examples) — it then owns a
    private registry and its metrics are simply unprefixed.
    """

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str = ""):
        if prefix.startswith(".") or prefix.endswith("."):
            raise MetricError(f"bad scope prefix {prefix!r}")
        self.registry = registry
        self.prefix = prefix

    def counter(self, name: str,
                fn: Optional[Callable[[], float]] = None) -> Counter:
        """Get or create ``<prefix>.<name>`` as a counter."""
        return self.registry.counter(_join(self.prefix, name), fn)

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        """Get or create ``<prefix>.<name>`` as a gauge."""
        return self.registry.gauge(_join(self.prefix, name), fn)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_NS
                  ) -> Histogram:
        """Get or create ``<prefix>.<name>`` as a histogram."""
        return self.registry.histogram(_join(self.prefix, name), buckets)

    def register(self, template: MetricTemplate,
                 source: Any = None) -> Dict[str, Metric]:
        """Register ``template`` under this scope in one call (see
        :meth:`MetricsRegistry.register`)."""
        return self.registry.register(template, self.prefix, source)

    def scope(self, sub: str) -> "MetricsScope":
        """A nested scope: ``<prefix>.<sub>``."""
        return MetricsScope(self.registry, _join(self.prefix, sub))


def private_scope() -> MetricsScope:
    """A scope over a fresh private registry — the default a component
    falls back to when no cluster registry was threaded through, so
    instrumentation code never branches on "is observability on"."""
    return MetricsRegistry().scope("")


def registry_from_snapshot(snapshot: Dict[str, Any],
                           kinds: Dict[str, str]) -> MetricsRegistry:
    """Rebuild a *stored-value* registry from a flat snapshot.

    ``snapshot`` is what :meth:`MetricsRegistry.snapshot` returned;
    ``kinds`` is the matching :meth:`MetricsRegistry.kinds` map (a name
    missing from it defaults to ``counter``).  Function-sourced metrics
    come back as plain stored values frozen at snapshot time, which is
    exactly what cross-process aggregation needs: the rebuilt registry
    feeds :meth:`MetricsRegistry.merge`, so per-run trees from pool
    workers fold into one sweep-wide tree with the normal semantics
    (counters sum, gauges max, histograms add bucket-wise).
    """
    registry = MetricsRegistry()
    for name, value in snapshot.items():
        kind = kinds.get(name, "counter")
        if kind == "histogram":
            if not isinstance(value, dict):
                raise MetricError(
                    f"{name!r}: histogram snapshot value must be a dict")
            buckets = value.get("buckets", {})
            bounds = tuple(sorted(float(b) for b in buckets if b != "+inf"))
            hist = registry.histogram(name, bounds)
            for i, b in enumerate(hist.bounds):
                hist.counts[i] = int(buckets.get(f"{b:g}", 0))
            hist.counts[-1] = int(buckets.get("+inf", 0))
            hist.count = int(value.get("count", 0))
            hist.sum = float(value.get("sum", 0.0))
        elif kind == "gauge":
            registry.gauge(name).set(float(value))
        else:
            counter = registry.counter(name)
            counter._value = float(value)
    return registry
