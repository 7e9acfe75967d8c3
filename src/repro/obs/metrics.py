"""The metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` instance (the module-level
:data:`REGISTRY` by default) is the sink every layer reports into.
Its counter dict is one process-global table, mutated lock-free (the
scheduler is single-threaded per process) and written through
``repro.profiling``, which aliases it: sweep workers and forked service
jobs reset their inherited copy and send a snapshot back for the
parent to merge.  Gauges and histograms are lock-protected: the service
observes job latencies from several engine threads at once.

Histograms use fixed bucket edges chosen at first observation (or
passed explicitly), so snapshots from worker processes merge by plain
bucket-count addition and the Prometheus rendering is exact.
Percentiles are estimated by linear interpolation inside the owning
bucket -- the standard Prometheus ``histogram_quantile`` estimate.

Naming scheme: dotted lowercase phases (``pass.count``,
``service.job_seconds``).  :meth:`MetricsRegistry.render_prometheus`
maps dots to underscores, the only transform Prometheus needs.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: default edges for latency-in-seconds histograms: micro-jobs through
#: multi-minute sweeps.  The terminal +Inf bucket is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """A metric name in Prometheus' charset (dots -> underscores)."""
    return _NAME_RE.sub("_", name)


def _fmt(value: float) -> str:
    """A float rendered the way Prometheus text format expects."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Histogram:
    """Fixed-edge bucket counts + running sum/count for one metric."""

    __slots__ = ("edges", "bucket_counts", "total", "count")

    def __init__(self, edges: Sequence[float]) -> None:
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        if list(self.edges) != sorted(set(self.edges)):
            raise ValueError(f"bucket edges not sorted/unique: {edges}")
        # one count per edge plus the +Inf overflow bucket
        self.bucket_counts: List[int] = [0] * (len(self.edges) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = len(self.edges)
        for i, edge in enumerate(self.edges):
            if value <= edge:
                idx = i
                break
        self.bucket_counts[idx] += 1
        self.total += value
        self.count += 1

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100), interpolated within its bucket.

        Mirrors Prometheus' ``histogram_quantile``: the overflow bucket
        reports its lower edge (the largest finite edge) since its
        width is unbounded.  Returns 0.0 on an empty histogram.
        """
        if self.count == 0:
            return 0.0
        rank = max(1.0, q / 100.0 * self.count)
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if seen + n >= rank:
                if i >= len(self.edges):  # overflow bucket
                    return self.edges[-1] if self.edges else 0.0
                lo = self.edges[i - 1] if i > 0 else 0.0
                hi = self.edges[i]
                return lo + (hi - lo) * ((rank - seen) / n)
            seen += n
        return self.edges[-1] if self.edges else 0.0

    def summary(self) -> Dict[str, float]:
        """count/sum/mean plus the p50/p90/p99 estimates."""
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "sum": self.total,
            "mean": mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Counters, gauges and histograms behind one snapshot/merge API."""

    def __init__(self) -> None:
        #: the live counter table.  Public and lock-free on purpose:
        #: ``repro.profiling.counters`` aliases this very dict, and the
        #: scheduler's hot loops bump it directly (single-threaded per
        #: process, exactly the old profiling contract).
        self.counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}
        self._lock = threading.Lock()

    # -- counters ------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Increment one counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    # -- gauges --------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        """Set one gauge to its latest value."""
        with self._lock:
            self._gauges[name] = float(value)

    def gauges(self) -> Dict[str, float]:
        """A copy of the gauge table."""
        with self._lock:
            return dict(self._gauges)

    # -- histograms ----------------------------------------------------
    def observe(self, name: str, value: float,
                buckets: Optional[Sequence[float]] = None) -> None:
        """Record one observation into ``name``'s histogram.

        ``buckets`` fixes the edges on first use (defaults to
        :data:`DEFAULT_LATENCY_BUCKETS`); later calls ignore it, so
        every observer of one metric shares one set of edges.
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = _Histogram(buckets if buckets is not None
                                  else DEFAULT_LATENCY_BUCKETS)
                self._histograms[name] = hist
            hist.observe(value)

    def percentile(self, name: str, q: float) -> float:
        """The q-th percentile of one histogram (0.0 if absent)."""
        with self._lock:
            hist = self._histograms.get(name)
            return hist.percentile(q) if hist is not None else 0.0

    def histogram_summaries(self) -> Dict[str, Dict[str, float]]:
        """name -> count/sum/mean/p50/p90/p99 for every histogram."""
        with self._lock:
            return {name: h.summary()
                    for name, h in sorted(self._histograms.items())}

    # -- snapshot / merge ---------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly copy of everything (mergeable elsewhere)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "edges": list(h.edges),
                        "bucket_counts": list(h.bucket_counts),
                        "sum": h.total,
                        "count": h.count,
                    }
                    for name, h in self._histograms.items()
                },
            }

    def merge(self, snap: Dict[str, object]) -> None:
        """Fold a worker registry's snapshot into this one.

        Counters and histogram buckets add; gauges take the incoming
        value (latest writer wins -- they are point-in-time readings).
        Histograms merge only when their edges agree, which they always
        do in practice since workers inherit the parent's bucket
        choices; a mismatch drops the incoming data rather than
        corrupting the buckets.
        """
        for name, n in (snap.get("counters") or {}).items():
            self.counters[name] = self.counters.get(name, 0) + n
        with self._lock:
            for name, value in (snap.get("gauges") or {}).items():
                self._gauges[name] = float(value)
            for name, data in (snap.get("histograms") or {}).items():
                edges = tuple(float(e) for e in data.get("edges", ()))
                hist = self._histograms.get(name)
                if hist is None:
                    hist = _Histogram(edges)
                    self._histograms[name] = hist
                if hist.edges != edges:
                    continue
                incoming = data.get("bucket_counts") or []
                if len(incoming) != len(hist.bucket_counts):
                    continue
                for i, n in enumerate(incoming):
                    hist.bucket_counts[i] += n
                hist.total += data.get("sum", 0.0)
                hist.count += data.get("count", 0)

    def reset(self) -> None:
        """Zero everything (start of a measured workload).

        Clears the counter dict *in place*: call sites (and the
        ``repro.profiling`` shim) hold direct references to it.
        """
        self.counters.clear()
        with self._lock:
            self._gauges.clear()
            self._histograms.clear()

    # -- rendering -----------------------------------------------------
    def render_prometheus(
            self, extra_gauges: Optional[Dict[str, float]] = None) -> str:
        """The registry in Prometheus text exposition format (0.0.4).

        ``extra_gauges`` lets a caller fold point-in-time readings
        (queue depth, uptime) into the same scrape without mutating
        registry state.
        """
        lines: List[str] = []

        def emit(name: str, kind: str,
                 samples: Iterable[Tuple[str, float]]) -> None:
            pname = _prom_name(name)
            lines.append(f"# TYPE {pname} {kind}")
            for suffix, value in samples:
                lines.append(f"{pname}{suffix} {_fmt(value)}")

        for name in sorted(self.counters):
            emit(name + "_total", "counter",
                 [("", self.counters[name])])
        with self._lock:
            gauges = dict(self._gauges)
            hists = {name: (h.edges, list(h.bucket_counts),
                            h.total, h.count)
                     for name, h in self._histograms.items()}
        merged_gauges = dict(gauges)
        merged_gauges.update(extra_gauges or {})
        for name in sorted(merged_gauges):
            emit(name, "gauge", [("", merged_gauges[name])])
        for name in sorted(hists):
            edges, bucket_counts, total, count = hists[name]
            cumulative = 0
            samples: List[Tuple[str, float]] = []
            for edge, n in zip(list(edges) + [float("inf")],
                               bucket_counts):
                cumulative += n
                samples.append((f'_bucket{{le="{_fmt(edge)}"}}',
                                cumulative))
            samples.append(("_sum", total))
            samples.append(("_count", count))
            emit(name, "histogram", samples)
        return "\n".join(lines) + "\n"


#: the process-wide default registry (what ``repro.profiling`` shims
#: onto and what the service exports).  Worker processes reset it on
#: entry and ship its snapshot back over their result channel.
REGISTRY = MetricsRegistry()
