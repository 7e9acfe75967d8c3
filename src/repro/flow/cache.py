"""Content-addressed result cache for compilation flows.

A sweep revisits the same (region, library, clock, options, pipeline)
configuration whenever grids overlap or a benchmark re-runs; scheduling
is by far the dominant cost, so caching pays off immediately.  The key
is a deterministic SHA-256 over the region *structure* (operations,
edges, predicates, pins, latency bounds) plus the library name, clock
period, scheduler options and pipelining directive -- two independently
built but identical regions hash identically, which is what makes the
cache content-addressed rather than identity-based.

Cached artifacts (schedules, folded kernels, RTL text, power reports)
are returned by reference: a hit on a context built around a *different*
but structurally identical region yields the schedule of the first run,
bound to the first run's region object.  All metric accessors
(``area``, ``delay_ps``, ``summary()``) only read, so sharing is safe;
callers that mutate schedules should bypass the cache.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import asdict
from typing import Dict, Optional, Tuple

from repro.cdfg.region import PipelineSpec, Region
from repro.core.scheduler import SchedulerOptions
from repro.tech.library import Library
from repro.timing import engine as timing_engine


def region_fingerprint(region: Region) -> str:
    """Deterministic content hash of a region's structure.

    Covers everything scheduling observes: per-operation kind, widths,
    predicate literals, payload, pins, I/O striding; the full edge list
    with ports, distances and memory-ordering attributes; the memory
    declarations (depth, width, banking, ports, initial contents --
    banking changes the port-constraint problem, so it must miss the
    cache); and the region-level latency bounds, loop flags and trip
    count.  Operation uids are allocated in insertion order by
    :class:`~repro.cdfg.dfg.DFG`, so two regions built by the same
    sequence of builder calls produce identical fingerprints.
    """
    dfg = region.dfg
    ops = []
    edges = []
    for op in dfg.ops:
        ops.append([
            op.uid, op.kind.value, op.width, op.name,
            sorted(op.predicate.literals),
            repr(op.payload),
            op.pinned_state, op.pinned_resource, op.is_exit_test,
            list(op.operand_widths), op.io_offset, op.io_stride,
        ])
        for edge in dfg.in_edges(op.uid):
            edges.append([edge.src, edge.dst, edge.port, edge.distance,
                          edge.order, edge.min_gap])
    edges.sort()
    memories = [
        [decl.name, decl.depth, decl.width, decl.banks, decl.ports,
         list(decl.init) if decl.init is not None else None]
        for decl in (region.memories[name]
                     for name in sorted(region.memories))
    ]
    frontend = region.metadata.get("frontend")
    payload = {
        "name": region.name,
        "is_loop": region.is_loop,
        "min_latency": region.min_latency,
        "max_latency": region.max_latency,
        "exit_op_uid": region.exit_op_uid,
        "trip_count": region.trip_count,
        # which compiler produced the region, and at which version:
        # bumping a frontend's version tag invalidates every cached
        # artifact compiled from that frontend's sources (structurally
        # identical output notwithstanding), while builder-made and
        # other-frontend regions keep hitting.  None for regions built
        # directly through RegionBuilder.
        "frontend": list(frontend) if frontend is not None else None,
        "ops": ops,
        "edges": edges,
        "memories": memories,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def compilation_key(
    region: Region,
    library: Library,
    clock_ps: float,
    options: Optional[SchedulerOptions] = None,
    pipeline: Optional[PipelineSpec] = None,
) -> str:
    """The cache key of one compilation configuration.

    The timing-model version is part of the key: artifacts scheduled
    under an older delay model must be recomputed, not served.
    """
    payload = {
        "timing_model": timing_engine.TIMING_MODEL_VERSION,
        "region": region_fingerprint(region),
        "library": library.name,
        "clock_ps": repr(float(clock_ps)),
        "options": asdict(options) if options is not None
        else asdict(SchedulerOptions()),
        "ii": pipeline.ii if pipeline is not None else None,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class FlowCache:
    """A thread-safe artifact store keyed by (compilation key, stage).

    One instance is shared across the contexts of a sweep (and across
    repeated sweeps); the parallel executor's workers hit it
    concurrently, hence the lock.  ``max_entries`` bounds memory with
    FIFO eviction -- sweeps revisit recent keys, not ancient ones.
    The cache lives in memory only; evaluated points persist across
    processes in :class:`~repro.dse.store.ResultStore`.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self._data: Dict[Tuple[str, str], object] = {}
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def get(self, key: str, stage: str) -> object:
        """The cached artifact for (key, stage), or None on a miss."""
        with self._lock:
            entry = self._data.get((key, stage))
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def put(self, key: str, stage: str, artifact: object) -> None:
        """Store an artifact; evicts oldest entries beyond the bound."""
        if artifact is None:
            return
        with self._lock:
            self._data[(key, stage)] = artifact
            while len(self._data) > self.max_entries:
                self._data.pop(next(iter(self._data)))

    def peek(self, key: str, stage: str) -> bool:
        """Whether (key, stage) is cached, without touching hit/miss
        counters -- the sweep executor's dispatch probe (counters must
        reflect the flow's own lookups, identically to a serial run)."""
        with self._lock:
            return (key, stage) in self._data

    def entries(self) -> Dict[Tuple[str, str], object]:
        """A snapshot of every entry (what a sweep worker sends back)."""
        with self._lock:
            return dict(self._data)

    def absorb(self, entries: Dict[Tuple[str, str], object]) -> int:
        """Merge another cache's entries; first writer wins per key.

        Artifacts are content-addressed, so two processes that computed
        the same (key, stage) computed equivalent artifacts -- keeping
        the incumbent makes repeated merges idempotent.  Returns the
        number of newly added entries.
        """
        added = 0
        with self._lock:
            for key, artifact in entries.items():
                if artifact is None or key in self._data:
                    continue
                self._data[key] = artifact
                added += 1
            while len(self._data) > self.max_entries:
                self._data.pop(next(iter(self._data)))
        return added

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters for reports."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._data)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (f"FlowCache(entries={s['entries']}, hits={s['hits']}, "
                f"misses={s['misses']})")
