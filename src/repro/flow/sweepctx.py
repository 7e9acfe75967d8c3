"""Cross-point state of one sweep: prebuilt variants + carryover caches.

A Figure-10-style grid evaluates every microarchitecture at every clock.
The seed executor rebuilt the region from its factory for every single
point and let each ``schedule_region`` call recompute its timing
statics, heights, priority orders and ASAP/ALAP skeletons from scratch.
All of that is structure, not decision state: scheduling never mutates
the region (the equivalence suite pins this), and the scheduler's
carryover cache keys every clock-dependent entry by clock.

:class:`SweepContext` therefore builds each microarchitecture *variant*
(factory -> latency clamp) exactly once and pairs it with one
scheduler carryover cache that serves every clock of that variant.
The process backend additionally asks the context for a pickled blob
of the variant region, shipped to a worker once per point batch rather
than once per point.  :meth:`SweepContext.variant` is the
only place a variant is built: the single-point entry
(:func:`~repro.flow.executor.synthesize_design_point`) is a one-point
context of its own.

Everything held here is decision-neutral: a sweep through one shared
``SweepContext`` is bit-identical to a fresh context per point -- same
schedules, same diagnostics, same infeasible records (the bit-identity
property suite compares all of them).
"""

from __future__ import annotations

import pickle
from typing import Callable, Dict, Optional

from repro import profiling
from repro.cdfg.region import PipelineSpec, Region
from repro.core.scheduler import _RegionCache
from repro.explore.microarch import Microarch
from repro.tech.library import Library


class SweepVariant:
    """One prebuilt microarchitecture variant of the swept region."""

    def __init__(self, microarch: Microarch, region: Region,
                 library: Library) -> None:
        self.microarch = microarch
        #: the region every clock of this variant schedules.
        self.region = region
        self.pipeline: Optional[PipelineSpec] = (
            PipelineSpec(ii=microarch.ii)
            if microarch.ii is not None else None)
        self._library = library
        self._carryover: Optional[_RegionCache] = None
        self._blob: Optional[bytes] = None

    def carryover(self) -> _RegionCache:
        """The scheduler carryover cache shared by this variant's clocks.

        Built on first call, which the schedule pass makes only when it
        actually schedules (not on a flow-cache hit); every entry is
        decision-neutral."""
        if self._carryover is None:
            self._carryover = _RegionCache(self.region, self._library)
        return self._carryover

    def blob(self) -> bytes:
        """The pickled region, computed once (process-backend payload)."""
        if self._blob is None:
            self._blob = pickle.dumps(self.region,
                                      protocol=pickle.HIGHEST_PROTOCOL)
            profiling.bump("sweep.pickle_bytes", len(self._blob))
        return self._blob


class SweepContext:
    """Build-variant-once state for one sweep.

    The factory runs once per microarchitecture: the latency clamp
    writes the region's latency bounds in place, so variants cannot
    share one build.  Points then schedule against the shared variant
    region with the variant's carryover cache.
    """

    def __init__(self, region_factory: Callable[[], Region],
                 library: Library) -> None:
        self.library = library
        self._factory = region_factory
        self._variants: Dict[Microarch, SweepVariant] = {}

    def variant(self, microarch: Microarch) -> SweepVariant:
        """The (memoized) prebuilt variant for one microarchitecture."""
        entry = self._variants.get(microarch)
        if entry is None:
            profiling.bump("sweep.variant_builds")
            region = self._factory()
            region.min_latency = microarch.latency
            region.max_latency = microarch.latency
            entry = SweepVariant(microarch, region, self.library)
            self._variants[microarch] = entry
        return entry
