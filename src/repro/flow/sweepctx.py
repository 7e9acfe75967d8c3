"""Cross-point state of one sweep: prebuilt variants + carryover caches.

A Figure-10-style grid evaluates every microarchitecture at every clock.
The seed executor rebuilt the region from its factory for every single
point and let each ``schedule_region`` call recompute its timing
statics, heights, priority orders and ASAP/ALAP skeletons from scratch.
All of that is structure, not decision state: scheduling never mutates
the region (the equivalence suite pins this), and the scheduler's
carryover cache keys every clock-dependent entry by clock.

:class:`SweepContext` therefore builds each microarchitecture *variant*
(factory -> unroll -> latency clamp -> banking) exactly once and pairs
it with one scheduler carryover cache that serves every clock of that
variant.  The process backend additionally asks the context for a
pickled blob of the variant region, shipped to a worker once per point
batch rather than once per point.  :meth:`SweepContext.variant` is the
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
from typing import Callable, Dict, Optional, Tuple

from repro import profiling
from repro.cdfg.dfg import DFGError
from repro.cdfg.region import PipelineSpec, Region
from repro.core.scheduler import _RegionCache
from repro.explore.microarch import Microarch
from repro.tech.library import Library


class SweepVariant:
    """One prebuilt microarchitecture variant of the swept region."""

    def __init__(self, microarch: Microarch, region: Optional[Region],
                 error: Optional[str], library: Library) -> None:
        self.microarch = microarch
        #: the region every clock of this variant schedules (None when
        #: the variant itself is unbuildable, e.g. an indivisible
        #: unroll factor -- ``error`` then carries the reason).
        self.region = region
        self.error = error
        self.pipeline: Optional[PipelineSpec] = (
            PipelineSpec(ii=microarch.ii)
            if microarch.ii is not None else None)
        self._library = library
        self._carryover: Optional[_RegionCache] = None
        self._blob: Optional[bytes] = None

    def carryover(self) -> Optional[_RegionCache]:
        """The scheduler carryover cache shared by this variant's clocks.

        Built on first call, which the schedule pass makes only when it
        actually schedules (not on a flow-cache hit); every entry is
        decision-neutral."""
        if self._carryover is None and self.region is not None:
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
    """Factory-once, build-variant-once state for one sweep.

    The factory runs a single time; every microarchitecture's unroll +
    latency clamp + banking runs a single time.  Points then schedule
    against the shared variant region with the variant's carryover
    cache.  Building a variant can fail (unrollable-as-asked regions);
    the failure is recorded per variant so every clock of that
    microarchitecture reports the same :class:`InfeasiblePoint` reason
    the per-point path would have produced.
    """

    def __init__(self, region_factory: Callable[[], Region],
                 library: Library) -> None:
        self.library = library
        self._factory = region_factory
        self._base: Optional[Region] = None
        self._variants: Dict[Microarch, SweepVariant] = {}

    def variant(self, microarch: Microarch) -> SweepVariant:
        """The (memoized) prebuilt variant for one microarchitecture."""
        entry = self._variants.get(microarch)
        if entry is not None:
            return entry
        profiling.bump("sweep.variant_builds")
        try:
            if microarch.unroll is not None and microarch.unroll != 1:
                # unrolling rebuilds the DFG from the base region, so
                # variants can share one factory product; non-unrolled
                # variants need their own build (banking mutates
                # memories in place)
                region = microarch.apply_unroll(self._base_region())
            else:
                region = self._factory()
            region.min_latency = microarch.latency
            region.max_latency = microarch.latency
            microarch.apply_banking(region)
            entry = SweepVariant(microarch, region, None, self.library)
        except DFGError as exc:
            # an unrollable-as-asked region (indivisible trip count,
            # distance>1 carried edges, ...) is an overconstrained grid
            # point like any other, not a sweep-aborting error
            entry = SweepVariant(microarch, None, str(exc), self.library)
        self._variants[microarch] = entry
        return entry

    def _base_region(self) -> Region:
        if self._base is None:
            self._base = self._factory()
        return self._base
