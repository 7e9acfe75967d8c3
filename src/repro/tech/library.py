"""Technology library model.

A library characterizes *resource types*: datapath components with delay,
area, per-operation energy and leakage, at several *speed grades*.  Grades
model what downstream logic synthesis does when it has to close timing:
swap a typical-strength implementation for a faster, larger, hungrier one.
The paper relies on this twice:

* Table 4 measures the area penalty of buying back negative slack after
  synthesis ("compensated by larger area during subsequent logic
  synthesis");
* Figures 10/11 explore clock periods where typical-strength resources no
  longer fit the cycle, so sizing (or multi-cycling) kicks in.

Resource types are characterized per width via family scaling laws, with
anchor values calibrated to the paper's Table 1 (90 nm typical, 32 bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cdfg.ops import OpKind


@dataclass(frozen=True)
class SpeedGrade:
    """A sizing point: faster cells cost area and energy."""

    name: str
    delay_factor: float
    area_factor: float
    energy_factor: float

    def __post_init__(self) -> None:
        if not 0 < self.delay_factor <= 1.0:
            raise ValueError("delay_factor must be in (0, 1]")
        if self.area_factor < 1.0 or self.energy_factor < 1.0:
            raise ValueError("area/energy factors must be >= 1")


#: the default sizing ladder, typical first (index 0 = cheapest).
DEFAULT_GRADES: Tuple[SpeedGrade, ...] = (
    SpeedGrade("typical", 1.00, 1.00, 1.00),
    SpeedGrade("fast", 0.85, 1.30, 1.25),
    SpeedGrade("turbo", 0.72, 1.70, 1.60),
    SpeedGrade("ultra", 0.62, 2.30, 2.10),
)


@dataclass(frozen=True)
class ResourceType:
    """A bindable datapath component at a specific width and grade."""

    name: str
    op_kinds: frozenset
    width: int
    delay_ps: float
    area: float
    energy_pj: float
    leakage_uw: float
    grade: str = "typical"
    family: str = ""
    #: True for resources that may be bound over several consecutive
    #: states when their delay exceeds the clock period.
    multicycle_ok: bool = False

    def supports(self, kind: OpKind, width: int) -> bool:
        """Whether this type can implement ``kind`` at ``width`` bits."""
        return kind in self.op_kinds and width <= self.width

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FlipFlopSpec:
    """Sequential element characterization.

    ``clk_to_q``/``setup`` enter every FF-to-FF path; ``alt_delay`` is the
    second number of the paper's ``ff 40/70`` Table 1 cell (the
    hold-fixed/load-heavy variant, reported but not used in the paper's
    own worked delays).
    """

    clk_to_q_ps: float
    setup_ps: float
    alt_delay_ps: float
    area_per_bit: float
    energy_per_bit_pj: float
    leakage_per_bit_uw: float


@dataclass(frozen=True)
class MuxSpec:
    """Multiplexer characterization (paper Table 1: mux2 110, mux3 115)."""

    delay2_ps: float
    delay3_ps: float
    area2_per_bit: float
    area3_per_bit: float
    energy_per_bit_pj: float

    def delay(self, fanin: int) -> float:
        """Delay of an n-input select tree (cascaded beyond 3 inputs)."""
        if fanin <= 1:
            return 0.0
        if fanin == 2:
            return self.delay2_ps
        if fanin == 3:
            return self.delay3_ps
        # balanced tree of mux3/mux2 levels
        levels = math.ceil(math.log(fanin, 3))
        return levels * self.delay3_ps

    def area(self, fanin: int, width: int) -> float:
        """Area of an n-input, ``width``-bit select tree."""
        if fanin <= 1:
            return 0.0
        if fanin == 2:
            return self.area2_per_bit * width
        if fanin == 3:
            return self.area3_per_bit * width
        # an n-input tree needs roughly (n-1) 2-input muxes
        return (fanin - 1) * self.area2_per_bit * width * 0.9


@dataclass(frozen=True)
class MemorySpec:
    """RAM macro characterization of a library.

    ``access_delay_ps`` is the per-port address-to-data delay of a
    single-port macro at the 256-word anchor depth; deeper macros pay a
    logarithmic decode penalty, dual-port macros a fixed factor for the
    second decoder.  ``access_cycles`` is the number of control steps a
    port access occupies (1 = data within the access state, the
    asynchronous-read model the rest of the timing engine assumes).
    """

    access_delay_ps: float
    area_per_bit: float
    periphery_area: float          # fixed per-bank decode/sense overhead
    energy_per_access_pj: float
    leakage_per_bit_uw: float
    dual_port_delay_factor: float = 1.15
    dual_port_area_factor: float = 1.7
    access_cycles: int = 1

    #: depth the access delay is characterized at.
    ANCHOR_DEPTH: int = 256

    def delay_ps(self, depth: int, ports: int) -> float:
        """Address-to-data delay of one bank at ``depth`` words."""
        depth = max(depth, 2)
        scale = 0.6 + 0.05 * math.log2(depth)
        delay = self.access_delay_ps * scale
        if ports >= 2:
            delay *= self.dual_port_delay_factor
        return delay

    def area(self, width: int, depth: int, ports: int) -> float:
        """Area of one bank."""
        bits = width * depth
        area = bits * self.area_per_bit + self.periphery_area
        if ports >= 2:
            area *= self.dual_port_area_factor
        return area


@dataclass(frozen=True)
class MemoryResource:
    """A bindable RAM macro: one bank of a declared memory.

    Duck-types the :class:`ResourceType` surface the timing engine and
    binder touch (``delay_ps``, ``width``, ``area``, ``family``,
    ``grade``, ``multicycle_ok``, :meth:`supports`), plus the
    memory-specific ``depth``/``ports``/``access_cycles``.
    """

    name: str
    width: int
    depth: int
    ports: int
    delay_ps: float
    area: float
    energy_pj: float
    leakage_uw: float
    access_cycles: int = 1
    grade: str = "typical"
    multicycle_ok: bool = False

    @property
    def family(self) -> str:
        """``ram1p`` / ``ram2p`` -- single- vs dual-port macros."""
        return f"ram{self.ports}p"

    def supports(self, kind: OpKind, width: int) -> bool:
        """RAM ports implement loads and stores up to the word width."""
        return kind in (OpKind.LOAD, OpKind.STORE) and width <= self.width

    def __str__(self) -> str:
        return self.name


#: fallback RAM characterization for libraries built without one
#: (calibrated alongside the 90 nm library).
DEFAULT_MEMORY_SPEC = MemorySpec(
    access_delay_ps=560.0,
    area_per_bit=2.0,
    periphery_area=900.0,
    energy_per_access_pj=1.1,
    leakage_per_bit_uw=0.004,
)


@dataclass(frozen=True)
class _Family:
    """A scalable component family: anchors at 32 bits, scaling laws."""

    family: str
    op_kinds: frozenset
    delay32_ps: float
    area32: float
    energy32_pj: float
    delay_law: str  # "log" | "linear" | "flat"
    area_law: str   # "linear" | "super"
    multicycle_ok: bool = False


class Library:
    """A technology library: scalable families plus FF and mux specs."""

    #: width buckets resources are generated at; operations bind to the
    #: smallest bucket that fits (paper IV.A: types are combinations of
    #: operation type and widths, and "we do not merge resources of very
    #: different bit widths").
    WIDTH_BUCKETS: Tuple[int, ...] = (1, 4, 8, 16, 32, 64)

    def __init__(
        self,
        name: str,
        families: Sequence[_Family],
        ff: FlipFlopSpec,
        mux: MuxSpec,
        grades: Sequence[SpeedGrade] = DEFAULT_GRADES,
        leakage_per_area_uw: float = 0.002,
        mem: Optional[MemorySpec] = None,
    ) -> None:
        self.name = name
        self.ff = ff
        self.mux = mux
        self.mem = mem if mem is not None else DEFAULT_MEMORY_SPEC
        self.grades: Tuple[SpeedGrade, ...] = tuple(grades)
        self._leak = leakage_per_area_uw
        self._families: Dict[str, _Family] = {f.family: f for f in families}
        self._types: Dict[Tuple[str, int, str], ResourceType] = {}
        self._mem_types: Dict[Tuple[int, int, int], MemoryResource] = {}
        self._kind_index: Dict[OpKind, List[str]] = {}
        for fam in families:
            for kind in fam.op_kinds:
                self._kind_index.setdefault(kind, []).append(fam.family)

    # ------------------------------------------------------------------
    # characterization
    # ------------------------------------------------------------------
    def _scale_delay(self, fam: _Family, width: int) -> float:
        if fam.delay_law == "flat":
            return fam.delay32_ps
        if fam.delay_law == "log":
            return fam.delay32_ps * (math.log2(max(width, 2)) / 5.0)
        if fam.delay_law == "linear":
            return fam.delay32_ps * (width / 32.0)
        raise ValueError(f"unknown delay law {fam.delay_law!r}")

    def _scale_area(self, fam: _Family, width: int) -> float:
        if fam.area_law == "super":
            return fam.area32 * (width / 32.0) ** 1.8
        return fam.area32 * (width / 32.0)

    def resource_type(self, family: str, width: int,
                      grade: str = "typical") -> ResourceType:
        """The resource type of a family at a width bucket and grade."""
        bucket = self.bucket(width)
        key = (family, bucket, grade)
        cached = self._types.get(key)
        if cached is not None:
            return cached
        fam = self._families[family]
        gr = self.grade(grade)
        delay = self._scale_delay(fam, bucket) * gr.delay_factor
        area = self._scale_area(fam, bucket) * gr.area_factor
        energy = fam.energy32_pj * (bucket / 32.0) * gr.energy_factor
        rtype = ResourceType(
            name=f"{family}_{bucket}" + ("" if grade == "typical" else f"_{grade}"),
            op_kinds=fam.op_kinds,
            width=bucket,
            delay_ps=delay,
            area=area,
            energy_pj=energy,
            leakage_uw=area * self._leak,
            grade=grade,
            family=family,
            multicycle_ok=fam.multicycle_ok,
        )
        self._types[key] = rtype
        return rtype

    def memory_resource(self, width: int, depth: int,
                        ports: int = 1) -> MemoryResource:
        """The RAM macro for one bank: ``width`` x ``depth``, P ports.

        Memory macros come in exact sizes (no width bucketing -- a RAM
        compiler generates the requested geometry) and a single grade:
        unlike logic, their timing is dominated by the bitcell array,
        which logic synthesis cannot upsize.
        """
        key = (width, depth, ports)
        cached = self._mem_types.get(key)
        if cached is not None:
            return cached
        spec = self.mem
        rtype = MemoryResource(
            name=f"ram{ports}p_{width}x{depth}",
            width=width,
            depth=depth,
            ports=ports,
            delay_ps=spec.delay_ps(depth, ports),
            area=spec.area(width, depth, ports),
            energy_pj=spec.energy_per_access_pj * (width / 32.0),
            leakage_uw=spec.leakage_per_bit_uw * width * depth,
            access_cycles=spec.access_cycles,
        )
        self._mem_types[key] = rtype
        return rtype

    def bucket(self, width: int) -> int:
        """Smallest width bucket that accommodates ``width`` bits."""
        for b in self.WIDTH_BUCKETS:
            if width <= b:
                return b
        return self.WIDTH_BUCKETS[-1]

    def grade(self, name: str) -> SpeedGrade:
        """Grade by name."""
        for gr in self.grades:
            if gr.name == name:
                return gr
        raise KeyError(f"unknown speed grade {name!r}")

    # ------------------------------------------------------------------
    # candidate enumeration for the binder
    # ------------------------------------------------------------------
    def families_for(self, kind: OpKind) -> List[str]:
        """Families able to implement an operation kind."""
        return list(self._kind_index.get(kind, []))

    def candidates(self, kind: OpKind, width: int,
                   grades: Optional[Iterable[str]] = None) -> List[ResourceType]:
        """Resource types for ``kind``/``width``, cheapest grade first."""
        grade_names = [g.name for g in self.grades] if grades is None else list(grades)
        result: List[ResourceType] = []
        for family in self.families_for(kind):
            for grade in grade_names:
                result.append(self.resource_type(family, width, grade))
        result.sort(key=lambda r: (r.area, r.delay_ps))
        return result

    def fastest(self, kind: OpKind, width: int) -> ResourceType:
        """The fastest (highest-grade) type for ``kind``/``width``."""
        cands = self.candidates(kind, width)
        if not cands:
            raise KeyError(f"no resource implements {kind.value} at w{width}")
        return min(cands, key=lambda r: r.delay_ps)

    def typical(self, kind: OpKind, width: int) -> ResourceType:
        """The typical-grade type for ``kind``/``width``."""
        fams = self.families_for(kind)
        if not fams:
            raise KeyError(f"no resource implements {kind.value} at w{width}")
        return self.resource_type(fams[0], width, "typical")

    def regrade(self, rtype: ResourceType, grade: str) -> ResourceType:
        """The same family/width at a different speed grade."""
        return self.resource_type(rtype.family, rtype.width, grade)

    def upsizing_ladder(self, rtype: ResourceType) -> List[ResourceType]:
        """Grades of ``rtype`` at or above its current grade, cheap first."""
        names = [g.name for g in self.grades]
        start = names.index(rtype.grade)
        return [self.regrade(rtype, g) for g in names[start:]]

    # ------------------------------------------------------------------
    # sequential / steering elements
    # ------------------------------------------------------------------
    def register_area(self, bits: int) -> float:
        """Area of a ``bits``-wide register."""
        return self.ff.area_per_bit * bits

    def table1(self, width: int = 32) -> Dict[str, object]:
        """The paper's Table 1 row: fastest typical implementations."""
        row: Dict[str, object] = {}
        for family in ("mul", "add", "gt", "neq"):
            if family in self._families:
                row[family] = round(
                    self.resource_type(family, width).delay_ps)
        row["ff"] = f"{self.ff.clk_to_q_ps:.0f}/{self.ff.alt_delay_ps:.0f}"
        row["mux2"] = round(self.mux.delay2_ps)
        row["mux3"] = round(self.mux.delay3_ps)
        return row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Library({self.name}, families={sorted(self._families)})"


def make_family(
    family: str,
    kinds: Iterable[OpKind],
    delay32_ps: float,
    area32: float,
    energy32_pj: float,
    delay_law: str = "log",
    area_law: str = "linear",
    multicycle_ok: bool = False,
) -> _Family:
    """Helper used by concrete library definitions."""
    return _Family(
        family=family,
        op_kinds=frozenset(kinds),
        delay32_ps=delay32_ps,
        area32=area32,
        energy32_pj=energy32_pj,
        delay_law=delay_law,
        area_law=area_law,
        multicycle_ok=multicycle_ok,
    )
