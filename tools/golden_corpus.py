#!/usr/bin/env python3
"""The golden scheduling-decision corpus: check it, or add records to it.

``tests/golden/decisions.json`` holds one record per scheduled design:
workload x library x clock x microarchitecture (and option set).  A
record is the sha256 digest of everything the scheduler decided, plus a
few readable fields (verdict, passes, latency, error message) so a
mismatch shows what moved.  The digest covers

- every binding: uid, state, instance, cycles, ``repr`` of the output
  arrival and the capture time;
- passes, latency, ``actions_taken``, the speculated ops and the SCC
  windows (index, sorted ops, start, II);
- on failure, the error message and the diagnostics text;
- the driver fingerprint of every failed pass (the analyzed restraints
  and scored actions the relaxation driver decided from), in pass
  order, with consecutive duplicates collapsed: the fixpoint
  fast-forward skips only exact replays.

Groups: ``registry`` (every registered workload on both libraries at
1000 and 1600 ps), ``table4`` (the pipelined timing-critical suite under
three option sets), ``industrial`` (the 4-design tier-1 population),
``random`` (200 fixed random accumulator regions), and the slow ones,
``ladder`` (the reduced Fig. 9 ladder) and ``grid`` (the jpeg_dct 5x5
sweep grid).  The slow groups run only with ``--all``.

``--write`` computes every record twice -- on the scheduler as is, and
with the relaxation loop held cold (no fixpoint fast-forward) -- and
writes nothing unless the two agree.  It adds missing records; it
changes an existing record only when ``--replace KEY`` names it.

Run:  python tools/golden_corpus.py --check [--all] [--group NAME]
      python tools/golden_corpus.py --write [--all] [--replace KEY ...]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import sys
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cdfg import PipelineSpec, RegionBuilder  # noqa: E402
from repro.core import scheduler  # noqa: E402
from repro.core.relaxation import driver_fingerprint  # noqa: E402
from repro.core.schedule import Schedule, ScheduleError  # noqa: E402
from repro.core.scheduler import SchedulerOptions, schedule_region  # noqa: E402
from repro.explore.microarch import Microarch  # noqa: E402
from repro.flow.sweepctx import SweepContext  # noqa: E402
from repro.tech import LIBRARIES, artisan90  # noqa: E402
from repro.workloads import PYFUNC_REGISTRY, WORKLOAD_REGISTRY  # noqa: E402
from repro.workloads.synthetic import (industrial_suite,  # noqa: E402
                                       timing_critical_suite)

CORPUS = REPO / "tests" / "golden" / "decisions.json"

#: one design to schedule: a thunk that schedules a fresh region.
Case = Tuple[str, Callable[[], Schedule]]

#: option sets of the Table-4 group (the SCC-move ablation and the
#: anticipatory-mux ablation next to the default).
TABLE4_OPTIONS = {
    "default": {},
    "blind": {"enable_scc_move": False, "accept_negative_slack": True},
    "nomux": {"anticipate_muxes": False},
}

#: the jpeg_dct grid of the sweep-scaling benchmark and perfbench's
#: ``dse_grid``.
GRID_MICROS = (Microarch("NP24", 24), Microarch("NP32", 32),
               Microarch("NP48", 48), Microarch("P48:24", 48, ii=24),
               Microarch("P64:32", 64, ii=32))
GRID_CLOCKS = (1000.0, 1250.0, 1600.0, 2100.0, 2800.0)

#: (seed, n_ops) pairs of the random group.
RANDOM_CASES = tuple((seed, 3 + seed % 12) for seed in range(200))


def random_region(seed: int, n_ops: int):
    """A small random accumulator dataflow (deterministic per seed)."""
    rng = random.Random(seed)
    b = RegionBuilder(f"equiv{seed}", is_loop=True, max_latency=24)
    pool = [b.read(f"in{i}", 16) for i in range(2)]
    lv = b.loop_var("acc", b.const(rng.randrange(8), 16))
    pool.append(lv.value)
    for _ in range(n_ops):
        x = pool[rng.randrange(len(pool))]
        y = pool[rng.randrange(len(pool))]
        op = rng.choice(["add", "sub", "mul", "xor", "mux"])
        if op == "add":
            pool.append(b.add(x, y))
        elif op == "sub":
            pool.append(b.sub(x, y))
        elif op == "mul":
            pool.append(b.mul(x, y, width=16))
        elif op == "xor":
            pool.append(b.xor(x, y))
        else:
            pool.append(b.mux(b.gt(x, y), x, y))
    lv.set_next(b.add(lv.value, pool[-1], width=16))
    b.write("out", pool[-1])
    b.set_trip_count(5)
    return b.build()


# ----------------------------------------------------------------------
# the case groups
# ----------------------------------------------------------------------
def _registry() -> Iterator[Case]:
    libs = {name: make() for name, make in LIBRARIES.items()}
    for name in sorted(WORKLOAD_REGISTRY):
        for lib_name, lib in libs.items():
            for clock in (1000.0, 1600.0):
                yield (f"registry/{name}/{lib_name}/{clock:g}/seq",
                       lambda n=name, lib=lib, c=clock: schedule_region(
                           WORKLOAD_REGISTRY[n](), lib, c))


def _table4() -> Iterator[Case]:
    lib = artisan90()
    for opt_name, opts in TABLE4_OPTIONS.items():
        options = SchedulerOptions(**opts)
        for name, region, clock, ii in timing_critical_suite():
            yield (f"table4/{name}/artisan90/{clock:g}/P{ii}/{opt_name}",
                   lambda r=region, c=clock, ii=ii, o=options:
                   schedule_region(r, lib, c, pipeline=PipelineSpec(ii=ii),
                                   options=o))


def _suite(group: str, **suite) -> Iterator[Case]:
    lib = artisan90()
    for spec, region in industrial_suite(**suite):
        yield (f"{group}/{spec.name}/artisan90/1600/seq",
               lambda r=region: schedule_region(r, lib, 1600.0))


def _random() -> Iterator[Case]:
    lib = artisan90()
    for seed, n_ops in RANDOM_CASES:
        yield (f"random/s{seed}n{n_ops}/artisan90/1600/seq",
               lambda s=seed, n=n_ops: schedule_region(
                   random_region(s, n), lib, 1600.0))


def _grid() -> Iterator[Case]:
    """Each variant's clocks share its region and carryover, exactly as
    the serial sweep engine schedules them."""
    lib = artisan90()
    ctx = SweepContext(PYFUNC_REGISTRY["jpeg_dct"].build, lib)
    for micro in GRID_MICROS:
        variant = ctx.variant(micro)
        for clock in GRID_CLOCKS:
            yield (f"grid/jpeg_dct/artisan90/{clock:g}/{micro.name}",
                   lambda v=variant, c=clock: schedule_region(
                       v.region, lib, c, pipeline=v.pipeline,
                       carryover=v.carryover()))


#: group name -> case generator (fresh regions on every call).
GROUPS: Dict[str, Callable[[], Iterator[Case]]] = {
    "registry": _registry,
    "table4": _table4,
    "industrial": lambda: _suite("industrial", n_designs=4, max_ops=300),
    "random": _random,
    "ladder": lambda: _suite("ladder", n_designs=10, max_ops=1200),
    "grid": _grid,
}
#: groups too slow for tier-1 (checked by ``--all``).
SLOW_GROUPS = ("ladder", "grid")
FAST_GROUPS = tuple(g for g in GROUPS if g not in SLOW_GROUPS)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render(schedule: Schedule) -> dict:
    """Canonical bit-exact summary of every decision in a schedule.

    Floats are rendered with ``repr``, so two schedules that differ in
    the last ulp of an arrival do not render equal."""
    return {
        "passes": schedule.passes,
        "latency": schedule.latency,
        "actions": list(schedule.actions_taken),
        "speculated": sorted(schedule.speculated),
        "windows": [[w.index, sorted(w.ops), w.start, w.ii]
                    for w in schedule.scc_windows],
        "bindings": [[uid, b.state, b.inst.name if b.inst else None,
                      b.cycles, repr(b.out_arrival_ps), repr(b.capture_ps)]
                     for uid, b in sorted(schedule.bindings.items())],
    }


def _plain(obj):
    """JSON fallback: enums by value, sets sorted."""
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")


def _text(obj) -> str:
    return json.dumps(obj, default=_plain, sort_keys=True)


def outcome(thunk: Callable[[], Schedule]) -> Tuple[dict, List[str]]:
    """Run one case: its render (or error) and the collapsed sequence
    of per-pass driver fingerprints."""
    fingerprints: List[str] = []
    propose = scheduler.propose_actions

    def recording(*args, **kwargs):
        actions = propose(*args, **kwargs)
        fp = _text(driver_fingerprint(args[3], actions))
        if not fingerprints or fingerprints[-1] != fp:
            fingerprints.append(fp)
        return actions

    scheduler.propose_actions = recording
    try:
        result = {"verdict": "ok", **render(thunk())}
    except ScheduleError as exc:
        result = {"verdict": "error", "error": str(exc.args[0]),
                  "diagnostics": [str(d) for d in exc.diagnostics]}
    finally:
        scheduler.propose_actions = propose
    return result, fingerprints


def record(thunk: Callable[[], Schedule]) -> dict:
    """The corpus record of one case."""
    return record_of(*outcome(thunk))


def record_of(result: dict, fingerprints: List[str]) -> dict:
    """The corpus record of one :func:`outcome`."""
    digest = hashlib.sha256(
        _text({"outcome": result, "driver": fingerprints}).encode())
    rec = {"digest": digest.hexdigest(), "verdict": result["verdict"],
           "passes": result.get("passes"), "latency": result.get("latency")}
    if "error" in result:
        rec["error"] = result["error"]
    return rec


@contextlib.contextmanager
def cold_fixpoint():
    """The relaxation loop with no fixpoint fast-forward: no two driver
    fingerprints ever compare equal, so every pass runs."""
    real = scheduler.driver_fingerprint
    scheduler.driver_fingerprint = lambda *args: object()
    try:
        yield
    finally:
        scheduler.driver_fingerprint = real


def compute(groups) -> Dict[str, dict]:
    """Fresh records of every case in ``groups``."""
    return {key: record(thunk)
            for group in groups for key, thunk in GROUPS[group]()}


# ----------------------------------------------------------------------
# the corpus file
# ----------------------------------------------------------------------
def load(path: Path = CORPUS) -> Dict[str, dict]:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def save(records: Dict[str, dict], path: Path = CORPUS) -> None:
    """One record per line, sorted by key, so diffs stay readable."""
    lines = [f" {json.dumps(key)}: {json.dumps(rec, sort_keys=True)}"
             for key, rec in sorted(records.items())]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def group_of(key: str) -> str:
    return key.split("/", 1)[0]


def _brief(rec: dict) -> str:
    fields = " ".join(f"{k}={rec[k]!r}" for k in sorted(rec) if k != "digest")
    return f"[{fields} digest={rec['digest'][:12]}]"


def diff(expected: Dict[str, dict], actual: Dict[str, dict]) -> List[str]:
    """One line per record that differs, is missing or is unknown."""
    problems = []
    for key in sorted(set(expected) | set(actual)):
        want, got = expected.get(key), actual.get(key)
        if want == got:
            continue
        if got is None:
            problems.append(f"{key}: in the corpus but not computed")
        elif want is None:
            problems.append(f"{key}: missing from the corpus "
                            f"(computed {_brief(got)})")
        else:
            problems.append(f"{key}: corpus {_brief(want)} != "
                            f"computed {_brief(got)}")
    return problems


def check(groups, path: Path = CORPUS) -> List[str]:
    """Mismatches between the corpus and fresh records of ``groups``."""
    expected = {key: rec for key, rec in load(path).items()
                if group_of(key) in groups}
    return diff(expected, compute(groups))


def write(groups, replace=(), path: Path = CORPUS) -> List[str]:
    """Add missing records of ``groups``; change only ``replace`` keys.

    Returns the problems that stopped the write (empty: written)."""
    fresh = compute(groups)
    with cold_fixpoint():
        cold = compute(groups)
    problems = [f"fast-forward vs cold loop: {p}" for p in diff(cold, fresh)]
    problems += [f"--replace {key}: no such case" for key in replace
                 if key not in fresh]
    records = load(path)
    for key, rec in fresh.items():
        old = records.get(key)
        if old is not None and old != rec and key not in replace:
            problems.append(f"{key}: would change {_brief(old)} -> "
                            f"{_brief(rec)} (name it with --replace)")
    if problems:
        return problems
    records.update(fresh)
    save(records, path)
    return []


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="recompute records and compare with the corpus")
    mode.add_argument("--write", action="store_true",
                      help="add missing records to the corpus")
    parser.add_argument("--all", action="store_true",
                        help=f"include the slow groups {SLOW_GROUPS}")
    parser.add_argument("--group", action="append", choices=list(GROUPS),
                        help="restrict to one group (repeatable)")
    parser.add_argument("--replace", action="append", default=[],
                        metavar="KEY",
                        help="let --write change this existing record")
    args = parser.parse_args(argv)
    groups = args.group or (list(GROUPS) if args.all else FAST_GROUPS)
    if args.check:
        problems = check(groups)
    else:
        problems = write(groups, args.replace)
    for line in problems:
        print(line)
    verb = "checked" if args.check else "written"
    print(f"{'FAILED' if problems else verb}: groups {', '.join(groups)}"
          f" ({len(problems)} problem(s))")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
