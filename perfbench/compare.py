"""Compare two sets of benchmark runs (``--compare BASE NEW``).

Each set is a ``runs.jsonl`` file as ``run.py`` appends it: one record
per run.  For every workload x end-to-end metric the report gives both
medians and quartiles and a verdict against the metric's bound from
``BENCHMARK.json``:

* ``regression`` -- the new median is worse than the base median by
  more than the bound;
* ``unresolved`` -- either side's run-to-run spread, (Q3 - Q1) /
  median, is wider than the bound, and not every new run beats every
  base run;
* ``ok`` otherwise (the delta column shows the direction).

Per-layer metrics (from traced runs) follow as plain deltas.  The exit
code is 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List

from harness import quartile_spread


def load(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _values(records, workload, traced, key, name) -> List[float]:
    return [r[key][name] for r in records
            if r["workload"] == workload and r["trace"] == traced
            and r[key].get(name) is not None]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_b, med_n = statistics.median(base), statistics.median(new)
    worse = sign * (med_n - med_b) / med_b if med_b else 0.0
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    spread = max(quartile_spread(base), quartile_spread(new))
    if spread > bound and not all_better:
        return "unresolved"
    return "regression" if worse > bound else "ok"


def compare(spec: Dict[str, object], base_path: str,
            new_path: str) -> int:
    base, new = load(base_path), load(new_path)
    workloads = sorted({r["workload"] for r in base}
                       & {r["workload"] for r in new})
    regressions = 0
    print(f"{'workload':15s} {'metric':32s} {'base median [Q1, Q3]':>32s} "
          f"{'new median [Q1, Q3]':>32s} {'delta':>8s}  verdict")
    for workload in workloads:
        for entry in spec["end_to_end"]:
            b = _values(base, workload, 0, "metrics", entry["name"])
            n = _values(new, workload, 0, "metrics", entry["name"])
            if not b or not n:
                continue
            result = verdict(b, n, entry["better"], entry["bound"])
            regressions += result == "regression"
            _row(workload, entry["name"], entry["unit"], b, n,
                 f"{result} (bound {entry['bound']:.0%})")
        for entry in spec["per_layer"]:
            b = _values(base, workload, 1, "layers", entry["name"])
            n = _values(new, workload, 1, "layers", entry["name"])
            if b and n and (any(b) or any(n)):
                _row(workload, entry["name"], entry["unit"], b, n,
                     "per-layer")
    print(f"{regressions} end-to-end regression(s)")
    return 1 if regressions else 0


def _row(workload, name, unit, base, new, verdict_text):
    qb, qn = _quartiles(base), _quartiles(new)
    delta = (qn[1] - qb[1]) / qb[1] if qb[1] else 0.0

    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {unit}"
    print(f"{workload:15s} {name:32s} {fmt(qb):>32s} {fmt(qn):>32s} "
          f"{delta:+8.1%}  {verdict_text}")
