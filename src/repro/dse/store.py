"""Persistent on-disk result store: tuning warm-starts across processes.

The store is an append-only JSONL file.  Each line is one evaluated
configuration -- a :class:`~repro.explore.DesignPoint` or an
:class:`~repro.explore.InfeasiblePoint` -- keyed by a SHA-256 over the
*content* of the configuration: the region's structural fingerprint
(the same one :mod:`repro.flow.cache` uses), the technology library,
the timing-model version, the microarchitecture fields, the clock and
the scheduler options.  Two processes tuning the same kernel therefore
share results even though they never shared memory, and a result
computed under an older timing model is silently ignored rather than
served stale.

Robustness rules:

* unreadable or missing files load as an empty store;
* corrupt lines (truncated writes, merge scars) are skipped, not fatal;
* lines with a different :data:`STORE_VERSION` or timing-model version
  are skipped -- the file never needs migrating, stale entries simply
  stop matching and fresh ones append after them.

Concurrency: a single JSONL file appended by many processes risks
interleaved partial lines.  ``shard_per_process=True`` routes this
process's appends to a private ``<name>.<pid>.shard`` sibling instead;
loading always merges the base file with every sibling shard (results
are content-addressed, so merge order cannot matter), and
:meth:`ResultStore.compact` folds the shards back into the base file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.scheduler import SchedulerOptions
from repro.explore.microarch import InfeasiblePoint, Microarch
from repro.explore.pareto import DesignPoint
from repro.timing import engine as timing_engine

#: bump when the line schema changes; old lines are skipped on load.
STORE_VERSION = 1

#: one stored outcome: a feasible point or an explicit infeasibility.
StoredResult = Union[DesignPoint, InfeasiblePoint]


def candidate_key(region_fingerprint: str, library_name: str,
                  microarch: Microarch, clock_ps: float,
                  options: Optional[SchedulerOptions] = None) -> str:
    """Content hash of one tuning configuration.

    Mirrors :func:`repro.flow.cache.compilation_key` but keys on the
    *microarchitecture* (latency, II) instead of a mutated region, so
    it can be computed without building the candidate region -- which
    is what makes store lookups free.
    """
    payload = {
        "store": STORE_VERSION,
        "timing_model": timing_engine.TIMING_MODEL_VERSION,
        "region": region_fingerprint,
        "library": library_name,
        "microarch": {
            "latency": microarch.latency,
            "ii": microarch.ii,
        },
        "clock_ps": repr(float(clock_ps)),
        "options": asdict(options) if options is not None
        else asdict(SchedulerOptions()),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _encode(result: StoredResult) -> Dict[str, object]:
    if isinstance(result, InfeasiblePoint):
        return {"infeasible": result.to_json()}
    return {"point": result.to_json()}


def _decode(entry: Dict[str, object]) -> Optional[StoredResult]:
    if "infeasible" in entry:
        return InfeasiblePoint.from_json(entry["infeasible"])
    if "point" in entry:
        return DesignPoint.from_json(entry["point"])
    return None


class ResultStore:
    """Append-only JSONL store of evaluated design points.

    Open it on a path (created lazily on the first :meth:`put`); all
    valid entries load eagerly so :meth:`get` is a dict lookup.  Writes
    append one line and flush, so concurrent readers see every complete
    line and a crash costs at most the line being written.
    """

    def __init__(self, path: Union[str, Path],
                 shard_per_process: bool = False) -> None:
        self.path = Path(path)
        #: where this instance appends: the base file, or a private
        #: per-process shard when several writers share the path.
        self.write_path = self.path if not shard_per_process else \
            self.path.parent / f"{self.path.name}.{os.getpid()}.shard"
        self._entries: Dict[str, StoredResult] = {}
        self.skipped_lines = 0
        self._load()

    def _shard_paths(self) -> list:
        """Every sibling shard of the base file, stably ordered."""
        try:
            return sorted(
                self.path.parent.glob(f"{self.path.name}.*.shard"))
        except OSError:
            return []

    def _load(self) -> None:
        self._load_file(self.path)
        # merge-on-load: shards left by per-process writers.  Results
        # are content-addressed, so any merge order yields equivalent
        # entries (first writer wins per key).
        for shard in self._shard_paths():
            self._load_file(shard)

    def _load_file(self, path: Path) -> None:
        try:
            # errors="replace": binary garbage in a corrupted shard
            # must degrade to skipped lines, not an unreadable store
            text = path.read_text(errors="replace")
        except OSError:
            return
        model = timing_engine.TIMING_MODEL_VERSION
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                if not isinstance(entry, dict) \
                        or entry.get("v") != STORE_VERSION \
                        or entry.get("timing_model") != model:
                    self.skipped_lines += 1
                    continue
                key = entry["key"]
                result = _decode(entry)
            except (ValueError, KeyError, TypeError):
                self.skipped_lines += 1
                continue
            if isinstance(key, str) and result is not None:
                self._entries.setdefault(key, result)
            else:
                self.skipped_lines += 1

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[StoredResult]:
        """The stored result for a key, or None."""
        return self._entries.get(key)

    def put(self, key: str, result: StoredResult) -> None:
        """Record one result; appends a line unless the key is known."""
        if key in self._entries:
            return
        self._entries[key] = result
        entry = {"v": STORE_VERSION,
                 "timing_model": timing_engine.TIMING_MODEL_VERSION,
                 "key": key}
        entry.update(_encode(result))
        line = json.dumps(entry, sort_keys=True,
                          separators=(",", ":")) + "\n"
        try:
            self.write_path.parent.mkdir(parents=True, exist_ok=True)
            with self.write_path.open("a") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:  # read-only checkouts keep the in-memory entry
            pass

    def refresh(self) -> int:
        """Re-read the base file and every shard from disk.

        Folds in entries *other* processes appended since this store
        last read the path (first writer wins per key, as everywhere).
        Long-running drivers (the job service) call this between jobs
        so one process's warm-start view tracks the whole fleet.
        Returns the number of newly learned entries.
        """
        before = len(self._entries)
        self._load()
        return len(self._entries) - before

    def _write_base(self) -> bool:
        """Atomically rewrite the base file from the in-memory entries."""
        model = timing_engine.TIMING_MODEL_VERSION
        lines = []
        for key, result in self._entries.items():
            entry = {"v": STORE_VERSION, "timing_model": model,
                     "key": key}
            entry.update(_encode(result))
            lines.append(json.dumps(entry, sort_keys=True,
                                    separators=(",", ":")))
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.parent / f"{self.path.name}.{os.getpid()}.tmp"
            tmp.write_text("".join(line + "\n" for line in lines))
            os.replace(tmp, self.path)
        except OSError:
            return False
        return True

    def compact(self) -> int:
        """Fold every shard into the base file; returns shards removed.

        Crash- and concurrency-consistent by re-reading at compact
        time: the base file and every shard are read *fresh* from disk
        (not served from the entries loaded at construction, which go
        stale the moment another writer appends), the merged set is
        written atomically next to the base file and renamed over it,
        and only then are the shards deleted.  Before each deletion the
        shard is size-checked and re-read once more, so a line another
        process appended between the first read and the rewrite is
        folded into a second rewrite instead of vanishing with the
        shard.  A writer SIGKILLed mid-append leaves a partial trailing
        line; the loader skips it (counted in ``skipped_lines``) and the
        rewrite drops the scar, so survivors always load cleanly.
        """
        # fresh view: everything any writer has made durable by now
        self._load_file(self.path)
        shards = self._shard_paths()
        sizes: Dict[Path, int] = {}
        for shard in shards:
            try:
                sizes[shard] = shard.stat().st_size
            except OSError:
                sizes[shard] = -1
            self._load_file(shard)
        if not self._write_base():
            return 0
        # appends that raced the rewrite: fold and rewrite once more
        grown = []
        for shard in shards:
            try:
                if shard.stat().st_size != sizes[shard]:
                    grown.append(shard)
            except OSError:
                pass
        if grown:
            for shard in grown:
                self._load_file(shard)
            if not self._write_base():
                return 0
        removed = 0
        for shard in shards:
            try:
                shard.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def stats(self) -> Dict[str, int]:
        """Entry/skip counters for reports."""
        return {"entries": len(self._entries),
                "skipped_lines": self.skipped_lines}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultStore({str(self.path)!r}, "
                f"entries={len(self._entries)})")
