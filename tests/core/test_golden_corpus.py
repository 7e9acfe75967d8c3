"""The golden decision corpus: every tier-1 record still reproduces.

Thin pytest wrapper around ``tools/golden_corpus.py --check``.  Each
group recomputes its records on the scheduler as it is and compares
them with ``tests/golden/decisions.json``; a mismatch lists each record
that moved with its readable fields (verdict, passes, latency).  The
slow groups (the Fig. 9 ladder and the jpeg_dct grid) run in CI's
bench lane as ``python tools/golden_corpus.py --check --all``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent

_spec = importlib.util.spec_from_file_location(
    "golden_corpus", REPO / "tools" / "golden_corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


@pytest.mark.parametrize("group", corpus.FAST_GROUPS)
def test_group_matches_corpus(group):
    problems = corpus.check([group])
    assert not problems, "\n".join(problems)


def test_corpus_covers_every_group():
    records = corpus.load()
    assert {corpus.group_of(key) for key in records} == set(corpus.GROUPS)
    # 17 workloads x 2 libraries x 2 clocks, 7 designs x 3 option sets
    counts = {group: sum(corpus.group_of(key) == group for key in records)
              for group in corpus.GROUPS}
    assert counts == {"registry": 68, "table4": 21, "industrial": 4,
                      "random": 200, "ladder": 10, "grid": 25}


def test_write_adds_missing_and_replaces_only_named_records(tmp_path,
                                                            monkeypatch):
    """``--write`` never overwrites silently: an existing record changes
    only when ``--replace`` names it, and nothing is written otherwise."""
    real = corpus.GROUPS["random"]

    def tiny():
        for i, case in enumerate(real()):
            if i == 3:
                return
            yield case

    monkeypatch.setitem(corpus.GROUPS, "random", tiny)
    path = tmp_path / "decisions.json"
    fresh = corpus.compute(["random"])
    first, second, third = sorted(fresh)
    stale = dict(fresh[first], digest="0" * 64)
    corpus.save({first: stale, second: fresh[second]}, path)

    problems = corpus.write(["random"], path=path)
    assert len(problems) == 1 and problems[0].startswith(first)
    assert corpus.load(path) == {first: stale, second: fresh[second]}
    assert corpus.write(["random"], replace=["random/none"], path=path)

    assert corpus.write(["random"], replace=[first], path=path) == []
    assert corpus.load(path) == fresh  # replaced, kept, added
    assert corpus.check(["random"], path=path) == []
