"""Persistent result store: round-trips, tolerance, invalidation."""

import json

from repro.core.scheduler import SchedulerOptions
from repro.dse import ResultStore, candidate_key
from repro.explore import DesignPoint, InfeasiblePoint, Microarch


def _pt(label="p", area=10.0):
    return DesignPoint(label=label, microarch="m", clock_ps=1000.0,
                       ii=2, latency=4, delay_ps=2000.0, area=area,
                       power_mw=1.5)


def test_round_trip_across_instances(tmp_path):
    path = tmp_path / "store.jsonl"
    store = ResultStore(path)
    store.put("k1", _pt("a"))
    store.put("k2", InfeasiblePoint("m", 500.0, "too tight"))
    assert len(store) == 2

    warm = ResultStore(path)  # a fresh process re-reading the file
    assert warm.get("k1") == _pt("a")
    assert warm.get("k2") == InfeasiblePoint("m", 500.0, "too tight")
    assert warm.get("missing") is None
    assert warm.skipped_lines == 0


def test_duplicate_puts_append_once(tmp_path):
    path = tmp_path / "store.jsonl"
    store = ResultStore(path)
    store.put("k", _pt())
    store.put("k", _pt(area=99.0))  # ignored: key already recorded
    assert store.get("k").area == 10.0
    assert len(path.read_text().splitlines()) == 1


def test_missing_file_loads_empty(tmp_path):
    store = ResultStore(tmp_path / "nope" / "store.jsonl")
    assert len(store) == 0


def test_corrupt_lines_skipped_not_fatal(tmp_path):
    path = tmp_path / "store.jsonl"
    store = ResultStore(path)
    store.put("good", _pt())
    with path.open("a") as handle:
        handle.write("{truncated\n")
        handle.write("[1, 2, 3]\n")
        handle.write('{"v": 1, "key": 7}\n')  # key must be a string
    warm = ResultStore(path)
    assert len(warm) == 1
    assert warm.get("good") == _pt()
    assert warm.skipped_lines == 3


def test_store_version_mismatch_skipped(tmp_path):
    path = tmp_path / "store.jsonl"
    store = ResultStore(path)
    store.put("k", _pt())
    text = path.read_text().replace('"v":1', '"v":999')
    path.write_text(text)
    assert len(ResultStore(path)) == 0


def test_timing_model_mismatch_skipped(tmp_path, monkeypatch):
    import repro.timing.engine as engine_mod

    path = tmp_path / "store.jsonl"
    ResultStore(path).put("k", _pt())
    monkeypatch.setattr(engine_mod, "TIMING_MODEL_VERSION",
                        engine_mod.TIMING_MODEL_VERSION + 1)
    stale = ResultStore(path)
    assert len(stale) == 0
    assert stale.skipped_lines == 1
    # fresh entries under the new model append after the stale ones
    stale.put("k2", _pt("b"))
    assert len(ResultStore(path)) == 1


def test_candidate_key_covers_all_axes():
    base = candidate_key("fp", "artisan90", Microarch("m", 8), 1600.0)
    assert base == candidate_key("fp", "artisan90",
                                 Microarch("renamed", 8), 1600.0)
    assert base != candidate_key("fp2", "artisan90",
                                 Microarch("m", 8), 1600.0)
    assert base != candidate_key("fp", "generic45",
                                 Microarch("m", 8), 1600.0)
    assert base != candidate_key("fp", "artisan90",
                                 Microarch("m", 16), 1600.0)
    assert base != candidate_key("fp", "artisan90",
                                 Microarch("m", 8, ii=4), 1600.0)
    assert base != candidate_key("fp", "artisan90",
                                 Microarch("m", 8), 1250.0)
    assert base != candidate_key(
        "fp", "artisan90", Microarch("m", 8), 1600.0,
        SchedulerOptions(enable_scc_move=False))


def test_key_ignores_display_name_only(tmp_path):
    """Two differently-labeled but structurally identical microarchs
    share results -- the store is content-addressed, not name-based."""
    path = tmp_path / "store.jsonl"
    store = ResultStore(path)
    k1 = candidate_key("fp", "lib", Microarch("spelled one way", 8),
                       1600.0)
    k2 = candidate_key("fp", "lib", Microarch("spelled another", 8),
                       1600.0)
    assert k1 == k2
    store.put(k1, _pt())
    assert store.get(k2) is not None


def test_lines_are_self_describing_json(tmp_path):
    path = tmp_path / "store.jsonl"
    ResultStore(path).put("k", _pt())
    (line,) = path.read_text().splitlines()
    entry = json.loads(line)
    assert entry["v"] == 1
    assert "timing_model" in entry
    assert entry["point"]["label"] == "p"


# ----------------------------------------------------------------------
# per-process sharding (concurrent writers)
# ----------------------------------------------------------------------
def test_shard_writer_appends_to_private_shard(tmp_path):
    path = tmp_path / "store.jsonl"
    store = ResultStore(path, shard_per_process=True)
    store.put("k1", _pt("a"))
    assert not path.exists()  # the base file is never touched
    assert store.write_path.name.endswith(".shard")
    assert store.write_path.exists()


def test_shards_merge_on_load(tmp_path):
    path = tmp_path / "store.jsonl"
    base = ResultStore(path)
    base.put("k0", _pt("base"))
    # two "processes": distinct shard files next to the base
    for pid, key in ((111, "k1"), (222, "k2")):
        shard = ResultStore(path)
        shard.write_path = path.parent / f"{path.name}.{pid}.shard"
        shard.put(key, _pt(f"w{pid}"))

    merged = ResultStore(path)
    assert len(merged) == 3
    assert merged.get("k0") == _pt("base")
    assert merged.get("k1") == _pt("w111")
    assert merged.get("k2") == _pt("w222")


def test_shard_conflicts_resolve_first_writer_wins(tmp_path):
    path = tmp_path / "store.jsonl"
    base = ResultStore(path)
    base.put("k", _pt(area=10.0))
    shard = ResultStore(path)
    shard.write_path = path.parent / f"{path.name}.999.shard"
    shard._entries.clear()  # simulate a writer that raced the base
    shard.put("k", _pt(area=99.0))

    merged = ResultStore(path)
    assert merged.get("k").area == 10.0  # base (loaded first) wins


def test_compact_folds_shards_into_base(tmp_path):
    path = tmp_path / "store.jsonl"
    for pid, key in ((111, "k1"), (222, "k2")):
        shard = ResultStore(path)
        shard.write_path = path.parent / f"{path.name}.{pid}.shard"
        shard.put(key, _pt(f"w{pid}"))

    merged = ResultStore(path)
    assert merged.compact() == 2
    assert not list(path.parent.glob("*.shard"))
    # the base file alone now serves every entry
    rebuilt = ResultStore(path)
    assert len(rebuilt) == 2
    assert rebuilt.get("k1") == _pt("w111")
    assert rebuilt.get("k2") == _pt("w222")


def test_corrupt_shard_skipped_not_fatal(tmp_path):
    path = tmp_path / "store.jsonl"
    base = ResultStore(path)
    base.put("k1", _pt("a"))
    (path.parent / f"{path.name}.7.shard").write_text("{half a lin")
    merged = ResultStore(path)
    assert len(merged) == 1
    assert merged.skipped_lines == 1


def test_simultaneous_compact_and_append_loses_nothing(tmp_path):
    """An append racing compact() lands in the second rewrite.

    compact() snapshots every shard's size, rewrites the base, then
    re-checks the sizes: a line another process appended between the
    snapshot and the rewrite must be folded in by the second rewrite --
    not vanish when the shard is deleted.  Injecting the append from
    inside ``_write_base`` pins the race deterministically at its worst
    possible moment.
    """
    path = tmp_path / "store.jsonl"
    writer = ResultStore(path, shard_per_process=True)
    writer.put("early", _pt("early"))

    class CompactsDuringAppend(ResultStore):
        raced = False

        def _write_base(self):
            if not CompactsDuringAppend.raced:
                CompactsDuringAppend.raced = True
                writer.put("racing", _pt("racing"))  # grows the shard
            return super()._write_base()

    compactor = CompactsDuringAppend(path)
    assert compactor.compact() == 1  # the shard was still removed
    assert not list(tmp_path.glob("*.shard"))

    rebuilt = ResultStore(path)
    assert rebuilt.skipped_lines == 0
    assert rebuilt.get("early") == _pt("early")
    assert rebuilt.get("racing") == _pt("racing")  # survived the race
    assert len(rebuilt) == 2


def test_compact_is_idempotent_when_no_shards_exist(tmp_path):
    path = tmp_path / "store.jsonl"
    store = ResultStore(path)
    store.put("k", _pt("a"))
    assert store.compact() == 0
    assert ResultStore(path).get("k") == _pt("a")
