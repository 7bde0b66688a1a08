"""Fault-injection tests for the artifact store and its GC.

The store's contract under corruption is *corrupt-file-as-miss*: a
truncated ``.npz`` or half-written JSON (a crash between ``mkstemp``
and ``os.replace`` on a non-atomic filesystem, bit rot) must read as a
cache miss — counted, and repaired by the next put — never as an
exception or a wrong value. GC must tolerate corrupt entries and
in-flight temp files without touching what it shouldn't.
"""

from __future__ import annotations

import os

import pytest

from repro.artifacts import ArtifactStore, collect
from repro.artifacts.gc import iter_entries
from repro.resilience import FaultPlan, activate_fault_plan

np = pytest.importorskip("numpy")

KIND = "signatures"


def _artifact_path(store: ArtifactStore, kind: str, key: str, ext: str) -> str:
    path = store._path(kind, key, ext)
    assert os.path.exists(path)
    return path


def _truncate(path: str, keep_fraction: float = 0.5) -> None:
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(max(1, int(size * keep_fraction)))


class TestCorruptFileAsMiss:
    def test_truncated_npz_is_a_miss_and_repairable(self, tmp_path):
        store = ArtifactStore(tmp_path)
        arrays = {"m": np.arange(600, dtype=np.float64).reshape(20, 30)}
        store.put_arrays(KIND, "k1", arrays, meta={"cols": 30})
        _truncate(_artifact_path(store, KIND, "k1", "npz"))
        misses_before = store.counters["misses"]
        assert store.get_arrays(KIND, "k1") is None
        assert store.counters["misses"] == misses_before + 1
        # The next put repairs the entry in place.
        store.put_arrays(KIND, "k1", arrays, meta={"cols": 30})
        bundle = store.get_arrays(KIND, "k1")
        assert bundle is not None
        assert np.array_equal(bundle["m"], arrays["m"])
        assert bundle["meta"] == {"cols": 30}

    def test_single_byte_npz_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_arrays(KIND, "k1", {"m": np.ones(4)})
        _truncate(_artifact_path(store, KIND, "k1", "npz"), keep_fraction=0.0)
        assert store.get_arrays(KIND, "k1") is None

    def test_half_written_json_is_a_miss_and_repairable(self, tmp_path):
        store = ArtifactStore(tmp_path)
        value = {"terms": {f"t{i}": i for i in range(50)}}
        store.put_json(KIND, "k2", value)
        _truncate(_artifact_path(store, KIND, "k2", "json"))
        assert store.get_json(KIND, "k2") is None
        store.put_json(KIND, "k2", value)
        assert store.get_json(KIND, "k2") == value

    def test_garbage_json_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_json(KIND, "k3", [1, 2, 3])
        path = _artifact_path(store, KIND, "k3", "json")
        with open(path, "wb") as handle:
            handle.write(b"\xff\xfe not json at all")
        assert store.get_json(KIND, "k3") is None


class TestInjectedTornWrites:
    def test_fault_plan_tears_publishes_at_the_replace_boundary(self, tmp_path):
        store = ArtifactStore(tmp_path)
        value = {"payload": list(range(200))}
        plan = FaultPlan(seed=1, artifact_corrupt_rate=1.0)
        with activate_fault_plan(plan):
            store.put_json(KIND, "k1", value)
            store.put_arrays(KIND, "k2", {"m": np.arange(100.0)})
        assert plan.injected["artifact_corrupt"] == 2
        # Torn files read as misses...
        assert store.get_json(KIND, "k1") is None
        assert store.get_arrays(KIND, "k2") is None
        # ...and a fault-free put repairs them.
        store.put_json(KIND, "k1", value)
        assert store.get_json(KIND, "k1") == value

    def test_corrupt_decision_is_seeded_per_key(self, tmp_path):
        plan_a = FaultPlan(seed=7, artifact_corrupt_rate=0.5)
        plan_b = FaultPlan(seed=7, artifact_corrupt_rate=0.5)
        names = [f"{i:02x}deadbeef.json" for i in range(40)]
        decisions_a = [plan_a.corrupts_artifact(n) for n in names]
        decisions_b = [plan_b.corrupts_artifact(n) for n in reversed(names)]
        assert decisions_a == list(reversed(decisions_b))
        assert any(decisions_a) and not all(decisions_a)


class TestGcUnderCorruption:
    def _populate(self, store: ArtifactStore) -> None:
        for i in range(4):
            store.put_json(KIND, f"key{i}" + "0" * 8, {"i": i})
        store.put_arrays("spaces", "s0" + "0" * 8, {"m": np.ones(8)})

    def test_gc_skips_tmp_files_and_the_stats_ledger(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._populate(store)
        store.flush_stats()
        stray_tmp = os.path.join(store.root, KIND, "ke", "inflight.tmp")
        with open(stray_tmp, "w", encoding="utf-8") as handle:
            handle.write("half-written")
        entries = list(iter_entries(store.root))
        assert all(not path.endswith(".tmp") for path, _, _ in entries)
        report = collect(store.root, max_bytes=0)
        assert report.removed_entries == report.scanned_entries == 5
        # In-flight temp files and the counter ledger survive the sweep.
        assert os.path.exists(stray_tmp)
        assert os.path.exists(os.path.join(store.root, "stats.json"))

    def test_gc_evicts_corrupt_entries_like_any_other(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._populate(store)
        victim = _artifact_path(store, KIND, "key0" + "0" * 8, "json")
        _truncate(victim)
        report = collect(store.root, max_bytes=0)
        assert report.removed_entries == 5
        assert not os.path.exists(victim)

    def test_gc_after_chaos_run_leaves_a_servable_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with activate_fault_plan(FaultPlan(seed=3, artifact_corrupt_rate=0.5)):
            for i in range(10):
                store.put_json(KIND, f"k{i}" + "0" * 8, {"i": i})
        # Age-based GC with no cutoff pressure keeps everything; reads
        # of whatever survived chaos are misses or correct values,
        # never errors.
        collect(store.root, max_age_s=3600.0)
        for i in range(10):
            value = store.get_json(KIND, f"k{i}" + "0" * 8)
            assert value is None or value == {"i": i}
