"""Tests for the persistent content-addressed artifact store."""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.artifacts import (
    ArtifactStore,
    KIND_MODELS,
    KIND_SIGNATURES,
    KIND_SPACES,
    artifact_report,
    cached_signature,
    collect,
    format_artifact_report,
    load_persistent_stats,
    merge_persistent_stats,
    model_key,
    page_signature_key,
    put_signature,
    space_key,
    store_usage,
)
from repro.artifacts.gc import iter_entries
from repro.config import ExecutionConfig, resolve_cache_dir


HTML = "<html><body><div id='a'>hello <b>world</b></div><p>x</p></body></html>"


class TestKeys:
    def test_keys_are_deterministic(self):
        assert page_signature_key(HTML) == page_signature_key(HTML)
        assert model_key("site", "fp") == model_key("site", "fp")

    def test_keys_differ_by_content(self):
        assert page_signature_key(HTML) != page_signature_key(HTML + " ")

    def test_kinds_get_distinct_keys(self):
        keys = {
            page_signature_key(HTML),
            model_key(HTML, ""),
            space_key([{HTML: 1}], "tfidf"),
        }
        assert len(keys) == 3

    def test_extractor_version_retires_every_term_derived_kind(
        self, monkeypatch
    ):
        from repro.artifacts import keys

        def derived():
            return (
                page_signature_key(HTML),
                model_key("site", "fingerprint"),
            )

        current = derived()
        monkeypatch.setattr(keys, "EXTRACTOR_VERSION", keys.EXTRACTOR_VERSION - 1)
        older = derived()
        assert all(new != old for new, old in zip(current, older))

    def test_space_key_is_iteration_order_sensitive(self):
        # Column order of the vocabulary is load-bearing for the
        # bitwise invariant: two collections with equal *sorted*
        # content but different insertion order are different spaces.
        a = space_key([{"x": 1, "y": 2}], "tfidf")
        b = space_key([{"y": 2, "x": 1}], "tfidf")
        assert a != b
        assert space_key([{"x": 1}], "tfidf") != space_key([{"x": 1}], "raw")


class TestStore:
    def test_json_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        value = {"b": 2, "a": [1, "x", None]}
        store.put_json(KIND_SIGNATURES, "ab" * 32, value)
        loaded = store.get_json(KIND_SIGNATURES, "ab" * 32)
        assert loaded == value
        # JSON preserves dict insertion order.
        assert list(loaded) == ["b", "a"]
        assert store.stats() == {
            "hits": 1, "misses": 0, "puts": 1,
            "bytes_written": store.stats()["bytes_written"],
        }

    def test_missing_key_is_counted_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get_json(KIND_SIGNATURES, "00" * 32) is None
        assert store.stats()["misses"] == 1

    def test_corrupt_file_is_counted_miss_and_repairable(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "cd" * 32
        store.put_json(KIND_SIGNATURES, key, [1, 2])
        path = store._path(KIND_SIGNATURES, key, "json")
        with open(path, "wb") as handle:
            handle.write(b"{truncated")
        assert store.get_json(KIND_SIGNATURES, key) is None
        assert store.stats()["misses"] == 1
        store.put_json(KIND_SIGNATURES, key, [1, 2])
        assert store.get_json(KIND_SIGNATURES, key) == [1, 2]

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_json(KIND_SIGNATURES, "ef" * 32, {"k": 1})
        leftovers = [
            name
            for _, _, files in os.walk(tmp_path)
            for name in files
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_array_round_trip_is_bitwise(self, tmp_path):
        np = pytest.importorskip("numpy")
        store = ArtifactStore(tmp_path)
        matrix = np.array([[0.1, 0.2], [1.0 / 3.0, 7e-300]])
        norms = np.array([1.0, 0.999999999999])
        store.put_arrays(
            KIND_SPACES, "12" * 32, {"matrix": matrix, "norms": norms},
            meta={"features": ["a", "b"]},
        )
        bundle = store.get_arrays(KIND_SPACES, "12" * 32)
        assert bundle["meta"] == {"features": ["a", "b"]}
        assert np.array_equal(bundle["matrix"], matrix)
        assert np.array_equal(bundle["norms"], norms)

    def test_stats_ledger_accumulates_across_flushes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_json(KIND_SIGNATURES, "aa" * 32, 1)
        store.get_json(KIND_SIGNATURES, "aa" * 32)
        store.flush_stats()
        assert store.stats()["puts"] == 0  # folded into the ledger
        other = ArtifactStore(tmp_path)  # a second process
        other.get_json(KIND_SIGNATURES, "no" * 32)
        other.flush_stats()
        ledger = load_persistent_stats(tmp_path)
        assert ledger["puts"] == 1
        assert ledger["hits"] == 1
        assert ledger["misses"] == 1

    def test_merge_persistent_stats_survives_corrupt_ledger(self, tmp_path):
        (tmp_path / "stats.json").write_text("not json")
        totals = merge_persistent_stats(tmp_path, {"hits": 2})
        assert totals == {"hits": 2}


class TestSignatures:
    def test_round_trip_preserves_count_order(self, tmp_path):
        store = ArtifactStore(tmp_path)
        put_signature(
            store, HTML,
            tag_counts={"div": 2, "b": 1},
            term_counts={"world": 1, "hello": 1},
            max_fanout=3,
        )
        bundle = cached_signature(store, HTML)
        assert list(bundle["term_counts"]) == ["world", "hello"]
        assert bundle["max_fanout"] == 3

    def test_incomplete_bundle_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_json(
            KIND_SIGNATURES, page_signature_key(HTML), {"tag_counts": {}}
        )
        assert cached_signature(store, HTML) is None


class TestGc:
    def _fill(self, tmp_path, n=6):
        store = ArtifactStore(tmp_path)
        for i in range(n):
            store.put_json(KIND_SIGNATURES, f"{i:02d}" * 32, {"i": i, "pad": "x" * 64})
        store.flush_stats()
        return store

    def test_pure_scan_removes_nothing(self, tmp_path):
        self._fill(tmp_path)
        report = collect(tmp_path)
        assert report.removed_entries == 0
        assert report.scanned_entries == 6

    def test_byte_budget_evicts_oldest_first(self, tmp_path):
        self._fill(tmp_path)
        entries = sorted(iter_entries(tmp_path), key=lambda e: (e[2], e[0]))
        per_entry = entries[0][1]
        report = collect(tmp_path, max_bytes=3 * per_entry)
        assert report.removed_entries == 3
        survivors = {path for path, _, _ in iter_entries(tmp_path)}
        # The oldest three are the ones gone.
        assert all(e[0] not in survivors for e in entries[:3])
        assert report.kept_bytes <= 3 * per_entry

    def test_age_limit_evicts_expired(self, tmp_path):
        self._fill(tmp_path)
        stale = sorted(iter_entries(tmp_path))[0][0]
        os.utime(stale, (1, 1))
        report = collect(tmp_path, max_age_s=3600)
        assert report.removed_entries == 1
        assert not os.path.exists(stale)

    def test_stats_ledger_never_evicted(self, tmp_path):
        self._fill(tmp_path)
        paths = [path for path, _, _ in iter_entries(tmp_path)]
        assert all(not p.endswith("stats.json") for p in paths)
        collect(tmp_path, max_bytes=0)
        assert os.path.exists(tmp_path / "stats.json")
        assert list(iter_entries(tmp_path)) == []

    def test_models_evicted_only_after_other_kinds(self, tmp_path):
        store = self._fill(tmp_path)
        store.put_json(KIND_MODELS, "ab" * 32, {"pad": "x" * 64})
        entries = {
            path: size for path, size, _ in iter_entries(tmp_path)
        }
        model_path = next(
            path
            for path in entries
            if os.path.relpath(path, tmp_path).split(os.sep)[0] == "models"
        )
        os.utime(model_path, (1, 1))  # make the model the oldest entry
        record_size = max(
            size for path, size in entries.items() if path != model_path
        )
        collect(tmp_path, max_bytes=entries[model_path] + record_size)
        # Oldest entry in the store, yet it outlives every evicted
        # record: the byte budget drains non-model kinds first.
        assert os.path.exists(model_path)
        survivors = {path for path, _, _ in iter_entries(tmp_path)}
        assert len(survivors) == 2  # the model + the newest record
        # With everything else gone, models are fair game.
        collect(tmp_path, max_bytes=0)
        assert not os.path.exists(model_path)

    def test_age_expiry_still_reaps_models(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_json(KIND_MODELS, "ab" * 32, {"pad": "x" * 64})
        model_path = next(path for path, _, _ in iter_entries(tmp_path))
        os.utime(model_path, (1, 1))
        report = collect(tmp_path, max_age_s=3600)
        assert report.removed_entries == 1
        assert not os.path.exists(model_path)

    def test_usage_report_accounts_models_kind(self, tmp_path):
        store = self._fill(tmp_path)
        store.put_json(KIND_MODELS, "ab" * 32, {"pad": "x" * 64})
        text = format_artifact_report(artifact_report(tmp_path))
        assert "models: 1 entries" in text

    def test_usage_report_breaks_down_by_kind(self, tmp_path):
        store = self._fill(tmp_path)
        store.put_json(KIND_SPACES, "ab" * 32, {"pad": "x"})
        usage = store_usage(tmp_path)
        assert usage["entries"] == 7
        report = artifact_report(tmp_path)
        text = format_artifact_report(report)
        assert "signatures: 6 entries" in text
        assert "spaces: 1 entries" in text
        assert "lifetime:" in text


class TestResolveCacheDir:
    def test_explicit_dir_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        assert resolve_cache_dir(execution) == str(tmp_path)

    def test_env_var_fills_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert resolve_cache_dir(ExecutionConfig()) == str(tmp_path)
        assert resolve_cache_dir(None) == str(tmp_path)

    def test_unset_means_no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache_dir(ExecutionConfig()) is None

    def test_artifact_cache_off_disables_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        execution = ExecutionConfig(
            cache_dir=str(tmp_path), artifact_cache="off"
        )
        assert resolve_cache_dir(execution) is None


class TestStoreRegistry:
    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        from repro.runtime import clear_artifact_store_registry

        clear_artifact_store_registry()
        yield
        clear_artifact_store_registry()

    def test_memoized_per_root(self, tmp_path):
        from repro.runtime import artifact_store_for

        execution = ExecutionConfig(cache_dir=str(tmp_path))
        first = artifact_store_for(execution)
        second = artifact_store_for(ExecutionConfig(cache_dir=str(tmp_path)))
        assert first is second
        assert first.root == str(tmp_path)

    def test_none_without_configuration(self, monkeypatch):
        from repro.runtime import artifact_store_for

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert artifact_store_for(None) is None
        assert artifact_store_for(ExecutionConfig()) is None


class TestPersistentSpaceCache:
    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        from repro.runtime import (
            clear_artifact_store_registry,
            clear_space_cache,
        )

        clear_space_cache()
        clear_artifact_store_registry()
        yield
        clear_space_cache()
        clear_artifact_store_registry()

    def test_disk_hit_is_bitwise_identical(self, tmp_path):
        np = pytest.importorskip("numpy")
        from repro.runtime import (
            artifact_store_for,
            cached_weighted_space,
            clear_space_cache,
        )
        from repro.vsm.matrix import weighted_space

        maps = [{"a": 2, "b": 1}, {"b": 3, "c": 1}, {"a": 1}]
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        built = cached_weighted_space(maps, "tfidf", execution)
        clear_space_cache()  # force the in-memory miss
        loaded = cached_weighted_space(maps, "tfidf", execution)
        assert loaded is not built
        assert np.array_equal(loaded.matrix, built.matrix)
        assert np.array_equal(loaded.norms, built.norms)
        assert loaded.vocabulary == built.vocabulary
        fresh = weighted_space(maps, "tfidf")
        assert np.array_equal(loaded.matrix, fresh.matrix)
        store = artifact_store_for(execution)
        assert store.stats()["hits"] >= 1

    def test_corrupt_space_artifact_falls_back_to_build(self, tmp_path):
        np = pytest.importorskip("numpy")
        from repro.artifacts.keys import space_key as persistent_space_key
        from repro.runtime import (
            artifact_store_for,
            cached_weighted_space,
            clear_space_cache,
        )

        maps = [{"a": 1, "b": 2}]
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        built = cached_weighted_space(maps, "tfidf", execution)
        store = artifact_store_for(execution)
        path = store._path(
            KIND_SPACES, persistent_space_key(maps, "tfidf"), "npz"
        )
        with open(path, "wb") as handle:
            handle.write(b"not an npz")
        clear_space_cache()
        rebuilt = cached_weighted_space(maps, "tfidf", execution)
        assert np.array_equal(rebuilt.matrix, built.matrix)


class TestStoreFilledBeforeUnicodeWords:
    """A store filled while the tokenizer still split words at non-ASCII
    letters (``café`` → ``caf``) must not serve those term counts."""

    #: The word pattern of extractor version 1.
    ASCII_WORDS = re.compile(r"[A-Za-z0-9]+(?:['\-][A-Za-z0-9]+)*")

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        from repro.core.subtree_sets import clear_quad_matrix_memo
        from repro.runtime import (
            clear_artifact_store_registry,
            clear_space_cache,
        )

        def reset():
            clear_space_cache()
            clear_artifact_store_registry()
            clear_quad_matrix_memo()

        reset()
        yield reset
        reset()

    @staticmethod
    def accented_pages():
        """One genre site whose content text is full of ``é``."""
        from repro.core.page import Page
        from repro.deepweb import generate_corpus

        sample = generate_corpus(n_sites=1, seed=2, domains=["music"])[0]

        def accent(html):
            return re.sub(
                r">([^<]+)<",
                lambda m: ">" + m.group(1).replace("e", "é") + "<",
                html,
            )

        return [
            Page(accent(p.html), url=p.url, query=p.query)
            for p in sample.pages
        ]

    def test_warm_run_equals_cold_run(self, tmp_path, monkeypatch, fresh_caches):
        from repro.artifacts import keys
        from repro.config import ThorConfig
        from repro.core.thor import Thor
        from repro.io.export import result_digest
        from repro.text import tokenize

        def extract(execution):
            fresh_caches()
            config = ThorConfig(seed=1, execution=execution)
            return result_digest(Thor(config).extract(self.accented_pages()))

        execution = ExecutionConfig(cache_dir=str(tmp_path))
        cold = extract(ExecutionConfig())

        # Fill the store the way the version-1 extractor did.
        with monkeypatch.context() as old:
            old.setattr(tokenize, "_WORD_RE", self.ASCII_WORDS)
            old.setattr(keys, "EXTRACTOR_VERSION", 1)
            stale = extract(execution)
        assert stale != cold  # the stale entries would change the result

        assert extract(execution) == cold


class TestStoreWithRetiredPhase2Kinds:
    """Stores filled while Phase 2 still cached per-page candidate
    records (``records/``) and parsed trees (``trees/``) stay usable:
    runs ignore those entries and GC still counts and evicts them."""

    @staticmethod
    def old_key(html: str, tag: str) -> str:
        """The content-addressed key those kinds were written under."""
        from repro.artifacts.keys import sha256_hex

        return f"{sha256_hex(html)}-{sha256_hex(tag)[:16]}"

    def fill_old_entries(self, root, pages) -> dict:
        """Write a records and a tree entry per page in the retired
        layout, ``<root>/<kind>/<key[:2]>/<key>.json``, with payloads
        that would change the result if anything read them."""
        from repro.artifacts.keys import EXTRACTOR_VERSION, PARSER_VERSION

        bogus_record = {
            "path": "html/body", "tags": ["html", "body"], "fanout": 1,
            "depth": 1, "nodes": 2, "terms": {"bogus": 1}, "siblings": [],
        }
        bogus_tree = ["html", [], [["body", [], ["bogus"]]]]
        written = {}
        for page in pages:
            for kind, tag, payload in (
                (
                    "records",
                    f"records:v1:parser{PARSER_VERSION}"
                    f":extractor{EXTRACTOR_VERSION}:branching0",
                    [bogus_record],
                ),
                ("trees", f"tree:v{PARSER_VERSION}", bogus_tree),
            ):
                key = self.old_key(page.html, tag)
                path = root / kind / key[:2] / f"{key}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(payload))
                written[str(path)] = path.read_bytes()
        return written

    @staticmethod
    def music_pages():
        from repro.deepweb import generate_corpus

        return list(generate_corpus(n_sites=1, seed=2, domains=["music"])[0].pages)

    def test_run_ignores_old_entries(self, tmp_path):
        from repro.config import ThorConfig
        from repro.core.page import Page
        from repro.core.thor import Thor
        from repro.io.export import result_digest
        from repro.runtime import clear_artifact_store_registry

        def extract(execution):
            clear_artifact_store_registry()
            pages = [
                Page(p.html, url=p.url, query=p.query)
                for p in self.music_pages()
            ]
            config = ThorConfig(seed=1, execution=execution)
            return result_digest(Thor(config).extract(pages))

        no_store = extract(ExecutionConfig())
        written = self.fill_old_entries(tmp_path, self.music_pages())
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        assert extract(execution) == no_store  # cold signatures
        assert extract(execution) == no_store  # warm signatures
        clear_artifact_store_registry()
        for path, content in written.items():
            with open(path, "rb") as handle:
                assert handle.read() == content

    def test_gc_counts_and_evicts_old_entries(self, tmp_path, capsys):
        from repro.cli import main

        pages = self.music_pages()[:5]
        written = self.fill_old_entries(tmp_path, pages)
        store = ArtifactStore(tmp_path)
        for page in pages:
            put_signature(store, page.html, {"p": 1}, {"t": 1}, 1)

        assert main(["artifacts-gc", "--cache-dir", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "gc: removed 0 of 15 entries" in text
        assert "records: 5 entries" in text
        assert "trees: 5 entries" in text

        for path in written:
            os.utime(path, (1, 1))  # older than any age limit
        argv = ["artifacts-gc", "--cache-dir", str(tmp_path), "--max-age-days", "1"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "gc: removed 10 of 15 entries" in text
        assert "records:" not in text and "trees:" not in text
        assert "signatures: 5 entries" in text
        assert not any(os.path.exists(path) for path in written)
