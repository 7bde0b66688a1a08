"""``repro.artifacts``: the persistent, content-addressed artifact cache.

Repeated extraction over near-identical page sets is the dominant
production workload (wrapper maintenance: the same site re-probed
daily, re-extracted after every template tweak). This package persists
the pipeline's expensive intermediates across processes:

- page clustering signatures (tag/term counts + max fanout,
  :mod:`repro.artifacts.pages`),
- Phase-1 :class:`~repro.vsm.matrix.VectorSpace` matrices (backing
  the in-memory LRU in :mod:`repro.runtime`),
- fitted site models (:mod:`repro.incremental`), plus the run
  manifests, fleet ledgers, crawl frontiers and corpus shards that
  make long jobs resumable.

Phase 2 stores nothing: it recomputes from each page's tree, which
costs less than reading per-page results back.

Everything is keyed by SHA-256 of the source content plus derivation
version tags (:mod:`repro.artifacts.keys`), so a hit is always exactly
what a cold computation would produce — the cache can make a run
faster, never different. Writes are atomic and last-writer-wins, so
concurrent processes may share one cache directory.

Enable via ``ExecutionConfig(cache_dir=...)``, the ``REPRO_CACHE_DIR``
environment variable, or the CLI ``--cache-dir`` flag; manage disk
usage with ``repro artifacts-gc``.
"""

from repro.artifacts.gc import GcReport, collect
from repro.artifacts.keys import (
    MODEL_VERSION,
    model_key,
    page_signature_key,
    sha256_hex,
    space_key,
)
from repro.artifacts.pages import cached_signature, put_signature
from repro.artifacts.stats import (
    artifact_report,
    format_artifact_report,
    store_usage,
)
from repro.artifacts.store import (
    KIND_MODELS,
    KIND_SIGNATURES,
    KIND_SPACES,
    ArtifactStore,
    load_persistent_stats,
    merge_persistent_stats,
)

__all__ = [
    "ArtifactStore",
    "GcReport",
    "KIND_MODELS",
    "KIND_SIGNATURES",
    "KIND_SPACES",
    "MODEL_VERSION",
    "artifact_report",
    "cached_signature",
    "collect",
    "format_artifact_report",
    "load_persistent_stats",
    "merge_persistent_stats",
    "model_key",
    "page_signature_key",
    "put_signature",
    "sha256_hex",
    "space_key",
    "store_usage",
]
