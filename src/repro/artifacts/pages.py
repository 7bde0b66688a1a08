"""Page-level artifacts: clustering signatures.

A page's tag counts, term counts and max fanout are what Phase 1
clusters on; a warm run primes them from here instead of counting and
tokenizing the page again. Parsed trees and Phase-2 per-page results
are not stored: recomputing them from the page is cheaper than a
read-back.
"""

from __future__ import annotations

from typing import Optional

from repro.artifacts.keys import page_signature_key
from repro.artifacts.store import KIND_SIGNATURES, ArtifactStore


def cached_signature(store: ArtifactStore, html: str) -> Optional[dict]:
    """Load a page's clustering signature bundle, or ``None``.

    The bundle holds ``tag_counts`` / ``term_counts`` (insertion order
    preserved through JSON — vocabulary order is load-bearing for the
    bitwise invariant) and ``max_fanout``.
    """
    payload = store.get_json(KIND_SIGNATURES, page_signature_key(html))
    if not isinstance(payload, dict):
        return None
    if not {"tag_counts", "term_counts", "max_fanout"} <= set(payload):
        return None
    return payload


def put_signature(
    store: ArtifactStore,
    html: str,
    tag_counts: dict,
    term_counts: dict,
    max_fanout: int,
) -> None:
    """Persist a page's clustering signature bundle."""
    store.put_json(
        KIND_SIGNATURES,
        page_signature_key(html),
        {
            "tag_counts": tag_counts,
            "term_counts": term_counts,
            "max_fanout": max_fanout,
        },
    )


__all__ = ["cached_signature", "put_signature"]
