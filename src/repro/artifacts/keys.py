"""Content-addressed keys for the artifact store.

Every artifact is keyed by the SHA-256 of the *content it was derived
from* plus the version tags of the code that derived it. A key can
therefore never serve a stale artifact: changing the page HTML changes
the hash, and changing the derivation (parser semantics, signature
layout, extractor pipeline) must be accompanied by a version bump
below, which changes every key of that kind at once — the old entries
simply stop being referenced and age out via GC.

Key layout: ``sha256(content) + ':' + sha256(parameter-tag)`` where the
parameter tag folds in the version constants of the derivation.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Sequence

#: Bump when :mod:`repro.html.parser` output changes for the same HTML.
PARSER_VERSION = 1

#: Bump when the page-signature layout changes (tag counts, term
#: counts, max fanout — :func:`repro.artifacts.store.page_signature`).
SIGNATURE_VERSION = 1

#: Bump when the serialized :class:`~repro.vsm.matrix.VectorSpace`
#: layout changes.
SPACE_VERSION = 1

#: Bump when the term-extraction pipeline (tokenize → stem) changes.
#: v2: words keep their non-ASCII letters (``café``, not ``caf``).
EXTRACTOR_VERSION = 2

#: Bump when the fitted-model bundle layout changes
#: (:mod:`repro.incremental.model`).
MODEL_VERSION = 1


def sha256_hex(text: str) -> str:
    """Hex SHA-256 of a unicode string (UTF-8 encoded)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _tagged(content_hash: str, tag: str) -> str:
    return f"{content_hash}-{sha256_hex(tag)[:16]}"


def page_signature_key(html: str) -> str:
    """Key of a page's clustering signatures (tag/term counts)."""
    return _tagged(
        sha256_hex(html),
        f"signature:v{SIGNATURE_VERSION}:parser{PARSER_VERSION}"
        f":extractor{EXTRACTOR_VERSION}",
    )


def model_key(site: str, config_fingerprint: str) -> str:
    """Key of a site's persisted fitted model (incremental re-extraction).

    Unlike the content-addressed kinds, a model is a *named slot*: one
    per (site, config fingerprint), last-writer-wins. The config
    fingerprint keeps a model fitted under one pipeline configuration
    from ever serving a run under another; ``MODEL_VERSION`` retires
    every stored model at once when the bundle layout changes, and the
    signature, parser and extractor versions retire it when the page
    signatures it was fitted on would come out differently.
    """
    return _tagged(
        sha256_hex(f"model:{site}:{config_fingerprint}"),
        f"model:v{MODEL_VERSION}:signature{SIGNATURE_VERSION}"
        f":parser{PARSER_VERSION}:extractor{EXTRACTOR_VERSION}",
    )


def space_key(count_maps: Sequence[Mapping[str, float]], weighting: str) -> str:
    """Key of an interned :class:`~repro.vsm.matrix.VectorSpace`.

    The key hashes the count maps *in iteration order* — the vocabulary
    column order (and therefore the exact float accumulation order of
    every downstream kernel) depends on it, and the warm == cold
    bitwise invariant demands the cached space be the exact space a
    fresh build would produce.
    """
    payload = json.dumps(
        [weighting, [list(map(list, counts.items())) for counts in count_maps]],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return _tagged(sha256_hex(payload), f"space:v{SPACE_VERSION}")


__all__ = [
    "EXTRACTOR_VERSION",
    "MODEL_VERSION",
    "PARSER_VERSION",
    "SIGNATURE_VERSION",
    "SPACE_VERSION",
    "model_key",
    "page_signature_key",
    "sha256_hex",
    "space_key",
]
