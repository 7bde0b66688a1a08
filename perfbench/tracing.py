"""Outside-in span tracing for the THOR benchmark.

The tracer wraps public entry points of the pipeline's layers *where
their callers bind them*: a function is replaced in every loaded
``repro`` module whose globals hold it (a caller that did
``from repro.html.parser import parse`` keeps its own binding, so
patching only the defining module would miss it), and a method is
replaced on its class. Each wrapper records one span — name, start,
end, parent span, request id — into a flat in-memory array; nothing is
written until :meth:`Tracer.save`.

A span's *self time* is its duration minus the time its child spans
cover. Spans nest per thread, so children are disjoint and the covered
time is the sum of the children's durations.

Work done inside worker processes of a fan-out is out of reach from
here: wrappers are inherited by forked workers, but the spans they
record stay in the worker and are lost with it.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from array import array
from typing import Callable, Optional

#: (span name, "module:attr" or "module:Class.method") — the layer
#: boundaries the benchmark times. Several targets may share a name.
TARGETS = (
    ("html.parse", "repro.html.parser:parse"),
    ("text.stem", "repro.text.porter:porter_stem"),
    ("text.extract", "repro.text.terms:TermExtractor.extract_counts"),
    ("signatures", "repro.core.page:Page.tag_counts"),
    ("signatures", "repro.core.page:Page.term_counts"),
    ("cluster.fit", "repro.core.page_clustering:PageClusterer.fit"),
    ("identify", "repro.core.identification:PageletIdentifier.identify"),
    ("identify.candidates", "repro.core.single_page:candidate_subtrees_for_cluster"),
    ("identify.candidates", "repro.core.single_page:candidate_records_for_cluster"),
    ("identify.subtree_sets", "repro.core.subtree_sets:find_common_subtree_sets"),
    ("identify.rank", "repro.core.subtree_ranking:rank_subtree_sets"),
    ("identify.select", "repro.core.selection:score_sets"),
    ("partition", "repro.core.partitioning:ObjectPartitioner.partition"),
    ("probe", "repro.core.probing:QueryProber.probe"),
    ("runtime.fanout", "repro.runtime:run_chunked"),
    # ``Thor.run(..., RunOptions(incremental=True))`` enters the
    # refresh tiers here; there is no public entry below ``run``.
    ("incremental.refresh", "repro.core.thor:Thor._refresh_guarded"),
)

#: Fields per recorded span in :attr:`Tracer.rows`.
_FIELDS = 6  # span id, name id, parent span id, request id, start, end


class Tracer:
    """Records spans from wrapped layer entry points."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: Flat float64 rows of ``_FIELDS`` values, appended on span
        #: exit with one ``extend`` (atomic under the interpreter lock).
        self.rows = array("d")
        self._ids = itertools.count()
        self._local = threading.local()
        #: Request id stamped on new spans (the benchmark's site index).
        self.request = -1
        #: Distinct words passed to the stemmer.
        self.stem_words: set = set()
        #: Probe telemetry objects returned while tracing.
        self.telemetry: list = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        """Spans recorded so far."""
        return len(self.rows) // _FIELDS

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_call: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        nid = self.name_id(name)
        ids = self._ids
        stack_of = self._stack
        rows = self.rows
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows.extend((sid, nid, parent, self.request, start, end))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Patch every target at every binding site; idempotent pairs
        with :meth:`uninstall`."""
        if self._patches:
            return
        hooks = {
            "text.stem": {"on_call": lambda args: self.stem_words.add(args[0])},
            "probe": {"on_result": self._keep_telemetry},
        }
        for name, target in TARGETS:
            module_name, attr = target.split(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self.wrap(name, original, **hooks.get(name, {})))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, **hooks.get(name, {}))
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if not getattr(loaded, "__name__", "").startswith("repro") or not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _keep_telemetry(self, result) -> None:
        telemetry = getattr(result, "telemetry", None)
        if telemetry is not None:
            self.telemetry.append(telemetry)

    # -- reading -----------------------------------------------------------

    def table(self):
        """The spans as numpy columns, indexed by span id: name,
        parent, request, start, end, dur and self. Read it after the
        traced calls return, when every span is closed."""
        import numpy as np

        raw = np.frombuffer(self.rows, dtype=np.float64).reshape(-1, _FIELDS)
        raw = raw[np.argsort(raw[:, 0], kind="stable")]
        parents = raw[:, 2].astype(np.int64)
        dur = raw[:, 5] - raw[:, 4]
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=dur[nested], minlength=len(raw))
        return {
            "name": raw[:, 1].astype(np.int64),
            "parent": parents,
            "request": raw[:, 3].astype(np.int64),
            "start": raw[:, 4],
            "end": raw[:, 5],
            "dur": dur,
            "self": dur - covered,
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        table = self.table()
        out = {}
        for nid, name in enumerate(self.names):
            mask = table["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(table["dur"][mask].sum()),
                "self_s": float(table["self"][mask].sum()),
            }
        return out

    def save(self, path: str) -> None:
        """Write every span (and the name table) as a compressed npz."""
        import numpy as np

        table = self.table()
        np.savez_compressed(path, names=np.asarray(self.names), **table)
