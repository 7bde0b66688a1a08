"""The end-to-end THOR pipeline (Figure 2).

``Thor`` wires the three stages together:

1. :meth:`Thor.probe` — sample a deep-web source with probe queries;
2. :meth:`Thor.extract` — Phase 1 (page clustering + ranking) and
   Phase 2 (QA-Pagelet identification) over the top-m clusters;
3. :meth:`Thor.partition` — Stage 3 QA-Object partitioning.

:meth:`Thor.run` does all three. Each stage is also usable standalone,
which is how the evaluation isolates Phase 2 (Figure 8) from Phase 1.

The driver is fault-tolerant (DESIGN.md §11): pages and clusters whose
analysis raises a :class:`~repro.errors.ThorError` are *quarantined*
with structured reasons instead of aborting the run (as long as
``ExecutionConfig.min_surviving_fraction`` of the sample survives),
stages run under optional wall-clock watchdogs
(``ExecutionConfig.stage_timeout_s``, overridable per stage through
``ExecutionConfig.stage_timeouts``), named runs checkpoint their
stages through the artifact store so a ``Thor.run`` resume
skips finished work — the probe *and* the Phase-1 cluster fit — after
a crash, and every run's degradations are
accounted for on a :class:`~repro.resilience.report.RunReport`
(``ThorResult.report``). A seeded
:class:`~repro.resilience.faults.FaultPlan` can be attached for
deterministic chaos testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Optional, Sequence

from repro.cluster.assignments import Clustering, assign_to_centroids
from repro.config import (
    DEFAULT_CONFIG,
    RunOptions,
    ThorConfig,
    resolve_stage_timeout,
)
from repro.core.cluster_ranking import score_clusters
from repro.core.identification import IdentificationResult, PageletIdentifier
from repro.core.page import Page
from repro.core.page_clustering import PageClusterer, PageClusteringResult
from repro.core.pagelet import PartitionedPagelet, QAObject, QAPagelet
from repro.core.partitioning import ObjectPartitioner
from repro.core.probing import DeepWebSource, ProbeResult, QueryProber
from repro.errors import ExtractionError, ResumeError, ThorError
from repro.html.paths import PathResolutionError, PathSyntaxError, resolve_path
from repro.incremental.fingerprints import fingerprint_drift, page_fingerprint
from repro.incremental.model import (
    ClusterRecord,
    PageletRecord,
    SiteModel,
    load_model,
    page_content_key,
    save_model,
    site_identity,
)
from repro.resilience.faults import FaultPlan, activate_fault_plan, active_fault_plan
from repro.resilience.manifest import (
    config_fingerprint,
    load_cluster_checkpoint,
    load_probe_checkpoint,
    open_manifest,
    save_cluster_checkpoint,
    save_manifest,
    save_probe_checkpoint,
)
from repro.resilience.quarantine import (
    STAGE_IDENTIFY,
    STAGE_PARTITION,
    STAGE_SIGNATURE,
    quarantine_record,
)
from repro.resilience.report import (
    RunReport,
    RunReportBuilder,
    activate_report,
)
from repro.resilience.watchdog import run_stage
from repro.runtime import artifact_store_for
from repro.signatures.content import content_signature
from repro.signatures.tag import tag_signature
from repro.text.terms import DEFAULT_EXTRACTOR

#: Clustering configurations the incremental model can assign against
#: (tf-idf vector spaces reconstructible from the stored vocabulary +
#: idf). Other configurations never persist a model, so an incremental
#: run under them degrades to a counted model miss → full refit.
_INCREMENTAL_SIGNATURES = {
    "ttag": tag_signature,
    "tcon": content_signature,
}


@dataclass(frozen=True)
class ThorResult:
    """The full pipeline output for one site."""

    pages: tuple[Page, ...]
    clustering: PageClusteringResult
    #: Phase-2 results, one per forwarded cluster (ranking order).
    identifications: tuple[IdentificationResult, ...] = field(repr=False)
    #: All extracted QA-Pagelets across the forwarded clusters.
    pagelets: tuple[QAPagelet, ...] = ()
    #: Stage-3 output, parallel to ``pagelets``.
    partitioned: tuple[PartitionedPagelet, ...] = field(default=(), repr=False)
    #: Resilience accounting for the run that produced this result
    #: (quarantined units, chunk retries, fallbacks, timeouts, resume
    #: hits). Excluded from equality: two runs that computed the same
    #: pagelets are the same result however bumpy the road was.
    report: Optional[RunReport] = field(default=None, repr=False, compare=False)

    def pagelet_for_page(self, page: Page) -> Optional[QAPagelet]:
        """The pagelet extracted from ``page``, if any."""
        for pagelet in self.pagelets:
            if pagelet.page is page:
                return pagelet
        return None


class Thor:
    """The THOR extraction system."""

    def __init__(
        self,
        config: ThorConfig = DEFAULT_CONFIG,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.config = config
        # One execution plan (probe concurrency / cache) for every stage.
        execution = config.execution
        self.execution = execution
        #: Seeded chaos injected into this instance's runs (tests/CI);
        #: ``None`` — the default — injects nothing.
        self.fault_plan = fault_plan
        self._prober = QueryProber(
            config.probing, seed=config.seed, execution=execution
        )
        self._clusterer = PageClusterer(
            config.clustering, seed=config.seed, execution=execution
        )
        self._identifier = PageletIdentifier(
            config.subtrees, seed=config.seed, execution=execution
        )
        self._partitioner = ObjectPartitioner(config.subtrees)
        #: Artifact-cache counters folded in at each extract() flush.
        self._artifact_stats: dict[str, int] = {}
        #: Resilience ledger, accumulated across this instance's stages.
        self._report = RunReportBuilder()
        #: Per-cluster outcomes of the latest fit/refresh — the raw
        #: material :meth:`persist_model` bundles into the ``models/``
        #: artifact. ``None`` until an extract or refresh completes.
        self._last_fit: Optional[dict] = None

    # -- resilience accounting -------------------------------------------

    def report(self) -> RunReport:
        """The resilience ledger so far (see
        :func:`repro.resilience.report.format_run_report`)."""
        report = self._report.build()
        if self.fault_plan is not None:
            report = dataclass_replace(
                report, faults_injected=dict(self.fault_plan.injected)
            )
        return report

    def record_quarantine(self, records) -> None:
        """Fold externally produced quarantine records (e.g. corrupt
        page-cache lines from :func:`repro.io.cache.load_pages`) into
        this instance's run report."""
        for record in records:
            self._report.quarantine(record)

    # -- stage 1 ---------------------------------------------------------

    def probe(self, source: DeepWebSource) -> ProbeResult:
        """Stage 1: collect sample pages from ``source``."""
        with activate_fault_plan(self.fault_plan), activate_report(self._report):
            return self._probe_guarded(source)

    def _probe_guarded(self, source: DeepWebSource) -> ProbeResult:
        plan = active_fault_plan()
        if plan is not None and plan.source is not None:
            from repro.probe.faults import FaultInjectingSource

            if not isinstance(source, FaultInjectingSource):
                source = FaultInjectingSource(
                    source, plan.source, seed=plan.seed
                )
        return run_stage(
            lambda: self._prober.probe(source),
            "probe",
            resolve_stage_timeout(self.execution, "probe"),
        )

    # -- stage 2 ---------------------------------------------------------

    def extract(
        self, pages: Sequence[Page], options: Optional[RunOptions] = None
    ) -> ThorResult:
        """Stage 2: two-phase QA-Pagelet extraction over sampled pages.

        With a configured artifact cache, pages are prewarmed from the
        store first (clustering signatures injected) and signatures
        computed on this run are persisted afterwards — the cache only
        changes *when* values are computed, never what they are.
        Phase 2 always recomputes from the page trees.

        A :class:`~repro.config.RunOptions` with a ``run_id`` makes the
        extraction checkpointed: the Phase-1 fit is published to the
        run manifest once computed, and ``options.resume`` restores it
        (skipping the K-Means restarts) with a bitwise-identical
        result.

        Pages whose parse or signature analysis raises a
        :class:`~repro.errors.ThorError` are quarantined (with a
        structured reason on the run report) and extraction degrades
        to the survivors; when fewer than
        ``ExecutionConfig.min_surviving_fraction`` of the sample
        survives, :class:`~repro.errors.ExtractionError` is raised —
        extracting a template from junk would only produce junk. A
        forwarded cluster whose Phase-2 analysis raises (or times out
        under its watchdog deadline) is likewise quarantined whole, and
        the remaining clusters still produce pagelets.
        """
        with activate_fault_plan(self.fault_plan), activate_report(self._report):
            store = manifest = None
            if options is not None and options.run_id is not None:
                store, manifest = self._open_checkpoint(options)
            result = self._extract_guarded(
                pages, store=store, manifest=manifest, options=options
            )
            if manifest is not None:
                from repro.io.export import result_digest

                manifest.mark_complete("extract", digest=result_digest(result))
                save_manifest(store, manifest)
            return result

    def _extract_guarded(
        self,
        pages: Sequence[Page],
        *,
        store=None,
        manifest=None,
        options: Optional[RunOptions] = None,
    ) -> ThorResult:
        primed = self._prime_pages(pages)
        surviving = self._quarantine_scan(pages)
        self._check_survival(len(surviving), len(pages))
        clustering = None
        if (
            manifest is not None
            and options is not None
            and options.resume
            and manifest.stage_complete("cluster")
        ):
            clustering = load_cluster_checkpoint(store, options.run_id, surviving)
            if clustering is not None:
                self._report.resume_hit("cluster")
            # A corrupt, evicted, or size-mismatched checkpoint is a
            # miss, not an error: fall through to refitting.
        if clustering is None:
            clustering = run_stage(
                lambda: self._clusterer.fit(surviving),
                "cluster",
                resolve_stage_timeout(self.execution, "cluster"),
            )
            if manifest is not None:
                payload_key = save_cluster_checkpoint(
                    store, options.run_id, clustering
                )
                manifest.mark_complete(
                    "cluster", pages=len(surviving), payload_key=payload_key
                )
                save_manifest(store, manifest)
        identifications: list[IdentificationResult] = []
        pagelets: list[QAPagelet] = []
        outcomes: list[dict] = []
        top_ids = clustering.top_cluster_ids(
            self.config.clustering.top_m,
            min_pages=self.config.clustering.min_cluster_pages,
        )
        for cluster_index, cluster_id in enumerate(top_ids):
            cluster_pages = clustering.cluster_pages(cluster_id)
            if not cluster_pages:
                continue
            try:
                result = run_stage(
                    lambda pages=cluster_pages: self._identifier.identify(pages),
                    "identify",
                    resolve_stage_timeout(self.execution, "identify"),
                )
            except ThorError as exc:
                # Degrade: this cluster contributes nothing, the rest
                # of the run proceeds. (StageTimeoutError lands here
                # too — the watchdog already logged the timeout.)
                self._report.quarantine(
                    quarantine_record(
                        STAGE_IDENTIFY,
                        f"cluster[{cluster_index}] ({len(cluster_pages)} pages)",
                        exc,
                    )
                )
                outcomes.append(
                    {
                        "cluster": cluster_id,
                        "members": cluster_pages,
                        "identification": None,
                        "quarantined": str(exc),
                    }
                )
                continue
            identifications.append(result)
            pagelets.extend(result.pagelets)
            outcomes.append(
                {
                    "cluster": cluster_id,
                    "members": cluster_pages,
                    "identification": result,
                    "quarantined": None,
                }
            )
        self._persist_signatures(surviving, primed)
        self._last_fit = {
            "pages": tuple(surviving),
            "clustering": clustering,
            "outcomes": outcomes,
        }
        return ThorResult(
            pages=tuple(surviving),
            clustering=clustering,
            identifications=tuple(identifications),
            pagelets=tuple(pagelets),
            report=self.report(),
        )

    def _quarantine_scan(self, pages: Sequence[Page]) -> list[Page]:
        """Force each page's parse + signature analysis, quarantining
        the ones that raise; returns the surviving pages in order."""
        plan = active_fault_plan()
        surviving: list[Page] = []
        for index, page in enumerate(pages):
            unit = page.url or f"page[{index}]"
            try:
                if plan is not None:
                    fault = plan.page_fault(unit)
                    if fault is not None:
                        raise fault
                page.tag_counts()
                page.term_counts()
                page.max_fanout()
            except ThorError as exc:
                self._report.quarantine(
                    quarantine_record(STAGE_SIGNATURE, unit, exc)
                )
                continue
            surviving.append(page)
        self._report.pages_scanned(len(pages), len(surviving))
        return surviving

    def _check_survival(self, surviving: int, total: int) -> None:
        minimum = self.execution.min_surviving_fraction
        if surviving and surviving >= minimum * total:
            return
        raise ExtractionError(
            f"only {surviving}/{total} pages survived the quarantine scan "
            f"(min_surviving_fraction={minimum}); refusing to extract a "
            "template from what is mostly junk"
        )

    def _prime_pages(self, pages: Sequence[Page]) -> set[int]:
        """Warm pages from the artifact store; return primed page ids."""
        store = artifact_store_for(self.execution)
        primed: set[int] = set()
        if store is None:
            return primed
        from repro.artifacts.pages import cached_signature

        for page in pages:
            signature = cached_signature(store, page.html)
            if signature is None:
                continue
            try:
                page.prime_signature(
                    tag_counts={
                        str(tag): int(count)
                        for tag, count in signature["tag_counts"].items()
                    },
                    term_counts={
                        str(term): int(count)
                        for term, count in signature["term_counts"].items()
                    },
                    max_fanout=int(signature["max_fanout"]),
                )
            except (TypeError, ValueError, AttributeError):
                continue  # malformed bundle: fall back to computing
            primed.add(id(page))
        return primed

    def _persist_signatures(self, pages: Sequence[Page], primed: set[int]) -> None:
        """Publish signatures computed this run; fold counter deltas."""
        store = artifact_store_for(self.execution)
        if store is None:
            return
        from repro.artifacts.pages import put_signature

        for page in pages:
            if id(page) in primed or page.extractor is not DEFAULT_EXTRACTOR:
                continue
            put_signature(
                store,
                page.html,
                page.tag_counts(),
                page.term_counts(),
                page.max_fanout(),
            )
        for field, value in store.stats().items():
            self._artifact_stats[field] = self._artifact_stats.get(field, 0) + value
        store.flush_stats()

    def artifact_stats(self) -> Optional[dict]:
        """This process's artifact-cache counters (``None`` if off).

        Counts cover the driving process (worker processes flush their
        own counters straight into the store's persistent ledger).
        """
        store = artifact_store_for(self.execution)
        if store is None:
            return None
        totals = dict(self._artifact_stats)
        for field, value in store.stats().items():
            totals[field] = totals.get(field, 0) + value
        return totals

    # -- stage 3 ---------------------------------------------------------

    def partition(self, result: ThorResult) -> ThorResult:
        """Stage 3: partition every extracted pagelet into QA-Objects.

        A pagelet whose partitioning raises a
        :class:`~repro.errors.ThorError` is quarantined (it keeps its
        place in ``pagelets`` but contributes no partitioned entry)
        rather than aborting the stage.
        """
        with activate_fault_plan(self.fault_plan), activate_report(self._report):
            partitioned = [
                entry
                for entry in (
                    self._partition_one(pagelet) for pagelet in result.pagelets
                )
                if entry is not None
            ]
            return ThorResult(
                pages=result.pages,
                clustering=result.clustering,
                identifications=result.identifications,
                pagelets=result.pagelets,
                partitioned=tuple(partitioned),
                report=self.report(),
            )

    def _partition_one(self, pagelet: QAPagelet) -> Optional[PartitionedPagelet]:
        """Partition one pagelet; ``None`` (after quarantining) on a
        :class:`~repro.errors.ThorError`. Pure per pagelet, so full
        partitioning and the incremental replay call it identically."""
        try:
            return run_stage(
                lambda: self._partitioner.partition(pagelet),
                "partition",
                resolve_stage_timeout(self.execution, "partition"),
            )
        except ThorError as exc:
            self._report.quarantine(
                quarantine_record(STAGE_PARTITION, pagelet.path, exc)
            )
            return None

    # -- incremental re-extraction ---------------------------------------

    def refresh(
        self, pages: Sequence[Page], options: Optional[RunOptions] = None
    ) -> ThorResult:
        """Stages 2+3 incrementally against the site's stored model.

        The three drift tiers (DESIGN.md §15): unchanged pages replay
        their pagelets and partitions straight from the ``models/``
        artifact; changed/new pages within
        ``IncrementalConfig.drift_threshold`` are assigned to the
        stored Phase-1 clusters with one cosine matmul (no refit) and
        only the clusters they land in re-run Phase 2; drift past the
        threshold — or a model miss/corruption — falls back to a full
        refit. Every tier is accounted on the run report
        (``skipped``/``assigned``/``refit``/``drift_events``/
        ``model_misses``) and the updated model is re-persisted, so
        with no drift the result digest is bitwise identical to a full
        refit.
        """
        with activate_fault_plan(self.fault_plan), activate_report(self._report):
            result = self._refresh_guarded(pages, options=options)
        self.persist_model(result)
        return result

    def _refresh_guarded(
        self,
        pages: Sequence[Page],
        *,
        store=None,
        manifest=None,
        options: Optional[RunOptions] = None,
    ) -> ThorResult:
        cfg = self.config.incremental
        model = None
        if cfg.mode != "refit":
            cache = artifact_store_for(self.execution)
            if (
                cache is not None
                and self.config.clustering.configuration
                in _INCREMENTAL_SIGNATURES
            ):
                model = load_model(
                    cache,
                    site_identity([page.url for page in pages]),
                    config_fingerprint(self.config),
                )
            if model is None:
                # No store, an unsupported configuration, a
                # torn bundle, or simply a first run: all count as one
                # model miss and fall back to the full pipeline.
                self._report.incremental_event("model_misses")
        if model is None:
            return self._refresh_refit(
                pages, store=store, manifest=manifest, options=options
            )
        keys = [page_content_key(page.html) for page in pages]
        stored_labels: dict[str, int] = {}
        for key, label in zip(model.page_keys, model.labels):
            stored_labels.setdefault(key, label)
        changed = [
            page for page, key in zip(pages, keys) if key not in stored_labels
        ]
        changed_fps: dict[int, frozenset] = {}
        if changed and cfg.mode == "auto":
            drift = self._max_drift(changed, model, changed_fps)
            if drift > cfg.drift_threshold:
                self._report.incremental_event("drift_events")
                return self._refresh_refit(
                    pages, store=store, manifest=manifest, options=options
                )
        return self._refresh_assign(
            pages, keys, stored_labels, model, changed_fps
        )

    def _max_drift(
        self,
        pages: Sequence[Page],
        model: SiteModel,
        fingerprints: Optional[dict] = None,
    ) -> float:
        """Worst per-page fingerprint drift vs the stored clusters.

        A page whose parse raises contributes nothing here — the
        quarantine scan, not the drift gate, decides its fate. Computed
        fingerprints are stashed in ``fingerprints`` (by page id) so
        the model republish does not hash the same trees twice.
        """
        drift = 0.0
        for page in pages:
            try:
                fingerprint = page_fingerprint(page.tree)
            except ThorError:
                continue
            if fingerprints is not None:
                fingerprints[id(page)] = fingerprint
            drift = max(
                drift, fingerprint_drift(fingerprint, model.fingerprints)
            )
        return drift

    def _refresh_refit(
        self,
        pages: Sequence[Page],
        *,
        store=None,
        manifest=None,
        options: Optional[RunOptions] = None,
    ) -> ThorResult:
        """Tier (c): the full pipeline, counted as refit pages.

        Running the *complete* page list through the normal extract +
        partition path (rather than patching the stale model) is what
        makes the fallback digest match a cold run by construction.
        """
        self._report.incremental_event("refit", len(pages))
        result = self._extract_guarded(
            pages, store=store, manifest=manifest, options=options
        )
        return self.partition(result)

    def _refresh_assign(
        self,
        pages: Sequence[Page],
        keys: Sequence[str],
        stored_labels: dict[str, int],
        model: SiteModel,
        changed_fps: Optional[dict] = None,
    ) -> ThorResult:
        """Tiers (a)+(b): replay unchanged clusters, assign the delta."""
        primed = self._prime_pages(pages)
        key_of = {id(page): key for page, key in zip(pages, keys)}
        surviving = self._quarantine_scan(pages)
        self._check_survival(len(surviving), len(pages))
        unchanged = [p for p in surviving if key_of[id(p)] in stored_labels]
        fresh = [p for p in surviving if key_of[id(p)] not in stored_labels]
        labels_by_id = {
            id(page): stored_labels[key_of[id(page)]] for page in unchanged
        }
        if fresh:
            signature = _INCREMENTAL_SIGNATURES[
                self.config.clustering.configuration
            ]
            from repro.vsm.matrix import encode_tfidf

            vocabulary = {
                feature: column
                for column, feature in enumerate(model.vocabulary)
            }
            rows = encode_tfidf(
                [signature(page) for page in fresh], vocabulary, model.idf
            )
            for page, label in zip(fresh, assign_to_centroids(rows, model.centroids)):
                labels_by_id[id(page)] = label
        self._report.incremental_event("skipped", len(unchanged))
        self._report.incremental_event("assigned", len(fresh))
        clustering = Clustering.from_labels(
            (labels_by_id[id(page)] for page in surviving), model.k
        )
        scores = score_clusters(
            surviving, clustering, self.config.clustering.ranking_weights
        )
        clustering_result = PageClusteringResult(
            tuple(surviving), clustering, tuple(scores)
        )
        records_by_cluster = {
            record.cluster: record for record in model.clusters
        }
        identifications: list[IdentificationResult] = []
        pagelets: list[QAPagelet] = []
        partitioned: list[PartitionedPagelet] = []
        outcomes: list[dict] = []
        top_ids = clustering_result.top_cluster_ids(
            self.config.clustering.top_m,
            min_pages=self.config.clustering.min_cluster_pages,
        )
        for cluster_index, cluster_id in enumerate(top_ids):
            members = clustering_result.cluster_pages(cluster_id)
            if not members:
                continue
            member_keys = tuple(key_of[id(page)] for page in members)
            record = records_by_cluster.get(cluster_id)
            replayed = None
            if record is not None and record.page_keys == member_keys:
                # The cluster's membership is byte-identical to fit
                # time: its Phase-2/3 outcome replays from the model.
                replayed = self._replay_cluster(record, members)
            if replayed is not None:
                identification, parts, reason = replayed
                if reason is not None:
                    # The cluster was quarantined at fit time; identical
                    # inputs would fail identically, so re-quarantine
                    # without re-running the failing analysis.
                    self._report.quarantine(
                        quarantine_record(
                            STAGE_IDENTIFY,
                            f"cluster[{cluster_index}] ({len(members)} pages)",
                            ExtractionError(reason),
                        )
                    )
                    outcomes.append(
                        {
                            "cluster": cluster_id,
                            "members": members,
                            "identification": None,
                            "quarantined": reason,
                        }
                    )
                    continue
                identifications.append(identification)
                pagelets.extend(identification.pagelets)
                partitioned.extend(parts)
                outcomes.append(
                    {
                        "cluster": cluster_id,
                        "members": members,
                        "identification": identification,
                        "quarantined": None,
                    }
                )
                continue
            # Live Phase 2 + 3 for clusters the model cannot replay
            # (new/changed members, ranking churn, stale paths).
            try:
                identification = run_stage(
                    lambda pages=members: self._identifier.identify(pages),
                    "identify",
                    resolve_stage_timeout(self.execution, "identify"),
                )
            except ThorError as exc:
                self._report.quarantine(
                    quarantine_record(
                        STAGE_IDENTIFY,
                        f"cluster[{cluster_index}] ({len(members)} pages)",
                        exc,
                    )
                )
                outcomes.append(
                    {
                        "cluster": cluster_id,
                        "members": members,
                        "identification": None,
                        "quarantined": str(exc),
                    }
                )
                continue
            identifications.append(identification)
            pagelets.extend(identification.pagelets)
            outcomes.append(
                {
                    "cluster": cluster_id,
                    "members": members,
                    "identification": identification,
                    "quarantined": None,
                }
            )
            for pagelet in identification.pagelets:
                entry = self._partition_one(pagelet)
                if entry is not None:
                    partitioned.append(entry)
        self._persist_signatures(surviving, primed)
        self._last_fit = {
            "pages": tuple(surviving),
            "clustering": clustering_result,
            "outcomes": outcomes,
            # Assign-tier republish reuses the stored geometry: the
            # vocabulary/idf/centroids the assignment ran against stay
            # the model of record until a refit replaces them.
            "basis": model,
            "fresh_ids": frozenset(id(page) for page in fresh),
            "fresh_fps": dict(changed_fps or {}),
        }
        return ThorResult(
            pages=tuple(surviving),
            clustering=clustering_result,
            identifications=tuple(identifications),
            pagelets=tuple(pagelets),
            partitioned=tuple(partitioned),
            report=self.report(),
        )

    def _replay_cluster(self, record: ClusterRecord, members: Sequence[Page]):
        """Rebuild one stored cluster's Phase-2/3 outcome, or ``None``.

        Returns ``(identification, partitioned, quarantine_reason)``;
        a record whose stored paths no longer resolve (a stale bundle)
        returns ``None`` and the caller re-runs Phase 2 live.
        """
        if record.quarantined is not None:
            return None, (), record.quarantined
        replayed: list[QAPagelet] = []
        parts: list[PartitionedPagelet] = []
        try:
            for entry in record.pagelets:
                page = members[entry.page_index]
                pagelet = QAPagelet(
                    page=page,
                    path=entry.path,
                    node=resolve_path(page.tree, entry.path),
                    score=entry.score,
                    rank=entry.rank,
                    contained_dynamic_paths=entry.dynamic_paths,
                    contained_static_paths=entry.static_paths,
                )
                replayed.append(pagelet)
                if entry.partition is not None:
                    separator, object_paths = entry.partition
                    parts.append(
                        PartitionedPagelet(
                            pagelet=pagelet,
                            objects=tuple(
                                QAObject(
                                    path=path,
                                    node=resolve_path(page.tree, path),
                                )
                                for path in object_paths
                            ),
                            separator_parent=separator,
                        )
                    )
        except (PathResolutionError, PathSyntaxError, IndexError, ThorError):
            return None
        identification = IdentificationResult(
            tuple(members), tuple(replayed), (), ()
        )
        return identification, tuple(parts), None

    def persist_model(self, result: ThorResult) -> bool:
        """Bundle the latest fit into the ``models/`` slot; True if saved.

        Requires a configured artifact store and a clustering
        configuration the assign kernel can reconstruct
        (``_INCREMENTAL_SIGNATURES``); silently skips otherwise. Model
        persistence is strictly additive — a failure to save can never
        fail the run that produced ``result``.
        """
        store = artifact_store_for(self.execution)
        fit = self._last_fit
        if (
            store is None
            or fit is None
            or self.config.clustering.configuration not in _INCREMENTAL_SIGNATURES
        ):
            return False
        try:
            save_model(store, self._build_model(fit, result))
        except (ThorError, ValueError, TypeError, KeyError, OSError):
            return False
        return True

    def _build_model(self, fit: dict, result: ThorResult) -> SiteModel:
        from repro.vsm.matrix import centroid_matrix, encode_tfidf, tfidf_statistics

        pages: tuple[Page, ...] = fit["pages"]
        clustering_result: PageClusteringResult = fit["clustering"]
        k = clustering_result.clustering.k
        labels = clustering_result.clustering.labels
        basis: Optional[SiteModel] = fit.get("basis")
        if basis is not None:
            # Assign-tier refresh: the stored geometry is still the
            # fit of record — carry it forward verbatim and extend the
            # per-cluster fingerprint unions with just the fresh pages
            # (unchanged pages contributed theirs at fit time, so the
            # unions are additive until the next refit rebuilds them).
            vocabulary = basis.vocabulary
            idf = basis.idf
            centroids = basis.centroids
            unions = [set(union) for union in basis.fingerprints]
            fresh_fps: dict = fit.get("fresh_fps", {})
            for page, label in zip(pages, labels):
                if id(page) not in fit["fresh_ids"]:
                    continue
                fingerprint = fresh_fps.get(id(page))
                if fingerprint is None:
                    fingerprint = page_fingerprint(page.tree)
                unions[label] |= fingerprint
        else:
            signature = _INCREMENTAL_SIGNATURES[
                self.config.clustering.configuration
            ]
            signatures = [signature(page) for page in pages]
            vocabulary, idf = tfidf_statistics(signatures)
            centroids, _counts = centroid_matrix(
                encode_tfidf(signatures, vocabulary, idf), list(labels), k
            )
            unions = [set() for _ in range(k)]
            for page, label in zip(pages, labels):
                unions[label] |= page_fingerprint(page.tree)
        partition_map = {
            id(part.pagelet): part for part in result.partitioned
        }
        cluster_records = []
        for outcome in fit["outcomes"]:
            members: Sequence[Page] = outcome["members"]
            member_index = {id(page): i for i, page in enumerate(members)}
            pagelet_records = []
            identification = outcome["identification"]
            if identification is not None:
                for pagelet in identification.pagelets:
                    part = partition_map.get(id(pagelet))
                    pagelet_records.append(
                        PageletRecord(
                            page_index=member_index[id(pagelet.page)],
                            path=pagelet.path,
                            score=pagelet.score,
                            rank=pagelet.rank,
                            dynamic_paths=tuple(pagelet.contained_dynamic_paths),
                            static_paths=tuple(pagelet.contained_static_paths),
                            partition=(
                                None
                                if part is None
                                else (
                                    part.separator_parent,
                                    tuple(obj.path for obj in part.objects),
                                )
                            ),
                        )
                    )
            cluster_records.append(
                ClusterRecord(
                    cluster=outcome["cluster"],
                    page_keys=tuple(
                        page_content_key(page.html) for page in members
                    ),
                    quarantined=outcome["quarantined"],
                    pagelets=tuple(pagelet_records),
                )
            )
        return SiteModel(
            site=site_identity([page.url for page in pages]),
            config_fingerprint=config_fingerprint(self.config),
            k=k,
            page_keys=tuple(page_content_key(page.html) for page in pages),
            labels=tuple(labels),
            scores=tuple(
                {
                    "cluster": score.cluster,
                    "size": score.size,
                    "combined_score": score.combined,
                    "avg_distinct_terms": score.avg_distinct_terms,
                    "avg_fanout": score.avg_fanout,
                    "avg_page_size": score.avg_page_size,
                }
                for score in clustering_result.scores
            ),
            vocabulary=tuple(vocabulary),
            idf=idf,
            centroids=centroids,
            fingerprints=tuple(frozenset(union) for union in unions),
            clusters=tuple(cluster_records),
        )

    # -- all together ------------------------------------------------------

    def _open_checkpoint(self, options: RunOptions):
        """The (store, manifest) pair for a checkpointed invocation.

        Raises :class:`~repro.errors.ResumeError` when checkpointing is
        requested without a persistent artifact store, or when
        ``resume=True`` names no run to resume.
        """
        if options.run_id is None:
            raise ResumeError(
                "resume=True needs a run_id naming the run to resume"
            )
        store = artifact_store_for(self.execution)
        if store is None:
            raise ResumeError(
                "checkpointed runs need a persistent artifact store: "
                "set ExecutionConfig.cache_dir (or REPRO_CACHE_DIR)"
            )
        manifest = open_manifest(
            store, options.run_id, config_fingerprint(self.config), options.resume
        )
        return store, manifest

    @staticmethod
    def _notify_stage(options: Optional[RunOptions], stage: str) -> None:
        """Fire ``options.on_stage`` as a stage starts computing (the
        fleet ledger's state-machine hook); never fired for stages a
        resume skipped."""
        if options is not None and options.on_stage is not None:
            options.on_stage(stage)

    def run(
        self,
        source: DeepWebSource,
        options: Optional[RunOptions] = None,
    ) -> ThorResult:
        """Probe, extract, and partition in one call.

        Invocation behavior rides on a
        :class:`~repro.config.RunOptions` (``options``). With
        ``options.run_id`` set (and a persistent artifact store
        configured), the run checkpoints each completed stage in a run
        manifest; ``resume=True`` then skips stages the manifest marks
        complete — after a crash, a resumed run re-probes nothing,
        restores the Phase-1 fit from the cluster checkpoint instead of
        re-running the K-Means restarts, and recomputes Phase 2 from
        the page trees, producing a result digest
        bitwise-identical to an uninterrupted run. Resume hits are
        accounted on the run report.
        """
        if options is None:
            options = RunOptions()
        with activate_fault_plan(self.fault_plan), activate_report(self._report):
            store = manifest = None
            if options.run_id is not None or options.resume:
                store, manifest = self._open_checkpoint(options)
            pages: Optional[list[Page]] = None
            if (
                manifest is not None
                and options.resume
                and manifest.stage_complete("probe")
            ):
                pages = load_probe_checkpoint(store, options.run_id)
                if pages is not None:
                    self._report.resume_hit("probe")
                # A corrupt/evicted checkpoint is a miss, not an error:
                # fall through to re-probing.
            if pages is None:
                self._notify_stage(options, "probe")
                pages = list(self._probe_guarded(source).pages)
                if manifest is not None:
                    payload_key = save_probe_checkpoint(
                        store, options.run_id, pages
                    )
                    manifest.mark_complete(
                        "probe", pages=len(pages), payload_key=payload_key
                    )
                    save_manifest(store, manifest)
            self._notify_stage(options, "extract")
            if options.incremental:
                result = self._refresh_guarded(
                    pages, store=store, manifest=manifest, options=options
                )
            else:
                result = self._extract_guarded(
                    pages, store=store, manifest=manifest, options=options
                )
                self._notify_stage(options, "partition")
                result = self.partition(result)
            if manifest is not None:
                from repro.io.export import result_digest

                manifest.mark_complete("extract", digest=result_digest(result))
                manifest.mark_complete("partition", digest=result_digest(result))
                save_manifest(store, manifest)
            # Feed the next incremental run: every completed full run
            # (and every refresh) re-publishes the fitted model.
            self.persist_model(result)
            return result
