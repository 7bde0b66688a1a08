"""Golden digests: absolute pins on the pipeline's output.

Every other determinism test compares the system with itself
(parallel == serial, resumed == uninterrupted, ...), so a change that
shifts both sides passes them silently. These tests pin the exported
``result_digest`` (and the fleet and crawl digests) to fixed values.

A change that alters output must fail here. If the change is meant to
alter output, update the table in the same change and give the reason
in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.config import ClusteringConfig, ExecutionConfig, ProbeConfig, ThorConfig
from repro.discovery.web import SimulatedWeb
from repro.fleet import FleetSpec, SiteSpec, run_fleet
from repro.frontier.service import run_crawl
from repro.io.export import result_digest

#: (genre, seed) -> result digest of ``api.run`` at ThorConfig defaults.
GENRE_DIGESTS = {
    ("ecommerce", 1): "d5d78112dfc4c91e761699d68b4cee7173242b1f2934c2bd673b8a4928110f6e",
    ("ecommerce", 2): "db117c64ecfce12e95a46fcbf725159954998985bfd1719f0144e24a446be63b",
    ("jobs", 1): "f7e79bb38849a98074a34cd72b5fd796de77384e6f15f79df51d725ef88efa77",
    ("jobs", 2): "4d67f3d2d3a2c2a401111fcc5172d90ada27fe17394328875b63a5ae8a2e7b87",
    ("library", 1): "57f1010fd37fb0242bdf8cf3482ff9c347c078c18b340925a118de849f1ee4db",
    ("library", 2): "053c7f7bc830760f88757b27a84d252c6548511fcc69c3ec67c6eba7e311b122",
    ("movies", 1): "9d4def27f4a746c94dcd33c4674af70cf1e11915e40f74b9333fbace78fec67b",
    ("movies", 2): "84017c7b7c84c5300e2291b918ebeb0b93a513fbd34022ed5c125fd2a2bc9ad5",
    ("music", 1): "38a2e91bd5c915b4dbcd6ffdaad4ceb9ec3c8b1248048dec8405acd9ab2f795f",
    ("music", 2): "51840bc7f2145e7317426ae92d4adfe4dceeae8e067d088f30bfbd48a62b2b57",
    ("realestate", 1): "a3b3c56d519164b37ccd856aeb4351dc596d452f02f2320b6a977c0428766ade",
    ("realestate", 2): "88f2411efe8183a1f5f560b7f82824c67aade8eef714c04116b025d3031f6c96",
    ("travel", 1): "01911295f07f7f220d23e7ee7b979f66049b4aaf441b3983d733b2ef46689ba6",
    ("travel", 2): "59f2593e2244e988ad25eab09982bc39df7a37685c3d110d0fe4d1a86cafbd9b",
}

#: Phase-1 configuration -> digest of the music site at seed 3.
CONFIGURATION_DIGESTS = {
    "url": "80432e5409b05331b64bf2099fce8af0ce7182bd01408dbf611b3ef26e7da3cd",
    "tcon": "77e5d677a3e3681781a2d2152221efaeb076e047fca268287201cb8e3221b299",
}

PARALLEL_DIGEST = "3e09ad703a62e38508e338c82041182d8a4147e14b5be2ca0edadd87d530360e"
FLEET_DIGEST = "db5039039fd284d0e8a8f2141174719e6ab2dcabcfd58043af22d77ed8ee4458"
CORPUS_DIGEST = "654c56b8bd0950307dff3ab2939e105faebcb55fe377afcc45e525fd5cbbfc62"


@pytest.mark.parametrize("genre,seed", sorted(GENRE_DIGESTS))
def test_genre_digest(genre, seed):
    result = api.run(api.make_site(genre, seed=seed), ThorConfig(seed=seed))
    assert result_digest(result) == GENRE_DIGESTS[genre, seed]


@pytest.mark.parametrize("configuration", sorted(CONFIGURATION_DIGESTS))
def test_configuration_digest(configuration):
    config = ThorConfig(
        seed=3, clustering=ClusteringConfig(configuration=configuration)
    )
    result = api.run(api.make_site("music", seed=3), config)
    assert result_digest(result) == CONFIGURATION_DIGESTS[configuration]


def test_parallel_digest():
    config = ThorConfig(seed=3, execution=ExecutionConfig(n_jobs=2))
    result = api.run(api.make_site("jobs", seed=3), config)
    assert result_digest(result) == PARALLEL_DIGEST


def test_fleet_digest(tmp_path):
    spec = FleetSpec(
        sites=tuple(
            SiteSpec(site_id=f"{genre}-{seed}", domain=genre, seed=seed, records=30)
            for genre, seed in (("ecommerce", 7), ("music", 5))
        )
    )
    config = ThorConfig(
        seed=7,
        probing=ProbeConfig(dictionary_queries=10, nonsense_queries=2),
        execution=ExecutionConfig(cache_dir=str(tmp_path)),
    )
    assert run_fleet(spec, config).aggregate_digest == FLEET_DIGEST


def test_crawl_corpus_digest():
    web = SimulatedWeb(n_pages=20, n_portals=3, seed=5, records_per_site=30)
    report = run_crawl(web, config=ThorConfig(seed=5))
    assert report.corpus_digest == CORPUS_DIGEST
