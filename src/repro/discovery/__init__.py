"""Deep-web source discovery: crawl the surface web for search forms.

The paper's corpus began with "a breadth first crawl of the Web
starting at a seed URL and Google [identifying] over 3,000 unique
search forms". This package reproduces that stage against a simulated
surface web:

- :mod:`repro.discovery.web` — a seeded static web graph whose pages
  carry links, boilerplate, and (on some pages) the search forms of
  simulated deep-web sites.
- :mod:`repro.discovery.crawler` — the :class:`DiscoveredForm` record
  and link extraction.

The crawl itself is :func:`repro.frontier.service.run_crawl` (also
``repro.api.crawl``): a frontier whose default priority order is
breadth-first, under a page budget, collecting the unique search forms
it encounters.
"""

from repro.discovery.crawler import DiscoveredForm
from repro.discovery.web import SimulatedWeb

__all__ = [
    "DiscoveredForm",
    "SimulatedWeb",
]
