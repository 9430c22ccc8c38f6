"""Bundled reference certificates, shipped as JSON under ``fixtures/``.

These files are the only copy of the seed certificates ``K1``..``K4``:
the multipartite certifier in :mod:`horicert.contraction` lifts them from
here.  ``K1`` and ``K2`` contract explicitly (final weights 10 and 12);
``K3`` and ``K4`` reduce to the previous seed by a short prefix followed
by a spanning-submultigraph lift.
"""

from __future__ import annotations

import json
from importlib import resources

from .contraction import ContractionCertificate
from .multigraph import GraphError

_FILES = {
    "K1": "k1.cert.json",
    "K2": "k2.cert.json",
    "K3": "k3.cert.json",
    "K4": "k4.cert.json",
    "example-G-step": "example_g_step.cert.json",
}

FIXTURE_NAMES = tuple(_FILES)


def fixture_text(name: str) -> str:
    try:
        filename = _FILES[name]
    except KeyError:
        raise GraphError(f"unknown fixture {name!r}; choose one of {', '.join(FIXTURE_NAMES)}") from None
    return resources.files(__package__).joinpath("fixtures", filename).read_text(encoding="utf-8")


def load_certificate(name: str) -> ContractionCertificate:
    """Load a bundled certificate.  ``example-G-step`` is a one-step prefix
    (it does not reach a singleton); the ``K*`` fixtures are complete."""
    return ContractionCertificate.from_json_dict(json.loads(fixture_text(name)))
