"""Bundled reference certificates, shipped as JSON under ``fixtures/``.

These files are the only copy of the seed certificates ``K1``..``K4`` and
of the named reference graphs: the multipartite certifier in
:mod:`horicert.contraction` lifts the certificates from here, and
:func:`builtin` returns their initial graphs.  ``K1`` and ``K2`` contract
explicitly (final weights 10 and 12); ``K3`` and ``K4`` reduce to the
previous seed by a short prefix followed by a spanning-submultigraph
lift.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

from .contraction import ContractionCertificate
from .multigraph import GraphError, WeightedMultigraph

_FILES = {
    "K1": "k1.cert.json",
    "K2": "k2.cert.json",
    "K3": "k3.cert.json",
    "K4": "k4.cert.json",
    "example-G-step": "example_g_step.cert.json",
}

FIXTURE_NAMES = tuple(_FILES)

BUILTIN_NAMES = ("K1", "K2", "K3", "K4", "example-G")


@functools.cache
def load_certificate(name: str) -> ContractionCertificate:
    """Load a bundled certificate.  ``example-G-step`` is a one-step prefix
    (it does not reach a singleton); the ``K*`` fixtures are complete.

    Each fixture is read and parsed once per process; certificates are
    immutable, so every caller can share the same object."""
    try:
        filename = _FILES[name]
    except KeyError:
        raise GraphError(f"unknown fixture {name!r}; choose one of {', '.join(FIXTURE_NAMES)}") from None
    text = resources.files(__package__).joinpath("fixtures", filename).read_text(encoding="utf-8")
    return ContractionCertificate.from_json_dict(json.loads(text))


def builtin(name: str) -> WeightedMultigraph:
    """Named reference graphs: the initial graphs of the fixtures.

    ``K1``..``K4`` are the four weight-2 seed graphs of the multipartite
    contraction procedure (complete on 5; tripartite 2+2+2; tripartite
    1+3+3; bipartite 4+4).  ``example-G`` is the weight-3 triangle with
    doubled edges used to illustrate a single admissible contraction; its
    fixture is ``example-G-step``.
    """
    if name not in BUILTIN_NAMES:
        raise GraphError(f"unknown builtin graph {name!r}; choose one of {', '.join(BUILTIN_NAMES)}")
    return load_certificate("example-G-step" if name == "example-G" else name).initial
