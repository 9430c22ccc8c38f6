"""Seeded fuzz test of the CLI's input boundary.

Valid graph, certificate and class documents are mutated one node at a
time (a key deleted, a value replaced by one of another JSON type, a
duplicate vertex id, a negative or boolean multiplicity) and fed to the
commands that read them.  Every mutant must end in a documented exit
code, with no escaped exception and one stderr line on exit 3.  The
mutants start from the seed graphs and never gain a vertex, so every
search stays at 8 vertices or fewer.
"""

import contextlib
import copy
import io
import json
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from horicert import fixtures
from horicert.cli import run

GRAPHS = [fixtures.builtin(name).to_json_dict() for name in fixtures.BUILTIN_NAMES]
CERTIFICATES = [fixtures.load_certificate(name).to_json_dict() for name in fixtures.FIXTURE_NAMES]
CLASSES = [
    {"surface": {"kind": "P2"}, "class": {"d": 5}},
    {"surface": {"kind": "FN", "N": 1}, "class": {"a": 3, "b": 4}},
    {"surface": {"kind": "FN", "N": 0}, "class": {"a": 2, "b": 2}},
]
OTHER_TYPES = [None, True, False, 0, -1, 7, 2.5, "x", "v1", [], {}, [1], {"id": "v1"}]


def _paths(node, prefix=()):
    """Every path from the root to a node, the root's empty path included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutants(draw, documents):
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    graph = doc.get("initial", doc)
    kind = draw(st.sampled_from(["delete", "retype", "duplicate-id", "bad-mult"]))
    if kind == "duplicate-id" and "vertices" in graph:
        entry = dict(draw(st.sampled_from(graph["vertices"])))
        entry["wt"] = draw(st.integers(-1, 4))
        graph["vertices"].insert(draw(st.integers(0, len(graph["vertices"]))), entry)
    elif kind == "bad-mult" and graph.get("edges"):
        edge = draw(st.sampled_from(graph["edges"]))
        edge["mult"] = draw(st.sampled_from([-3, -1, True, False]))
    elif kind == "delete":
        keyed = [p for p in _paths(doc) if p and isinstance(_at(doc, p[:-1]), dict)]
        path = draw(st.sampled_from(keyed))
        del _at(doc, path[:-1])[path[-1]]
    else:
        path = draw(st.sampled_from(list(_paths(doc))))
        value = _at(doc, path)
        other = [v for v in OTHER_TYPES if type(v) is not type(value)]
        replacement = draw(st.sampled_from(other))
        if not path:
            return replacement
        _at(doc, path[:-1])[path[-1]] = replacement
    return doc


def _invoke(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    return code, err.getvalue()


def _assert_documented_exit(code, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 3:
        assert err.count("\n") == 1 and err.endswith("\n"), err


FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


@FUZZ
@given(mutants(GRAPHS))
def test_contract_decide_survives_mutated_graphs(doc):
    _assert_documented_exit(*_invoke(["contract-decide", "--graph", "-"], json.dumps(doc)))


@FUZZ
@given(mutants(CERTIFICATES))
def test_cert_verify_survives_mutated_certificates(doc):
    _assert_documented_exit(*_invoke(["cert-verify", "-"], json.dumps(doc)))


@pytest.mark.parametrize("command", ["chern", "genus"])
@FUZZ
@given(doc=mutants(CLASSES))
def test_class_commands_survive_mutated_literals(command, doc):
    _assert_documented_exit(*_invoke([command, f"--json={json.dumps(doc)}", "--format", "json"]))
