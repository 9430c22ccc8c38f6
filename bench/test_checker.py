"""Tests of the benchmark's independent checker.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import copy
import itertools
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
FIXTURES = BENCH.parent / "src" / "horicert" / "fixtures"
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402


def fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def complete_doc(weights: dict, mult: int = 1) -> dict:
    names = sorted(weights)
    return {
        "vertices": [{"id": v, "wt": weights[v]} for v in names],
        "edges": [{"u": u, "v": v, "mult": mult} for u, v in itertools.combinations(names, 2)],
    }


def ruled_doc(N: int, p: int, q: int) -> dict:
    fibers = [f"F{i}" for i in range(p)]
    sections = [f"T{j}" for j in range(q)]
    edges = [{"u": f, "v": t, "mult": 1} for f in fibers for t in sections]
    if N:
        edges += [{"u": s, "v": t, "mult": N} for s, t in itertools.combinations(sections, 2)]
    vertices = [{"id": f, "wt": 2} for f in fibers] + [{"id": t, "wt": N + 2} for t in sections]
    return {"vertices": vertices, "edges": edges}


class ReplayTest(unittest.TestCase):
    def test_reference_fixtures_replay(self):
        finals = {}
        for name in ("k1", "k2", "k3", "k4"):
            weights, _ = checker.replay(fixture(f"{name}.cert.json"))
            finals[name] = list(weights.values())
        self.assertEqual([s["l"] for s in fixture("k1.cert.json")["steps"]], [0, 0, 1, 3])
        self.assertEqual(finals["k1"], [10])
        self.assertEqual(finals["k2"], [12])

    def test_example_graph_step_needs_l_1(self):
        cert = fixture("example_g_step.cert.json")
        weights, _ = checker.replay(cert, require_singleton=False)
        self.assertEqual(sorted(weights.values()), [3, 6])
        with self.assertRaises(checker.CheckFailure):
            checker.replay(cert)  # one step leaves two vertices
        tampered = copy.deepcopy(cert)
        tampered["steps"][0]["l"] = 0
        with self.assertRaises(checker.CheckFailure):
            checker.replay(tampered, require_singleton=False)

    def test_bystander_of_degree_two_blocks_a_step(self):
        cert = fixture("k1.cert.json")
        checker.replay({"initial": cert["initial"], "steps": cert["steps"][:1]}, require_singleton=False)
        graph = copy.deepcopy(cert["initial"])
        graph["vertices"].append({"id": "x", "wt": 2})
        graph["edges"].append({"u": "v3", "v": "x", "mult": 2})
        with self.assertRaises(checker.CheckFailure):
            checker.replay({"initial": graph, "steps": cert["steps"][:1]}, require_singleton=False)

    def test_out_of_range_l_is_rejected(self):
        for name in ("k1", "k2", "k3", "k4"):
            cert = fixture(f"{name}.cert.json")
            for i in range(len(cert["steps"])):
                for bad in (-1, 99):
                    tampered = copy.deepcopy(cert)
                    tampered["steps"][i]["l"] = bad
                    with self.subTest(name=name, step=i, l=bad), self.assertRaises(checker.CheckFailure):
                        checker.replay(tampered)

    def test_merged_id_may_not_reuse_a_bystander(self):
        cert = fixture("k1.cert.json")
        tampered = copy.deepcopy(cert)
        tampered["steps"][0]["merged"] = "v3"
        with self.assertRaises(checker.CheckFailure):
            checker.replay(tampered)


class SearchTest(unittest.TestCase):
    def test_reference_graphs(self):
        for name in ("k1", "k2", "k3", "k4"):
            weights, adj = checker.graph_from_doc(fixture(f"{name}.cert.json")["initial"])
            self.assertTrue(checker.is_contractible(weights, adj), name)
        weights, adj = checker.graph_from_doc(fixture("example_g_step.cert.json")["initial"])
        self.assertFalse(checker.is_contractible(weights, adj))

    def test_two_vertices(self):
        # Both endpoints have degree = mult, so l >= 3, hence mult >= 4 and
        # weights of at least 4 and 5.
        for wa, wb, mult, expected in ((4, 5, 4, True), (4, 4, 4, False), (4, 5, 3, False)):
            weights, adj = checker.graph_from_doc(
                {"vertices": [{"id": "a", "wt": wa}, {"id": "b", "wt": wb}],
                 "edges": [{"u": "a", "v": "b", "mult": mult}]}
            )
            self.assertEqual(checker.is_contractible(weights, adj), expected, (wa, wb, mult))

    def test_weight_zero_vertex_never_merges(self):
        weights, adj = checker.graph_from_doc(complete_doc({"a": 3, "b": 3, "c": 3, "d": 3, "e": 0}, 2))
        self.assertFalse(checker.is_contractible(weights, adj))

    def test_budget(self):
        weights, adj = checker.graph_from_doc(complete_doc({"a": 3, "b": 3, "c": 3, "d": 3, "e": 0}, 2))
        with self.assertRaises(checker.BudgetExceeded):
            checker.is_contractible(weights, adj, max_states=2)

    def test_relabel_keeps_the_verdict(self):
        doc = fixture("k2.cert.json")["initial"]
        mapping = {v["id"]: f"y{9 - i}" for i, v in enumerate(doc["vertices"])}
        weights, adj = checker.graph_from_doc(checker.relabel_doc(doc, mapping))
        self.assertTrue(checker.is_contractible(weights, adj))


class ClosedFormTest(unittest.TestCase):
    def test_plane_boundary(self):
        self.assertEqual([d for d in range(2, 16) if checker.plane_yes(d)], [10, 12, 14])

    def test_ruled_boundary(self):
        self.assertTrue(checker.ruled_yes(0, 8, 8))
        self.assertFalse(checker.ruled_yes(0, 6, 8))
        self.assertFalse(checker.ruled_yes(0, 8, 6))
        self.assertTrue(checker.ruled_yes(1, 6, 8))
        self.assertFalse(checker.ruled_yes(1, 4, 8))
        self.assertFalse(checker.ruled_yes(3, 6, 6))
        self.assertFalse(checker.ruled_yes(2, 7, 8))

    def test_plane_cover(self):
        # Branch degree 10: the Horikawa surface (8, 7, 76), half class a
        # smooth quintic of genus 6; degree 6 gives a K3 surface.
        self.assertEqual(checker.plane_cover(5), {"c1_sq": 8, "chi": 7, "c2": 76, "half_genus": 6})
        self.assertTrue(checker.horikawa_even(8, 76))
        self.assertEqual(checker.plane_cover(3), {"c1_sq": 0, "chi": 2, "c2": 24, "half_genus": 1})
        self.assertFalse(checker.horikawa_even(*(checker.plane_cover(6)[k] for k in ("c1_sq", "c2"))))

    def test_ruled_cover(self):
        # F_0, L = 4F + 4T: K + L = 2F + 2T, (K + L)^2 = 8; L.L = 32,
        # K.L = -16.
        self.assertEqual(checker.ruled_cover(0, 4, 4), {"c1_sq": 16, "chi": 10, "c2": 104, "half_genus": 9})
        # F_1, L = 3F + 4T: K + L = 2F + 2T, (K + L)^2 = 8 + 4 = 12;
        # L.L = 24 + 16 = 40, K.L = -6 - 12 = -18.
        self.assertEqual(checker.ruled_cover(1, 3, 4), {"c1_sq": 24, "chi": 13, "c2": 132, "half_genus": 12})
        self.assertFalse(checker.horikawa_even(24, 132))

    def test_plane_dual_graph(self):
        checker.check_plane_dual_graph(complete_doc({f"L{i}": 3 for i in range(6)}), 6)
        bad = complete_doc({f"L{i}": 3 for i in range(6)})
        bad["edges"][0]["mult"] = 2
        with self.assertRaises(checker.CheckFailure):
            checker.check_plane_dual_graph(bad, 6)
        with self.assertRaises(checker.CheckFailure):
            checker.check_plane_dual_graph(complete_doc({f"L{i}": 3 for i in range(6)}), 5)

    def test_ruled_dual_graph(self):
        for N, p, q in ((0, 4, 5), (0, 4, 4), (2, 3, 4)):
            checker.check_ruled_dual_graph(ruled_doc(N, p, q), N, p, q)
        with self.assertRaises(checker.CheckFailure):
            checker.check_ruled_dual_graph(ruled_doc(1, 3, 4), 2, 3, 4)
        missing = ruled_doc(0, 4, 5)
        del missing["edges"][0]
        with self.assertRaises(checker.CheckFailure):
            checker.check_ruled_dual_graph(missing, 0, 4, 5)


if __name__ == "__main__":
    unittest.main()
