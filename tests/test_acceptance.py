"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything asserts exact integer equality; the only tolerances are
the stated runtime budgets.
"""

import itertools
import random
import time

from conftest import adjacent_pairs, final_graph
from horicert import (
    ContractionCertificate,
    WeightedMultigraph,
    adjunction_genus,
    brute_force_oracle,
    builtin,
    contract,
    contract_multipartite,
    decide_contractible,
    decide_plane_double_cover,
    decide_ruled_double_cover,
    double_cover_chern,
    dual_graph,
    feasible_l_range,
    fibers_and_sections,
    general_lines,
    hirzebruch,
    lift_certificate,
    multipartite_partition,
    pairwise_nodes,
    P2,
    total_class,
    verify_certificate,
    Verdict,
)
from horicert import fixtures


def test_criterion_1_fixture_replay():
    """The four bundled contraction sequences replay and verify in < 1 s."""
    start = time.perf_counter()
    finals = {}
    for name in ("K1", "K2", "K3", "K4"):
        cert = fixtures.load_certificate(name)
        assert verify_certificate(cert), name
        end = final_graph(cert)
        finals[name] = end.weight(end.vertices[0])
    k1 = fixtures.load_certificate("K1")
    assert [s.l for s in k1.steps] == [0, 0, 1, 3]
    assert finals["K1"] == 10
    assert finals["K2"] == 12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS - fixture replay K1..K4 valid, l=[0,0,1,3], weights 10/12, {elapsed:.3f}s")


def test_criterion_2_example_graph():
    """The doubled triangle admits exactly l=1 on (v1, v2) and contracts to
    weights {6, 3} with multiplicity 4."""
    g = builtin("example-G")
    assert feasible_l_range(g, "v1", "v2") == (1,)
    assert feasible_l_range(g, "v2", "v1") == (1,)
    h = contract(g, ("v1", "v2"))
    assert sorted(h.weight(v) for v in h.vertices) == [3, 6]
    assert h.total_multiplicity() == 4
    print("\nACCEPTANCE 2 PASS - example graph: feasible l == {1}, contraction -> weights {6,3}, mult 4")


def test_criterion_3_oracle_equivalence():
    """Exhaustive-search decisions match the brute-force oracle on every
    multigraph with <= 4 vertices, weights 0..5, multiplicities 0..3.

    Graphs are enumerated one labelling per weight-sorted representative
    (both deciders are label-invariant; the relabelling sample below
    re-checks that on this family).  Zero disagreements, under 60 s.
    """
    start = time.perf_counter()
    checked = 0
    for n in range(1, 5):
        verts = tuple(f"v{i}" for i in range(1, n + 1))
        pairs = list(itertools.combinations(verts, 2))
        mult_patterns = list(itertools.product(range(4), repeat=len(pairs)))
        for wts in itertools.combinations_with_replacement(range(6), n):
            wmap = dict(zip(verts, wts))
            for mults in mult_patterns:
                edges = [(u, v, m) for (u, v), m in zip(pairs, mults) if m]
                g = WeightedMultigraph(wmap, edges)
                found = decide_contractible(g) is not None
                oracle = brute_force_oracle(g, max_total_multiplicity=18)
                assert found == oracle, (wts, mults)
                checked += 1
    rng = random.Random(20260808)
    verts = ("v1", "v2", "v3", "v4")
    pairs = list(itertools.combinations(verts, 2))
    for _ in range(500):
        wmap = {v: rng.randint(0, 5) for v in verts}
        edges = [(u, v, rng.randint(0, 3)) for u, v in pairs]
        g = WeightedMultigraph(wmap, edges)
        names = list("abcd")
        rng.shuffle(names)
        mapping = dict(zip(verts, names))
        h = WeightedMultigraph(
            {mapping[v]: wmap[v] for v in verts},
            [(mapping[u], mapping[v], m) for u, v, m in g.edge_items()],
        )
        assert (decide_contractible(g) is None) == (decide_contractible(h) is None)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 PASS - search == oracle on {checked} graphs (+500 relabelling checks), {elapsed:.1f}s")


def test_criterion_4_multipartite_coverage():
    """The constructive certifier handles all four reference dual graphs,
    exercising the five-class and two-class branches."""
    cases = [
        (dual_graph(general_lines(5)), 5),          # five singleton classes
        (dual_graph(fibers_and_sections(0, 4, 4)), 2),  # two classes of four
        (dual_graph(fibers_and_sections(1, 3, 4)), 5),
        (dual_graph(fibers_and_sections(2, 3, 4)), 5),
    ]
    class_counts = []
    for g, expected_k in cases:
        part = multipartite_partition(g)
        assert part is not None
        assert len(part) == expected_k
        class_counts.append(len(part))
        cert = contract_multipartite(g)
        assert verify_certificate(cert)
        assert cert.initial == g
    assert 5 in class_counts and 2 in class_counts
    print("\nACCEPTANCE 4 PASS - multipartite certificates on P2x5, F0(4+4), F1(3+4), F2(3+4); cases k=5 and k=2 exercised")


def test_criterion_5_chern_numbers():
    """Double-cover Chern data: (8, 7, 76) for the plane with branch degree
    10, Noether-line equality for bidegree (6, 6) on every F_N up to 20,
    and the K3 vanishing for branch degree 6."""
    data = double_cover_chern(P2, P2.div(5))
    assert (data.c1_sq, data.chi, data.c2) == (8, 7, 76)
    assert data.c2 == 5 * data.c1_sq + 36
    for N in range(21):
        s = hirzebruch(N)
        d = double_cover_chern(s, s.div(3, 3))
        assert d.c2 == 5 * d.c1_sq + 36, N
        assert d.c1_sq % 2 == 0
    assert double_cover_chern(P2, P2.div(3)).c1_sq == 0
    print("\nACCEPTANCE 5 PASS - Chern numbers (8,7,76), Noether equality on F_0..F_20, K3 vanishing")


def test_criterion_6_genus_table():
    """Adjunction genus: 6, 9, 6N+6 (N = 1..10), and 0 for a line."""
    assert adjunction_genus(P2.div(5)) == 6
    assert adjunction_genus(hirzebruch(0).div(4, 4)) == 9
    for N in range(1, 11):
        assert adjunction_genus(hirzebruch(N).div(3, 4)) == 6 * N + 6
    assert adjunction_genus(P2.div(1)) == 0
    print("\nACCEPTANCE 6 PASS - genus table 6 / 9 / 6N+6 / 0")


def test_criterion_7_theorem_boundaries():
    """Decider verdicts reproduce both theorem boundaries exactly, with the
    computed obstruction integers attached."""
    for d in (2, 4, 6, 8):
        assert decide_plane_double_cover(d).verdict is Verdict.NO, d
    for d in range(10, 31, 2):
        assert decide_plane_double_cover(d).verdict is Verdict.YES, d
    report8 = decide_plane_double_cover(8)
    assert dict(report8.find("obstruction.bitangent_elliptic").values)["pullback_genus"] == 1
    for N in range(4):
        for a in range(2, 13, 2):
            for b in range(2, 13, 2):
                expected = (N == 0 and a >= 8 and b >= 8) or (N >= 1 and a >= 6 and b >= 8)
                report = decide_ruled_double_cover(N, a, b)
                assert (report.verdict is Verdict.YES) == expected, (N, a, b)
                if report.verdict is Verdict.YES:
                    cert = ContractionCertificate.from_json_dict(report.attachments["certificate"])
                    assert verify_certificate(cert)
                    chern = report.attachments["chern"]
                    assert chern["c1_sq"] + chern["c2"] == 12 * chern["chi"]
    neg = decide_ruled_double_cover(1, 4, 8)
    assert dict(neg.find("obstruction.negative_section").values)["negative_section_intersection"] == 4
    print("\nACCEPTANCE 7 PASS - plane boundary at d=10, ruled two-bullet boundary over N<=3, a,b<=12; obstructions attach genus 1 and D.T'=4")


def _random_graph(rng, min_vertices=2, max_vertices=6):
    n = rng.randint(min_vertices, max_vertices)
    verts = [f"v{i}" for i in range(1, n + 1)]
    weights = {v: rng.randint(-2, 6) for v in verts}
    edges = [(u, v, rng.randint(0, 3)) for u, v in itertools.combinations(verts, 2)]
    return WeightedMultigraph(weights, edges)


def _random_parts(rng, k_range, size_range):
    k = rng.randint(*k_range)
    sizes = [rng.randint(*size_range) for _ in range(k)]
    parts = []
    idx = 1
    for s in sizes:
        parts.append([f"v{idx + j}" for j in range(s)])
        idx += s
    return parts


def _random_multipartite(rng):
    parts = _random_parts(rng, (2, 4), (1, 3))
    weights = {v: rng.randint(2, 5) for p in parts for v in p}
    edges = [
        (u, v, rng.randint(1, 3))
        for p, q in itertools.combinations(parts, 2)
        for u in p
        for v in q
    ]
    return WeightedMultigraph(weights, edges)


def _random_certifiable(rng):
    parts = _random_parts(rng, (2, 5), (1, 4))
    sizes = [len(p) for p in parts]
    idx = sum(sizes) + 1
    while sum(sizes) - max(sizes) < 4:
        parts.append([f"v{idx}"])
        sizes.append(1)
        idx += 1
    weights = {v: rng.randint(2, 5) for p in parts for v in p}
    edges = [
        (u, v, rng.randint(1, 3))
        for p, q in itertools.combinations(parts, 2)
        for u in p
        for v in q
    ]
    return WeightedMultigraph(weights, edges)


def test_criterion_8_invariant_suites():
    """Four randomized invariant suites, 1000 cases each, zero failures."""
    rng = random.Random(987654321)

    for _ in range(1000):  # weight conservation and multiplicity decrement
        g = _random_graph(rng)
        pairs = adjacent_pairs(g)
        if not pairs:
            continue
        u, v = rng.choice(pairs)
        h = contract(g, (u, v))
        assert h.total_weight() == g.total_weight()
        assert h.vertex_count == g.vertex_count - 1
        assert h.total_multiplicity() == g.total_multiplicity() - g.multiplicity(u, v)

    for _ in range(1000):  # complete multipartiteness survives contraction
        g = _random_multipartite(rng)
        u, v = rng.choice(adjacent_pairs(g))
        assert multipartite_partition(contract(g, (u, v))) is not None

    for _ in range(1000):  # lifted certificates stay valid under augmentation
        g = _random_certifiable(rng)
        cert = contract_multipartite(g)
        weights = {v: g.weight(v) + rng.randint(0, 2) for v in g.vertices}
        edges = [(u, v, m) for u, v, m in g.edge_items()]
        for _ in range(rng.randint(0, 6)):
            u, v = rng.sample(g.vertices, 2)
            edges.append((u, v, rng.randint(1, 2)))
        host = WeightedMultigraph(weights, edges)
        lifted = lift_certificate(cert, host, {v: v for v in g.vertices})
        assert verify_certificate(lifted)

    for _ in range(1000):  # dual-graph genus identity
        if rng.random() < 0.4:
            arr = general_lines(rng.randint(1, 8))
        else:
            a, b = rng.randint(0, 6), rng.randint(0, 6)
            if a + b == 0:
                a = 1
            arr = fibers_and_sections(rng.randint(0, 3), a, b)
        assert adjunction_genus(total_class(arr)) == pairwise_nodes(arr) - (arr.size - 1)

    print("\nACCEPTANCE 8 PASS - 4 invariant suites x 1000 random cases, zero failures")
