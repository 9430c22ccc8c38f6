import gc
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from horicert import (
    BoundExceededError,
    ContractionCertificate,
    ContractionStep,
    GraphError,
    NotAdjacentError,
    NotSpanningError,
    PreconditionError,
    UnknownVertexError,
    WeightedMultigraph,
    absorb_submultigraph,
    brute_force_oracle,
    builtin,
    contract,
    contract_multipartite,
    decide_contractible,
    decide_plane_double_cover,
    decide_ruled_double_cover,
    dual_graph,
    feasible_l_range,
    fibers_and_sections,
    general_lines,
    is_spanning_submultigraph,
    lift_certificate,
    multipartite_partition,
    verify_certificate,
)
from conftest import complete_multipartite, final_graph, reference_verify
from horicert import contraction
from horicert.fixtures import load_certificate


DATA = Path(__file__).parent / "data"


def two_vertex(w1=1, w2=2, mult=1):
    return WeightedMultigraph({"a": w1, "b": w2}, [("a", "b", mult)])


class TestContract:
    def test_example_graph_step(self):
        g2 = contract(builtin("example-G"), ("v1", "v2"))
        assert sorted(g2.weight(v) for v in g2.vertices) == [3, 6]
        assert g2.total_multiplicity() == 4

    def test_seed_first_step(self):
        g = contract(builtin("K1"), ("v1", "v2"), "m1")
        assert g.vertex_count == 4
        assert sorted(g.weight(v) for v in g.vertices) == [2, 2, 2, 4]
        assert all(g.multiplicity("m1", v) == 2 for v in g.vertices if v != "m1")

    def test_collapse_to_singleton(self):
        g = contract(two_vertex(1, 2), ("a", "b"))
        assert g.is_singleton()
        assert g.weight(g.vertices[0]) == 3

    def test_non_adjacent_raises(self):
        g = WeightedMultigraph({"a": 1, "b": 1})
        with pytest.raises(NotAdjacentError):
            contract(g, ("a", "b"))

    def test_unknown_vertex_raises(self):
        with pytest.raises(UnknownVertexError):
            contract(two_vertex(), ("a", "zz"))

    def test_merged_collision_raises(self):
        g = builtin("example-G")
        with pytest.raises(GraphError):
            contract(g, ("v1", "v2"), "v3")

    def test_merged_id_must_be_a_string(self):
        with pytest.raises(GraphError, match="vertex id must be a string, got 5"):
            contract(builtin("K1"), ("v1", "v2"), 5)

    def test_unhashable_ids_raise_graph_error(self):
        with pytest.raises(GraphError, match=r"vertex id must be a string, got \['x'\]"):
            contract(builtin("K1"), ("v1", "v2"), ["x"])
        for pair in ((["v1"], "v2"), ("v1", ["v2"])):
            with pytest.raises(UnknownVertexError, match="unknown vertex"):
                contract(builtin("K1"), pair)

    def test_merged_may_reuse_an_endpoint(self):
        g = contract(builtin("example-G"), ("v1", "v2"), "v1")
        assert g.weight("v1") == 6

    def test_weight_and_multiplicity_accounting(self):
        g = builtin("K2")
        g2 = contract(g, ("v1", "v2"))
        assert g2.total_weight() == g.total_weight()
        assert g2.vertex_count == g.vertex_count - 1
        assert g2.total_multiplicity() == g.total_multiplicity() - g.multiplicity("v1", "v2")


class TestStep:
    def test_a_step_is_the_tuple_of_its_fields(self):
        step = ContractionStep(("a", "b"), 0, "m1")
        assert repr(step) == "ContractionStep(pair=('a', 'b'), l=0, merged='m1')"
        assert step.to_json_dict() == {"pair": ["a", "b"], "l": 0, "merged": "m1"}
        assert ContractionStep.from_json_dict(json.loads(json.dumps(step.to_json_dict()))) == step
        again = ContractionStep(("a", "b"), 0, "m1")
        assert step == again == (("a", "b"), 0, "m1") and hash(step) == hash(again)
        assert step != ContractionStep(("a", "b"), 1, "m1")
        with pytest.raises(AttributeError):
            step.l = 1


class TestFeasibleRange:
    def test_example_graph_needs_l_1(self):
        assert feasible_l_range(builtin("example-G"), "v1", "v2") == (1,)

    def test_seed_first_pair(self):
        assert feasible_l_range(builtin("K1"), "v1", "v2") == (0,)

    def test_final_state_asymmetry(self):
        g = WeightedMultigraph({"a": 4, "b": 6}, [("a", "b", 6)])
        assert feasible_l_range(g, "a", "b") == (3,)
        assert feasible_l_range(g, "b", "a") == ()

    def test_two_light_vertices_fail(self):
        g = two_vertex(1, 1)
        assert feasible_l_range(g, "a", "b") == ()
        assert feasible_l_range(g, "b", "a") == ()

    def test_bystander_degree_condition(self):
        # bystander of degree 2 blocks every l
        g = WeightedMultigraph(
            {"a": 5, "b": 5, "c": 5},
            [("a", "b", 4), ("a", "c", 1), ("b", "c", 1)],
        )
        assert feasible_l_range(g, "a", "b") == ()

    def test_non_adjacent_raises(self):
        g = WeightedMultigraph({"a": 1, "b": 1})
        with pytest.raises(NotAdjacentError):
            feasible_l_range(g, "a", "b")

    def test_answers_one_pair_without_a_replay(self, monkeypatch):
        # One pair needs its own weights and degrees and the vertices of
        # degree below 3, not a replay of the whole graph.  Bystander c has
        # two neighbours but degree 3, so it is not low; the isolated d is.
        cases = [
            (builtin("example-G"), "v1", "v2", (1,)),
            (dual_graph(general_lines(8)), "L1", "L2", (0,)),
            (WeightedMultigraph({"a": 5, "b": 5, "c": 5}, [("a", "b", 4), ("a", "c", 2), ("b", "c", 1)]), "a", "b", (2, 3)),
            (WeightedMultigraph({"a": 5, "b": 5, "c": 5, "d": 1}, [("a", "b", 4), ("a", "c", 2), ("b", "c", 2)]), "a", "b", ()),
        ]

        def broken(*args, **kwargs):
            raise AssertionError("feasible_l_range built a replay")

        monkeypatch.setattr(contraction, "_Replay", broken)
        for g, v, w, expected in cases:
            assert feasible_l_range(g, v, w) == expected


class TestVerify:
    def test_published_sequences(self):
        for name, final in (("K1", 10), ("K2", 12), ("K3", 14), ("K4", 16)):
            cert = load_certificate(name)
            assert verify_certificate(cert)
            end = final_graph(cert)
            assert end.is_singleton()
            assert end.weight(end.vertices[0]) == final

    def test_replay_holds_one_graph_at_a_time(self):
        # The walk may hold the graph just yielded and the one being built,
        # not all 128: a list of them takes about 35 times one graph.
        import tracemalloc

        cert = contract_multipartite(dual_graph(general_lines(128)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            one = WeightedMultigraph(dict(cert.initial._weights), cert.initial.edge_items())
            size = tracemalloc.get_traced_memory()[0] - before
            del one
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            counts = [g.vertex_count for g in cert.replay()]
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert counts == list(range(128, 0, -1))
        assert peak < 3 * size

    def test_first_l_corrupted(self):
        cert = load_certificate("K1")
        bad = ContractionCertificate(
            cert.initial,
            (ContractionStep(cert.steps[0].pair, 1, cert.steps[0].merged),) + cert.steps[1:],
        )
        assert not verify_certificate(bad)

    def test_missing_vertex_raises(self):
        cert = load_certificate("K1")
        bad = ContractionCertificate(
            cert.initial,
            (ContractionStep(("v1", "zz"), 0, "m1"),) + cert.steps[1:],
        )
        with pytest.raises(UnknownVertexError):
            verify_certificate(bad)

    def test_prefix_mode(self):
        step = ContractionStep(("v1", "v2"), 1, "m1")
        cert = ContractionCertificate(builtin("example-G"), (step,))
        assert verify_certificate(cert, require_singleton=False)
        assert not verify_certificate(cert)

    def test_low_degree_merged_vertex_blocks_later_steps(self):
        # Merging a and b with l = 2 leaves the merged vertex with degree 2,
        # so it is a bystander of degree below 3 for the step on c, d, which
        # would be admissible (l = 2) without it.
        g = WeightedMultigraph(
            {"a": 4, "b": 4, "c": 9, "d": 9},
            [("a", "b", 3), ("a", "c", 1), ("b", "d", 1), ("c", "d", 3)],
        )
        first = ContractionStep(("a", "b"), 2, "m1")
        assert verify_certificate(ContractionCertificate(g, (first,)), require_singleton=False)
        second = ContractionStep(("c", "d"), 2, "m2")
        assert not verify_certificate(ContractionCertificate(g, (first, second)), require_singleton=False)

    def test_non_adjacent_step_is_invalid(self):
        g = WeightedMultigraph({"a": 2, "b": 2, "c": 2, "d": 2}, [("a", "b"), ("c", "d")])
        cert = ContractionCertificate(g, (ContractionStep(("a", "c"), 0, "m1"),))
        assert not verify_certificate(cert, require_singleton=False)

    def test_same_merged_vertex_step_is_invalid(self):
        # A pair of one vertex with itself has multiplicity 0, also after a
        # merge has joined the edges of two original vertices into it.
        first = ContractionStep(("v1", "v2"), 0, "m1")
        again = ContractionStep(("m1", "m1"), 0, "m2")
        cert = ContractionCertificate(builtin("K1"), (first, again))
        for require_singleton in (False, True):
            assert verify_certificate(cert, require_singleton) is False
            assert reference_verify(cert, require_singleton) is False

    def test_line_arrangement_certificates_match_the_contract_chain(self):
        for m in range(5, 41):
            cert = contract_multipartite(dual_graph(general_lines(m)))
            assert verify_certificate(cert) is True
            assert reference_verify(cert) is True

    def test_json_round_trip(self):
        cert = load_certificate("K3")
        doc = cert.to_json_dict()
        again = ContractionCertificate.from_json_dict(doc)
        assert again == cert
        assert verify_certificate(again)


class TestDecide:
    def test_seeds_are_contractible(self):
        for name in ("K1", "K2", "K3", "K4"):
            cert = decide_contractible(builtin(name))
            assert cert is not None
            assert verify_certificate(cert)

    def test_singleton_has_empty_certificate(self):
        g = WeightedMultigraph({"a": 7})
        cert = decide_contractible(g)
        assert cert is not None
        assert cert.steps == ()
        assert verify_certificate(cert)

    def test_two_vertices_never_contract(self):
        for w1, w2 in itertools.product(range(0, 6), repeat=2):
            assert decide_contractible(two_vertex(w1, w2)) is None

    def test_empty_graph_is_not_contractible(self):
        assert decide_contractible(WeightedMultigraph({})) is None

    def test_deterministic(self):
        a = decide_contractible(builtin("K2"))
        b = decide_contractible(builtin("K2"))
        assert a == b

    def test_bound_enforced(self):
        big = complete_multipartite([[f"a{i}"] for i in range(13)], 2)
        with pytest.raises(BoundExceededError):
            decide_contractible(big)

    def test_merged_names_avoid_existing_ids(self):
        g = complete_multipartite([[f"m{i}"] for i in range(1, 6)], 2)
        cert = decide_contractible(g)
        assert cert is not None
        assert verify_certificate(cert)
        assert all(s.merged not in g for s in cert.steps)

    def test_shared_memo_reuse(self):
        # Every vertex has degree 4 and weight 3, so the search gets past
        # the viability check on entry and records its failed states.
        g = builtin("example-G")
        memo = set()
        assert decide_contractible(g, memo=memo) is None
        assert memo  # failure states recorded
        assert decide_contractible(g, memo=memo) is None

    def test_memo_shared_between_graphs(self):
        # Same vertex names, so both searches visit the same merge
        # partitions; the memo must not carry a failure of one graph over
        # to the other.
        k1 = builtin("K1")
        weights = dict(zip(k1.vertices, (2, 2, 2, 1, 1)))
        no = WeightedMultigraph(weights, list(k1.edge_items()))
        yes = WeightedMultigraph(dict(weights, v4=2), list(k1.edge_items()))
        expected = decide_contractible(yes)
        assert expected is not None and decide_contractible(no) is None
        for first, second in ((no, yes), (yes, no)):
            memo = set()
            for g in (first, second, first):
                assert decide_contractible(g, memo=memo) == (expected if g is yes else None)
            assert memo

    def test_unmergeable_vertex_means_no(self):
        # A vertex of degree <= 3 or weight <= 0 can never be an endpoint of
        # an admissible step, and no step changes a bystander's degree or
        # weight.  Checked against the independent oracle on graphs that
        # are otherwise heavy (about half of them contract before one vertex
        # is spoilt).
        import random

        rng = random.Random(11)
        for _ in range(400):
            names = [f"v{i}" for i in range(rng.randint(2, 5))]
            weights = {v: rng.randint(1, 5) for v in names}
            mults = {pair: rng.randint(1, 3) for pair in itertools.combinations(names, 2)}
            bad = rng.choice(names)
            if rng.random() < 0.5:
                weights[bad] = rng.randint(-1, 0)
            else:
                budget = rng.randint(0, 3)
                for pair in mults:
                    if bad in pair:
                        mults[pair] = min(mults[pair], budget)
                        budget -= mults[pair]
            g = WeightedMultigraph(weights, [(u, v, m) for (u, v), m in mults.items()])
            assert any(g.weight(x) <= 0 or g.degree(x) <= 3 for x in g.vertices)
            assert not brute_force_oracle(g, max_total_multiplicity=30)
            assert decide_contractible(g) is None

    def test_two_anchors_of_weight_four_contract(self):
        # The last step needs l >= 3, so both final vertices weigh >= 4.
        cert = decide_contractible(two_vertex(4, 5, mult=4))
        assert cert is not None and cert.steps == (ContractionStep(("a", "b"), 3, "m1"),)
        assert decide_contractible(two_vertex(3, 5, mult=4)) is None

    def test_one_anchor_is_rejected_on_entry(self):
        # A complete multigraph with one vertex of weight >= 2 and every
        # vertex mergeable on its own: only the two-anchor rule rejects it.
        names = [f"v{i}" for i in range(1, 9)]
        weights = dict.fromkeys(names, 1) | {"v5": 3}
        edges = [(u, v, 1 + (i + j) % 2) for (i, u), (j, v) in itertools.combinations(enumerate(names), 2)]
        memo = set()
        assert decide_contractible(WeightedMultigraph(weights, edges), memo=memo) is None
        assert memo == set()

    def test_slow_random_no_graph_is_rejected_on_entry(self):
        # Graph 2040 of 3,000 random graphs drawn from random.Random(7)
        # (10..12 vertices, edge probability 0.3..0.7, weights 1..4,
        # multiplicities 1..3): before the dead-endpoint rule the search
        # filled 232,444 memo entries on it.  Vertex v08 has weight 1,
        # degree 4 and multiplicity 2 to each of its neighbours, above the
        # bound d + w - 4 = 1, so it can never be merged.
        g = WeightedMultigraph.from_json_dict(json.loads((DATA / "random7-2040.graph.json").read_text()))
        assert g.vertex_count == 12 and g.degree("v08") == 4 and set(g._adj["v08"].values()) == {2}
        memo = set()
        assert decide_contractible(g, memo=memo) is None
        assert len(memo) == 0

    def test_merge_can_kill_a_neighbour(self):
        # v4 (weight 1, degree 4) is usable only through v1 and v2, each by
        # one edge; merging them, the first admissible pair in sorted order,
        # joins v4 to the merged vertex by 2 > 1 edges.  The merged vertex,
        # v3 and the anchors stay fine, so only v4's death rejects that
        # child: the search goes on to (v1, v3) and records no failed state.
        g = WeightedMultigraph(
            {"v1": 1, "v2": 3, "v3": 4, "v4": 1},
            [("v1", "v2", 2), ("v1", "v3", 2), ("v1", "v4", 1), ("v2", "v3", 2), ("v2", "v4", 1), ("v3", "v4", 2)],
        )
        assert feasible_l_range(g, "v1", "v2") == (0,)
        child = contract(g, ("v1", "v2"), "m1")
        assert [x for x in child.vertices if child.weight(x) + child.degree(x) - 4 < min(child._adj[x].values())] == ["v4"]
        assert not brute_force_oracle(child)
        memo = set()
        cert = decide_contractible(g, memo=memo)
        assert cert is not None and cert.steps[0] == ContractionStep(("v1", "v3"), 0, "m1")
        assert memo == set()

    def test_a_fresh_memo_never_hashes_the_graph(self, monkeypatch):
        # A YES descent that never backtracks leaves its memo empty, so it
        # has no reason to hash its graph, with no memo or a new one.
        doc = json.loads((DATA / "yes-12.graph.json").read_text())
        g = WeightedMultigraph.from_json_dict(doc)
        expected = decide_contractible(g)
        assert expected is not None and contraction._viability(g) is not None

        def refuse(self):
            raise AssertionError("the search hashed its graph")

        monkeypatch.setattr(WeightedMultigraph, "__hash__", refuse)
        g = WeightedMultigraph.from_json_dict(doc)
        assert decide_contractible(g) == expected
        assert decide_contractible(g, memo=set()) == expected

    def test_a_private_memo_never_hashes_the_graph(self, monkeypatch):
        # A NO graph that passes the entry rules and fails 7 states.  With
        # no memo given, the search sees one graph, so its failure entries
        # do not name it and the graph is never hashed.
        weights = {"v1": 1, "v2": 1, "v3": 3, "v4": 3}
        edges = [("v1", "v2", 3), ("v1", "v3", 1), ("v1", "v4", 2), ("v2", "v3", 1), ("v2", "v4", 3), ("v3", "v4", 2)]
        memo = set()
        assert decide_contractible(WeightedMultigraph(weights, edges), memo=memo) is None
        assert len(memo) == 7

        def refuse(self):
            raise AssertionError("the search hashed its graph")

        monkeypatch.setattr(WeightedMultigraph, "__hash__", refuse)
        g = WeightedMultigraph(weights, edges)
        assert contraction._viability(g) is not None
        assert decide_contractible(g) is None
        assert brute_force_oracle(g) is False

    @pytest.mark.parametrize(
        "weights, edges, contractible, failed",
        [
            # YES after three failed states.
            (
                {"v1": 2, "v2": 4, "v3": 1, "v4": 2},
                [("v1", "v2", 2), ("v1", "v3", 1), ("v1", "v4", 2), ("v2", "v3", 2), ("v2", "v4", 1), ("v3", "v4", 1)],
                True,
                3,
            ),
            # NO after eight failed states.
            (
                dict.fromkeys(("v1", "v2", "v3", "v4"), 2),
                [("v1", "v2", 2), ("v1", "v3", 2), ("v1", "v4", 1), ("v2", "v3", 2), ("v2", "v4", 1), ("v3", "v4", 2)],
                False,
                8,
            ),
        ],
    )
    def test_search_leaves_the_input_graph_unchanged(self, weights, edges, contractible, failed):
        # The search merges and splits a copy of the rows in place.
        g = WeightedMultigraph(weights, edges)
        rows = [(x, list(row.items())) for x, row in g._adj.items()]
        hashed = hash(g)
        memo = set()
        assert (decide_contractible(g, memo=memo) is not None) == contractible
        assert len(memo) == failed
        assert [(x, list(row.items())) for x, row in g._adj.items()] == rows
        assert g._weights == weights and tuple(g._weights) == g.vertices
        assert hash(g) == hashed == hash(WeightedMultigraph(weights, edges))
        assert g == WeightedMultigraph(weights, edges)

    def test_adversarial_no_graph_memo_count(self):
        # A 12-vertex NO graph found by a seeded hill-climb that maximises
        # memo entries; the count, not the time, is what is pinned.
        g = WeightedMultigraph.from_json_dict(json.loads((DATA / "adversarial-12.graph.json").read_text()))
        assert g.vertex_count == 12
        memo = set()
        assert decide_contractible(g, memo=memo) is None
        assert len(memo) == 53_965

    def test_memo_entries_are_small(self):
        # adversarial-12 without v09 and v10: a 10-vertex NO graph whose
        # search records 2,827 failed states in about 0.1 s.  An entry is
        # a (graph, int) tuple, the int and the set's share of its table,
        # about 130 B; a frozenset of group masks per entry takes 650 B.
        import tracemalloc

        g = WeightedMultigraph.from_json_dict(json.loads((DATA / "adversarial-12.graph.json").read_text()))
        keep = [x for x in g.vertices if x not in ("v09", "v10")]
        g = WeightedMultigraph(
            {x: g.weight(x) for x in keep}, [(u, v, m) for u, v, m in g.edge_items() if u in keep and v in keep]
        )
        hash(g)  # cached before tracing, so only the memo is counted
        memo = set()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert decide_contractible(g, memo=memo) is None
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(memo) == 2_827
        assert held <= 200 * len(memo)
        assert all(h is g and type(key) is int and 0 <= key < 16**10 for h, key in memo)

    def test_certificates_are_pinned(self):
        # 2,000 seeded 6-12-vertex graphs.  The YES count and the digest of
        # every certificate's steps (or null) are fixed values, so this pin
        # does not lean on the reference search in conftest, which shares
        # _viability and _admissible with the search.  Memo sizes are not
        # pinned here: pruning may change them, but not the certificates.
        rng = random.Random(7)
        digest = hashlib.sha256()
        yes = 0
        for _ in range(2000):
            n = rng.randint(6, 12)
            p = rng.uniform(0.3, 0.9)
            names = [f"v{i:02d}" for i in range(n)]
            weights = {x: rng.randint(1, 4) for x in names}
            edges = [(a, b, rng.randint(1, 3)) for i, a in enumerate(names) for b in names[i + 1:] if rng.random() < p]
            cert = decide_contractible(WeightedMultigraph(weights, edges))
            yes += cert is not None
            steps = None if cert is None else cert.to_json_dict()["steps"]
            digest.update(json.dumps(steps).encode() + b"\n")
        assert yes == 1_293
        assert digest.hexdigest() == "296ceaf46512777796dec9bc07739c150e313ada4a1a05f900e025613a674690"

    def test_search_leaves_no_reference_cycle(self):
        # Garbage left in a reference cycle would keep each call's memo
        # alive until the cyclic collector runs.
        graphs = [builtin("K2"), builtin("example-G")]
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                for g in graphs:
                    decide_contractible(g)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOracle:
    def test_example_graph_dead_ends(self):
        # The one admissible step leaves weights (6, 3) with multiplicity 4,
        # where deg - mult + l >= 3 forces l >= 3 but the weight bounds cap
        # l <= 2 under either ordering.  Frozen as a regression value.
        assert brute_force_oracle(builtin("example-G")) is False

    def test_singleton(self):
        assert brute_force_oracle(WeightedMultigraph({"a": 1}))

    def test_empty_graph(self):
        assert brute_force_oracle(WeightedMultigraph({})) is False

    def test_two_vertices(self):
        assert not brute_force_oracle(two_vertex(3, 3, 2))

    def test_verdicts_are_pinned(self):
        # 3,000 seeded graphs of 2-5 vertices, weights 0..5, multiplicities
        # 0..4 and total multiplicity at most 30.  The digest was taken from
        # the oracle's first encoding, before its per-state shortcuts, so it
        # checks them against that encoding without keeping it.
        rng = random.Random("oracle-pin")
        verdicts = []
        while len(verdicts) < 3000:
            names = "abcde"[: rng.randint(2, 5)]
            weights = {v: rng.randint(0, 5) for v in names}
            edges = [(u, v, rng.randint(0, 4)) for u, v in itertools.combinations(names, 2)]
            if sum(m for _, _, m in edges) <= 30:
                verdicts.append("1" if brute_force_oracle(WeightedMultigraph(weights, edges), max_total_multiplicity=30) else "0")
        verdicts = "".join(verdicts)
        assert verdicts.count("1") == 430
        assert hashlib.sha256(verdicts.encode()).hexdigest() == "720cece63997c672e8a54471d537e7daaf549324ff8cdef549a28b48962425b2"

    def test_seed_within_bounds(self):
        assert brute_force_oracle(builtin("K1"))

    def test_bounds_raise(self):
        with pytest.raises(BoundExceededError):
            brute_force_oracle(builtin("K2"))  # 6 vertices
        heavy = WeightedMultigraph({"a": 2, "b": 2}, [("a", "b", 13)])
        with pytest.raises(BoundExceededError):
            brute_force_oracle(heavy)
        assert not brute_force_oracle(heavy, max_total_multiplicity=13)

    def test_agreement_with_search_on_small_graphs(self):
        import random

        rng = random.Random(7)
        verts = ["a", "b", "c", "d"]
        for _ in range(300):
            weights = {v: rng.randint(0, 5) for v in verts}
            edges = [
                (u, v, rng.randint(0, 3))
                for u, v in itertools.combinations(verts, 2)
            ]
            g = WeightedMultigraph(weights, edges)
            assert (decide_contractible(g) is not None) == brute_force_oracle(
                g, max_total_multiplicity=18
            )

    def test_oracle_is_independent_of_the_kernel(self, monkeypatch):
        # Demand wt(second) >= l + 3 where the rule says l + 2.  An oracle
        # that shared the search's kernel would follow it and agree.
        kernel = contraction._admissible

        def tightened(u, v, mult, wt_u, wt_v, deg_u, deg_v, low):
            bounds = kernel(u, v, mult, wt_u, wt_v, deg_u, deg_v, low)
            if bounds is None:
                return None
            lo, hi_uv, hi_vu = bounds
            return lo, min(hi_uv, wt_v - 3), min(hi_vu, wt_u - 3)

        monkeypatch.setattr(contraction, "_admissible", tightened)
        family = (
            WeightedMultigraph(dict(zip(names, weights)), [(u, v, m) for (u, v), m in zip(pairs, mults)])
            for names in ("ab", "abc")
            for pairs in [list(itertools.combinations(names, 2))]
            for weights in itertools.product(range(1, 6), repeat=len(names))
            for mults in itertools.product(range(1, 5), repeat=len(pairs))
        )
        assert any(
            (decide_contractible(g) is not None) != brute_force_oracle(g, max_total_multiplicity=18)
            for g in family
        )

    def test_oracle_runs_without_the_search_code(self, monkeypatch):
        # With the kernel, the viability rules, the search, the replay and
        # contract all broken, the oracle must answer as before.
        rng = random.Random(20261019)
        verts = ("v1", "v2", "v3", "v4")
        family = []
        for _ in range(200):
            names = verts[: rng.randint(1, 4)]
            weights = {v: rng.randint(0, 5) for v in names}
            family.append(WeightedMultigraph(weights, [(u, v, rng.randint(0, 3)) for u, v in itertools.combinations(names, 2)]))
        expected = [brute_force_oracle(g, max_total_multiplicity=18) for g in family]

        def broken(*args, **kwargs):
            raise AssertionError("the oracle called the code it checks")

        for name in ("_admissible", "_viability", "_search", "_Replay", "contract"):
            monkeypatch.setattr(contraction, name, broken)
        assert brute_force_oracle(builtin("example-G")) is False
        assert brute_force_oracle(builtin("K1")) is True
        assert [brute_force_oracle(g, max_total_multiplicity=18) for g in family] == expected
        assert True in expected and False in expected


class TestLift:
    def test_identity_embedding_preserves_steps(self):
        cert = load_certificate("K1")
        lifted = lift_certificate(cert, cert.initial, {v: v for v in cert.initial.vertices})
        assert [s.pair for s in lifted.steps] == [s.pair for s in cert.steps]
        assert [s.l for s in lifted.steps] == [s.l for s in cert.steps]
        assert verify_certificate(lifted)

    def test_seed_into_contracted_seed(self):
        # K3 after its two published merges is complete on 5 vertices with
        # weights (2,2,2,4,4), so K1 spans it.
        g = builtin("K3")
        reduced = contract(contract(g, ("v2", "v3"), "m1"), ("v4", "v5"), "m2")
        seed = builtin("K1")
        emb = dict(zip(seed.vertices, reduced.vertices))
        assert is_spanning_submultigraph(seed, reduced, emb)
        lifted = lift_certificate(load_certificate("K1"), reduced, emb)
        assert verify_certificate(lifted)

    def test_chained_lift(self):
        # K4 after one merge carries K3 as a spanning submultigraph.
        reduced = contract(builtin("K4"), ("v1", "v2"), "m1")
        emb = {"v1": "m1", "v2": "v3", "v4": "v5", "v6": "v7", "v3": "v4", "v5": "v6", "v7": "v8"}
        assert is_spanning_submultigraph(builtin("K3"), reduced, emb)
        lifted = lift_certificate(load_certificate("K3"), reduced, emb)
        assert verify_certificate(lifted)

    def test_not_spanning_raises(self):
        cert = load_certificate("K1")
        with pytest.raises(NotSpanningError):
            lift_certificate(cert, builtin("K2"), {v: v for v in cert.initial.vertices})

    def test_invalid_certificate_rejected(self):
        cert = load_certificate("K1")
        bad = ContractionCertificate(cert.initial, cert.steps[:-1])
        with pytest.raises(GraphError):
            lift_certificate(bad, cert.initial, {v: v for v in cert.initial.vertices})

    def test_copy_of_a_verified_seed_with_a_bad_l_is_rejected(self):
        seed = load_certificate("K1")
        identity = {v: v for v in seed.initial.vertices}
        lift_certificate(seed, seed.initial, identity)  # the seed itself is verified by now
        *head, last = seed.steps
        # The last step joins two vertices whose degree is their multiplicity,
        # so it needs l >= 3 (see decide_contractible).
        assert last.l == 3
        bad = ContractionCertificate(seed.initial, (*head, ContractionStep(last.pair, 2, last.merged)))
        assert not verify_certificate(bad)
        with pytest.raises(GraphError, match="does not verify"):
            lift_certificate(bad, seed.initial, identity)
        with pytest.raises(GraphError, match="does not verify"):
            lift_certificate(bad, seed.initial, identity)  # nor the second time

    def test_input_is_verified_on_every_call(self, monkeypatch):
        seed = load_certificate("K1")
        identity = {v: v for v in seed.initial.vertices}
        verified = []
        real = contraction.verify_certificate
        monkeypatch.setattr(contraction, "verify_certificate", lambda cert: verified.append(cert) or real(cert))
        lift_certificate(seed, seed.initial, identity)
        lift_certificate(seed, seed.initial, identity)
        assert len(verified) == 2 and all(c is seed for c in verified)


class TestAbsorb:
    def test_no_outside_vertices(self):
        g = dual_graph(general_lines(5))
        steps, reduced = absorb_submultigraph(g, g.vertices)
        assert steps == ()
        assert reduced == g

    def test_one_step(self):
        g = dual_graph(general_lines(6))
        keep = g.vertices[:5]
        steps, reduced = absorb_submultigraph(g, keep)
        assert steps == (ContractionStep(("L6", "L1"), 0, "L1"),)  # smallest kept neighbour
        assert set(reduced.vertices) == set(keep)
        assert verify_certificate(
            ContractionCertificate(g, steps), require_singleton=False
        )

    def test_kept_set_spans_seed_shape(self):
        g = dual_graph(general_lines(6))
        keep = g.vertices[:5]
        _, reduced = absorb_submultigraph(g, keep)
        seed = builtin("K1")
        assert is_spanning_submultigraph(seed, reduced, dict(zip(seed.vertices, reduced.vertices)))

    def test_underweight_witness(self):
        g = complete_multipartite([["a"], ["b"], ["c"], ["d"], ["e"]], 2)
        light = WeightedMultigraph(
            {v: (1 if v == "a" else 2) for v in g.vertices}, list(g.edge_items())
        )
        with pytest.raises(PreconditionError) as err:
            absorb_submultigraph(light, light.vertices)
        assert err.value.witness == "a"

    def test_independence_bound_witness(self):
        g = builtin("K4")  # bipartite 4+4
        with pytest.raises(PreconditionError) as err:
            absorb_submultigraph(g, ("v1", "v3", "v5", "v7", "v2"))
        assert set(err.value.witness) == {"v1", "v3", "v5", "v7"}

    @pytest.mark.parametrize(
        "g, keep",
        [
            (dual_graph(general_lines(9)), ("L2", "L4", "L6", "L8", "L9")),
            (dual_graph(fibers_and_sections(1, 5, 6)), ("F1", "F2", "T1", "T2", "T3", "T6")),
            (complete_multipartite([["a", "b", "c"], ["d", "e"], ["f", "g", "h"], ["i"]], 3), ("i", "a", "e", "h", "b", "g")),
        ],
    )
    def test_reduced_graph_is_the_contract_chain(self, g, keep):
        steps, reduced = absorb_submultigraph(g, keep)
        chained = g
        for step in steps:
            chained = contract(chained, step.pair, step.merged)
        assert reduced == chained
        assert all(reduced.neighbors(v) == chained.neighbors(v) for v in reduced.vertices)

    def test_not_multipartite_witness(self):
        g = WeightedMultigraph(
            {"a": 2, "b": 2, "c": 2, "d": 2},
            [("a", "b"), ("b", "c"), ("c", "d")],
        )
        with pytest.raises(PreconditionError) as err:
            absorb_submultigraph(g, ("a", "b"))
        assert err.value.witness is not None


class TestContractMultipartite:
    def test_five_lines_case_one(self):
        g = dual_graph(general_lines(5))
        assert tuple(map(len, multipartite_partition(g))) == (1, 1, 1, 1, 1)
        cert = contract_multipartite(g)
        assert verify_certificate(cert)

    def test_bipartite_arrangement_case_five(self):
        g = dual_graph(fibers_and_sections(0, 4, 4))
        assert tuple(map(len, multipartite_partition(g))) == (4, 4)
        cert = contract_multipartite(g)
        assert verify_certificate(cert)

    def test_mixed_arrangement_case_one(self):
        g = dual_graph(fibers_and_sections(1, 3, 4))
        assert tuple(map(len, multipartite_partition(g))) == (1, 1, 1, 1, 3)
        cert = contract_multipartite(g)
        assert verify_certificate(cert)

    @pytest.mark.parametrize(
        "sizes",
        [
            (1, 1, 1, 1, 1, 2),  # case 1 with absorption
            (1, 1, 2, 2),        # case 2
            (1, 2, 2, 3),        # case 2, uneven
            (2, 2, 2),           # case 3
            (2, 3, 4),           # case 3, uneven
            (1, 3, 3),           # case 4
            (1, 4, 5),           # case 4, uneven
            (4, 4),              # case 5
            (4, 6),              # case 5, uneven
        ],
    )
    def test_all_five_cases(self, sizes):
        idx = 0
        parts = []
        for s in sizes:
            parts.append([f"u{idx + j}" for j in range(s)])
            idx += s
        g = complete_multipartite(parts, 2)
        if min(g.rdeg(v) for v in g.vertices) < 4:
            pytest.skip("instance misses the rdeg precondition")
        cert = contract_multipartite(g)
        assert verify_certificate(cert)
        assert cert.initial == g

    @pytest.mark.parametrize(
        "decide, args, vertices",
        [
            (decide_plane_double_cover, (512,), 256),
            (decide_ruled_double_cover, (1, 256, 256), 256),  # 128 fibers + 128 sections
        ],
    )
    def test_size_bound_certificates_verify(self, decide, args, vertices):
        report = decide(*args)
        cert = ContractionCertificate.from_json_dict(report.attachments["certificate"])
        assert cert.initial.vertex_count == vertices
        assert len(cert.steps) == vertices - 1
        assert verify_certificate(cert)

    def test_one_partition_and_one_replay_per_call(self, monkeypatch):
        graphs = [dual_graph(general_lines(7)), dual_graph(general_lines(9)), dual_graph(fibers_and_sections(0, 4, 4))]
        for shape in ("K1", "K4"):
            load_certificate(shape)  # parsed once per process, before counting
        calls = []
        for name in ("multipartite_partition", "verify_certificate", "_Replay"):
            real = getattr(contraction, name)
            monkeypatch.setattr(contraction, name, lambda x, name=name, real=real: calls.append((name, id(x))) or real(x))
        built = []
        real_init = WeightedMultigraph.__init__
        monkeypatch.setattr(WeightedMultigraph, "__init__", lambda self, *args: built.append(args) or real_init(self, *args))
        certs = [contract_multipartite(g) for g in graphs]
        # Per call: the partition of g, then one replay of g that checks
        # every step returned; no verification of the certificate or of a
        # seed on its own, and no reduced graph is built.
        assert calls == [call for g in graphs for call in (("multipartite_partition", id(g)), ("_Replay", id(g)))]
        assert built == []
        assert all(verify_certificate(cert) for cert in certs)

    def test_the_one_verification_rejects_a_bad_seed(self, monkeypatch):
        seed = load_certificate("K1")
        *head, last = seed.steps
        assert last.l == 3  # the last step needs l >= 3 (see decide_contractible)
        bad = ContractionCertificate(seed.initial, (*head, ContractionStep(last.pair, 2, last.merged)))
        monkeypatch.setattr("horicert.fixtures.load_certificate", lambda shape: bad)
        with pytest.raises(GraphError, match="failed verification"):
            contract_multipartite(dual_graph(general_lines(7)))

    def test_the_one_verification_rejects_a_seed_that_stops_short(self, monkeypatch):
        # Every step but the last is admissible, so only the one-vertex
        # check at the end can reject it.
        seed = load_certificate("K1")
        short = ContractionCertificate(seed.initial, seed.steps[:-1])
        assert verify_certificate(short, require_singleton=False)
        monkeypatch.setattr("horicert.fixtures.load_certificate", lambda shape: short)
        with pytest.raises(GraphError, match="failed verification"):
            contract_multipartite(dual_graph(general_lines(7)))

    def test_rdeg_witness(self):
        g = dual_graph(general_lines(4))
        with pytest.raises(PreconditionError) as err:
            contract_multipartite(g)
        assert err.value.witness == "L1"

    def test_weight_witness(self):
        g = complete_multipartite([["a"], ["b"], ["c"], ["d"], ["e"]], 2)
        light = WeightedMultigraph(
            {v: (1 if v == "c" else 2) for v in g.vertices}, list(g.edge_items())
        )
        with pytest.raises(PreconditionError) as err:
            contract_multipartite(light)
        assert err.value.witness == "c"

    def test_forbidden_triple_witness(self):
        g = WeightedMultigraph(
            {"a": 2, "b": 2, "c": 2, "d": 2, "e": 2},
            [("a", "b", 2), ("b", "c", 2), ("c", "d", 2), ("d", "e", 2), ("e", "a", 2), ("a", "c", 2)],
        )
        with pytest.raises(PreconditionError):
            contract_multipartite(g)


class TestPublishedCertificates:
    def test_k1_recorded_values(self):
        cert = load_certificate("K1")
        assert [s.l for s in cert.steps] == [0, 0, 1, 3]

    def test_k2_recorded_values(self):
        cert = load_certificate("K2")
        assert [s.l for s in cert.steps] == [0, 0, 0, 0, 3]

    def test_unknown_name(self):
        with pytest.raises(GraphError):
            load_certificate("K5")
