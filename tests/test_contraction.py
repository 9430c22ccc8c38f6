import itertools

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
    complete_multipartite,
    contract,
    contract_multipartite,
    decide_contractible,
    dual_graph,
    feasible_l_range,
    fibers_and_sections,
    general_lines,
    is_spanning_submultigraph,
    lift_certificate,
    multipartite_partition,
    verify_certificate,
)
from horicert import contraction
from horicert.fixtures import load_certificate


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

    def test_merged_may_reuse_an_endpoint(self):
        g = contract(builtin("example-G"), ("v1", "v2"), "v1")
        assert g.weight("v1") == 6

    def test_weight_and_multiplicity_accounting(self):
        g = builtin("K2")
        g2 = contract(g, ("v1", "v2"))
        assert g2.total_weight() == g.total_weight()
        assert g2.vertex_count == g.vertex_count - 1
        assert g2.total_multiplicity() == g.total_multiplicity() - g.multiplicity("v1", "v2")


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


class TestVerify:
    def test_published_sequences(self):
        for name, final in (("K1", 10), ("K2", 12), ("K3", 14), ("K4", 16)):
            cert = load_certificate(name)
            assert verify_certificate(cert)
            end = cert.final_graph()
            assert end.is_singleton()
            assert end.weight(end.vertices[0]) == final

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

    def test_non_adjacent_step_is_invalid(self):
        g = WeightedMultigraph({"a": 2, "b": 2, "c": 2, "d": 2}, [("a", "b"), ("c", "d")])
        cert = ContractionCertificate(g, (ContractionStep(("a", "c"), 0, "m1"),))
        assert not verify_certificate(cert, require_singleton=False)

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
        assert decide_contractible(big, max_vertices=13) is not None

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


class TestOracle:
    def test_example_graph_dead_ends(self):
        # The one admissible step leaves weights (6, 3) with multiplicity 4,
        # where deg - mult + l >= 3 forces l >= 3 but the weight bounds cap
        # l <= 2 under either ordering.  Frozen as a regression value.
        assert brute_force_oracle(builtin("example-G")) is False

    def test_singleton(self):
        assert brute_force_oracle(WeightedMultigraph({"a": 1}))

    def test_two_vertices(self):
        assert not brute_force_oracle(two_vertex(3, 3, 2))

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

        def tightened(g, u, v):
            bounds = kernel(g, u, v)
            if bounds is None:
                return None
            lo, hi_uv, hi_vu = bounds
            return lo, min(hi_uv, g.weight(v) - 3), min(hi_vu, g.weight(u) - 3)

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
        assert len(steps) == 1
        assert steps[0].l == 0
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
        assert multipartite_partition(g).sizes() == (1, 1, 1, 1, 1)
        cert = contract_multipartite(g)
        assert verify_certificate(cert)

    def test_bipartite_arrangement_case_five(self):
        g = dual_graph(fibers_and_sections(0, 4, 4))
        assert multipartite_partition(g).sizes() == (4, 4)
        cert = contract_multipartite(g)
        assert verify_certificate(cert)

    def test_mixed_arrangement_case_one(self):
        g = dual_graph(fibers_and_sections(1, 3, 4))
        assert multipartite_partition(g).sizes() == (1, 1, 1, 1, 3)
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
