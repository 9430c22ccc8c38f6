import json

import pytest

from horicert import (
    GraphError,
    UnknownVertexError,
    WeightedMultigraph,
    builtin,
    complete_multipartite,
    dual_graph,
    fibers_and_sections,
    find_forbidden_triple,
    is_spanning_submultigraph,
    multipartite_partition,
)


def path(n: int) -> WeightedMultigraph:
    ids = [chr(ord("a") + i) for i in range(n)]
    return WeightedMultigraph({v: 1 for v in ids}, list(zip(ids, ids[1:])))


class TestDegrees:
    def test_example_graph_degree(self):
        g = builtin("example-G")
        assert g.degree("v1") == 4

    def test_isolated_vertex(self):
        g = WeightedMultigraph({"a": 1})
        assert g.degree("a") == 0
        assert g.rdeg("a") == 0

    def test_complete_seed_degree(self):
        g = builtin("K1")
        assert all(g.degree(v) == 4 for v in g.vertices)
        assert all(g.rdeg(v) == 4 for v in g.vertices)

    def test_example_graph_rdeg(self):
        assert builtin("example-G").rdeg("v1") == 2

    def test_section_vertex_rdeg_from_arrangement(self):
        # 3 fibers + 4 sections on F_1: a section meets 3 fibers + 3 sections
        g = dual_graph(fibers_and_sections(1, 3, 4))
        assert g.rdeg("T1") == 6

    def test_unknown_vertex(self):
        g = builtin("K1")
        with pytest.raises(UnknownVertexError):
            g.degree("nope")
        with pytest.raises(UnknownVertexError):
            g.rdeg("nope")
        with pytest.raises(UnknownVertexError):
            g.multiplicity("v1", "nope")

    def test_unhashable_id_is_not_a_vertex(self):
        g = builtin("K1")
        assert ["v1"] not in g
        for access in (g.weight, g.degree, g.rdeg, g.neighbors, lambda x: g.multiplicity(x, "v2"),
                       lambda x: g.multiplicity("v2", x)):
            with pytest.raises(UnknownVertexError, match=r"unknown vertex \['v1'\]"):
                access(["v1"])

    def test_rdeg_le_degree_with_equality_iff_simple(self):
        g = builtin("example-G")
        assert all(g.rdeg(v) < g.degree(v) for v in g.vertices)
        k = builtin("K1")
        assert all(k.rdeg(v) == k.degree(v) for v in k.vertices)


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            WeightedMultigraph({"a": 1}, [("a", "a")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownVertexError):
            WeightedMultigraph({"a": 1}, [("a", "b")])

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(GraphError):
            WeightedMultigraph({"a": 1, "b": 1}, [("a", "b", -1)])

    @pytest.mark.parametrize(
        "weights, edges, error, message",
        [
            ({"a": 1, "b": 1}, [("a",)], GraphError, "edge entry must be (u, v) or (u, v, mult), got ('a',)"),
            ({"a": 1, "b": 1}, [("a", "b", 1, 1)], GraphError, "edge entry must be (u, v) or (u, v, mult), got ('a', 'b', 1, 1)"),
            ({"a": 1, "b": 1}, [("a", "c")], UnknownVertexError, "edge endpoint 'c' is not a vertex"),
            ({"a": 1, "b": 1}, [("c", "a")], UnknownVertexError, "edge endpoint 'c' is not a vertex"),
            ({"a": 1, "b": 1}, [("c", "d")], UnknownVertexError, "edge endpoint 'c' is not a vertex"),
            ({"a": 1, "b": 1}, [("a", "a")], GraphError, "self-loop at 'a' is not allowed"),
            ({"a": 1, "b": 1}, [("a", "b", True)], GraphError, "multiplicity of ('a', 'b') must be a non-negative integer"),
            ({"a": 1, "b": 1}, [("a", "b", -1)], GraphError, "multiplicity of ('a', 'b') must be a non-negative integer"),
            ({"a": 1, "b": 1}, [("a", "b", 1.0)], GraphError, "multiplicity of ('a', 'b') must be a non-negative integer"),
            ({"a": True, "b": 1}, [], GraphError, "weight of 'a' must be an integer, got True"),
            ({"a": 1, "b": 2.0}, [], GraphError, "weight of 'b' must be an integer, got 2.0"),
            # one edge with two faults: the earlier check wins
            ({"a": 1, "b": 1}, [("c", "c", -1)], UnknownVertexError, "edge endpoint 'c' is not a vertex"),
            ({"a": 1, "b": 1}, [("a", "a", True)], GraphError, "self-loop at 'a' is not allowed"),
            ({"a": 1, "b": 1}, [("a", "c", False)], UnknownVertexError, "edge endpoint 'c' is not a vertex"),
            # and the earlier edge wins over a later one
            ({"a": 1, "b": 1}, [("a", "b", -1), ("a", "c")], GraphError, "multiplicity of ('a', 'b') must be a non-negative integer"),
            # weights are checked before any edge
            ({"a": 1, "b": True}, [("a",)], GraphError, "weight of 'b' must be an integer, got True"),
            # vertex ids must be strings; the first non-string one is named
            ({1: 2, 2: 2}, [(1, 2)], GraphError, "vertex id must be a string, got 1"),
            ({1: 2, "a": 2}, [], GraphError, "vertex id must be a string, got 1"),
            # an entry of the wrong type, or an unhashable endpoint, is a GraphError too
            ({"a": 1}, [(["a"], "a")], GraphError, "malformed edge entry (['a'], 'a'): unhashable type: 'list'"),
            ({"a": 1, "b": 1}, [("a", {"b": 1}, 1)], GraphError, "malformed edge entry ('a', {'b': 1}, 1): unhashable type: 'dict'"),
            ({"a": 1, "b": 1}, [("a", "b"), 5], GraphError, "malformed edge entry 5: object of type 'int' has no len()"),
        ],
    )
    def test_rejection_messages(self, weights, edges, error, message):
        with pytest.raises(error) as err:
            WeightedMultigraph(weights, edges)
        assert type(err.value) is error
        assert str(err.value) == message

    def test_int_subclass_is_accepted(self):
        class Count(int):
            pass

        g = WeightedMultigraph({"a": Count(2), "b": 1}, [("a", "b", Count(3)), ("b", "a", Count(0))])
        assert g == WeightedMultigraph({"a": 2, "b": 1}, [("a", "b", 3)])
        assert g.multiplicity("a", "b") == 3

    def test_duplicate_entries_accumulate(self):
        g = WeightedMultigraph({"a": 1, "b": 1}, [("a", "b"), ("b", "a", 2)])
        assert g.multiplicity("a", "b") == 3

    def test_zero_multiplicity_dropped(self):
        g = WeightedMultigraph({"a": 1, "b": 1}, [("a", "b", 0)])
        assert g.rdeg("a") == 0
        assert g.adjacent_pairs() == []

    def test_equality_and_hash(self):
        # builtin() shares one cached graph, so compare it with copies built
        # independently: equality and hash must not rest on identity.
        g1 = builtin("K1")
        copies = [
            WeightedMultigraph.from_json_dict(g1.to_json_dict()),
            complete_multipartite([[f"v{i}"] for i in range(1, 6)], 2),
        ]
        for g2 in copies:
            assert g1 is not g2
            assert g1 == g2
            assert hash(g1) == hash(g2)
        assert len({g1, *copies}) == 1


class TestMultipartite:
    def test_complete_graph_gives_singletons(self):
        part = multipartite_partition(builtin("K1"))
        assert part is not None
        assert part.sizes() == (1, 1, 1, 1, 1)

    def test_bipartite_arrangement(self):
        g = dual_graph(fibers_and_sections(0, 4, 4))
        part = multipartite_partition(g)
        assert part is not None
        assert part.sizes() == (4, 4)
        assert part.class_of("F1") == frozenset({"F1", "F2", "F3", "F4"})

    def test_three_vertex_path_is_the_bipartite_star(self):
        # No vertex of a--b--c has two non-neighbours, so no forbidden
        # triple exists: the path is complete bipartite with parts {a,c}/{b}.
        part = multipartite_partition(path(3))
        assert part is not None
        assert part.classes == (frozenset({"b"}), frozenset({"a", "c"}))
        assert find_forbidden_triple(path(3)) is None

    def test_four_vertex_path_is_not_multipartite(self):
        g = path(4)
        assert multipartite_partition(g) is None
        v1, v2, v3 = find_forbidden_triple(g)
        assert g.multiplicity(v1, v2) == 0
        assert g.multiplicity(v1, v3) == 0
        assert g.multiplicity(v2, v3) >= 1

    def test_partition_classes_match_non_adjacency(self):
        g = builtin("K2")
        part = multipartite_partition(g)
        for u in g.vertices:
            for v in g.vertices:
                if u < v:
                    same = part.class_of(u) == part.class_of(v)
                    assert same == (g.multiplicity(u, v) == 0)

    def test_edgeless_graph_is_one_class(self):
        g = WeightedMultigraph({"a": 1, "b": 2, "c": 3})
        part = multipartite_partition(g)
        assert part.sizes() == (3,)


class TestSpanning:
    def test_identity_on_seed(self):
        g = builtin("K1")
        assert is_spanning_submultigraph(g, g, {v: v for v in g.vertices})

    def test_bipartite_seed_into_arrangement(self):
        host = dual_graph(fibers_and_sections(0, 4, 4))
        emb = {
            "v1": "F1", "v3": "F2", "v5": "F3", "v7": "F4",
            "v2": "T1", "v4": "T2", "v6": "T3", "v8": "T4",
        }
        assert is_spanning_submultigraph(builtin("K4"), host, emb)

    def test_size_mismatch_is_false(self):
        k1, k2 = builtin("K1"), builtin("K2")
        emb = {v: v for v in k1.vertices}
        assert not is_spanning_submultigraph(k1, k2, emb)

    def test_weight_excess_is_false(self):
        heavy = WeightedMultigraph({"a": 5, "b": 5}, [("a", "b")])
        light = WeightedMultigraph({"a": 2, "b": 2}, [("a", "b")])
        emb = {"a": "a", "b": "b"}
        assert is_spanning_submultigraph(light, heavy, emb)
        assert not is_spanning_submultigraph(heavy, light, emb)

    def test_multiplicity_excess_is_false(self):
        single = WeightedMultigraph({"a": 2, "b": 2}, [("a", "b")])
        double = WeightedMultigraph({"a": 2, "b": 2}, [("a", "b", 2)])
        emb = {"a": "a", "b": "b"}
        assert is_spanning_submultigraph(single, double, emb)
        assert not is_spanning_submultigraph(double, single, emb)

    def test_unknown_ids_raise(self):
        g = builtin("K1")
        with pytest.raises(UnknownVertexError):
            is_spanning_submultigraph(g, g, {})
        bad = {v: v for v in g.vertices}
        bad["v1"] = "zz"
        with pytest.raises(UnknownVertexError):
            is_spanning_submultigraph(g, g, bad)
        bad["v1"] = ["v1"]
        with pytest.raises(UnknownVertexError):
            is_spanning_submultigraph(g, g, bad)

    def test_non_injective_raises(self):
        g = builtin("K1")
        emb = {v: "v1" for v in g.vertices}
        with pytest.raises(GraphError):
            is_spanning_submultigraph(g, g, emb)


class TestBuiltins:
    def test_k1_shape(self):
        g = builtin("K1")
        assert g.vertex_count == 5
        assert g.total_multiplicity() == 10
        assert {g.weight(v) for v in g.vertices} == {2}

    def test_k4_shape(self):
        g = builtin("K4")
        assert g.vertex_count == 8
        assert g.total_multiplicity() == 16
        assert all(g.degree(v) == 4 for v in g.vertices)

    def test_example_graph_shape(self):
        g = builtin("example-G")
        assert g.vertex_count == 3
        assert {g.weight(v) for v in g.vertices} == {3}
        assert all(m == 2 for _, _, m in g.edge_items())

    def test_seed_weight_and_rdeg_facts(self):
        for name, n in (("K1", 5), ("K2", 6), ("K3", 7), ("K4", 8)):
            g = builtin(name)
            assert g.vertex_count == n
            assert {g.weight(v) for v in g.vertices} == {2}
            assert min(g.rdeg(v) for v in g.vertices) == 4

    def test_unknown_name(self):
        with pytest.raises(GraphError):
            builtin("K9")

    def test_fixture_graphs_are_the_reference_literals(self):
        # The class layouts that contract_multipartite's pick table embeds into.
        layouts = {
            "K1": [[f"v{i}"] for i in range(1, 6)],
            "K2": [["v1", "v4"], ["v2", "v5"], ["v3", "v6"]],
            "K3": [["v1"], ["v2", "v4", "v6"], ["v3", "v5", "v7"]],
            "K4": [["v1", "v3", "v5", "v7"], ["v2", "v4", "v6", "v8"]],
        }
        expected = {name: complete_multipartite(parts, 2) for name, parts in layouts.items()}
        expected["example-G"] = WeightedMultigraph(
            {"v1": 3, "v2": 3, "v3": 3}, [("v1", "v2", 2), ("v1", "v3", 2), ("v2", "v3", 2)]
        )
        for name, g in expected.items():
            assert builtin(name) == g, name
            assert builtin(name).to_json_dict() == g.to_json_dict(), name


class TestFormats:
    def test_json_round_trip(self):
        g = dual_graph(fibers_and_sections(2, 3, 4))
        doc = json.loads(json.dumps(g.to_json_dict()))
        assert WeightedMultigraph.from_json_dict(doc) == g

    def test_positive_weight_gate(self):
        doc = {"vertices": [{"id": "a", "wt": 0}], "edges": []}
        assert WeightedMultigraph.from_json_dict(doc).weight("a") == 0

    def test_malformed_document(self):
        with pytest.raises(GraphError):
            WeightedMultigraph.from_json_dict({"edges": []})
        with pytest.raises(GraphError):
            WeightedMultigraph.from_json_dict(
                {"vertices": [{"id": "a", "wt": 1}, {"id": "a", "wt": 2}], "edges": []}
            )

    @pytest.mark.parametrize(
        "vertices, edges, error, message",
        [
            # the constructor's checks, met through the document
            ([{"id": 5, "wt": 1}], [], GraphError, "vertex id must be a string, got 5"),
            ([{"id": "a", "wt": 1}, {"id": "b", "wt": 1}], [{"u": "a", "v": 5, "mult": 1}], UnknownVertexError, "edge endpoint 5 is not a vertex"),
            (
                [{"id": "a", "wt": 1}, {"id": "b", "wt": 1}],
                [{"u": ["a"], "v": "b", "mult": 1}],
                GraphError,
                "malformed edge entry (['a'], 'b', 1): unhashable type: 'list'",
            ),
            # an id that cannot key the weight map fails while unpacking
            ([{"id": ["a"], "wt": 1}], [], GraphError, "malformed graph document: unhashable type: 'list'"),
        ],
    )
    def test_parse_error_messages(self, vertices, edges, error, message):
        with pytest.raises(error) as err:
            WeightedMultigraph.from_json_dict({"vertices": vertices, "edges": edges})
        assert type(err.value) is error
        assert str(err.value) == message

    def test_dot_has_one_arc_per_edge(self):
        g = builtin("example-G")
        dot = g.to_dot("example-G")
        assert dot.count(" -- ") == 6
        assert '"v1" [label="3"' in dot
        assert dot.startswith('graph "example-G" {')
