import io
import json
import sys
import time

import pytest

from horicert import (
    ContractionCertificate,
    WeightedMultigraph,
    builtin,
    complete_multipartite,
    verify_certificate,
)
from horicert.cli import MAX_INPUT_BYTES, run
from horicert import fixtures


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTheoremCommand:
    def test_yes_json(self, capsys):
        code, out, _ = invoke(capsys, "theorem", "p2", "--d", "10", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "YES"
        cert = ContractionCertificate.from_json_dict(doc["attachments"]["certificate"])
        assert verify_certificate(cert)

    def test_no_exit_code(self, capsys):
        code, out, _ = invoke(capsys, "theorem", "p2", "--d", "8")
        assert code == 1
        assert "obstruction.bitangent_elliptic" in out

    def test_not_covered(self, capsys):
        code, _, _ = invoke(capsys, "theorem", "p2", "--d", "9")
        assert code == 2

    def test_ruled(self, capsys):
        code, out, _ = invoke(capsys, "theorem", "fn", "--N", "1", "--a", "6", "--b", "8")
        assert code == 0
        assert "verdict: YES" in out

    def test_missing_flags(self, capsys):
        code, _, err = invoke(capsys, "theorem", "p2")
        assert code == 3
        assert "--d" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("p2", "--d", "10", "--N", "3"), "theorem p2 takes no --N"),
            (("p2", "--d", "10", "--a", "0", "--b", "2"), "theorem p2 takes no --a, --b"),
            (("fn", "--N", "1", "--a", "6", "--b", "8", "--d", "10"), "theorem fn takes no --d"),
        ],
    )
    def test_unused_coordinates_exit_3(self, capsys, argv, message):
        assert invoke(capsys, "theorem", *argv) == (3, "", f"horicert: error: {message}\n")

    def test_bad_value(self, capsys):
        code, _, _ = invoke(capsys, "theorem", "p2", "--d", "0")
        assert code == 3


class TestFactorCommand:
    def test_found(self, capsys):
        code, out, _ = invoke(capsys, "factor", "--d", "10")
        assert code == 0
        assert out.strip() == "2 5"

    def test_none(self, capsys):
        code, out, _ = invoke(capsys, "factor", "--d", "7")
        assert code == 2
        assert out.strip() == "NONE"

    @pytest.mark.parametrize("d", ["1000000007", "10000000019"])
    def test_large_prime_answers_at_once(self, capsys, d):
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "factor", "--d", d)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out.strip() == "NONE"

    def test_degree_above_the_bound_exits_3(self, capsys):
        code, out, err = invoke(capsys, "factor", "--d", str(10**12 + 1))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err


class TestGraphCommands:
    def test_builtin_dump_json_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "builtin-dump", "K1", "--format", "json")
        assert code == 0
        parsed = WeightedMultigraph.from_json_dict(json.loads(out))
        assert parsed == builtin("K1")

    def test_builtin_dump_dot(self, capsys):
        code, out, _ = invoke(capsys, "builtin-dump", "K1", "--format", "dot")
        assert code == 0
        assert out.count(" -- ") == 10
        assert out.count('label="2"') == 5

    def test_graph_dual_text(self, capsys):
        code, out, _ = invoke(capsys, "graph-dual", "lines:P2:m=5")
        assert code == 0
        assert "5 vertices" in out

    def test_graph_dual_json(self, capsys):
        code, out, _ = invoke(capsys, "graph-dual", "fn:N=1:a=3:b=4", "--format", "json")
        assert code == 0
        g = WeightedMultigraph.from_json_dict(json.loads(out))
        assert g.vertex_count == 7

    def test_graph_dual_bad_shorthand(self, capsys):
        code, _, err = invoke(capsys, "graph-dual", "wat:N=1")
        assert code == 3
        assert "shorthand" in err

    @pytest.mark.parametrize(
        "shorthand, message",
        [
            ("lines:P2:m=0", "need at least one line, got 0"),
            ("fn:N=1:a=0:b=0", "need non-negative counts with at least one component, got 0, 0"),
        ],
    )
    def test_graph_dual_empty_arrangement(self, capsys, shorthand, message):
        code, out, err = invoke(capsys, "graph-dual", shorthand)
        assert code == 3
        assert out == ""
        assert err == f"horicert: error: bad arrangement shorthand {shorthand!r}: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("graph-dual", "lines:P2:m=100000"),
            ("graph-dual", "fn:N=1:a=200:b=57"),
            ("theorem", "p2", "--d", "100000"),
            ("theorem", "fn", "--N", "1", "--a", "400", "--b", "116"),
        ],
    )
    def test_oversized_arrangement_exits_3(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "limited to 256 components" in err


class TestContractDecide:
    def test_oversized_graph_exits_3(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(complete_multipartite([[f"a{i}"] for i in range(13)], 2).to_json_dict()))
        code, out, err = invoke(capsys, "contract-decide", "--graph", str(path))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err and "limited to 12 vertices" in err

    def test_search_bound_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["contract-decide", "--builtin", "K1", "--max-vertices", "13"])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err and "--max-vertices" in err

    def test_builtin_search(self, capsys):
        code, out, _ = invoke(capsys, "contract-decide", "--builtin", "K1", "--format", "json")
        assert code == 0
        cert = ContractionCertificate.from_json_dict(json.loads(out))
        assert verify_certificate(cert)

    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(builtin("K2").to_json_dict()))
        code, out, _ = invoke(capsys, "contract-decide", "--graph", str(path))
        assert code == 0
        assert "final vertex" in out

    def test_no_certificate(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(builtin("example-G").to_json_dict()))
        code, out, _ = invoke(capsys, "contract-decide", "--graph", str(path))
        assert code == 1
        assert out.startswith("NO")

    def test_dot_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "steps"
        code, _, _ = invoke(
            capsys, "contract-decide", "--builtin", "K1", "--dot-dir", str(out_dir)
        )
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == [f"step_{i:02d}.dot" for i in range(5)]

    def test_malformed_graph_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = invoke(capsys, "contract-decide", "--graph", str(path))
        assert code == 3
        assert err

    @pytest.mark.parametrize(
        "vertices, edges",
        [
            ([{"id": ["a"], "wt": 2}], []),
            ([{"id": "a", "wt": 2}, {"id": 1, "wt": 2}], []),
            ([{"id": 1, "wt": 2}], []),
            ([{"id": None, "wt": 2}], []),
            ([{"id": "a", "wt": 2}, {"id": "b", "wt": 2}], [{"u": ["a"], "v": "b", "mult": 1}]),
            ([{"id": "a", "wt": 2}, {"id": "b", "wt": 2}], [{"u": "a", "v": 2, "mult": 1}]),
            ([{"id": "a", "wt": 2}, {"id": "b", "wt": 2}], [{"u": {"a": 1}, "v": "b", "mult": 1}]),
        ],
    )
    def test_non_string_ids_are_malformed(self, capsys, tmp_path, vertices, edges):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
        code, out, err = invoke(capsys, "contract-decide", "--graph", str(path))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err


class TestCertVerify:
    def test_fixture_smoke(self, capsys):
        for name in ("K1", "K2", "K3", "K4"):
            code, out, _ = invoke(capsys, "cert-verify", "--fixture", name)
            assert code == 0
            assert out.strip() == "valid"

    def test_example_step_fixture_is_partial(self, capsys):
        code, out, _ = invoke(capsys, "cert-verify", "--fixture", "example-G-step")
        assert code == 1
        assert out.strip() == "INVALID"
        code, out, _ = invoke(capsys, "cert-verify", "--fixture", "example-G-step", "--partial")
        assert code == 0

    def test_file_round_trip(self, capsys, tmp_path):
        cert = fixtures.load_certificate("K3")
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert.to_json_dict()))
        code, out, _ = invoke(capsys, "cert-verify", str(path))
        assert code == 0
        assert out.strip() == "valid"

    def test_corrupted_certificate(self, capsys, tmp_path):
        doc = fixtures.load_certificate("K1").to_json_dict()
        doc["steps"][0]["l"] = 1
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "cert-verify", str(path))
        assert code == 1
        assert out.strip() == "INVALID"

    def test_missing_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["cert-verify"])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "one of the arguments path --fixture is required" in err

    @pytest.mark.parametrize(
        "argv", [("--fixture", "K1", "no-such-file.json"), ("no-such-file.json", "--fixture", "K1")]
    )
    def test_path_and_fixture_together_exit_3(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(["cert-verify", *argv])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "not allowed with argument" in captured.err

    def test_oversized_certificate_exits_3(self, capsys, tmp_path):
        # a sparse cycle of doubled edges: cheap to parse, but verifying
        # costs m^2 in the vertex count m, so the size is bounded first
        n = 257
        verts = [{"id": f"c{i}", "wt": 3} for i in range(n)]
        edges = [{"u": f"c{i}", "v": f"c{(i + 1) % n}", "mult": 2} for i in range(n)]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"initial": {"vertices": verts, "edges": edges}, "steps": []}))
        code, out, err = invoke(capsys, "cert-verify", str(path))
        assert code == 3
        assert out == ""
        assert err == "horicert: error: certificate limited to 256 vertices, got 257\n"

    def test_largest_theorem_certificate_verifies(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "theorem", "p2", "--d", "512", "--format", "json")
        assert code == 0
        cert = json.loads(out)["attachments"]["certificate"]
        # well inside the byte limit on reads, even indented
        assert 2 * 2**20 < len(json.dumps(cert, indent=2).encode()) < MAX_INPUT_BYTES / 3
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, out, _ = invoke(capsys, "cert-verify", str(path))
        assert code == 0
        assert out.strip() == "valid"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pair", ["v1", 2]),
            ("pair", ["v1", ["v2"]]),
            ("pair", ["v1"]),
            ("pair", "v1"),
            ("l", "0"),
            ("l", True),
            ("l", 0.0),
            ("merged", ["m1"]),
            ("merged", 1),
        ],
    )
    def test_ill_typed_step_is_malformed(self, capsys, tmp_path, field, value):
        doc = fixtures.load_certificate("K1").to_json_dict()
        doc["steps"][0][field] = value
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "cert-verify", str(path))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err


class TestInputLimit:
    """Graph and certificate documents are read up to ``MAX_INPUT_BYTES``;
    a longer input is refused before it is parsed."""

    INPUTS = [
        (("contract-decide", "--graph"), lambda: builtin("K2").to_json_dict()),
        (("cert-verify",), lambda: fixtures.load_certificate("K1").to_json_dict()),
    ]
    REFUSED = f"horicert: error: input document limited to {MAX_INPUT_BYTES} bytes\n"

    @staticmethod
    def padded(doc: dict, size: int) -> bytes:
        text = json.dumps(doc).encode()
        return text + b" " * (size - len(text))

    @pytest.mark.parametrize("argv, document", INPUTS)
    def test_file_one_byte_over_the_limit_exits_3(self, capsys, tmp_path, argv, document):
        path = tmp_path / "doc.json"
        path.write_bytes(self.padded(document(), MAX_INPUT_BYTES + 1))
        assert invoke(capsys, *argv, str(path)) == (3, "", self.REFUSED)
        path.write_bytes(self.padded(document(), MAX_INPUT_BYTES))
        code, _, err = invoke(capsys, *argv, str(path))
        assert code == 0 and err == ""

    @pytest.mark.parametrize("argv, document", INPUTS)
    def test_stdin_one_byte_over_the_limit_exits_3(self, capsys, monkeypatch, argv, document):
        data = self.padded(document(), MAX_INPUT_BYTES + 1)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert invoke(capsys, *argv, "-") == (3, "", self.REFUSED)


class TestDeepNesting:
    """A document nested deeper than the parser's recursion limit is
    malformed input: exit 3 and one line, never a ``RecursionError``."""

    DEEP = "[" * 100_000  # 100 KB, far under MAX_INPUT_BYTES
    ERROR = "horicert: error: malformed JSON document: nested too deeply\n"

    @pytest.mark.parametrize("argv", [("cert-verify",), ("contract-decide", "--graph")])
    def test_document_file(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text(self.DEEP)
        assert invoke(capsys, *argv, str(path)) == (3, "", self.ERROR)

    @pytest.mark.parametrize("argv", [("cert-verify",), ("contract-decide", "--graph")])
    def test_stdin(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(self.DEEP.encode()), encoding="utf-8"))
        assert invoke(capsys, *argv, "-") == (3, "", self.ERROR)

    @pytest.mark.parametrize("command", ["chern", "genus"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_class_literal(self, capsys, command, fmt):
        deep = '{"class": ' * 100_000
        assert invoke(capsys, command, "--json", deep, "--format", fmt) == (3, "", self.ERROR)

    def test_shallow_nesting_still_parses(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(fixtures.load_certificate("K4").to_json_dict()))
        assert invoke(capsys, "cert-verify", str(path)) == (0, "valid\n", "")


LITERAL = json.dumps({"surface": {"kind": "P2"}, "class": {"d": 5}})


class TestChermAndGenus:
    def test_chern_text(self, capsys):
        code, out, _ = invoke(capsys, "chern", "p2", "--d", "5")
        assert code == 0
        assert "c1^2 = 8" in out and "Horikawa" in out

    def test_chern_json_literal(self, capsys):
        literal = json.dumps({"surface": {"kind": "FN", "N": 1}, "class": {"a": 3, "b": 3}})
        code, out, _ = invoke(capsys, "chern", "--json", literal, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["c1_sq"] == 10
        assert doc["horikawa_case"] == "even"

    def test_genus(self, capsys):
        code, out, _ = invoke(capsys, "genus", "fn", "--N", "1", "--a", "3", "--b", "4")
        assert code == 0
        assert out.strip() == "genus 12"

    def test_genus_json_format(self, capsys):
        code, out, _ = invoke(capsys, "genus", "p2", "--d", "5", "--format", "json")
        assert code == 0
        assert json.loads(out)["genus"] == 6

    def test_missing_class(self, capsys):
        code, _, _ = invoke(capsys, "genus", "fn", "--N", "1")
        assert code == 3

    @pytest.mark.parametrize("command", ["chern", "genus"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("fn", "--N", "1", "--a", "2", "--b", "3", "--d", "5"), "an fn class takes no --d"),
            (("p2", "--d", "5", "--N", "1"), "a p2 class takes no --N"),
            (("--d", "5", "--a", "1", "--b", "1"), "a p2 class takes no --a, --b"),
            (("--json", LITERAL, "--d", "5"), "a --json class takes no --d"),
            (("fn", "--json", LITERAL, "--N", "1", "--a", "2", "--b", "3"), "a --json class takes no --N, --a, --b"),
        ],
    )
    def test_unused_coordinates_exit_3(self, capsys, command, argv, message):
        assert invoke(capsys, command, *argv) == (3, "", f"horicert: error: {message}\n")

    def test_kind_is_not_an_unused_coordinate(self, capsys):
        # ``kind`` defaults to p2, so a literal given with ``fn`` is still read
        assert invoke(capsys, "genus", "fn", "--json", LITERAL) == invoke(capsys, "genus", "--json", LITERAL)

    @pytest.mark.parametrize(
        "argv",
        [
            ("p2", "--d", "-3"),
            ("fn", "--N", "1", "--a", "-2", "--b", "1"),  # a + N*b < 0
            ("fn", "--N", "0", "--a", "-1", "--b", "2"),
            ("fn", "--N", "2", "--a", "5", "--b", "-1"),
        ],
    )
    def test_chern_rejects_non_effective_class(self, capsys, argv):
        code, out, err = invoke(capsys, "chern", *argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err and "not effective" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("fn", "--N", "1", "--a", "-1", "--b", "1"),  # branch 2E, E = T - F
            ("fn", "--N", "1", "--a", "-2", "--b", "3"),  # 2L.E = -4: E is a double fixed part
        ],
    )
    def test_chern_rejects_branch_class_without_smooth_member(self, capsys, argv):
        code, out, err = invoke(capsys, "chern", *argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err and "no smooth member" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("p2", "--d", "0"),
            ("fn", "--N", "2", "--a", "-1", "--b", "1"),  # branch E + T with E = T - 2F
            ("fn", "--N", "1", "--a", "0", "--b", "1"),
        ],
    )
    def test_chern_accepts_effective_class(self, capsys, argv):
        code, _, err = invoke(capsys, "chern", *argv)
        assert code == 0
        assert err == ""

    def test_genus_takes_any_class(self, capsys):
        code, out, _ = invoke(capsys, "genus", "p2", "--d", "-3")
        assert code == 0
        assert out.strip() == "genus 10"

    @pytest.mark.parametrize(
        "literal",
        [
            {"surface": {"kind": "FN"}, "class": {"a": 1, "b": 2}},
            {"surface": {"kind": "FN", "N": "1"}, "class": {"a": 1, "b": 2}},
            {"surface": {"kind": "FN", "N": 1}, "class": {"a": 1}},
            {"surface": {"kind": "P2"}, "class": {"d": True}},
            {"surface": {"kind": "P2"}, "class": [5]},
            {"surface": [1], "class": {"d": 5}},
            {"class": {"d": 5}},
            [1],
        ],
    )
    def test_malformed_class_literal(self, capsys, literal):
        code, out, err = invoke(capsys, "genus", "--json", json.dumps(literal))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err


class TestFixtureModule:
    def test_unknown_fixture(self):
        with pytest.raises(Exception):
            fixtures.load_certificate("K9")

    def test_certificates_are_parsed_once(self):
        assert fixtures.load_certificate("K4") is fixtures.load_certificate("K4")

    def test_unknown_subcommand_exits_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["no-such-command"])
        assert exc.value.code == 3
