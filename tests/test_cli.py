import json

import pytest

from horicert import (
    ContractionCertificate,
    WeightedMultigraph,
    builtin,
    canonical_form,
    verify_certificate,
)
from horicert.cli import run
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


class TestGraphCommands:
    def test_builtin_dump_json_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "builtin-dump", "K1", "--format", "json")
        assert code == 0
        parsed = WeightedMultigraph.from_json_dict(json.loads(out))
        assert canonical_form(parsed) == canonical_form(builtin("K1"))

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
        code, _, _ = invoke(capsys, "cert-verify")
        assert code == 3

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
