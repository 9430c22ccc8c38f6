"""Command-line front end.

Exit codes: 0 success / YES, 1 NO or invalid certificate, 2 NOT-COVERED
or no admissible factorization, 3 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures
from .arrangements import MAX_COMPONENTS, from_shorthand, dual_graph
from .contraction import (
    ContractionCertificate,
    decide_contractible,
    verify_certificate,
)
from .multigraph import BoundExceededError, GraphError, WeightedMultigraph
from .pipeline import (
    cyclic_cover_factorization,
    decide_plane_double_cover,
    decide_ruled_double_cover,
)
from .surfaces import DivClass, P2, adjunction_genus, double_cover_chern, hirzebruch

EXIT_OK = 0
EXIT_NO = 1
EXIT_NOT_COVERED = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the documented contract is 3.
    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


# Largest graph or certificate document read, in bytes.  The largest
# certificate ``theorem`` emits (``p2 --d 512``) takes about 2.5 MB with
# ``indent=2``; parsing costs about 20 bytes of memory per byte read, so
# a larger input is refused before it is parsed.
MAX_INPUT_BYTES = 8 * 2**20


def _parse_json(text: str | bytes):
    """``json.loads``, with nesting deeper than the interpreter's recursion
    limit (about a thousand levels; no valid document nests more than four)
    refused as malformed input rather than escaping as ``RecursionError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise GraphError("malformed JSON document: nested too deeply") from None


def _read_json(path: str):
    if path == "-":
        data = sys.stdin.buffer.read(MAX_INPUT_BYTES + 1)
    else:
        with open(path, "rb") as f:
            data = f.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise BoundExceededError(f"input document limited to {MAX_INPUT_BYTES} bytes")
    return _parse_json(data.decode("utf-8"))


def _read_graph(path: str) -> WeightedMultigraph:
    return WeightedMultigraph.from_json_dict(_read_json(path))


def _read_certificate(args) -> ContractionCertificate:
    if args.fixture:
        return fixtures.load_certificate(args.fixture)
    cert = ContractionCertificate.from_json_dict(_read_json(args.path))
    n = cert.initial.vertex_count
    if n > MAX_COMPONENTS:
        raise BoundExceededError(f"certificate limited to {MAX_COMPONENTS} vertices, got {n}")
    return cert


def _emit(document: str) -> None:
    sys.stdout.write(document if document.endswith("\n") else document + "\n")


def _refuse_unused(args, names: str, what: str) -> None:
    given = [f"--{name}" for name in names.split() if getattr(args, name) is not None]
    if given:
        raise GraphError(f"{what} takes no {', '.join(given)}")


def _class_from_args(args) -> DivClass:
    if args.json:
        _refuse_unused(args, "d N a b", "a --json class")
        return DivClass.from_json_dict(_parse_json(args.json))
    if args.kind == "p2":
        _refuse_unused(args, "N a b", "a p2 class")
        if args.d is None:
            raise GraphError("p2 classes need --d")
        return P2.div(args.d)
    _refuse_unused(args, "d", "an fn class")
    if args.N is None or args.a is None or args.b is None:
        raise GraphError("fn classes need --N, --a and --b")
    return hirzebruch(args.N).div(args.a, args.b)


def _graph_document(g: WeightedMultigraph, fmt: str, name: str = "G") -> str:
    if fmt == "json":
        return json.dumps(g.to_json_dict(), indent=2)
    if fmt == "dot":
        return g.to_dot(name)
    lines = [f"{g.vertex_count} vertices, total multiplicity {g.total_multiplicity()}"]
    lines += [f"  {v}: wt {g.weight(v)}, deg {g.degree(v)}, rdeg {g.rdeg(v)}" for v in g.vertices]
    lines += [f"  {u} -- {v} x{m}" for u, v, m in g.edge_items()]
    return "\n".join(lines)


def _certificate_document(cert: ContractionCertificate, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(cert.to_json_dict(), indent=2)
    lines = [f"certificate with {len(cert.steps)} steps"]
    graphs = cert.replay()
    g = next(graphs)  # the initial graph; the loop leaves the final one
    for step, g in zip(cert.steps, graphs):
        lines.append(
            f"  merge {step.pair[0]} + {step.pair[1]} (l={step.l}) -> {step.merged}; "
            f"{g.vertex_count} vertices left"
        )
    if g.is_singleton():
        v = g.vertices[0]
        lines.append(f"  final vertex {v} with weight {g.weight(v)}")
    return "\n".join(lines)


def _write_step_dots(cert: ContractionCertificate, directory: str) -> None:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for i, g in enumerate(cert.replay()):
        (out / f"step_{i:02d}.dot").write_text(g.to_dot(f"step_{i:02d}"), encoding="utf-8")


def build_parser() -> _Parser:
    parser = _Parser(prog="horicert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("contract-decide", help="search for an admissible contraction certificate")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="path to a graph JSON document, or - for stdin")
    src.add_argument("--builtin", choices=fixtures.BUILTIN_NAMES, help="use a named reference graph")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--dot-dir", help="write one DOT file per intermediate graph")

    p = sub.add_parser("cert-verify", help="replay and check a contraction certificate")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("path", nargs="?", help="certificate JSON document, or - for stdin")
    src.add_argument("--fixture", choices=fixtures.FIXTURE_NAMES, help="verify a bundled certificate")
    p.add_argument("--partial", action="store_true", help="allow a prefix that stops short of a singleton")
    p.add_argument("--dot-dir", help="write one DOT file per intermediate graph")

    p = sub.add_parser("graph-dual", help="dual graph of an arrangement")
    p.add_argument("arrangement", help="shorthand like lines:P2:m=5 or fn:N=1:a=3:b=4")
    p.add_argument("--format", choices=("json", "dot", "text"), default="text")

    for name in ("chern", "genus"):
        p = sub.add_parser(
            name,
            help="Chern numbers of the double cover branched along twice the class"
            if name == "chern"
            else "arithmetic genus of a divisor class",
        )
        p.add_argument("kind", choices=("p2", "fn"), nargs="?", default="p2")
        p.add_argument("--d", type=int, help="degree on the plane")
        p.add_argument("--N", type=int, help="ruled surface parameter")
        p.add_argument("--a", type=int)
        p.add_argument("--b", type=int)
        p.add_argument("--json", help='class literal like {"surface":{"kind":"P2"},"class":{"d":5}}')
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("theorem", help="decide a double-cover hyperbolicity instance")
    p.add_argument("kind", choices=("p2", "fn"))
    p.add_argument("--d", type=int, help="branch degree on the plane")
    p.add_argument("--N", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("factor", help="split a degree as d1*d2 with d1>=2, d2>=5")
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("builtin-dump", help="emit a named reference graph")
    p.add_argument("name", choices=fixtures.BUILTIN_NAMES)
    p.add_argument("--format", choices=("json", "dot", "text"), default="text")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (GraphError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"horicert: error: {exc}\n")
        return EXIT_INPUT


def _dispatch(args) -> int:
    if args.command == "contract-decide":
        g = fixtures.builtin(args.builtin) if args.builtin else _read_graph(args.graph)
        cert = decide_contractible(g)
        if cert is None:
            _emit("NO: exhaustive search found no admissible contraction sequence")
            return EXIT_NO
        if args.dot_dir:
            _write_step_dots(cert, args.dot_dir)
        _emit(_certificate_document(cert, args.format))
        return EXIT_OK

    if args.command == "cert-verify":
        cert = _read_certificate(args)
        ok = verify_certificate(cert, require_singleton=not args.partial)
        if args.dot_dir and ok:
            _write_step_dots(cert, args.dot_dir)
        _emit("valid" if ok else "INVALID")
        return EXIT_OK if ok else EXIT_NO

    if args.command == "graph-dual":
        arr = from_shorthand(args.arrangement)
        _emit(_graph_document(dual_graph(arr), args.format, name=args.arrangement))
        return EXIT_OK

    if args.command == "chern":
        cls = _class_from_args(args)
        data = double_cover_chern(cls.surface, cls)
        if args.format == "json":
            body = data.to_json_dict()
            body["horikawa_case"] = data.horikawa_case()
            _emit(json.dumps(body, indent=2))
        else:
            _emit(
                f"c1^2 = {data.c1_sq}, c2 = {data.c2}, chi = {data.chi}"
                + (f" (Horikawa, {data.horikawa_case()} case)" if data.horikawa_case() else "")
            )
        return EXIT_OK

    if args.command == "genus":
        cls = _class_from_args(args)
        if args.format == "json":
            _emit(json.dumps({"class": cls.to_json_dict(), "genus": adjunction_genus(cls)}, indent=2))
        else:
            _emit(f"genus {adjunction_genus(cls)}")
        return EXIT_OK

    if args.command == "theorem":
        if args.kind == "p2":
            _refuse_unused(args, "N a b", "theorem p2")
            if args.d is None:
                raise GraphError("theorem p2 needs --d")
            report = decide_plane_double_cover(args.d)
        else:
            _refuse_unused(args, "d", "theorem fn")
            if args.N is None or args.a is None or args.b is None:
                raise GraphError("theorem fn needs --N, --a and --b")
            report = decide_ruled_double_cover(args.N, args.a, args.b)
        if args.format == "json":
            _emit(json.dumps(report.to_json_dict(), indent=2))
        else:
            _emit(report.render_text())
        return report.exit_code()

    if args.command == "factor":
        split = cyclic_cover_factorization(args.d)
        if split is None:
            _emit("NONE")
            return EXIT_NOT_COVERED
        _emit(f"{split[0]} {split[1]}")
        return EXIT_OK

    if args.command == "builtin-dump":
        _emit(_graph_document(fixtures.builtin(args.name), args.format, name=args.name))
        return EXIT_OK

    raise GraphError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
