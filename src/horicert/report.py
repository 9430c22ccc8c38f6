"""Structured verdict reports.

A report is a tree of named obligations, each either a *check* that was
actually computed (carrying the integers that decided it) or an *axiom*
that the surrounding argument assumes without computation.  Obligation
names are stable dotted identifiers (``lemma.hypsmooth.minus_k_ge_8``,
``obstruction.negative_section``, ...) so downstream tools can key on
them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Mapping


class Verdict(enum.Enum):
    YES = "YES"
    NO = "NO"
    NOT_COVERED = "NOT-COVERED"

    def exit_code(self) -> int:
        return {"YES": 0, "NO": 1, "NOT-COVERED": 2}[self.value]


@dataclass(frozen=True)
class Obligation:
    """One node of the report tree.

    ``kind`` is ``"check"`` for computed conditions and ``"axiom"`` for
    assumed ones (axioms always count as passed but are reported so the
    trust base stays visible).  ``values`` holds the deciding integers and
    witnesses as plain JSON-compatible data.
    """

    name: str
    passed: bool
    kind: str = "check"
    detail: str = ""
    values: tuple[tuple[str, object], ...] = ()
    children: tuple["Obligation", ...] = ()

    def walk(self) -> Iterator["Obligation"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_json_dict(self) -> dict:
        out: dict = {"name": self.name, "kind": self.kind, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        if self.values:
            out["values"] = dict(self.values)
        if self.children:
            out["children"] = [c.to_json_dict() for c in self.children]
        return out


def check(name: str, passed: bool, detail: str = "", **values) -> Obligation:
    return Obligation(name, bool(passed), "check", detail, tuple(values.items()))


def axiom(name: str, detail: str) -> Obligation:
    return Obligation(name, True, "axiom", detail)


def group(name: str, children: tuple[Obligation, ...], detail: str = "", **values) -> Obligation:
    """Check node whose outcome is the conjunction of its children."""
    passed = all(c.passed for c in children)
    return Obligation(name, passed, "check", detail, tuple(values.items()), children)


@dataclass(frozen=True)
class ObligationReport:
    """Verdict plus the obligation tree and any attached artifacts.

    Enforced shape: a ``YES`` verdict requires every obligation to have
    passed, and a ``NO`` verdict requires at least one passed obligation
    named ``obstruction.*`` (the computed reason the answer is negative).
    """

    verdict: Verdict
    obligations: tuple[Obligation, ...]
    attachments: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        nodes = self.all_nodes()
        if self.verdict is Verdict.YES and not all(n.passed for n in nodes):
            bad = [n.name for n in nodes if not n.passed]
            raise ValueError(f"YES verdict with failed obligations: {bad}")
        if self.verdict is Verdict.NO and not any(
            n.passed and n.name.startswith("obstruction.") for n in nodes
        ):
            raise ValueError("NO verdict without a fired obstruction obligation")

    def all_nodes(self) -> list[Obligation]:
        return [n for ob in self.obligations for n in ob.walk()]

    def find(self, name: str) -> Obligation:
        for n in self.all_nodes():
            if n.name == name:
                return n
        raise KeyError(name)

    def exit_code(self) -> int:
        return self.verdict.exit_code()

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "obligations": [ob.to_json_dict() for ob in self.obligations],
            "attachments": dict(self.attachments),
        }

    def render_text(self) -> str:
        lines = [f"verdict: {self.verdict.value}"]

        def emit(node: Obligation, indent: int) -> None:
            tag = "AXIOM" if node.kind == "axiom" else ("pass" if node.passed else "FAIL")
            vals = ", ".join(f"{k}={v}" for k, v in node.values)
            detail = f"  ({node.detail})" if node.detail else ""
            suffix = f"  [{vals}]" if vals else ""
            lines.append(f"{'  ' * indent}{tag:5s} {node.name}{suffix}{detail}")
            for child in node.children:
                emit(child, indent + 1)

        for ob in self.obligations:
            emit(ob, 1)
        for key in self.attachments:
            lines.append(f"  attachment: {key}")
        return "\n".join(lines) + "\n"
