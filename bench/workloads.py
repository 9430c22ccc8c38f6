"""The two workloads: seeded inputs, the timed operation, and the checks.

``search`` joins two parts, the oracle sweep and the hard instances, each
built like a workload of its own.  Each workload or part builds its inputs
from the seed alone, exposes ``op(item)`` (the one operation that is
timed), ``reps`` (how many times in a row each item runs per round; light
items run more often, so that their fastest time is found as surely as
that of the heavy ones) and ``check(results)``, which compares the first
round's ``(item, output)`` pairs (failed operations left out) with the
independent reference in :mod:`checker` and returns a list of failures.  ``fingerprint(output)`` is what later rounds must reproduce
exactly, and ``counts(results)`` gives per-round counts read off the
outputs.

The program is only ever reached through module attributes
(``contraction.decide_contractible``), so the tracer's patches apply.
"""

from __future__ import annotations

import itertools
import json
import random

from horicert import contraction, multigraph, pipeline

import checker


def _sample(rng: random.Random, items: list, k: int) -> list:
    return rng.sample(items, min(k, len(items)))


def _relabelled(g, rng: random.Random):
    """``g`` with its vertices renamed by a seeded bijection."""
    old = list(g.vertices)
    new = [f"x{i}" for i in range(len(old))]
    rng.shuffle(new)
    mapping = dict(zip(old, new))
    return multigraph.WeightedMultigraph.from_json_dict(checker.relabel_doc(g.to_json_dict(), mapping))


def _check_yes_certificate(cert, g, where: str, failures: list) -> None:
    if cert.initial != g:
        failures.append(f"{where}: certificate starts from another graph")
        return
    try:
        checker.replay(cert.to_json_dict())
    except checker.CheckFailure as exc:
        failures.append(f"{where}: certificate rejected by the independent checker: {exc}")


# ---------------------------------------------------------------- search: small graphs (oracle sweep)

# The acceptance family: every multigraph on 1..4 vertices v1..v4 with
# weights 0..5 (one weight-sorted labelling each) and multiplicities 0..3,
# enumerated in the order of the acceptance test.  With the 115 hard
# instances, a sample of 440 puts the search workload's median among these
# small graphs and its 90th percentile inside the 31 twelve-vertex YES
# instances (the 56th-largest of 555 operations, below the 40 NO ones).
_SWEEP_WEIGHTS = range(6)
_SWEEP_MULTS = 4
SWEEP_SAMPLE = 440


def _sweep_blocks():
    blocks = []
    for n in range(1, 5):
        verts = tuple(f"v{i}" for i in range(1, n + 1))
        pairs = tuple(itertools.combinations(verts, 2))
        combos = tuple(itertools.combinations_with_replacement(_SWEEP_WEIGHTS, n))
        blocks.append((verts, pairs, combos, _SWEEP_MULTS ** len(pairs)))
    return blocks


def sweep_family_size(blocks) -> int:
    return sum(len(combos) * patterns for _, _, combos, patterns in blocks)


def sweep_member(index: int, blocks) -> tuple[dict, list]:
    """Weights and edge list of the ``index``-th graph of the family
    described by ``blocks`` (from :func:`_sweep_blocks`)."""
    for verts, pairs, combos, patterns in blocks:
        size = len(combos) * patterns
        if index < size:
            wi, pi = divmod(index, patterns)
            mults = []
            for _ in pairs:
                pi, digit = divmod(pi, _SWEEP_MULTS)
                mults.append(digit)
            mults.reverse()
            edges = [(u, v, m) for (u, v), m in zip(pairs, mults) if m]
            return dict(zip(verts, combos[wi])), edges
        index -= size
    raise IndexError(index)


class OracleSweep:
    """A seeded sample of the acceptance family, each graph built and then
    decided by both the search and the brute-force oracle.  Each takes well
    under a millisecond and runs four times per round."""

    name = "oracle-sweep"

    def __init__(self, seed: int):
        self.rng = random.Random(f"oracle-sweep/{seed}")
        blocks = _sweep_blocks()
        indices = sorted(self.rng.sample(range(sweep_family_size(blocks)), SWEEP_SAMPLE))
        self.items = [sweep_member(i, blocks) for i in indices]
        self.reps = [4] * len(self.items)

    @staticmethod
    def op(item):
        weights, edges = item
        g = multigraph.WeightedMultigraph(weights, edges)
        cert = contraction.decide_contractible(g)
        return g, cert, contraction.brute_force_oracle(g, max_total_multiplicity=18)

    @staticmethod
    def fingerprint(output):
        _, cert, oracle = output
        return cert is not None, oracle

    @staticmethod
    def counts(results) -> dict:
        return {}

    def check(self, results) -> list[str]:
        failures = []
        no = []
        outputs = [out for _, out in results]
        for g, cert, oracle in outputs:
            if (cert is not None) != oracle:
                failures.append(f"search and oracle disagree on {g.to_json_dict()}")
            if cert is not None:
                _check_yes_certificate(cert, g, "oracle-sweep", failures)
            else:
                no.append(g)
        for g in _sample(self.rng, no, 300):
            weights, adj = checker.graph_from_doc(g.to_json_dict())
            if checker.is_contractible(weights, adj):
                failures.append(f"independent search contracts NO graph {g.to_json_dict()}")
        for g, cert, _ in _sample(self.rng, outputs, 300):
            if (contraction.decide_contractible(_relabelled(g, self.rng)) is None) != (cert is None):
                failures.append(f"relabelling changes the verdict on {g.to_json_dict()}")
        return failures


# ---------------------------------------------------------------- search: hard instances

# Complete multigraphs, multiplicities 1..2.  ``heavy`` vertices weigh 2..3
# and the rest 1; with ``dead`` one light vertex weighs 0 instead.  Two
# weight-1 vertices never merge, so with one heavy vertex everything has to
# be absorbed into it one vertex at a time and the last merge (which needs
# weights >= 4 on both sides) fails; a weight-0 vertex never merges at
# all.  Those cells are NO and the search must exhaust them.  Cells with
# three or four heavy vertices contract.  Cost is steady within a cell and
# rises steeply across cells, so a fixed count per cell keeps a set's total
# cost steady from seed to seed while the per-instance cost stays
# heavy-tailed: YES instances take milliseconds, NO instances tens to
# hundreds.  The counts put the median inside the 31 twelve-vertex YES
# instances and the 90th percentile inside the 16 (9, 1, dead) instances,
# whose costs lie within a few percent of each other, so neither percentile
# sits on the edge between two cells.  NO cells stop at 9 vertices: a
# 10- or 11-vertex NO instance takes 0.2-0.5 s, so the few a round can hold
# would make up a third of its total, and the fastest time of so long an
# operation is the least steady figure on a host whose speed swings within
# tenths of a second.  YES instances take about a millisecond and run four
# times per round.
# (vertices, heavy, dead, instances per set, runs per round)
HARD_CELLS = (
    (8, 3, False, 11, 4), (9, 3, False, 11, 4), (10, 3, False, 11, 4), (11, 4, False, 11, 4),
    (12, 4, False, 31, 4),
    (8, 1, True, 10, 1), (8, 1, False, 8, 1), (9, 1, True, 16, 1), (8, 2, True, 6, 1),
)
# The independent search re-decides a NO instance when it needs at most this
# many states; larger ones are checked by monotonicity instead.
HARD_STATE_BUDGET = 5_000


def hard_instance(rng: random.Random, n: int, heavy: int, dead: bool):
    names = [f"v{i:02d}" for i in range(1, n + 1)]
    roles = names[:]
    rng.shuffle(roles)
    weights = {v: (rng.randint(2, 3) if i < heavy else 1) for i, v in enumerate(roles)}
    if dead:
        weights[roles[-1]] = 0
    edges = [(u, v, rng.randint(1, 2)) for u, v in itertools.combinations(names, 2)]
    return multigraph.WeightedMultigraph(weights, edges)


def spanning_submultigraph(g, rng: random.Random):
    """``g`` with one weight and one multiplicity lowered by one."""
    doc = g.to_json_dict()
    vertex = rng.choice(doc["vertices"])
    vertex["wt"] -= 1
    edge = rng.choice(doc["edges"])
    edge["mult"] -= 1
    return multigraph.WeightedMultigraph.from_json_dict(doc)


class HardSearch:
    """Seeded 8..12-vertex instances, each decided with a fresh memo."""

    name = "hard-search"

    def __init__(self, seed: int):
        self.rng = random.Random(f"hard-search/{seed}")
        cells = [
            (hard_instance(self.rng, n, heavy, dead), reps)
            for n, heavy, dead, count, reps in HARD_CELLS
            for _ in range(count)
        ]
        self.rng.shuffle(cells)
        self.items = [g for g, _ in cells]
        self.reps = [reps for _, reps in cells]

    @staticmethod
    def op(g):
        memo: set = set()
        return contraction.decide_contractible(g, memo=memo), len(memo)

    @staticmethod
    def fingerprint(output):
        cert, memo_entries = output
        return None if cert is None else cert.steps, memo_entries

    @staticmethod
    def counts(results) -> dict:
        return {"contraction.memo_entries": sum(entries for _, (_, entries) in results)}

    def check(self, results) -> list[str]:
        failures = []
        yes, no, unresolved = [], [], []
        for g, (cert, _) in results:
            if cert is None:
                no.append(g)
                weights, adj = checker.graph_from_doc(g.to_json_dict())
                try:
                    if checker.is_contractible(weights, adj, HARD_STATE_BUDGET):
                        failures.append(f"independent search contracts NO graph {g.to_json_dict()}")
                except checker.BudgetExceeded:
                    unresolved.append(g)
            else:
                yes.append((g, cert))
                _check_yes_certificate(cert, g, "hard-search", failures)
        if not yes or not no:
            failures.append(f"one verdict is missing: {len(yes)} YES, {len(no)} NO")
        # Monotonicity: a spanning submultigraph of a NO graph is NO (a
        # certificate for it would lift).  Every unresolved instance is
        # checked, plus a seeded sample so the property is always exercised.
        for g in unresolved + _sample(self.rng, no, 2):
            sub = spanning_submultigraph(g, self.rng)
            if contraction.decide_contractible(sub, memo=set()) is not None:
                failures.append(f"submultigraph of NO graph is YES: {sub.to_json_dict()}")
        for g, cert in _sample(self.rng, yes, 4):
            h = _relabelled(g, self.rng)
            relabelled_cert = contraction.decide_contractible(h, memo=set())
            if relabelled_cert is None:
                failures.append(f"relabelling turns YES into NO on {g.to_json_dict()}")
            else:
                _check_yes_certificate(relabelled_cert, h, "hard-search relabelled", failures)
        for g in _sample(self.rng, no, 2):
            if contraction.decide_contractible(_relabelled(g, self.rng), memo=set()) is not None:
                failures.append(f"relabelling turns NO into YES on {g.to_json_dict()}")
        return failures


# ---------------------------------------------------------------- search


class Search:
    """The oracle sweep and the hard instances in one shuffled set.

    The small graphs pay per-call overhead of graph construction,
    ``contract`` and the admissibility test, and never reach the memo (it
    starts at 5 vertices); the hard ones spend their time in deep search,
    ``canonical_form`` and the memo.  Each part keeps its own inputs and
    checks; an item is ``(part, input)`` and its output ``(part, output)``.
    """

    name = "search"

    def __init__(self, seed: int):
        self.parts = (OracleSweep(seed), HardSearch(seed))
        tagged = [
            ((k, item), reps)
            for k, part in enumerate(self.parts)
            for item, reps in zip(part.items, part.reps)
        ]
        random.Random(f"search/{seed}").shuffle(tagged)
        self.items = [item for item, _ in tagged]
        self.reps = [reps for _, reps in tagged]

    def op(self, item):
        k, inner = item
        return k, self.parts[k].op(inner)

    def fingerprint(self, output):
        k, out = output
        return k, self.parts[k].fingerprint(out)

    def _split(self, results) -> list[list]:
        split = [[] for _ in self.parts]
        for (k, inner), (_, out) in results:
            split[k].append((inner, out))
        return split

    def counts(self, results) -> dict:
        counts = {}
        for part, part_results in zip(self.parts, self._split(results)):
            counts.update(part.counts(part_results))
        return counts

    def check(self, results) -> list[str]:
        failures = []
        for part, part_results in zip(self.parts, self._split(results)):
            failures += part.check(part_results)
        return failures


# ---------------------------------------------------------------- theorem-ladder

PLANE_NO = (2, 4, 6, 8)
PLANE_SMALL = tuple(range(10, 60, 2))
# Larger degrees and the ruled grid are fixed points moved by a small
# seeded even offset: the cost grows as the cube of the arrangement size,
# so an unstratified sample would make the total and the percentiles swing
# from seed to seed.  The offsets never cross the YES boundary (4 stays NO,
# every moved value stays >= 8), so the share of each verdict is the same
# for every seed; the boundary itself is covered by the fixed cases.
PLANE_GRID = tuple(range(60, 201, 20))
RULED_N = tuple(range(6))
RULED_LOW = 4
RULED_HIGH = (10, 16, 28)
RULED_BOUNDARY = ((6, 8), (8, 8), (8, 6))


class TheoremLadder:
    """Plane and ruled-surface deciders; each report is serialised, its
    certificate parsed back and verified again."""

    name = "theorem-ladder"

    def __init__(self, seed: int):
        rng = random.Random(f"theorem-ladder/{seed}")
        self.rng = rng
        items = [("p2", d) for d in PLANE_NO + PLANE_SMALL]
        items += [("p2", d + 2 * rng.randint(-2, 2)) for d in PLANE_GRID]
        for N in RULED_N:
            items += [("fn", N, a, b) for a, b in RULED_BOUNDARY]
            for a in (RULED_LOW,) + RULED_HIGH:
                for b in (RULED_LOW,) + RULED_HIGH:
                    items.append(("fn", N, self._moved(a), self._moved(b)))
        rng.shuffle(items)
        self.items = items
        # Ruled covers and plane covers below d = 60 take milliseconds;
        # they run three times per round.
        self.reps = [3 if item[0] == "fn" or item[1] < PLANE_GRID[0] else 1 for item in items]

    def _moved(self, x: int) -> int:
        return x if x == RULED_LOW else x + 2 * self.rng.randint(-1, 1)

    @staticmethod
    def op(item):
        if item[0] == "p2":
            report = pipeline.decide_plane_double_cover(item[1])
        else:
            report = pipeline.decide_ruled_double_cover(*item[1:])
        text = json.dumps(report.to_json_dict(), indent=2)
        cert_doc = json.loads(text)["attachments"].get("certificate")
        verified = None
        if cert_doc is not None:
            verified = contraction.verify_certificate(contraction.ContractionCertificate.from_json_dict(cert_doc))
        return text, verified

    @staticmethod
    def fingerprint(output):
        return output

    @staticmethod
    def counts(results) -> dict:
        return {"report.json_bytes": sum(len(text.encode()) for _, (text, _) in results)}

    def check(self, results) -> list[str]:
        failures = []
        verdicts = set()
        for item, (text, verified) in results:
            doc = json.loads(text)
            att = doc["attachments"]
            if item[0] == "p2":
                m = item[1] // 2
                want_yes = checker.plane_yes(item[1])
                want = checker.plane_cover(m)
            else:
                N, a, b = item[1:]
                want_yes = checker.ruled_yes(N, a, b)
                want = checker.ruled_cover(N, a // 2, b // 2)
            verdicts.add(doc["verdict"])
            if doc["verdict"] != ("YES" if want_yes else "NO"):
                failures.append(f"{item}: verdict {doc['verdict']}")
                continue
            chern = att["chern"]
            if (chern["c1_sq"], chern["chi"], chern["c2"]) != (want["c1_sq"], want["chi"], want["c2"]):
                failures.append(f"{item}: Chern data {chern}, expected {want}")
            if not want_yes:
                if "certificate" in att:
                    failures.append(f"{item}: NO report carries a certificate")
                continue
            if att["half_genus"] != want["half_genus"]:
                failures.append(f"{item}: half genus {att['half_genus']}, expected {want['half_genus']}")
            horikawa = "even" if checker.horikawa_even(want["c1_sq"], want["c2"]) else None
            if att["horikawa_case"] != horikawa:
                failures.append(f"{item}: horikawa_case {att['horikawa_case']}, expected {horikawa}")
            if verified is not True:
                failures.append(f"{item}: verify_certificate rejects the parsed certificate")
            cert_doc = att["certificate"]
            try:
                if item[0] == "p2":
                    checker.check_plane_dual_graph(cert_doc["initial"], m)
                else:
                    checker.check_ruled_dual_graph(cert_doc["initial"], N, a // 2, b // 2)
                checker.replay(cert_doc)
            except checker.CheckFailure as exc:
                failures.append(f"{item}: {exc}")
        if verdicts != {"YES", "NO"}:
            failures.append(f"verdicts seen: {sorted(verdicts)}")
        return failures


WORKLOADS = {w.name: w for w in (Search, TheoremLadder)}
