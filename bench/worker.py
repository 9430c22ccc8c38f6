"""Run one workload in this process and print its measurements as JSON.

Started by ``run.py``, one process per workload, so that peak memory is
the workload's own.  Usage::

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]

Rounds repeat the workload's whole input set until ``--seconds`` have
passed (at least two rounds).  Each operation's time is its fastest over
the rounds: the host's speed swings by a factor of about 1.5 within
tenths of a second, and only makes the same work slower, so the fastest
of several tries is the steadiest estimate of its cost.  With
``--trace 1`` the first half of the time runs untraced and the rest
traced, and the per-layer figures come from the traced rounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from horicert import arrangements, contraction, multigraph, pipeline, report  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Layer spans: (owner, attribute, span name).  Each patch sits where the
# caller looks the name up.
SPAN_POINTS = (
    (multigraph.WeightedMultigraph, "__init__", "multigraph.build"),
    (contraction, "canonical_form", "multigraph.canonical_form"),
    (contraction, "multipartite_partition", "multigraph.multipartite_partition"),
    (contraction, "brute_force_oracle", "contraction.oracle"),
    (contraction, "contract", "contraction.contract"),
    (contraction, "feasible_l_range", "contraction.feasible_l_range"),
    (contraction, "absorb_submultigraph", "contraction.absorb"),
    (contraction, "lift_certificate", "contraction.lift"),
    (arrangements, "dual_graph", "arrangements.dual_graph"),
    (pipeline, "check_arrangement_smoothing", "arrangements.smoothing"),
    (pipeline, "decide_plane_double_cover", "pipeline.decide_plane"),
    (pipeline, "decide_ruled_double_cover", "pipeline.decide_ruled"),
    (report.ObligationReport, "to_json_dict", "report.to_json"),
)

SELF_TIMES = (
    "multigraph.build", "multigraph.canonical_form", "multigraph.multipartite_partition",
    "contraction.decide_yes", "contraction.decide_no", "contraction.oracle", "contraction.contract",
    "contraction.feasible_l_range", "contraction.absorb", "contraction.lift", "contraction.verify",
    "arrangements.dual_graph", "arrangements.smoothing", "pipeline.decide_plane", "pipeline.decide_ruled",
    "report.to_json",
)
CALL_COUNTS = ("multigraph.build", "multigraph.canonical_form", "contraction.contract", "contraction.feasible_l_range")


def _count_decide(counts, args, cert):
    counts["decide_certificate_steps"] += 0 if cert is None else len(cert.steps)


def _count_verify(counts, args, result):
    counts["contraction.verify_steps"] += len(args[0].steps)


def install(tracer: tracing.Tracer) -> None:
    for owner, attr, name in SPAN_POINTS:
        tracer.patch(owner, attr, name)
    tracer.patch(
        contraction,
        "decide_contractible",
        lambda cert: "contraction.decide_no" if cert is None else "contraction.decide_yes",
        _count_decide,
    )
    tracer.patch(contraction, "verify_certificate", "contraction.verify", _count_verify)


class Rounds:
    """Whole rounds over the workload's inputs, with their timings.

    The outputs of the first round ever run are checked as soon as it ends
    (the clock of the phase stops meanwhile) and then dropped; that round
    also sets the fingerprints every later round must reproduce.  Later
    rounds keep only fingerprints, so the heap does not grow with the run.
    """

    def __init__(self, workload):
        self.workload = workload
        self.reference: list | None = None
        self.failures: list[str] = []
        self.counts: dict = {}
        self.attempted = self.failed = self.mismatches = 0

    def run(self, op, seconds: float, repeat: bool = True) -> tuple[list[float], list[float]]:
        """Run rounds until ``seconds`` pass, at least two; return the
        per-round totals and each operation's fastest time.

        With ``repeat``, each round runs an item as many times in a row as
        the workload's ``reps`` says: light operations get more
        tries at a fast spell of the host than the heavy ones would leave
        them.  Every try counts as attempted and must reproduce the first.
        """
        items = self.workload.items
        reps = self.workload.reps if repeat else [1] * len(items)
        totals, best = [], [float("inf")] * len(items)
        stop = perf_counter() + seconds
        while len(totals) < 2 or perf_counter() < stop:
            first = self.reference is None
            prints, outputs = [], []
            total = 0.0
            for i, item in enumerate(items):
                for r in range(reps[i]):
                    t0 = perf_counter()
                    try:
                        out = op(item)
                    except Exception:
                        out = None
                        self.failed += 1
                        if self.failed == 1:
                            traceback.print_exc(file=sys.stderr)
                    dt = perf_counter() - t0
                    self.attempted += 1
                    total += dt
                    if dt < best[i]:
                        best[i] = dt
                    fp = None if out is None else self.workload.fingerprint(out)
                    if r == 0:
                        prints.append(fp)
                        if first and out is not None:
                            outputs.append((item, out))
                    elif fp != prints[-1]:
                        self.mismatches += 1
            totals.append(total)
            if first:
                self.reference = prints
                t0 = perf_counter()
                self.failures = self.workload.check(outputs)
                self.counts = self.workload.counts(outputs)
                stop += perf_counter() - t0
                del outputs
            elif prints != self.reference:
                self.mismatches += 1
        return totals, best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where to write the spans of a traced run")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    # The inputs live for the whole run; keep them out of the collector's
    # way so that garbage collection times reflect the program alone.
    gc.collect()
    gc.freeze()
    rounds = Rounds(workload)
    totals, best = rounds.run(workload.op, args.seconds / 2 if args.trace else args.seconds)
    result = {
        "wall_s": sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
        "round_s": totals,
        "ops_per_round": len(workload.items),
    }

    if args.trace:
        tracer = tracing.Tracer()
        install(tracer)
        try:
            t_totals, t_best = rounds.run(
                tracer.wrap(f"op.{workload.name}", workload.op), args.seconds / 2, repeat=False
            )
        finally:
            tracer.restore()
        n = len(t_totals)
        self_times = tracer.self_times()
        calls = tracer.calls()
        layers = {f"{name}_s": self_times.get(name, 0.0) / n for name in SELF_TIMES}
        layers.update({f"{name}_calls": calls.get(name, 0) // n for name in CALL_COUNTS})
        layers["contraction.verify_steps"] = tracer.counts["contraction.verify_steps"] // n
        in_decide = tracer.calls_under("contraction.contract", {"contraction.decide_yes", "contraction.decide_no"})
        steps = tracer.counts["decide_certificate_steps"]
        layers["contraction.search_useful_ratio"] = steps / in_decide if in_decide else 0.0
        layers.update({"contraction.memo_entries": 0, "report.json_bytes": 0})
        layers.update(rounds.counts)
        layers["trace.overhead_s"] = sum(t_best) - result["wall_s"]
        result["layers"] = layers
        result["traced_round_s"] = t_totals
        if args.spans:
            tracer.write(args.spans)

    failures = rounds.failures
    if rounds.mismatches:
        failures.append(f"{rounds.mismatches} rounds or repeats differ from the first round's outputs")
    result.update(attempted=rounds.attempted, failed=rounds.failed, failures=failures[:20])
    result["correct"] = not failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
