"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload search --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout and imports ``horicert`` from its
``src/`` directory.  It first times the set-up probe in fresh interpreters,
then runs the workload in a worker process of its own, and prints as its
last line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``, under
the workload and metric names and units that ``BENCHMARK.json`` lists.  The
same object, with the worker's details, is written to
``bench/out/<workload>-seed<seed>-trace<t>.json``; a traced run also writes
its spans next to it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up probes before and after the worker; the median of both batches
# is less exposed to a slow spell of the host than one batch.
SETUP_RUNS = (8, 7)
WORKER_TIMEOUT_S = 150


def probe_setup(runs: int, walls: list, splits: list) -> None:
    """Time ``runs`` runs of the set-up probe, each in a fresh interpreter."""
    probe = [sys.executable, str(BENCH / "setup_probe.py")]
    for _ in range(runs):
        t0 = perf_counter()
        proc = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        walls.append(perf_counter() - t0)
        splits.append(json.loads(proc.stdout.splitlines()[-1]))


def summarise_setup(walls: list, splits: list) -> dict:
    """Medians of the set-up probes."""
    return {
        "setup_s": statistics.median(walls),
        "import_s": statistics.median(s["import_s"] for s in splits),
        "fixtures.load_s": statistics.median(s["load_s"] for s in splits),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "horicert" / "__init__.py").is_file():
        print(f"error: no horicert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # One unmeasured probe first, so that byte-code caches exist as they
    # would for any user after the first start.
    probe_setup(1, [], [])
    walls, splits = [], []
    probe_setup(SETUP_RUNS[0], walls, splits)
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans", str(out_dir / f"{stem}.spans.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the worker and waited for it.
        print(f"error: worker ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.splitlines()[-1])
    probe_setup(SETUP_RUNS[1], walls, splits)
    setup = summarise_setup(walls, splits)
    for failure in worker["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)

    if args.trace:
        values = dict(worker["layers"], **{k: setup[k] for k in ("import_s", "fixtures.load_s")})
    else:
        values = dict(worker, setup_s=setup["setup_s"])
    result = {
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        },
    }
    (out_dir / f"{stem}.json").write_text(
        json.dumps(dict(result, worker=worker, setup=setup), indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
