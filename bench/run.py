"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (once; later runs reuse them),
runs the measured part in a fresh worker process with numeric-library
threads capped at the number of usable cores, checks the program's outputs
outside the timed region, and prints as its last line one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``command_s``,
``peak_rss_mb``); with ``--trace 1`` the per-layer ones.  Problems found by
the checks go to stderr.  Workloads: see workloads.py and README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INPUTS = BENCH / ".inputs"
RUNS = BENCH / ".runs"
WORKER_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH))

from generate import materialize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = ("setup_s", "command_s", "peak_rss_mb")


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one section of BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload once.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not (SRC / "logprivacy" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    input_kind, _ = WORKLOADS[args.workload]
    input_dir = materialize(INPUTS, input_kind, args.seed)
    RUNS.mkdir(parents=True, exist_ok=True)
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.unlink(missing_ok=True)
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--inputs", str(input_dir), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--src", str(SRC), "--out", str(out)]
    try:
        proc = subprocess.run(command, env=_worker_env(), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out.is_file():
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.read_text())

    sys.path.insert(0, str(SRC))
    from checks import check_outcomes, truth_logs

    truth = json.loads((input_dir / "truth.json").read_text())
    problems = result["problems"] + check_outcomes(result["outcomes"], truth_logs(truth))
    if args.trace:
        if result["missing"]:
            print(f"trace: wrapped names missing: {', '.join(result['missing'])}", file=sys.stderr)
        print(f"trace: spans written to {result['spans']}", file=sys.stderr)
        values = result["per_layer"]
    else:
        values = {name: result[name] for name in END_TO_END}
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        print(f"error: measured metrics {sorted(values)} differ from BENCHMARK.json's {sorted(units)}",
              file=sys.stderr)
        return 1
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
