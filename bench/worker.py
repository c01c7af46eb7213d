"""One measured benchmark process.

Started by ``run.py`` as a fresh interpreter, so that its peak RSS belongs
to this run alone.  It repeats whole rounds of the workload's CLI calls
through ``logprivacy.cli.main`` for the given number of seconds, times
set-up (ingest and ``build_log`` of the workload's input files) between the
calls, and writes what it measured and what the program reported to a JSON
file.  With ``--trace 1`` every call is made traced and then untraced, and
it derives the per-layer figures and the tracing overhead.

    python3 bench/worker.py --workload NAME --inputs DIR --seconds S \
        --trace 0|1 --src SRC --out FILE
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

# Set-up is timed before every CLI call and once after the last round, each
# time repeated for a tenth of the previous call's time and at least
# SETUP_MIN_S, and the median of all repetitions is reported.  So set-up
# samples take about a tenth of the run and spread over all of it, seeing the
# same slow and fast spells of the machine as the calls do.
SETUP_SHARE = 0.1
SETUP_MIN_S = 0.4


def _load_package(src: Path) -> None:
    sys.path.insert(0, str(src))
    import logprivacy

    where = Path(logprivacy.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"logprivacy was imported from {where}, not from {src}")


def measure_setup(files: list[Path], times: list[float], seconds: float) -> None:
    """Append the seconds to read, ingest and build every input log, once per
    repetition, for at least ``seconds``."""
    from logprivacy import build_log, ingest_xes

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for path in files:
            build_log(ingest_xes(io.BytesIO(path.read_bytes())).events)
        times.append(time.perf_counter() - t0)
        if t0 - start + times[-1] >= seconds:
            return


def _call_cli(cli, argv: list[str], tracer) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = tracer.span("cli", cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is reported with its traceback, not fatal to the run
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def timed_call(cli, op, tracer=None) -> tuple[float, tuple[int | None, str, str]]:
    """One CLI call: its seconds and its outcome, traced when ``tracer`` is
    given (its wrappers are installed for this call only)."""
    if tracer:
        tracer.install()
    try:
        t0 = time.perf_counter()
        outcome = _call_cli(cli, list(op.argv), tracer)
        return time.perf_counter() - t0, outcome
    finally:
        if tracer:
            tracer.uninstall()


def _parse(stdout: str) -> dict | None:
    try:
        return json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        return None


def _failed_units(op, rc, report) -> int:
    if op.kind == "utility":
        return 0 if rc == 0 else op.units
    if report is None:
        return op.units
    return sum(1 for r in report["results"]["records"] if "error" in r)


def _comparable(rc, report, stderr):
    if report is not None:
        report = {k: v for k, v in report.items() if k != "timing"}
    return rc, report, stderr


def summarize(ops, rounds: list[list]) -> dict:
    """Attempted/failed units, the first round's outcomes, and any round
    whose outcomes differ from the first."""
    attempted = failed = 0
    first = None
    problems = []
    for r, outs in enumerate(rounds):
        parsed = [(rc, _parse(stdout), stderr) for rc, stdout, stderr in outs]
        for op, (rc, report, _) in zip(ops, parsed):
            attempted += op.units
            failed += _failed_units(op, rc, report)
        comparable = [_comparable(*p) for p in parsed]
        if first is None:
            first = comparable
            outcomes = [
                {"argv": list(op.argv), "rc": rc, "report": report, "stderr": stderr}
                for op, (rc, report, stderr) in zip(ops, parsed)
            ]
        elif comparable != first:
            problems.append(f"round {r} reported differently from round 0")
    return {"attempted": attempted, "failed": failed, "outcomes": outcomes, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    _load_package(args.src)
    from logprivacy import cli

    from tracing import Tracer, layer_metrics, maxrss_mb, round_self_sums
    from workloads import WORKLOADS

    _, round_of = WORKLOADS[args.workload]
    files, ops = round_of(args.inputs)
    result: dict = {}
    problems: list[str] = []
    rounds: list[list] = []
    times: list[float] = []
    gc.collect()
    start = time.perf_counter()

    if args.trace:
        # Every call is made traced and then at once untraced, so the two
        # halves of each pair run in the same spell of machine speed.
        tracer = Tracer()
        traced_times: list[float] = []
        while not times or time.perf_counter() - start < args.seconds:
            traced_round: list = []
            plain_round: list = []
            traced_times.append(0.0)
            times.append(0.0)
            for op in ops:
                elapsed, outcome = timed_call(cli, op, tracer)
                traced_times[-1] += elapsed
                traced_round.append(outcome)
                elapsed, outcome = timed_call(cli, op)
                times[-1] += elapsed
                plain_round.append(outcome)
            tracer.round += 1
            rounds += [traced_round, plain_round]
        layers = layer_metrics(tracer)
        if any(own > spent for own, spent in zip(round_self_sums(tracer), traced_times)):
            problems.append("a traced round's summed span self times exceed its time")
        layers["trace.command_s"] = statistics.median(traced_times)
        layers["trace.overhead_s"] = statistics.median(
            traced - plain for traced, plain in zip(traced_times, times))
        spans_path = args.out.with_name(args.out.stem + "-spans.jsonl")
        tracer.write(spans_path)
        result.update(per_layer=layers, missing=tracer.missing, spans=str(spans_path),
                      traced_round_times=traced_times)
    else:
        setup_times: list[float] = []
        elapsed = 0.0
        while not times or time.perf_counter() - start < args.seconds:
            times.append(0.0)
            rounds.append([])
            for op in ops:
                measure_setup(files, setup_times, max(SETUP_MIN_S, SETUP_SHARE * elapsed))
                elapsed, outcome = timed_call(cli, op)
                times[-1] += elapsed
                rounds[-1].append(outcome)
        result["peak_rss_mb"] = maxrss_mb()
        measure_setup(files, setup_times, max(SETUP_MIN_S, SETUP_SHARE * elapsed))
        result.update(setup_s=statistics.median(setup_times), setup_times=setup_times)

    result.update(command_s=statistics.median(times), round_times=times)
    summary = summarize(ops, rounds)
    summary["problems"] += problems
    result.update(summary)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
