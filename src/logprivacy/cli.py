"""Command-line front end: stats, risk, utility and sweep reports.

Each command computes its results and returns them with the digests of its
inputs and its exit code; it prints nothing to stdout.  ``main`` then prints
either the JSON report (key-sorted, schema-stable), which wraps the results
together with the content digests of the inputs and wall-clock timings per
phase, or, with ``--table``, a human summary rendered from the same results.

Exit codes: 0 success, 1 usage, 2 input problem or unwritable output path,
3 candidate-cap resource limit, 4 solver failure.  When only some grid cells
or sweep points fail, the report still carries the successful ones and the
exit code reflects the most severe failure category.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import sys
import time
from pathlib import Path

from .anonymize import AnonymizationConfig, Strategy, k_anonymize
# ``enumerate_candidates`` is no longer called here; bench/tracing.py wraps the name.
from .background import BkType, DEFAULT_CANDIDATE_CAP, csv_writer, enumerate_candidates  # noqa: F401
from .errors import InputError, LogPrivacyError, SolverError
from .event_log import ColumnMapping, EventLog, RowError, build_log, ingest_csv, ingest_xes, stats
from .risk import Aggregation, _risk_profile, risk_profile
from .utility import GroundCost, build_problem, data_utility, solve, utility_report, write_plan_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_SOLVER = 4

SCHEMA_VERSION = "1"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _exit_code(exc: Exception) -> int:
    """The exit code for a package error, a ``ValueError`` or an ``OSError``."""
    if isinstance(exc, SolverError):
        return EXIT_SOLVER
    return EXIT_INPUT


# -- flag parsing helpers ----------------------------------------------------


def _parse_types(text: str) -> list[BkType]:
    aliases = {
        "set": BkType.SET,
        "mult": BkType.MULTISET,
        "multiset": BkType.MULTISET,
        "seq": BkType.SEQUENCE,
        "sequence": BkType.SEQUENCE,
    }
    chosen: set[BkType] = set()
    for piece in text.split(","):
        piece = piece.strip().lower()
        if not piece:
            continue
        if piece not in aliases:
            raise argparse.ArgumentTypeError(
                f"unknown background-knowledge type {piece!r} (use set, mult, seq)"
            )
        chosen.add(aliases[piece])
    if not chosen:
        raise argparse.ArgumentTypeError("at least one background-knowledge type is required")
    return [t for t in BkType if t in chosen]


def _parse_sizes(text: str) -> list[int]:
    sizes: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "-" in piece:
            lo_text, hi_text = piece.split("-", 1)
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad size range {piece!r}") from None
            if lo > hi:
                raise argparse.ArgumentTypeError(f"empty size range {piece!r}")
            sizes.extend(range(lo, hi + 1))
        else:
            try:
                sizes.append(int(piece))
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad size {piece!r}") from None
    sizes = sorted(set(sizes))
    if not sizes:
        raise argparse.ArgumentTypeError("at least one size is required")
    if sizes[0] < 1:
        raise argparse.ArgumentTypeError("sizes must be >= 1")
    return sizes


def _parse_k_values(text: str) -> list[int]:
    try:
        values = sorted({int(p) for p in text.split(",") if p.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}") from None
    if not values or values[0] < 1:
        raise argparse.ArgumentTypeError("k values must be integers >= 1")
    return values


def _parse_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cap {text!r}") from None
    if cap < 1:
        raise argparse.ArgumentTypeError("the candidate cap must be an integer >= 1")
    return cap


# -- input loading -----------------------------------------------------------


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _infer_format(path: str) -> str:
    name = path.lower()
    if name.endswith(".gz"):
        name = name[:-3]
    return "xes" if name.endswith(".xes") else "csv"


def _load_log(path: str, args, timing: dict[str, float]) -> tuple[EventLog, list[RowError], str]:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from None
    digest = _digest(data)
    fmt = args.format or _infer_format(path)
    t0 = time.perf_counter()
    if fmt == "xes":
        result = ingest_xes(io.BytesIO(data))
    else:
        mapping = ColumnMapping(case=args.case_col, activity=args.activity_col, time=args.time_col)
        result = ingest_csv(io.BytesIO(data), mapping, args.time_format)
    timing["ingest"] = timing.get("ingest", 0.0) + time.perf_counter() - t0
    if result.errors:
        shown = ", ".join(f"#{e.index}: {e.message}" for e in result.errors[:5])
        print(
            f"warning: {len(result.errors)} unusable row(s)/event(s) in {path} ({shown})",
            file=sys.stderr,
        )
    if not result.events:
        raise InputError(f"{path!r} yielded no usable events")
    t0 = time.perf_counter()
    log = build_log(result.events)
    timing["build"] = timing.get("build", 0.0) + time.perf_counter() - t0
    # The events are not kept past the build: only the errors are reported.
    return log, result.errors, digest


def _ingest_payload(errors: list[RowError]) -> dict:
    return {
        "error_count": len(errors),
        "first_errors": [{"index": e.index, "message": e.message} for e in errors[:10]],
    }


# -- report plumbing ---------------------------------------------------------


def _report(command: str, inputs: dict[str, str], results: dict, timing: dict[str, float]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "timing": timing,
    }


def _emit_json(report: dict) -> None:
    print(json.dumps(report, sort_keys=True, indent=2))


def _stats_payload(log: EventLog) -> dict:
    return dataclasses.asdict(stats(log))


def _cells_payload(profile) -> tuple[list[dict], list[dict], list[dict]]:
    cells = [
        {
            "type": score.bk_type.value,
            "size": score.size,
            "cd": score.cd,
            "td": score.td,
            "n_candidates": score.n_candidates,
        }
        for score in profile.scores.values()
    ]
    skipped = [
        {"type": t.value, "size": size, "reason": reason}
        for (t, size), reason in profile.skipped.items()
    ]
    failures = [
        {"type": t.value, "size": size, "error": message}
        for (t, size), message in profile.failures.items()
    ]
    return cells, skipped, failures


# -- commands ----------------------------------------------------------------


def _cmd_stats(args, timing: dict[str, float]) -> tuple[dict[str, str], dict, int]:
    log, errors, digest = _load_log(args.log, args, timing)
    results = {"stats": _stats_payload(log), "ingest": _ingest_payload(errors)}
    return {args.log: digest}, results, EXIT_OK


def _stats_table(results: dict) -> None:
    for key, value in results["stats"].items():
        shown = f"{value:.3f}" if isinstance(value, float) else value
        print(f"{key:>22}  {shown}")


def _dump_hook(dump_dir: str, labels, files: contextlib.ExitStack):
    """The part hook that writes each cell's candidate CSV while its pass scores it.

    A cell's file is opened at its first part and removed when the cell's
    parts are dropped at the cap, so only scored cells keep a file.
    """
    dump_dir = Path(dump_dir)
    dump_dir.mkdir(parents=True, exist_ok=True)
    opened = {}

    def dump(bk_type: BkType, size: int, part) -> None:
        path = dump_dir / f"candidates_{bk_type.value}_{size}.csv"
        if part is None and path in opened:
            opened.pop(path)[0].close()
            path.unlink()
        elif part is not None:
            if path not in opened:
                fh = files.enter_context(open(path, "w", encoding="utf-8", newline=""))
                opened[path] = fh, csv_writer(fh, labels, size)
            opened[path][1]([part])

    return dump


def _cmd_risk(args, timing: dict[str, float]) -> tuple[dict[str, str], dict, int]:
    log, errors, digest = _load_log(args.log, args, timing)
    with contextlib.ExitStack() as files:
        dump = _dump_hook(args.dump_candidates, log.labels, files) if args.dump_candidates else None
        t0 = time.perf_counter()
        profile = _risk_profile(log, args.types, args.sizes, args.aggregation, args.cap, dump)
        timing["risk"] = time.perf_counter() - t0
    cells, skipped, failures = _cells_payload(profile)
    results = {
        "aggregation": args.aggregation.value,
        "cells": cells,
        "skipped": skipped,
        "failures": failures,
        "log": _stats_payload(log),
        "ingest": _ingest_payload(errors),
    }
    return {args.log: digest}, results, EXIT_RESOURCE if failures else EXIT_OK


def _risk_table(results: dict) -> None:
    print(f"{'type':>6} {'size':>4} {'cd':>8} {'td':>8} {'candidates':>12}")
    for cell in results["cells"]:
        print(
            f"{cell['type']:>6} {cell['size']:>4} {cell['cd']:>8.3f} "
            f"{cell['td']:>8.3f} {cell['n_candidates']:>12}"
        )
    for entry in results["skipped"]:
        print(f"{entry['type']:>6} {entry['size']:>4} {'-':>8} {'-':>8}  {entry['reason']}")
    for entry in results["failures"]:
        print(f"{entry['type']:>6} {entry['size']:>4} {'!':>8} {'!':>8}  {entry['error']}")


def _cmd_utility(args, timing: dict[str, float]) -> tuple[dict[str, str], dict, int]:
    original, _, digest_a = _load_log(args.original, args, timing)
    anonymized, _, digest_b = _load_log(args.anonymized, args, timing)
    t0 = time.perf_counter()
    problem = build_problem(original, anonymized)
    utility = utility_report(solve(problem))
    timing["utility"] = time.perf_counter() - t0
    results = {
        "ul": utility.ul,
        "du": utility.du,
        "n_sources": len(problem.source_variants),
        "n_sinks": len(problem.sink_variants),
        "n_flows": len(utility.plan.flows),
    }
    if args.plan_out:
        with open(args.plan_out, "w", encoding="utf-8", newline="") as fh:
            write_plan_csv(problem, utility.plan, fh)
    return {args.original: digest_a, args.anonymized: digest_b}, results, EXIT_OK


def _utility_table(results: dict) -> None:
    print(f"utility loss (ul): {results['ul']:.3f}")
    print(f"data utility (du): {results['du']:.3f}")


def _cmd_sweep(args, timing: dict[str, float]) -> tuple[dict[str, str], dict, int]:
    log, errors, digest = _load_log(args.log, args, timing)
    t0 = time.perf_counter()
    # One ground cost for the whole sweep: every k's anchors are original
    # variants, so each (variant, anchor) distance is computed once.
    cost = GroundCost(log)
    records = []
    worst_exit = EXIT_OK
    for k in args.k_values:
        record: dict = {"k": k}
        records.append(record)
        try:
            anonymized = k_anonymize(
                log, AnonymizationConfig(k=k, strategy=args.strategy), cost=cost
            )
            profile = risk_profile(
                anonymized, args.types, args.sizes, args.aggregation, cap=args.cap
            )
            utility = data_utility(log, anonymized, cost=cost)
        except (ValueError, SolverError) as exc:
            record["error"] = str(exc)
            worst_exit = max(worst_exit, _exit_code(exc))
            continue
        cells, skipped, failures = _cells_payload(profile)
        if failures:
            worst_exit = max(worst_exit, EXIT_RESOURCE)
        record.update(
            {
                "ul": utility.ul,
                "du": utility.du,
                "cells": cells,
                "skipped": skipped,
                "failures": failures,
                "anonymized": _stats_payload(anonymized),
            }
        )
    timing["sweep"] = time.perf_counter() - t0
    results = {
        "strategy": args.strategy.value,
        "aggregation": args.aggregation.value,
        "records": records,
        "log": _stats_payload(log),
        "ingest": _ingest_payload(errors),
    }
    return {args.log: digest}, results, worst_exit


def _sweep_table(results: dict) -> None:
    print(f"{'k':>6} {'du':>8}  cells")
    for record in results["records"]:
        if "error" in record:
            print(f"{record['k']:>6} {'!':>8}  {record['error']}")
        else:
            summary = " ".join(
                f"{c['type']}/{c['size']}:cd={c['cd']:.3f}" for c in record["cells"]
            )
            print(f"{record['k']:>6} {record['du']:>8.3f}  {summary}")


# -- parser ------------------------------------------------------------------


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["csv", "xes"], default=None,
                     help="input format (default: inferred from the file name)")
    sub.add_argument("--case-col", default="case", help="CSV column with the case id")
    sub.add_argument("--activity-col", default="activity", help="CSV column with the activity")
    sub.add_argument("--time-col", default="time", help="CSV column with the timestamp")
    sub.add_argument("--time-format", default=None,
                     help="strptime format for CSV timestamps (default: ISO-8601)")
    sub.add_argument("--table", action="store_true", help="human-readable table instead of JSON")


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--types", type=_parse_types, default=tuple(BkType),
                     help="comma list of background-knowledge types (default: set,mult,seq)")
    sub.add_argument("--sizes", type=_parse_sizes, default=tuple(range(1, 7)),
                     help="sizes, e.g. '1-6' or '1,3,5' (default: 1-6)")
    sub.add_argument("--aggregation", type=lambda s: Aggregation(s.lower()),
                     default=Aggregation.AVERAGE, choices=list(Aggregation),
                     metavar="{average,worst}", help="average (default) or worst")
    sub.add_argument("--cap", type=_parse_cap, default=DEFAULT_CANDIDATE_CAP,
                     help=f"candidate cap per cell (default: {DEFAULT_CANDIDATE_CAP})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="logprivacy",
                     description="Disclosure risk and data utility for process-mining event logs")
    commands = parser.add_subparsers(dest="command", required=True)

    p_stats = commands.add_parser("stats", parents=[], help="general statistics of a log")
    p_stats.add_argument("log", help="event log file (CSV or XES, optionally gzipped)")
    _add_input_flags(p_stats)
    p_stats.set_defaults(func=_cmd_stats, table_func=_stats_table)

    p_risk = commands.add_parser("risk", help="case/trace disclosure over a (type, size) grid")
    p_risk.add_argument("log")
    _add_input_flags(p_risk)
    _add_grid_flags(p_risk)
    p_risk.add_argument("--dump-candidates", default=None, metavar="DIR",
                        help="debug: write per-cell candidate,cardinality CSVs "
                             "of the scored cells, as the risk passes score them")
    p_risk.set_defaults(func=_cmd_risk, table_func=_risk_table)

    p_util = commands.add_parser("utility", help="earth mover's distance between two logs")
    p_util.add_argument("original")
    p_util.add_argument("anonymized")
    _add_input_flags(p_util)
    p_util.add_argument("--plan-out", default=None, metavar="FILE",
                        help="write the optimal reallocation as CSV")
    p_util.set_defaults(func=_cmd_utility, table_func=_utility_table)

    p_sweep = commands.add_parser("sweep", help="k-anonymization sweep: risk and utility per k")
    p_sweep.add_argument("log")
    _add_input_flags(p_sweep)
    _add_grid_flags(p_sweep)
    p_sweep.add_argument("--k-values", type=_parse_k_values, default=(1, 20, 40, 60),
                         help="comma list of k values (default: 1,20,40,60)")
    p_sweep.add_argument("--strategy", type=lambda s: Strategy(s.lower()),
                         default=Strategy.SUPPRESS, choices=list(Strategy),
                         metavar="{suppress,merge-nearest}",
                         help="suppress (default) or merge-nearest")
    p_sweep.set_defaults(func=_cmd_sweep, table_func=_sweep_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    timing: dict[str, float] = {}
    try:
        inputs, results, code = args.func(args, timing)
        if args.table:
            args.table_func(results)
        else:
            _emit_json(_report(args.command, inputs, results, timing))
        return code
    except (LogPrivacyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
