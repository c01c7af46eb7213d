"""Fast self-test of the benchmark on tiny inputs.

    python3 bench/selftest.py

Runs the real CLI on tiny generated logs and shows that the checks accept
its reports.  Then it hands every check a deliberately wrong report (a
perturbed ``cd``, ``td``, ``ul``, count or exit code) and shows that the
check fails.  It also shows that a cost matrix with wrong entries is caught,
that a wrapped name that does not exist is reported without crashing the
traced run, and that span self times add up to the traced time.  Exits 0
when every expectation holds; takes a few seconds.
"""

from __future__ import annotations

import copy
import random
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import generate  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import Operation  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, problems: list[str], wrong: bool) -> None:
    ok = bool(problems) == wrong
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {problems[0]}" if problems and ok else ""))
    if not ok:
        FAILURES.append(f"{name}: {problems}")


def tiny_logs(workdir: Path) -> dict[str, Counter]:
    rng = random.Random("selftest")
    counts = (6, 4, 3, 3, 2, 1, 1, 1, 1, 1, 1, 1)
    tiny: Counter = Counter()
    while len(tiny) < len(counts):
        trace = generate.sepsis_walk(rng, rng.randint(4, 9))
        if trace not in tiny:
            tiny[trace] = counts[len(tiny)]
    # Two activities: no trace holds a set of three, so that cell is skipped.
    logs = {"tiny.xes": tiny, "two.xes": Counter({("A", "B", "A"): 2, ("B", "A"): 1})}
    pair_a, pair_b = generate.markov_pair(7, 14)
    logs.update({"pair-a.xes": pair_a, "pair-b.xes": pair_b})
    for name, counted in logs.items():
        generate.write_xes(workdir / name, generate.expand(sorted(counted.items())))
    return {name: dict(counted) for name, counted in logs.items()}


def run_cli(cli, argv: list[str], tracer=None) -> dict:
    rc, stdout, stderr = worker._call_cli(cli, argv, tracer)
    return {"argv": argv, "rc": rc, "report": worker._parse(stdout), "stderr": stderr}


def perturbed(outcome: dict, edit) -> list[dict]:
    wrong = copy.deepcopy(outcome)
    edit(wrong)
    return [wrong]


def main() -> int:
    from logprivacy import cli

    scratch = BENCH / ".runs"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workdir = Path(tmp)
        logs = tiny_logs(workdir)
        tiny = str(workdir / "tiny.xes")
        suppress = run_cli(cli, ["sweep", tiny, "--strategy", "suppress", "--sizes", "1-2",
                                 "--k-values", "1,2,4"])
        merge = run_cli(cli, ["sweep", tiny, "--strategy", "merge-nearest", "--sizes", "1-3",
                              "--k-values", "1,2,4"])
        two = run_cli(cli, ["sweep", str(workdir / "two.xes"), "--strategy", "merge-nearest",
                            "--sizes", "1-3", "--k-values", "1,2"])
        pair = run_cli(cli, ["utility", str(workdir / "pair-a.xes"), str(workdir / "pair-b.xes")])

        def check(outcomes):
            return checks.check_outcomes(outcomes, logs)

        for name, outcome in (("sweep suppress", suppress), ("sweep merge-nearest", merge),
                              ("sweep with a skipped cell", two), ("utility", pair)):
            expect(f"{name} report from the program passes", check([outcome]), wrong=False)

        def record(report, k):
            return next(r for r in report["results"]["records"] if r["k"] == k)

        def cell(report, kind, size):
            return next(c for c in record(report, 1)["cells"] if (c["type"], c["size"]) == (kind, size))

        def shift_ul(rec, delta):
            rec["ul"] += delta
            rec["du"] -= delta

        wrong_risk = {
            "cd perturbed by 1e-6": lambda o: cell(o["report"], "seq", 2).__setitem__(
                "cd", cell(o["report"], "seq", 2)["cd"] + 1e-6),
            "td perturbed by 1e-6": lambda o: cell(o["report"], "mult", 3).__setitem__(
                "td", cell(o["report"], "mult", 3)["td"] - 1e-6),
            "cd of 0": lambda o: cell(o["report"], "set", 3).__setitem__("cd", 0.0),
            "td above 1": lambda o: cell(o["report"], "set", 1).__setitem__("td", 1.5),
            "n_candidates off by one": lambda o: cell(o["report"], "mult", 2).__setitem__(
                "n_candidates", cell(o["report"], "mult", 2)["n_candidates"] + 1),
            "size-1 count not the activity count": lambda o: cell(o["report"], "seq", 1).__setitem__(
                "n_candidates", 99),
            "a missing cell": lambda o: record(o["report"], 1)["cells"].pop(),
            "a cell with candidates listed as skipped": lambda o: record(o["report"], 1)[
                "skipped"].append(record(o["report"], 1)["cells"].pop()),
            "log statistics off": lambda o: o["report"]["results"]["log"].__setitem__("n_traces", 1),
        }
        for name, edit in wrong_risk.items():
            expect(f"risk grid with {name} fails", check(perturbed(merge, edit)), wrong=True)

        # seq >= mult >= set is a property check of its own: exercise it on
        # a cell with the brute force switched off.
        budget = checks.BRUTE_BUDGET
        checks.BRUTE_BUDGET = 0
        try:
            expect("risk grid with mult above seq fails (property check alone)", check(perturbed(
                merge, lambda o: cell(o["report"], "mult", 3).__setitem__("n_candidates", 10**6))),
                wrong=True)
        finally:
            checks.BRUTE_BUDGET = budget

        wrong_sweep = {
            "du below 1 at k=1": lambda o: record(o["report"], 1).__setitem__("du", 1.0 - 1e-12),
            "ul perturbed by 1e-4": lambda o: shift_ul(record(o["report"], 2), 1e-4),
            "du outside [0, 1]": lambda o: record(o["report"], 4).__setitem__("du", 1.2),
            "anonymized n_variants off": lambda o: record(o["report"], 2)["anonymized"].__setitem__(
                "n_variants", record(o["report"], 2)["anonymized"]["n_variants"] + 1),
            "anonymized n_traces off": lambda o: record(o["report"], 4)["anonymized"].__setitem__(
                "n_traces", record(o["report"], 4)["anonymized"]["n_traces"] - 1),
            "a failed point": lambda o: o["report"]["results"]["records"].__setitem__(
                1, {"k": 2, "error": "boom"}),
        }
        for name, edit in wrong_sweep.items():
            expect(f"suppress sweep with {name} fails", check(perturbed(suppress, edit)), wrong=True)
            expect(f"merge-nearest sweep with {name} fails", check(perturbed(merge, edit)), wrong=True)

        wrong_pair = {
            "ul perturbed by 1e-4": lambda o: shift_ul(o["report"]["results"], 1e-4),
            "n_sources off": lambda o: o["report"]["results"].__setitem__("n_sources", 1),
            "exit code 2": lambda o: o.update(rc=2, report=None, stderr="error: bad input"),
            "exit code 4 without the pivot-budget message": lambda o: o.update(
                rc=4, report=None, stderr="error: optimal plan violates marginal conservation"),
        }
        for name, edit in wrong_pair.items():
            expect(f"utility with {name} fails", check(perturbed(pair, edit)), wrong=True)
        expect("utility failing on the pivot budget is a known failure, not an error",
               check(perturbed(pair, lambda o: o.update(
                   rc=4, report=None,
                   stderr="error: no optimality certificate after 2400 pivots (14x14 problem)"))),
               wrong=False)

        import logprivacy.distance as distance

        original = distance.distance_matrix
        distance.distance_matrix = lambda rows, cols: original(rows, cols) * 0.5
        try:
            expect("a cost matrix with wrong entries fails the Levenshtein sample",
                   check([pair]), wrong=True)
        finally:
            distance.distance_matrix = original

        ops = [Operation(tuple(merge["argv"]), "sweep", 3)]
        summary = worker.summarize(ops, [[(0, '{"results": {"records": []}}', "")],
                                         [(0, '{"results": {"records": [{"error": "x"}]}}', "")]])
        expect("a round reporting differently from the first fails", summary["problems"],
               wrong=True)

        tracer = tracing.Tracer(tracing.TARGETS + (("logprivacy.cli", "no_such_function",
                                                    "cli.gone", None),))
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced = [run_cli(cli, o["argv"], tracer) for o in (merge, pair)]
            elapsed = time.perf_counter() - t0
            tracer.round += 1
        finally:
            tracer.uninstall()
        expect("a traced run still passes the checks", check(traced), wrong=False)
        expect("a missing wrapped name is reported",
               [] if tracer.missing == ["logprivacy.cli.no_such_function"] else ["not reported"],
               wrong=False)
        layers = tracing.layer_metrics(tracer)
        missing_layers = [name for name in ("background.calls", "distance.pairs", "utility.solve_s",
                                            "anonymize.k_anonymize_s", "event_log.ingest_s")
                          if not layers[name] > 0]
        expect("every layer on the tiny round records work", missing_layers, wrong=False)
        expect("summed self times do not exceed the traced time",
               [] if layers["trace.self_sum_s"] <= elapsed else [f"{layers['trace.self_sum_s']} > {elapsed}"],
               wrong=False)
        restored = cli.risk_profile.__module__ == "logprivacy.risk" and not hasattr(cli.risk_profile, "__wrapped__")
        expect("uninstall restores the original functions", [] if restored else ["still wrapped"],
               wrong=False)

    print(f"{len(FAILURES)} expectation(s) failed" if FAILURES else "all expectations hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
