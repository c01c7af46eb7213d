"""Correctness checks on the program's reports, run after the timed region.

Nothing here compares against a stored copy of earlier output.  Every value
is checked against a computation made apart from the program or against a
property the method must have:

* risk cells of every sweep point: scored and skipped cells partition the
  requested grid, a skipped cell has no candidates in the log,
  ``0 < cd <= 1``, ``0 <= td <= 1``, ``seq >= mult >= set`` candidate
  counts at each size, size-1 counts equal to the number of
  activities, and ``n_candidates``/``cd``/``td`` equal to a brute-force
  enumeration written with ``itertools``/``Counter`` on every cell it covers
  within ``BRUTE_BUDGET`` generated patterns;
* sweep points: anonymized variant and trace counts from an independent
  anonymization, ``du`` exactly 1 at k=1, ``du`` in [0, 1], and ``ul`` equal
  to the HiGHS optimum (``scipy.optimize.linprog``) on the same cost matrix;
* utility pairs: the same HiGHS comparison, and every failure is exit code 4
  from the solver's pivot budget on a pair that HiGHS solves;
* cost matrices: a seeded sample of entries against a plain Levenshtein DP;
* log statistics in every report against the generator's own counts.

The checks read the generator's ``truth.json``, never the program's parse of
the input files.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, defaultdict

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

LabelLog = dict[tuple[str, ...], int]

# Patterns a brute-force cell may generate; cells above it are left to the
# property checks.
BRUTE_BUDGET = 400_000
COST_SAMPLES = 200
FLOAT_TOL = 1e-9
# HiGHS stops at its own feasibility/optimality tolerance (1e-7).
LP_TOL = 1e-6
BUDGET_FAULT = "no optimality certificate after"


# -- independent computations --------------------------------------------------


def _patterns(trace: tuple[str, ...], kind: str, size: int):
    if kind == "set":
        return itertools.combinations(sorted(set(trace)), size)
    if kind == "mult":
        have = Counter(trace)
        return (
            combo for combo in itertools.combinations_with_replacement(sorted(have), size)
            if all(have[a] >= n for a, n in Counter(combo).items())
        )
    return itertools.combinations(trace, size)


def _pattern_cost(trace: tuple[str, ...], kind: str, size: int) -> int:
    if kind == "set":
        return math.comb(len(set(trace)), size)
    if kind == "mult":
        return math.comb(len(set(trace)) + size - 1, size)
    return math.comb(len(trace), size)


def brute_cell(log: LabelLog, kind: str, size: int) -> tuple[int, float, float] | None:
    """(candidates, cd, td) by per-trace enumeration, or None if too costly."""
    if sum(_pattern_cost(v, kind, size) for v in log) > BRUTE_BUDGET:
        return None
    matching: dict[tuple[str, ...], list[int]] = defaultdict(list)
    for trace, count in log.items():
        for pattern in set(_patterns(trace, kind, size)):
            matching[pattern].append(count)
    if not matching:
        return 0, 0.0, 0.0
    uniq = []
    ratios = []
    for counts in matching.values():
        card = sum(counts)
        uniq.append(1.0 / card)
        if card == 1:
            ratios.append(0.0)
        else:
            entropy = -sum((c / card) * math.log2(c / card) for c in counts)
            ratios.append(entropy / math.log2(card))
    n = len(matching)
    return n, sum(uniq) / n, 1.0 - sum(ratios) / n


def levenshtein(a, b) -> int:
    """Plain O(len(a) * len(b)) edit distance with unit costs."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def cost_matrix(rows: list[tuple[str, ...]], cols: list[tuple[str, ...]], problems: list[str],
                where: str) -> np.ndarray:
    """The program's normalized Levenshtein matrix, with sampled entries
    checked against :func:`levenshtein`."""
    from logprivacy.distance import distance_matrix

    ids = {a: i for i, a in enumerate(sorted({a for t in rows + cols for a in t}))}
    cost = distance_matrix([tuple(ids[a] for a in t) for t in rows],
                           [tuple(ids[a] for a in t) for t in cols])
    rng = random.Random(where)
    for _ in range(COST_SAMPLES):
        i, j = rng.randrange(len(rows)), rng.randrange(len(cols))
        want = levenshtein(rows[i], cols[j]) / max(len(rows[i]), len(cols[j]))
        if abs(cost[i, j] - want) > FLOAT_TOL:
            problems.append(f"{where}: cost[{i},{j}]={cost[i, j]!r}, Levenshtein DP gives {want!r}")
            break
    return cost


def highs_emd(cost: np.ndarray, original: LabelLog, anonymized: LabelLog):
    """Minimal transport cost between the two logs' variant distributions by
    HiGHS, with variants in canonical order; returns the scipy result."""
    supply = np.array([original[v] for v in sorted(original)], dtype=float)
    demand = np.array([anonymized[v] for v in sorted(anonymized)], dtype=float)
    supply /= supply.sum()
    demand /= demand.sum()
    m, n = cost.shape
    arcs = np.arange(m * n)
    rows = np.concatenate([arcs // n, m + arcs % n])
    a_eq = coo_matrix((np.ones(2 * m * n), (rows, np.concatenate([arcs, arcs]))),
                      shape=(m + n, m * n)).tocsr()
    return linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([supply, demand]),
                   bounds=(0, None), method="highs")


def anonymize(log: LabelLog, k: int, strategy: str, cost: np.ndarray | None = None) -> LabelLog:
    """Variant-level k-anonymization from its definition.

    ``cost`` is the distance matrix from the canonically ordered variants
    of ``log`` to its variants with count >= k, needed for merge-nearest.
    """
    order = sorted(log)
    anchors = [v for v in order if log[v] >= k]
    if strategy == "suppress" or k == 1:
        return {v: log[v] for v in anchors}
    out = {v: log[v] for v in anchors}
    for i, v in enumerate(order):
        if log[v] >= k:
            continue
        # Closest anchor, then the larger count, then canonical order.
        best = min(range(len(anchors)), key=lambda a: (cost[i, a], -log[anchors[a]], a))
        out[anchors[best]] += log[v]
    return out


def log_stats(log: LabelLog) -> dict:
    traces = sum(log.values())
    return {
        "n_traces": traces,
        "n_variants": len(log),
        "n_events": sum(len(v) * c for v, c in log.items()),
        "n_unique_activities": len({a for v in log for a in v}),
    }


# -- report checks ---------------------------------------------------------------


def _flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _sizes(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def check_stats(got: dict, log: LabelLog, where: str, problems: list[str]) -> None:
    for key, want in log_stats(log).items():
        if got.get(key) != want:
            problems.append(f"{where}: {key}={got.get(key)!r}, generated {want!r}")


def has_candidates(log: LabelLog, kind: str, size: int) -> bool:
    """Whether any trace holds a pattern of ``size``: a set needs that many
    distinct activities, a multiset or a subsequence that many events."""
    return any((len(set(v)) if kind == "set" else len(v)) >= size for v in log)


def check_cells(cells: list[dict], skipped: list[dict], log: LabelLog, types: list[str],
                sizes: list[int], where: str, problems: list[str]) -> None:
    """Grid completeness, value ranges, orderings and the brute-force match.

    A cell may be listed as skipped instead of scored only when no trace of
    the log holds a pattern of its size.
    """
    by_cell = {(c["type"], c["size"]): c for c in cells}
    empty = {(c["type"], c["size"]) for c in skipped}
    if sorted(by_cell.keys() | empty) != sorted((t, s) for t in types for s in sizes) \
            or by_cell.keys() & empty:
        problems.append(f"{where}: cells {sorted(by_cell)} and skipped {sorted(empty)} "
                        "do not partition the requested grid")
    for kind, size in sorted(empty):
        if has_candidates(log, kind, size):
            problems.append(f"{where} {kind}/{size}: skipped, but the log has candidates of this size")
    n_activities = len({a for v in log for a in v})
    for (kind, size), cell in sorted(by_cell.items()):
        at = f"{where} {kind}/{size}"
        if not 0.0 < cell["cd"] <= 1.0:
            problems.append(f"{at}: cd={cell['cd']!r} outside (0, 1]")
        if not 0.0 <= cell["td"] <= 1.0:
            problems.append(f"{at}: td={cell['td']!r} outside [0, 1]")
        if size == 1 and cell["n_candidates"] != n_activities:
            problems.append(f"{at}: {cell['n_candidates']} candidates, log has {n_activities} activities")
        brute = brute_cell(log, kind, size)
        if brute is not None:
            n, cd, td = brute
            if cell["n_candidates"] != n:
                problems.append(f"{at}: n_candidates={cell['n_candidates']}, brute force {n}")
            if abs(cell["cd"] - cd) > FLOAT_TOL or abs(cell["td"] - td) > FLOAT_TOL:
                problems.append(f"{at}: cd/td=({cell['cd']!r}, {cell['td']!r}), brute force ({cd!r}, {td!r})")
    for size in sizes:
        counts = [by_cell[(t, size)]["n_candidates"] if (t, size) in by_cell else 0
                  for t in ("set", "mult", "seq") if (t, size) in by_cell or (t, size) in empty]
        if counts != sorted(counts):
            problems.append(f"{where} size {size}: candidate counts set/mult/seq {counts} not ascending")


def _check_utility(ul: float, du: float, original: LabelLog, anonymized: LabelLog,
                   cost: np.ndarray, where: str, problems: list[str]) -> None:
    if not (0.0 <= du <= 1.0 and 0.0 <= ul <= 1.0) or abs(ul + du - 1.0) > FLOAT_TOL:
        problems.append(f"{where}: ul={ul!r}, du={du!r} not complementary in [0, 1]")
    lp = highs_emd(cost, original, anonymized)
    if lp.status != 0:
        problems.append(f"{where}: HiGHS did not solve ({lp.message})")
    elif abs(lp.fun - ul) > LP_TOL:
        problems.append(f"{where}: ul={ul!r}, HiGHS optimum {lp.fun!r}")


def check_sweep(argv: list[str], report: dict, log: LabelLog, problems: list[str]) -> None:
    results = report["results"]
    check_stats(results["log"], log, "sweep log", problems)
    strategy = _flag(argv, "--strategy", "suppress")
    types = _flag(argv, "--types", "set,mult,seq").split(",")
    sizes = _sizes(_flag(argv, "--sizes", "1-6"))
    ks = [int(k) for k in _flag(argv, "--k-values", "1,20,40,60").split(",")]
    records = results["records"]
    if [r["k"] for r in records] != ks:
        problems.append(f"sweep: records for k={[r['k'] for r in records]}, asked for {ks}")
    order = sorted(log)
    for record in records:
        k = record["k"]
        where = f"sweep k={k}"
        if "error" in record:
            problems.append(f"{where}: unexpected failure {record['error']!r}")
            continue
        anchors = [v for v in order if log[v] >= k]
        cost = None
        if k > 1:
            cost = cost_matrix(order, anchors, problems, f"{where} cost")
        anon = anonymize(log, k, strategy, cost)
        check_stats(record["anonymized"], anon, f"{where} anonymized", problems)
        if k == 1:
            if record["du"] != 1.0 or record["ul"] != 0.0:
                problems.append(f"{where}: du={record['du']!r}, ul={record['ul']!r}; identity needs 1 and 0")
        else:
            _check_utility(record["ul"], record["du"], log, anon, cost, where, problems)
        check_cells(record["cells"], record["skipped"], anon, types, sizes, where, problems)


def check_utility(argv: list[str], rc: int | None, report: dict | None, stderr: str,
                  original: LabelLog, anonymized: LabelLog, problems: list[str]) -> bool:
    """Check one pair; returns True when it failed in the known way."""
    where = f"utility {argv[1].rsplit('/', 1)[-1]}"
    cost = cost_matrix(sorted(original), sorted(anonymized), problems, f"{where} cost")
    if rc == 0 and report is not None:
        results = report["results"]
        if (results["n_sources"], results["n_sinks"]) != (len(original), len(anonymized)):
            problems.append(f"{where}: {results['n_sources']}x{results['n_sinks']} problem, "
                            f"logs have {len(original)}x{len(anonymized)} variants")
        _check_utility(results["ul"], results["du"], original, anonymized, cost, where, problems)
        return False
    if rc == 4 and BUDGET_FAULT in stderr:
        if highs_emd(cost, original, anonymized).status != 0:
            problems.append(f"{where}: pivot-budget failure on a pair HiGHS does not solve either")
        return True
    problems.append(f"{where}: failed with exit code {rc!r}: {stderr.strip()[-300:]!r}")
    return False


def check_outcomes(outcomes: list[dict], logs: dict[str, LabelLog]) -> list[str]:
    """Problems found in one round's outcomes.

    ``outcomes`` holds one ``{"argv", "rc", "report", "stderr"}`` per CLI
    call; ``logs`` maps an input file's name to its generated variants.
    """
    problems: list[str] = []

    def log_of(path: str) -> LabelLog:
        return logs[path.replace("\\", "/").rsplit("/", 1)[-1]]

    for out in outcomes:
        argv, rc, report = out["argv"], out["rc"], out["report"]
        command = argv[0]
        if command == "utility":
            check_utility(argv, rc, report, out["stderr"], log_of(argv[1]), log_of(argv[2]), problems)
            continue
        if report is None:
            problems.append(f"{command}: exit code {rc!r} without a report: {out['stderr'].strip()[-300:]!r}")
            continue
        if command == "sweep":
            check_sweep(argv, report, log_of(argv[1]), problems)
        else:
            problems.append(f"no check for command {command!r}")
    return problems


def truth_logs(truth: dict) -> dict[str, LabelLog]:
    """``truth.json`` content as {file name: {variant: count}}."""
    return {
        entry["file"]: {tuple(v): c for v, c in entry["variants"]}
        for entry in truth["logs"].values()
    }
