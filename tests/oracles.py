"""Independent reference implementations the optimized code is checked against.

Everything here is deliberately naive and written without reusing package
internals: candidate generation ranges over the whole alphabet, matching is
re-implemented from the definitions, the disclosure measures are direct
transcriptions of their formulas, and the minimal transport cost comes from a
generic LP solver.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from logprivacy import EventLog


# -- matching, re-implemented ------------------------------------------------


def naive_matches(kind: str, elements: tuple[int, ...], trace: tuple[int, ...]) -> bool:
    if kind == "set":
        return all(e in trace for e in elements)
    if kind == "mult":
        return all(trace.count(e) >= elements.count(e) for e in set(elements))
    if kind == "seq":
        pos = 0
        for e in elements:
            while pos < len(trace) and trace[pos] != e:
                pos += 1
            if pos == len(trace):
                return False
            pos += 1
        return True
    raise ValueError(kind)


def naive_candidate_index(log: EventLog, kind: str, size: int):
    """All size-l candidates over the whole alphabet with non-empty projections.

    Returns {elements: {variant: count}} with canonical element tuples.
    """
    ids = range(len(log.labels))
    if kind == "set":
        universe = itertools.combinations(ids, size)
    elif kind == "mult":
        universe = itertools.combinations_with_replacement(ids, size)
    elif kind == "seq":
        universe = itertools.product(ids, repeat=size)
    else:
        raise ValueError(kind)
    index = {}
    for elements in universe:
        proj = {
            v: c
            for v, c in zip(log.variants, log.counts)
            if naive_matches(kind, elements, v)
        }
        if proj:
            index[tuple(elements)] = proj
    return index


def itertools_candidate_index(log: EventLog, kind: str, size: int):
    """The same mapping as ``naive_candidate_index``, built per variant.

    Each variant contributes the patterns ``itertools`` finds in it: its
    distinct size-l subsequences (seq), their sorted forms (mult), or the
    size-l subsets of its distinct activities (set).  Nothing ranges over the
    alphabet, so this stays usable for long traces and wide alphabets.
    """
    index = {}
    for v, c in zip(log.variants, log.counts):
        if kind == "set":
            patterns = set(itertools.combinations(sorted(set(v)), size))
        elif kind == "mult":
            patterns = {tuple(sorted(p)) for p in itertools.combinations(v, size)}
        elif kind == "seq":
            patterns = set(itertools.combinations(v, size))
        else:
            raise ValueError(kind)
        for pattern in patterns:
            index.setdefault(pattern, {})[v] = c
    return index


# -- edit distance, textbook form ----------------------------------------------


def table_edit_distance(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Levenshtein distance read from the full (len(a)+1) x (len(b)+1) table.

    ``d[i][j]`` is the distance between the first i events of ``a`` and the
    first j events of ``b``; insertions, deletions and substitutions cost 1.
    """
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            substitution = d[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else 1)
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, substitution)
    return d[len(a)][len(b)]


def table_distance_matrix(rows, cols) -> np.ndarray:
    """Normalized distances from ``table_edit_distance``, one pair at a time."""
    return np.array(
        [[table_edit_distance(a, b) / max(len(a), len(b)) for b in cols] for a in rows],
        dtype=np.float64,
    ).reshape(len(rows), len(cols))


# -- Eq-style disclosure transcriptions ---------------------------------------


def _projection_entropy_ratio(proj: dict) -> float:
    card = sum(proj.values())
    if card == 1:
        return 0.0
    ent = -sum((c / card) * math.log2(c / card) for c in proj.values())
    max_ent = math.log2(card)
    return ent / max_ent


def naive_case_disclosure(log: EventLog, kind: str, size: int) -> float:
    index = naive_candidate_index(log, kind, size)
    if not index:
        raise ValueError("no candidates")
    return sum(1.0 / sum(proj.values()) for proj in index.values()) / len(index)


def naive_trace_disclosure(log: EventLog, kind: str, size: int) -> float:
    index = naive_candidate_index(log, kind, size)
    if not index:
        raise ValueError("no candidates")
    return 1.0 - sum(_projection_entropy_ratio(p) for p in index.values()) / len(index)


# -- exact transport oracle ----------------------------------------------------


def frequencies(counts) -> list[float]:
    """Counts over their sum: one side's mass per variant."""
    total = sum(counts)
    return [c / total for c in counts]


def lp_min_cost(supply_counts, demand_counts, cost) -> float:
    """Minimal transport cost between two count vectors' frequencies via a
    generic LP solver (HiGHS)."""
    supply, demand = frequencies(supply_counts), frequencies(demand_counts)
    cost = np.asarray(cost, dtype=np.float64)
    m, n = cost.shape
    # Row i of the constraints sums flow variable i*n + j over j; row m + j
    # sums it over i.
    arcs = np.arange(m * n)
    a_eq = sparse.csr_matrix(
        (np.ones(2 * m * n), (np.concatenate([arcs // n, m + arcs % n]), np.tile(arcs, 2))),
        shape=(m + n, m * n),
    )
    b_eq = np.concatenate([supply, demand]).astype(np.float64)
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def nearest_merge_objective(original: EventLog, anonymized: EventLog) -> float:
    """Each original trace's distance to its closest anonymized variant,
    averaged over the traces.

    No plan moves a trace for less, so this is a lower bound on the EMD; it is
    the EMD exactly when sending every trace to a closest variant meets the
    anonymized counts, as merge-nearest anonymization arranges.
    """
    rows = [original.variant_labels(v) for v in original.variants]
    cols = [anonymized.variant_labels(v) for v in anonymized.variants]
    d = table_distance_matrix(rows, cols)
    return sum(c * min(d[i]) for i, c in enumerate(original.counts)) / original.total_traces


def greedy_feasible_objective(supply_counts, demand_counts, cost) -> float:
    """Cost of the northwest-corner feasible plan between two count vectors'
    frequencies; an upper bound on optimal."""
    cost = np.asarray(cost, dtype=np.float64)
    s = frequencies(supply_counts)
    d = frequencies(demand_counts)
    i = j = 0
    total = 0.0
    while i < len(s) and j < len(d):
        q = min(s[i], d[j])
        total += q * cost[i, j]
        s[i] -= q
        d[j] -= q
        if s[i] == 0 and i < len(s) - 1:
            i += 1
        elif j < len(d) - 1:
            j += 1
        else:
            i += 1
    return total


# -- random instances ----------------------------------------------------------


def random_log(
    rng: random.Random,
    max_variants: int = 6,
    max_alphabet: int = 5,
    max_len: int = 6,
    max_count: int = 9,
    min_len: int = 1,
    min_alphabet: int = 1,
) -> EventLog:
    labels = [chr(ord("a") + i) for i in range(rng.randint(min_alphabet, max_alphabet))]
    traces = {}
    for _ in range(rng.randint(1, max_variants)):
        length = rng.randint(min_len, max_len)
        trace = tuple(rng.choice(labels) for _ in range(length))
        traces[trace] = rng.randint(1, max_count)
    return EventLog.from_counts(traces)


def random_balanced_problem(rng: random.Random, max_side: int = 10):
    """Integer supply and demand counts with equal totals, plus a cost matrix."""
    m = rng.randint(1, max_side)
    n = rng.randint(1, max_side)
    supply_counts = [rng.randint(1, 20) for _ in range(m)]
    if sum(supply_counts) < n:
        supply_counts[0] += n - sum(supply_counts)
    total = sum(supply_counts)
    cuts = sorted(rng.sample(range(1, total), n - 1)) if n > 1 else []
    demand_counts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    cost = [[round(rng.random(), 6) for _ in range(n)] for _ in range(m)]
    return supply_counts, demand_counts, cost


def markov_log_pair(seed: int, n_traces: int, n_activities: int = 16) -> tuple[EventLog, EventLog]:
    """Two independent samples of ``n_traces`` traces of one seeded Markov chain.

    Each activity moves on to one of four successors with fixed random
    weights, and a trace ends after each event with probability 0.06.  Like
    real process logs, most traces are distinct variants of mixed length with
    loops, and the normalized edit distances between them take only a few
    hundred distinct values, so the transport problem between the two
    samples is heavily degenerate.
    """
    rng = random.Random(seed)
    labels = [f"act{i:02d}" for i in range(n_activities)]
    chain = {a: (rng.sample(labels, 4), [rng.random() for _ in range(4)]) for a in labels}

    def walk() -> list[str]:
        trace = [labels[0]]
        while rng.random() > 0.06:
            successors, weights = chain[trace[-1]]
            trace.append(rng.choices(successors, weights)[0])
        return trace

    return tuple(EventLog.from_traces(walk() for _ in range(n_traces)) for _ in range(2))
