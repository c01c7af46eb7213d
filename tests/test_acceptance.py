"""Acceptance gate: one test per release criterion.

Criteria over the public real-life logs run only when the files are present
under the data directory (``LOGPRIVACY_DATA_DIR`` or ``<repo>/data``; see the
README for how to fetch and prepare them); otherwise they skip with a reason.
The terminal summary prints one PASS/FAIL/SKIP line per criterion.
"""

from __future__ import annotations

import random
import time

import pytest

from logprivacy import (
    Aggregation,
    AnonymizationConfig,
    BkType,
    Candidate,
    EventLog,
    Strategy,
    build_problem,
    case_disclosure,
    data_utility,
    enumerate_candidates,
    k_anonymize,
    normalized_distance,
    project,
    risk_profile,
    solve,
    stats,
    trace_disclosure,
)
from oracles import (
    lp_min_cost,
    naive_candidate_index,
    random_balanced_problem,
    random_log,
)
from realdata import BPIC_PATH, DATA_DIR, SEPSIS_PATH, load_real_log

needs_sepsis = pytest.mark.skipif(
    SEPSIS_PATH is None,
    reason=f"Sepsis-Cases log not found under {DATA_DIR} (see README: fetching the public logs)",
)
needs_bpic = pytest.mark.skipif(
    BPIC_PATH is None,
    reason=f"BPIC-2017-APP log not found under {DATA_DIR} (see README: fetching the public logs)",
)


def ids_of(log: EventLog, word: str) -> tuple[int, ...]:
    return tuple(log.labels.index(ch) for ch in word)


@pytest.fixture
def example1_log() -> EventLog:
    return EventLog.from_counts(
        {("a", "b", "c", "d"): 10, ("a", "c", "b", "d"): 20, ("a", "d", "b", "d"): 5, ("a", "b", "d", "d"): 15}
    )


def test_c01_first_worked_example_golden(example1_log):
    started = time.perf_counter()
    log = example1_log

    index = enumerate_candidates(log, BkType.SET, 2)
    names = {"".join(log.labels[a] for a in c.elements) for c in index.candidates()}
    assert names == {"ab", "ac", "ad", "bc", "bd", "cd"}
    assert index.candidate_count == 6

    set_bd = project(log, Candidate(BkType.SET, ids_of(log, "bd")))
    assert set_bd.cardinality == 50
    assert len(set_bd.matches) == 4

    mult_bdd = project(log, Candidate(BkType.MULTISET, ids_of(log, "bdd")))
    assert {log.variant_labels(v): c for v, c in mult_bdd.matches.items()} == {
        ("a", "d", "b", "d"): 5,
        ("a", "b", "d", "d"): 15,
    }

    seq_bdd = project(log, Candidate(BkType.SEQUENCE, ids_of(log, "bdd")))
    assert {log.variant_labels(v): c for v, c in seq_bdd.matches.items()} == {
        ("a", "b", "d", "d"): 15
    }
    assert time.perf_counter() - started < 1.0


def test_c02_second_worked_example_golden():
    started = time.perf_counter()
    l1 = EventLog.from_traces(
        [("a", "b", "c", "d"), ("a", "c", "b", "d"), ("a", "b", "c", "c", "d"), ("a", "b", "b", "c", "d")]
    )
    l2 = EventLog.from_counts({("a", "b", "c", "d"): 4, ("e", "f"): 4, ("g", "h"): 4})
    i1 = enumerate_candidates(l1, BkType.SET, 1)
    i2 = enumerate_candidates(l2, BkType.SET, 1)
    assert case_disclosure(i1) == 0.25
    assert case_disclosure(i2) == 0.25
    assert trace_disclosure(i1) == 0.0
    assert trace_disclosure(i2) == 1.0
    assert time.perf_counter() - started < 1.0


def test_c03_third_worked_example_golden():
    started = time.perf_counter()
    original = EventLog.from_counts(
        {("a", "b", "c", "d"): 1, ("a", "c", "b", "d"): 1, ("a", "e", "c", "d"): 49, ("a", "e", "b", "d"): 49}
    )
    anonymized = EventLog.from_counts({("a", "b", "c", "d"): 50, ("a", "c", "b", "d"): 50})

    ids = {lab: i for i, lab in enumerate("abcde")}

    def enc(word):
        return tuple(ids[ch] for ch in word)

    # the six non-trivial reference distances plus the two zero diagonals
    assert normalized_distance(enc("abcd"), enc("abcd")) == 0.0
    assert normalized_distance(enc("acbd"), enc("acbd")) == 0.0
    assert normalized_distance(enc("abcd"), enc("acbd")) == 0.5
    assert normalized_distance(enc("aecd"), enc("abcd")) == 0.25
    assert normalized_distance(enc("aecd"), enc("acbd")) == 0.5
    assert normalized_distance(enc("aebd"), enc("abcd")) == 0.5
    assert normalized_distance(enc("aebd"), enc("acbd")) == 0.25

    problem = build_problem(original, anonymized)
    plan = solve(problem)
    oracle = lp_min_cost(problem.source_masses, problem.sink_masses, problem.cost)
    assert plan.objective == pytest.approx(oracle, abs=1e-9)

    report = data_utility(original, anonymized)
    assert report.ul == pytest.approx(0.245, abs=1e-9)
    assert report.du == pytest.approx(0.755, abs=1e-9)
    # 0.245/0.755 sit exactly on the 5e-3 rounding boundary of the printed
    # 0.24/0.76; allow float dust on top
    assert abs(report.ul - 0.24) <= 5e-3 + 1e-12
    assert abs(report.du - 0.76) <= 5e-3 + 1e-12
    assert time.perf_counter() - started < 1.0


@needs_sepsis
def test_c04a_sepsis_statistics_reproduce():
    s = stats(load_real_log(SEPSIS_PATH))
    assert (s.n_traces, s.n_variants, s.n_events, s.n_unique_activities) == (1050, 845, 15214, 16)
    assert s.trace_uniqueness == pytest.approx(845 / 1050, abs=1e-12)
    assert round(s.trace_uniqueness * 100) == 80


@needs_bpic
def test_c04b_bpic2017_app_statistics_reproduce():
    s = stats(load_real_log(BPIC_PATH))
    assert (s.n_traces, s.n_variants, s.n_events, s.n_unique_activities) == (31509, 102, 239595, 10)
    assert s.trace_uniqueness == pytest.approx(102 / 31509, abs=1e-12)
    assert round(s.trace_uniqueness * 1000) / 10 == 0.3


@needs_sepsis
def test_c05_sepsis_sequence_risk_spot_value_and_grid_budget():
    log = load_real_log(SEPSIS_PATH)
    index = enumerate_candidates(log, BkType.SEQUENCE, 3)
    assert case_disclosure(index) == pytest.approx(0.188, abs=0.005)

    started = time.perf_counter()
    profile = risk_profile(log, list(BkType), range(1, 7))
    elapsed = time.perf_counter() - started
    assert len(profile.scores) == 18
    assert not profile.failures
    assert elapsed < 600.0


@needs_sepsis
def test_c06_sepsis_projection_nesting_on_sampled_pairs():
    log = load_real_log(SEPSIS_PATH)
    rng = random.Random(193)
    passed = 0
    for _ in range(1000):
        variant = log.variants[rng.randrange(len(log.variants))]
        length = rng.randint(1, min(6, len(variant)))
        positions = sorted(rng.sample(range(len(variant)), length))
        subseq = tuple(variant[p] for p in positions)
        p_seq = project(log, Candidate(BkType.SEQUENCE, subseq))
        p_mult = project(log, Candidate(BkType.MULTISET, tuple(sorted(subseq))))
        p_set = project(log, Candidate(BkType.SET, tuple(sorted(set(subseq)))))
        for smaller, larger in ((p_seq, p_mult), (p_mult, p_set)):
            assert all(larger.matches.get(v, 0) >= c for v, c in smaller.matches.items())
        passed += 1
    assert passed == 1000


def test_c07_enumeration_equals_naive_oracle_on_200_random_logs():
    rng = random.Random(20_26)
    kinds = {"set": BkType.SET, "mult": BkType.MULTISET, "seq": BkType.SEQUENCE}
    for _ in range(200):
        log = random_log(rng, max_variants=6, max_alphabet=5, max_len=6)
        for kind_name, bk_type in kinds.items():
            for size in (1, 2, 3):
                index = enumerate_candidates(log, bk_type, size)
                items = ((c, project(log, c)) for c in index.candidates())
                got = {c.elements: dict(p.matches) for c, p in items}
                assert got == naive_candidate_index(log, kind_name, size)


def test_c08_solver_equals_lp_oracle_on_200_random_problems():
    from test_utility import count_problem

    rng = random.Random(88_88)
    for _ in range(200):
        problem = count_problem(*random_balanced_problem(rng, max_side=10))
        supply, demand, cost = problem.source_masses, problem.sink_masses, problem.cost
        plan = solve(problem)
        assert plan.objective == pytest.approx(lp_min_cost(supply, demand, cost), abs=1e-6)
        m, n = problem.cost.shape
        row = [0.0] * m
        col = [0.0] * n
        for (i, j), f in plan.flows.items():
            row[i] += f
            col[j] += f
        assert all(abs(row[i] - supply[i]) <= 1e-9 for i in range(m))
        assert all(abs(col[j] - demand[j]) <= 1e-9 for j in range(n))


def test_c09_property_suite():
    rng = random.Random(40_09)

    # measures stay in the unit interval
    for _ in range(40):
        log = random_log(rng)
        for bk_type in BkType:
            for size in (1, 2):
                index = enumerate_candidates(log, bk_type, size)
                if index.candidate_count == 0:
                    continue
                for agg in Aggregation:
                    assert 0.0 <= case_disclosure(index, agg) <= 1.0
                    assert 0.0 <= trace_disclosure(index, agg) <= 1.0

    # utility bounds, self-utility, symmetry
    for _ in range(25):
        a = random_log(rng)
        b = random_log(rng)
        report = data_utility(a, b)
        assert 0.0 <= report.ul <= 1.0
        assert 0.0 <= report.du <= 1.0
        assert data_utility(b, a).du == pytest.approx(report.du, abs=1e-9)
        assert data_utility(a, a).du == 1.0

    # k=1 anonymization is the identity
    for _ in range(10):
        log = random_log(rng)
        for strategy in Strategy:
            assert k_anonymize(log, AnonymizationConfig(k=1, strategy=strategy)) == log

    # all-singleton projections force td = 1
    log = EventLog.from_traces([("a", "b"), ("c", "d"), ("e", "f")])
    index = enumerate_candidates(log, BkType.SET, 2)
    assert all(card == 1 for card in index.cardinalities())
    assert trace_disclosure(index) == 1.0
    assert trace_disclosure(index, Aggregation.WORST) == 1.0


@needs_sepsis
def test_c10_sepsis_suppression_sweep_is_monotone():
    log = load_real_log(SEPSIS_PATH)
    du_values = []
    cd_values = []
    for k in (1, 20, 40, 60):
        anonymized = k_anonymize(log, AnonymizationConfig(k=k, strategy=Strategy.SUPPRESS))
        du_values.append(data_utility(log, anonymized).du)
        index = enumerate_candidates(anonymized, BkType.SET, 6)
        cd_values.append(case_disclosure(index))
    assert du_values[0] == 1.0
    assert all(a >= b - 1e-12 for a, b in zip(du_values, du_values[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(cd_values, cd_values[1:]))
