from __future__ import annotations

import io
import random

import numpy as np
import pytest

from logprivacy import (
    AnonymizationConfig,
    EventLog,
    InputError,
    SolverError,
    Strategy,
    build_problem,
    data_utility,
    k_anonymize,
    solve,
    write_plan_csv,
)
from logprivacy import utility
from logprivacy.utility import TransportPlan, TransportProblem, utility_report
from oracles import (
    frequencies,
    greedy_feasible_objective,
    lp_min_cost,
    markov_log_pair,
    nearest_merge_objective,
    random_log,
    table_edit_distance,
)

# The network simplex alone, without the nearest-sink plan that ``solve``
# tries first.
simplex = utility._simplex
SOLVERS = (solve, simplex)


def count_problem(supply_counts, demand_counts, cost) -> TransportProblem:
    m, n = len(supply_counts), len(demand_counts)
    return TransportProblem(
        source_variants=tuple((f"s{i}",) for i in range(m)),
        source_counts=tuple(supply_counts),
        sink_variants=tuple((f"t{j}",) for j in range(n)),
        sink_counts=tuple(demand_counts),
        cost=np.asarray(cost, dtype=np.float64),
    )


class TestBuildProblem:
    def test_example_shapes_and_costs(self, example3_original, example3_anonymized):
        problem = build_problem(example3_original, example3_anonymized)
        assert len(problem.source_variants) == 4
        assert len(problem.sink_variants) == 2
        by_variant = {
            (problem.source_variants[i], problem.sink_variants[j]): problem.cost[i, j]
            for i in range(4)
            for j in range(2)
        }
        abcd, acbd = ("a", "b", "c", "d"), ("a", "c", "b", "d")
        aecd, aebd = ("a", "e", "c", "d"), ("a", "e", "b", "d")
        assert by_variant[(abcd, abcd)] == 0.0
        assert by_variant[(acbd, acbd)] == 0.0
        assert by_variant[(abcd, acbd)] == 0.5
        assert by_variant[(aecd, abcd)] == 0.25
        assert by_variant[(aecd, acbd)] == 0.5
        assert by_variant[(aebd, acbd)] == 0.25
        assert by_variant[(aebd, abcd)] == 0.5

    def test_counts_are_the_logs_trace_counts(self, example3_original, example3_anonymized):
        problem = build_problem(example3_original, example3_anonymized)
        assert sorted(problem.source_counts) == [1, 1, 49, 49]
        assert problem.sink_counts == (50, 50)

    def test_self_problem_has_zero_diagonal(self, example1_log):
        problem = build_problem(example1_log, example1_log)
        assert problem.cost.shape == (4, 4)
        assert np.array_equal(np.diag(problem.cost), np.zeros(4))

    def test_disjoint_alphabets(self):
        a = EventLog.from_counts({("a",): 1})
        b = EventLog.from_counts({("b",): 1})
        problem = build_problem(a, b)
        assert problem.cost.tolist() == [[1.0]]

    def test_rejects_a_misshapen_cost_or_no_source(self):
        with pytest.raises(ValueError, match=r"shape \(1, 2\) != \(2, 1\)"):
            TransportProblem([(0,), (1,)], [1, 1], [(0,)], [2], np.zeros((1, 2)))
        with pytest.raises(ValueError, match="at least one source"):
            TransportProblem([], [], [(0,)], [2], np.zeros((0, 1)))


class TestSolve:
    def test_example_objective(self, example3_original, example3_anonymized):
        problem = build_problem(example3_original, example3_anonymized)
        oracle = lp_min_cost(problem.source_counts, problem.sink_counts, problem.cost)
        for solver in SOLVERS:
            plan = solver(problem)
            assert plan.objective == pytest.approx(oracle, abs=1e-9)
            assert plan.objective == pytest.approx(0.245, abs=1e-12)

    def test_identity_logs_have_zero_objective(self, example1_log):
        for solver in SOLVERS:
            plan = solver(build_problem(example1_log, example1_log))
            assert plan.objective == 0.0
            positive = {k: v for k, v in plan.flows.items() if v > 0}
            assert all(i == j for i, j in positive)

    def test_plan_is_basic_and_conservative(self):
        rng = random.Random(99)
        for _ in range(50):
            original = random_log(rng, max_variants=8)
            anonymized = random_log(rng, max_variants=8)
            problem = build_problem(original, anonymized)
            supply = frequencies(problem.source_counts)
            demand = frequencies(problem.sink_counts)
            m, n = problem.cost.shape
            for solver in SOLVERS:
                plan = solver(problem)
                assert len(plan.flows) <= m + n - 1
                assert all(f > 0 for f in plan.flows.values())
                row = [0.0] * m
                col = [0.0] * n
                for (i, j), f in plan.flows.items():
                    row[i] += f
                    col[j] += f
                assert all(abs(row[i] - supply[i]) <= 1e-9 for i in range(m))
                assert all(abs(col[j] - demand[j]) <= 1e-9 for j in range(n))
                # objective equals its own recomputation from flows and costs
                recomputed = sum(f * problem.cost[i, j] for (i, j), f in plan.flows.items())
                assert plan.objective == pytest.approx(recomputed, abs=1e-12)

    def test_matches_generic_lp_on_random_problems(self):
        rng = random.Random(4242)
        from oracles import random_balanced_problem

        for _ in range(60):
            problem = count_problem(*random_balanced_problem(rng))
            oracle = lp_min_cost(problem.source_counts, problem.sink_counts, problem.cost)
            for solver in SOLVERS:
                assert solver(problem).objective == pytest.approx(oracle, abs=1e-6)

    def test_never_beats_feasible_greedy_plan(self):
        rng = random.Random(17)
        from oracles import random_balanced_problem

        for _ in range(40):
            problem = count_problem(*random_balanced_problem(rng, max_side=7))
            bound = greedy_feasible_objective(
                problem.source_counts, problem.sink_counts, problem.cost
            )
            for solver in SOLVERS:
                assert solver(problem).objective <= bound + 1e-9

    def test_nonpositive_mass_is_an_input_error(self):
        cost = [[0.1, 0.2], [0.3, 0.4]]
        for bad in (0, -1, 0.5):
            with pytest.raises(InputError, match="positive"):
                count_problem([bad, 2], [1, 1], cost)
            with pytest.raises(InputError, match="positive"):
                count_problem([1, 1], [2, bad], cost)
        with pytest.raises(ValueError, match="count vectors"):
            TransportProblem(
                source_variants=(("a",), ("b",)),
                source_counts=(1, 1, 1),
                sink_variants=(("a",), ("b",)),
                sink_counts=(1, 1),
                cost=np.asarray(cost),
            )

    def test_cost_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="cost"):
            count_problem([1], [1], [[1.5]])


class TestSolverStress:
    def test_hundred_by_hundred_matches_oracle(self):
        rng = random.Random(5150)
        m = n = 100
        supply_counts = [rng.randint(1, 50) for _ in range(m)]
        total = sum(supply_counts)
        cuts = sorted(rng.sample(range(1, total), n - 1))
        demand_counts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        cost = [[round(rng.random(), 4) for _ in range(n)] for _ in range(m)]
        problem = count_problem(supply_counts, demand_counts, cost)
        plan = simplex(problem)
        oracle = lp_min_cost(problem.source_counts, problem.sink_counts, cost)
        assert plan.objective == pytest.approx(oracle, abs=1e-9)

    def test_degenerate_equal_masses_terminate_and_match(self):
        # every pivot candidate ties, so most pivots are degenerate
        m = n = 40
        cost = [[(abs(i - j) % 5) / 5.0 for j in range(n)] for i in range(m)]
        problem = count_problem([1] * m, [1] * n, cost)
        plan = simplex(problem)
        oracle = lp_min_cost(problem.source_counts, problem.sink_counts, cost)
        assert plan.objective == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize(
        "seed,n_traces",
        [(0, 110), (0, 130), (0, 150), (0, 170), (1, 130), (1, 170), (0, 400), (0, 800)],
    )
    def test_markov_log_pairs_match_oracle(self, seed, n_traces):
        # Real-log-shaped pairs: mostly distinct variants, costs with few
        # distinct values.  The 800-trace pair is about 680x660.
        original, anonymized = markov_log_pair(seed, n_traces)
        problem = build_problem(original, anonymized)
        plan = simplex(problem)
        oracle = lp_min_cost(problem.source_counts, problem.sink_counts, problem.cost)
        assert plan.objective == pytest.approx(oracle, abs=1e-9)
        # HiGHS is fed the same cost matrix, so check its entries separately:
        # every entry in the rows of the three longest source traces that
        # exceed 64 events, and a seeded sample of the rest.
        rows, cols = problem.source_variants, problem.sink_variants
        longest = sorted(range(len(rows)), key=lambda i: -len(rows[i]))[:3]
        longest = [i for i in longest if len(rows[i]) > 64]
        assert longest
        rng = random.Random(seed * 1000 + n_traces)
        entries = [(i, j) for i in longest for j in range(len(cols))]
        entries += [(rng.randrange(len(rows)), rng.randrange(len(cols))) for _ in range(300)]
        for i, j in entries:
            a, b = rows[i], cols[j]
            assert problem.cost[i, j] == table_edit_distance(a, b) / max(len(a), len(b))

    @pytest.mark.parametrize("m,n", [(12, 12), (5, 20), (1, 1), (1, 40), (40, 1), (300, 1)])
    def test_block_rule_extremes_match_oracle(self, m, n):
        # 12x12 and 5x20 fit one pricing block, as do 1xn problems; mx1
        # problems take about 12*sqrt(m) rows a block, so 300x1 ends on a
        # partial block.  Repeated counts and five cost values tie heavily.
        rng = random.Random(m * 1000 + n)
        supply_counts = [rng.choice((1, 1, 2, 3, 5)) for _ in range(m)]
        demand_counts = [rng.choice((1, 2, 2, 4)) for _ in range(n)]
        cost = [[rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)) for _ in range(n)] for _ in range(m)]
        problem = count_problem(supply_counts, demand_counts, cost)
        oracle = lp_min_cost(problem.source_counts, problem.sink_counts, cost)
        assert simplex(problem).objective == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("seed,n_traces", [(0, 120), (1, 120), (1, 150)])
    def test_thin_suppress_problems_match_oracle(self, seed, n_traces):
        # Suppression at k = 2 keeps 3-5 repeated variants of 100-140
        # distinct ones: a thin problem of many pricing rows per block.
        log = markov_log_pair(seed, n_traces)[0]
        anonymized = k_anonymize(log, AnonymizationConfig(2, Strategy.SUPPRESS))
        problem = build_problem(log, anonymized)
        assert 3 <= len(problem.sink_variants) <= 5
        assert utility._nearest_plan(problem) is None
        oracle = lp_min_cost(problem.source_counts, problem.sink_counts, problem.cost)
        assert simplex(problem).objective == pytest.approx(oracle, abs=1e-9)

    def test_solve_is_deterministic(self):
        cost = [[0.2, 0.8], [0.8, 0.2], [0.5, 0.5], [0.1, 0.9]]
        first = simplex(count_problem([1] * 4, [1, 1], cost))
        second = simplex(count_problem([1] * 4, [1, 1], cost))
        assert first.flows == second.flows
        assert first.objective == second.objective


class TestDataUtility:
    def test_example_values(self, example3_original, example3_anonymized):
        report = data_utility(example3_original, example3_anonymized)
        assert report.ul == pytest.approx(0.245, abs=1e-9)
        assert report.du == pytest.approx(0.755, abs=1e-9)
        # the rounded two-decimal reading; 0.245 sits exactly on the 5e-3
        # boundary, so allow float dust on top of it
        assert report.ul == pytest.approx(0.24, abs=5e-3 + 1e-12)
        assert report.du == pytest.approx(0.76, abs=5e-3 + 1e-12)
        assert report.du == 1.0 - report.ul

    def test_self_utility_is_exactly_one(self, example1_log, example2_l2):
        for log in (example1_log, example2_l2):
            report = data_utility(log, log)
            assert report.ul == 0.0
            assert report.du == 1.0

    def test_equal_logs_skip_the_cost_matrix(self, example1_log, monkeypatch):
        def no_matrix(*args):
            raise AssertionError("distance_matrix called for equal logs")

        monkeypatch.setattr(utility, "distance_matrix", no_matrix)
        twin = EventLog.from_counts(
            {example1_log.variant_labels(v): example1_log.count(v) for v in example1_log.variants}
        )
        report = data_utility(example1_log, twin)
        assert (report.ul, report.du, report.plan.objective) == (0.0, 1.0, 0.0)
        assert report.plan.flows == {(0, 0): 0.2, (1, 1): 0.3, (2, 2): 0.4, (3, 3): 0.1}
        # ids not assigned in label order: the plan pairs variants by label
        unsorted = EventLog([(0, 1), (1,)], [3, 1], ["b", "a"])
        sorted_ids = EventLog.from_counts({("b", "a"): 3, ("a",): 1})
        assert data_utility(unsorted, sorted_ids).plan.flows == {(0, 1): 0.75, (1, 0): 0.25}

    def test_float_dust_is_clamped_and_escapes_are_solver_faults(self):
        assert utility_report(TransportPlan({}, 1.0 + 1e-12)).du == 0.0
        assert utility_report(TransportPlan({}, -1e-12)).ul == 0.0
        with pytest.raises(SolverError, match="escaped"):
            utility_report(TransportPlan({}, 1.5))

    def test_symmetry_on_random_pairs(self):
        rng = random.Random(2024)
        for _ in range(30):
            a = random_log(rng)
            b = random_log(rng)
            assert data_utility(a, b).du == pytest.approx(data_utility(b, a).du, abs=1e-9)

    def test_bounds(self):
        rng = random.Random(321)
        for _ in range(30):
            a = random_log(rng)
            b = random_log(rng)
            report = data_utility(a, b)
            assert 0.0 <= report.ul <= 1.0
            assert 0.0 <= report.du <= 1.0


# Heavy variants with repeated counts; every other variant occurs once.
TIE_HEAD = (48, 48, 32, 32, 32, 24, 16, 16, 16, 8, 8, 8, 8, 4, 4, 4, 2, 2, 2, 2)


def tie_heavy_log(seed: int, n_variants: int = 300) -> EventLog:
    """Short traces over four activities, so many distances tie exactly."""
    rng = random.Random(seed)
    traces = set()
    while len(traces) < n_variants:
        traces.add(tuple(rng.choice("abcd") for _ in range(rng.randint(2, 8))))
    traces = sorted(traces)
    rng.shuffle(traces)
    counts = list(TIE_HEAD) + [1] * (n_variants - len(TIE_HEAD))
    return EventLog.from_counts(dict(zip(traces, counts)))


def first_tie_plan_fits(problem: TransportProblem) -> bool:
    """Whether sending each source to its first closest sink meets the sink counts."""
    into = [0] * len(problem.sink_counts)
    for j, c in zip(problem.cost.argmin(axis=1).tolist(), problem.source_counts):
        into[j] += c
    return into == list(problem.sink_counts)


class TestNearestPlan:
    def test_closed_form_is_an_oracle_for_the_simplex(self):
        first_tie_misses = 0
        for seed in (1, 2):
            log = tie_heavy_log(seed)
            for k in (2, 4, 8, 16, 32):
                anonymized = k_anonymize(log, AnonymizationConfig(k, Strategy.MERGE_NEAREST))
                problem = build_problem(log, anonymized)
                assert utility._nearest_plan(problem) is not None
                report = data_utility(log, anonymized)
                assert report.ul == pytest.approx(nearest_merge_objective(log, anonymized), abs=1e-12)
                assert report.ul == simplex(problem).objective
                first_tie_misses += not first_tie_plan_fits(problem)
        # the count tie-break decides some of these plans
        assert first_tie_misses > 0

    def test_suppress_pair_falls_back(self):
        log = tie_heavy_log(3, n_variants=60)
        anonymized = k_anonymize(log, AnonymizationConfig(4, Strategy.SUPPRESS))
        assert utility._nearest_plan(build_problem(log, anonymized)) is None

    def test_missed_sink_count_falls_back(self, monkeypatch):
        # ("b",) is 1 from both sinks and goes to ("a",), which then gets
        # all of the mass instead of three quarters; doubling the anonymized
        # log changes its total, not the miss.
        original = EventLog.from_counts({("a",): 2, ("b",): 2})
        solves = []
        monkeypatch.setattr(utility, "_simplex", lambda p: solves.append(p) or simplex(p))
        for scale in (1, 2):
            anonymized = EventLog.from_counts({("a",): 3 * scale, ("c",): scale})
            problem = build_problem(original, anonymized)
            assert utility._nearest_plan(problem) is None
            oracle = lp_min_cost(problem.source_counts, problem.sink_counts, problem.cost)
            assert data_utility(original, anonymized).ul == pytest.approx(oracle, abs=1e-12)
            assert oracle == pytest.approx(0.5, abs=1e-12)
            assert len(solves) == scale

    def test_proportional_logs_of_unequal_totals_need_no_simplex(self, monkeypatch):
        solves = []
        monkeypatch.setattr(utility, "_simplex", lambda p: solves.append(p) or simplex(p))
        report = data_utility(
            EventLog.from_counts({("a",): 2, ("b",): 2}), EventLog.from_counts({("a",): 1, ("b",): 1})
        )
        assert report.ul == 0.0
        assert report.plan.flows == {(0, 0): 0.5, (1, 1): 0.5}
        assert solves == []


class TestPlanExport:
    def test_csv_layout(self, example3_original, example3_anonymized):
        problem = build_problem(example3_original, example3_anonymized)
        plan = solve(problem)
        buf = io.StringIO()
        write_plan_csv(problem, plan, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "source,sink,mass,cost"
        assert len(lines) == len(plan.flows) + 1
        total_mass = sum(float(line.split(",")[2]) for line in lines[1:])
        assert total_mass == pytest.approx(1.0, abs=1e-9)
        assert any(line.startswith("a|e|c|d,a|b|c|d,") for line in lines[1:])
