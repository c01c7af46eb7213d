from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logprivacy.risk
from logprivacy import (
    Aggregation,
    BkType,
    CandidateIndex,
    EventLog,
    case_disclosure,
    enumerate_candidates,
    risk_profile,
    trace_disclosure,
)
from oracles import markov_log_pair, naive_case_disclosure, naive_trace_disclosure, random_log
from test_background import each_reduction

KINDS = {"set": BkType.SET, "mult": BkType.MULTISET, "seq": BkType.SEQUENCE}


class TestGoldenValues:
    def test_case_disclosure_is_quarter_for_both_logs(self, example2_l1, example2_l2):
        for log in (example2_l1, example2_l2):
            index = enumerate_candidates(log, BkType.SET, 1)
            assert case_disclosure(index) == 0.25

    def test_trace_disclosure_separates_the_logs(self, example2_l1, example2_l2):
        i1 = enumerate_candidates(example2_l1, BkType.SET, 1)
        i2 = enumerate_candidates(example2_l2, BkType.SET, 1)
        assert trace_disclosure(i1) == 0.0
        assert trace_disclosure(i2) == 1.0


class TestAggregations:
    def test_worst_case_uniqueness_reaches_one(self):
        # Pairwise non-matching traces at l=2: {a,b} identifies the first trace.
        log = EventLog.from_traces([("a", "b"), ("b", "c"), ("c", "a")])
        index = enumerate_candidates(log, BkType.SET, 2)
        assert case_disclosure(index, Aggregation.WORST) == 1.0

    def test_worst_dominates_average(self):
        rng = random.Random(5)
        for _ in range(30):
            log = random_log(rng)
            for kind in BkType:
                for size in (1, 2):
                    index = enumerate_candidates(log, kind, size)
                    if index.candidate_count == 0:
                        continue
                    # max >= mean, up to float-summation dust in the mean
                    assert case_disclosure(index, Aggregation.WORST) >= case_disclosure(index) - 1e-12
                    assert trace_disclosure(index, Aggregation.WORST) >= trace_disclosure(index) - 1e-12

    def test_worst_trace_disclosure_uses_minimal_entropy(self):
        # {a} matches two copies of one variant (zero entropy); {c} matches a
        # uniform pair (maximal entropy), so worst picks the determined one.
        log = EventLog.from_counts({("a", "b"): 2, ("c", "d"): 1, ("c", "e"): 1})
        index = enumerate_candidates(log, BkType.SET, 1)
        assert trace_disclosure(index, Aggregation.WORST) == 1.0
        assert trace_disclosure(index, Aggregation.AVERAGE) == pytest.approx(1 - 1 / 5)


class TestDegenerateLogs:
    def test_single_variant_log_everywhere(self):
        log = EventLog.from_counts({("a", "b", "a"): 7})
        for kind in BkType:
            for size in (1, 2, 3):
                index = enumerate_candidates(log, kind, size)
                if index.candidate_count == 0:
                    continue
                for agg in Aggregation:
                    assert case_disclosure(index, agg) == pytest.approx(1 / 7)
                    assert trace_disclosure(index, agg) == 1.0

    def test_all_singleton_projections_give_full_disclosure(self):
        log = EventLog.from_traces([("a", "b"), ("c", "d")])
        index = enumerate_candidates(log, BkType.SET, 2)
        assert all(card == 1 for card in index.cardinalities())
        assert trace_disclosure(index) == 1.0
        assert case_disclosure(index, Aggregation.WORST) == 1.0

    def test_uniform_multi_variant_projections_give_zero_td(self):
        log = EventLog.from_traces([("a", "b"), ("a", "c")])
        index = enumerate_candidates(log, BkType.SET, 1)
        # {a} matches both variants uniformly (ratio 1); {b}, {c} are singletons.
        assert trace_disclosure(index) == pytest.approx(1 - (1.0 + 0.0 + 0.0) / 3)

    def test_empty_index_is_a_domain_error(self, example1_log):
        empty = enumerate_candidates(example1_log, BkType.SEQUENCE, 9)
        with pytest.raises(ValueError, match="no candidates"):
            case_disclosure(empty)
        with pytest.raises(ValueError, match="no candidates"):
            trace_disclosure(empty)


class TestOracleEquivalence:
    @pytest.mark.parametrize("kind", ["set", "mult", "seq"])
    def test_direct_formula_transcription(self, kind):
        rng = random.Random(31)
        checked = 0
        for _ in range(40):
            log = random_log(rng)
            for size in (1, 2, 3):
                index = enumerate_candidates(log, KINDS[kind], size)
                if index.candidate_count == 0:
                    continue
                assert case_disclosure(index) == pytest.approx(
                    naive_case_disclosure(log, kind, size), abs=1e-9
                )
                assert trace_disclosure(index) == pytest.approx(
                    naive_trace_disclosure(log, kind, size), abs=1e-9
                )
                checked += 1
        assert checked > 50


class TestRiskProfile:
    def test_grid_shape(self, example1_log):
        profile = risk_profile(example1_log, [BkType.SET], [1, 2])
        assert set(profile.scores) == {(BkType.SET, 1), (BkType.SET, 2)}
        assert not profile.skipped and not profile.failures

    def test_oversized_cells_are_recorded_absent(self, example1_log):
        profile = risk_profile(example1_log, [BkType.SEQUENCE], [1, 9])
        assert (BkType.SEQUENCE, 1) in profile.scores
        assert profile.skipped[(BkType.SEQUENCE, 9)] == "no candidates at this size"

    def test_cap_failures_do_not_abort_other_cells(self, example1_log):
        profile = risk_profile(example1_log, [BkType.SET], [1, 2], cap=5)
        assert (BkType.SET, 1) in profile.scores  # 4 candidates fit the cap
        assert (BkType.SET, 2) in profile.failures  # 6 candidates do not
        assert "cap" in profile.failures[(BkType.SET, 2)]

    def test_empty_sizes_rejected(self, example1_log):
        with pytest.raises(ValueError):
            risk_profile(example1_log, [BkType.SET], [])
        with pytest.raises(ValueError):
            risk_profile(example1_log, [BkType.SET], [0])
        with pytest.raises(ValueError, match="type"):
            risk_profile(example1_log, [], [1])

    def test_non_integer_sizes_rejected_before_any_pass(self, example1_log, monkeypatch):
        # A size of 2.5 was once enumerated as size 2 and then filed under no
        # cell, so the profile did not partition the grid.
        def refuse(*args, **kwargs):
            raise AssertionError("risk_profile ran a pass")

        with monkeypatch.context() as m:
            m.setattr(logprivacy.risk, "enumerate_candidates", refuse)
            for sizes in ([2.5, 1], [1, 2.0], ["1"]):
                with pytest.raises(ValueError, match="integers"):
                    risk_profile(example1_log, [BkType.SEQUENCE, BkType.SET], sizes)
        profile = risk_profile(example1_log, [BkType.SET], [np.int64(2)])
        assert set(profile.scores) == {(BkType.SET, 2)}

    def test_types_that_are_not_bk_types_rejected_before_any_pass(self, monkeypatch):
        # ["seq"] was once scored as sets under the key ("seq", 2).
        log = EventLog.from_counts({("a", "b", "a"): 2, ("b", "a"): 1})

        def refuse(*args, **kwargs):
            raise AssertionError("risk_profile ran a pass")

        with monkeypatch.context() as m:
            m.setattr(logprivacy.risk, "enumerate_candidates", refuse)
            for types in (["seq"], [BkType.SET, "seq"], [BkType.SEQUENCE, None]):
                with pytest.raises(ValueError, match="type"):
                    risk_profile(log, types, [2])
        scores = risk_profile(log, [BkType.SEQUENCE], [2]).scores
        assert scores[(BkType.SEQUENCE, 2)].n_candidates == 3

    def test_grid_order_follows_the_sizes_as_given(self):
        # Size 3: four sequences, no set.  Size 1: two of each.
        log = EventLog.from_counts({("a", "b", "a", "b"): 2, ("b", "a"): 1})
        seq, set_ = BkType.SEQUENCE, BkType.SET
        profile = risk_profile(log, [seq, set_], [3, 1])
        assert list(profile.scores) == [(seq, 3), (seq, 1), (set_, 1)]
        assert list(profile.skipped) == [(set_, 3)]
        assert profile.scores == risk_profile(log, [seq, set_], [1, 3]).scores
        assert list(risk_profile(log, [seq, set_], [3, 1, 3]).scores) == list(profile.scores)
        capped = risk_profile(log, [seq, set_], [3, 1], cap=1)
        assert list(capped.failures) == [(seq, 3), (seq, 1), (set_, 1)]
        assert list(capped.skipped) == [(set_, 3)]

    def test_scores_carry_grid_metadata(self, example1_log):
        profile = risk_profile(
            example1_log, [BkType.MULTISET], [2], aggregation=Aggregation.WORST
        )
        score = profile.scores[(BkType.MULTISET, 2)]
        assert score.bk_type is BkType.MULTISET
        assert score.size == 2
        assert score.aggregation is Aggregation.WORST
        assert score.n_candidates > 0


class TestFoldedProfile:
    """``risk_profile`` folds each first activity's part as the pass closes it."""

    def test_profile_equals_the_measures_of_library_indices(
        self, example1_log, example2_l1, example2_l2, example3_original
    ):
        # Markov logs have repeated variants and many first activities.
        logs = [example1_log, example2_l1, example2_l2, example3_original,
                markov_log_pair(3, 200, 6)[0], markov_log_pair(5, 300, 4)[0]]
        sizes = [1, 2, 3, 4, 5]
        for log in logs:
            for aggregation in Aggregation:
                profile = risk_profile(log, list(BkType), sizes, aggregation)
                for bk_type in BkType:
                    for size, index in enumerate_candidates(log, bk_type, sizes).items():
                        if index.candidate_count == 0:
                            assert (bk_type, size) in profile.skipped
                            continue
                        score = profile.scores[(bk_type, size)]
                        assert score.n_candidates == index.candidate_count
                        assert score.cd == case_disclosure(index, aggregation)
                        assert score.td == trace_disclosure(index, aggregation)

    def test_a_size_over_the_cap_mid_pass_leaves_the_others_scored(self):
        # seq has 216 candidates at size 3 under each of the six first
        # activities: size 4 passes the cap at the third, size 5 at the first.
        log = markov_log_pair(3, 200, 6)[0]
        seq = BkType.SEQUENCE
        capped = risk_profile(log, [seq], [1, 2, 3, 4, 5], cap=600)
        assert capped.failures == {
            (seq, 4): "candidate enumeration for type='seq' size=4 reached 648 candidates, "
                      "exceeding the cap of 600",
            (seq, 5): "candidate enumeration for type='seq' size=5 reached 1296 candidates, "
                      "exceeding the cap of 600",
        }
        assert capped.scores == risk_profile(log, [seq], [1, 2, 3]).scores

    def test_the_risk_path_builds_no_index(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("risk_profile built a CandidateIndex")

        monkeypatch.setattr(CandidateIndex, "__init__", refuse)
        profile = risk_profile(markov_log_pair(3, 200, 6)[0], list(BkType), [1, 2, 3, 4])
        assert len(profile.scores) == 12

    def test_a_repeated_type_is_enumerated_once(self, example1_log, monkeypatch):
        passes = []

        def counted(log, bk_type, *args, **kwargs):
            passes.append(bk_type)
            return enumerate_candidates(log, bk_type, *args, **kwargs)

        monkeypatch.setattr(logprivacy.risk, "enumerate_candidates", counted)
        set_, seq = BkType.SET, BkType.SEQUENCE
        profile = risk_profile(example1_log, [set_, seq, set_], [1, 2])
        assert passes == [set_, seq]
        assert list(profile.scores) == [(set_, 1), (set_, 2), (seq, 1), (seq, 2)]


def wide_log(seed: int) -> EventLog:
    """Traces over about 1,300 activities: 11-bit codes, so a size-6 key takes two words.

    Each of 330 pools of four activities makes one or two variants, so
    activities repeat within a trace and candidates are shared.
    """
    rng = random.Random(seed)
    traces = {}
    for j in range(480):
        pool = [f"act{4 * (j % 330) + i:04d}" for i in range(4)]
        traces[tuple(rng.choice(pool) for _ in range(rng.randint(3, 9)))] = rng.randint(1, 4)
    log = EventLog.from_counts(traces)
    assert 6 * (len(log.labels) - 1).bit_length() > 63
    return log


class TestSetFromMult:
    """A grid asking for sets and multisets scores its set cells from the multiset pass."""

    def passes(self, monkeypatch) -> list:
        made = []

        def counted(log, bk_type, sizes, *args, **kwargs):
            made.append((bk_type, list(sizes)))
            return enumerate_candidates(log, bk_type, sizes, *args, **kwargs)

        monkeypatch.setattr(logprivacy.risk, "enumerate_candidates", counted)
        return made

    def assert_set_cells_agree(self, both, alone):
        set_ = BkType.SET
        assert {c: m for c, m in both.skipped.items() if c[0] is set_} == alone.skipped
        assert {c: m for c, m in both.failures.items() if c[0] is set_} == alone.failures
        scored = {c: s for c, s in both.scores.items() if c[0] is set_}
        assert list(scored) == list(alone.scores)
        for cell, score in alone.scores.items():
            got = scored[cell]
            assert (got.n_candidates, got.cd) == (score.n_candidates, score.cd)
            # Entropy sums may be added in another order: 4 ulps.
            assert abs(got.td - score.td) <= 4 * math.ulp(max(got.td, score.td))

    def assert_mult_pass_scores_sets(self, monkeypatch, log, aggregation):
        sizes = [1, 2, 3, 4, 5, 6]
        set_, mult = BkType.SET, BkType.MULTISET
        made = self.passes(monkeypatch)
        both = risk_profile(log, [set_, mult], sizes, aggregation)
        assert made == [(mult, sizes)]
        monkeypatch.undo()
        self.assert_set_cells_agree(both, risk_profile(log, [set_], sizes, aggregation))
        alone = risk_profile(log, [mult], sizes, aggregation)
        assert {c: s for c, s in both.scores.items() if c[0] is mult} == alone.scores

    def test_set_cells_equal_a_set_pass(
        self, monkeypatch, example1_log, example2_l1, example2_l2, example3_original
    ):
        rng = random.Random(41)
        logs = [example1_log, example2_l1, example2_l2, example3_original,
                markov_log_pair(3, 200, 6)[0], markov_log_pair(5, 300, 4)[0],
                *(random_log(rng, max_len=9) for _ in range(12))]
        for patch in each_reduction(monkeypatch):
            for log in logs:
                # Both aggregations read the same sums.
                for aggregation in Aggregation if not patch else [Aggregation.AVERAGE]:
                    self.assert_mult_pass_scores_sets(monkeypatch, log, aggregation)
        # Two-word keys are always sorted.
        self.assert_mult_pass_scores_sets(monkeypatch, wide_log(1), Aggregation.AVERAGE)

    def test_grid_order_holds_whatever_pass_scored_a_cell(self, example1_log):
        seq, set_, mult = BkType.SEQUENCE, BkType.SET, BkType.MULTISET
        profile = risk_profile(example1_log, [mult, seq, set_, mult], [2, 1, 9])
        assert list(profile.scores) == [(t, s) for t in (mult, seq, set_) for s in (2, 1)]
        assert list(profile.skipped) == [(mult, 9), (seq, 9), (set_, 9)]

    def test_a_size_over_the_cap_for_multisets_gets_a_set_pass(self, monkeypatch):
        # Sizes 1-6 have 6, 15, 20, 15, 6 and 1 set candidates, and 6, 21,
        # 56, 126, 252 and 462 multiset ones.
        log = markov_log_pair(3, 200, 6)[0]
        sizes = [1, 2, 3, 4, 5, 6]
        set_, mult = BkType.SET, BkType.MULTISET
        made = self.passes(monkeypatch)
        both = risk_profile(log, [set_, mult], sizes, cap=18)
        assert made == [(mult, sizes), (set_, [2, 3, 4, 5, 6])]
        monkeypatch.undo()
        assert list(both.failures) == [(set_, 3), *((mult, size) for size in sizes[1:])]
        self.assert_set_cells_agree(both, risk_profile(log, [set_], sizes, cap=18))

    def test_fold_is_called_once_per_distinct_size_ascending(self, example1_log):
        made = []

        def fold():
            consumer = CandidateIndex(example1_log.labels, BkType.MULTISET, 0, 2)
            made.append(consumer)
            return consumer

        found = enumerate_candidates(example1_log, BkType.MULTISET, [3, 1, 4, 3, 2], fold=fold)
        assert list(found) == [1, 2, 3, 4]
        assert list(found.values()) == made
        # Each consumer got its own size's candidates.
        for size, consumer in found.items():
            alone = enumerate_candidates(example1_log, BkType.MULTISET, size)
            assert [k.tolist() for k, _, _ in consumer.parts()] == [
                k.tolist() for k, _, _ in alone.parts()]


@pytest.mark.skipif(
    __import__("realdata").BPIC_PATH is None,
    reason="BPIC-2017-APP log not present under data/",
)
def test_low_uniqueness_log_has_low_cd_but_high_td():
    from realdata import BPIC_PATH, load_real_log

    log = load_real_log(BPIC_PATH)
    profile = risk_profile(log, [BkType.SET], range(1, 7))
    for score in profile.scores.values():
        assert score.cd < 0.1
        assert score.td > 0.5


traces_strategy = st.lists(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=5).map(tuple),
    min_size=1,
    max_size=6,
)


@given(traces_strategy, st.sampled_from(list(BkType)), st.integers(min_value=1, max_value=3))
@settings(max_examples=120, deadline=None)
def test_scores_stay_in_unit_interval(traces, bk_type, size):
    log = EventLog.from_traces(traces)
    index = enumerate_candidates(log, bk_type, size)
    if index.candidate_count == 0:
        return
    for agg in Aggregation:
        assert 0.0 <= case_disclosure(index, agg) <= 1.0
        assert 0.0 <= trace_disclosure(index, agg) <= 1.0
