from __future__ import annotations

import io
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logprivacy import (
    BkType,
    Candidate,
    CandidateLimitError,
    EventLog,
    enumerate_candidates,
    matches,
    project,
)
from logprivacy import background as bg
from oracles import itertools_candidate_index, naive_candidate_index, random_log

KINDS = {"set": BkType.SET, "mult": BkType.MULTISET, "seq": BkType.SEQUENCE}


def ids_of(log: EventLog, word: str) -> tuple[int, ...]:
    return tuple(log.labels.index(ch) for ch in word)


class TestMatches:
    def test_set_subset(self, example1_log):
        cand = Candidate(BkType.SET, ids_of(example1_log, "bd"))
        assert matches(cand, ids_of(example1_log, "adbd"))
        assert matches(cand, ids_of(example1_log, "abcd"))

    def test_multiset_respects_multiplicity(self, example1_log):
        cand = Candidate(BkType.MULTISET, ids_of(example1_log, "bdd"))
        assert not matches(cand, ids_of(example1_log, "abcd"))
        assert matches(cand, ids_of(example1_log, "adbd"))

    def test_sequence_requires_order(self, example1_log):
        cand = Candidate(BkType.SEQUENCE, ids_of(example1_log, "bdd"))
        assert not matches(cand, ids_of(example1_log, "adbd"))
        assert matches(cand, ids_of(example1_log, "abdd"))

    def test_non_contiguous_subsequence(self):
        # <a,b,c,x> is a (gapped) subsequence of <z,x,a,b,b,c,a,b,c,x>.
        trace = (25, 23, 0, 1, 1, 2, 0, 1, 2, 23)
        assert matches(Candidate(BkType.SEQUENCE, (0, 1, 2, 23)), trace)

    def test_empty_candidate_matches_everything(self):
        for kind in BkType:
            assert matches(Candidate(kind, ()), (0, 1, 2))


class TestCandidateValidation:
    def test_set_elements_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Candidate(BkType.SET, (1, 1))
        with pytest.raises(ValueError):
            Candidate(BkType.SET, (2, 1))

    def test_multiset_elements_must_be_sorted(self):
        with pytest.raises(ValueError):
            Candidate(BkType.MULTISET, (2, 1))
        Candidate(BkType.MULTISET, (1, 1, 2))

    def test_sequence_keeps_raw_order(self):
        Candidate(BkType.SEQUENCE, (2, 1, 2))


class TestProject:
    def test_set_bd_covers_whole_example_log(self, example1_log):
        proj = project(example1_log, Candidate(BkType.SET, ids_of(example1_log, "bd")))
        assert proj.cardinality == 50
        assert len(proj.matches) == 4

    def test_multiset_bdd_projection(self, example1_log):
        proj = project(example1_log, Candidate(BkType.MULTISET, ids_of(example1_log, "bdd")))
        by_labels = {example1_log.variant_labels(v): c for v, c in proj.matches.items()}
        assert by_labels == {("a", "d", "b", "d"): 5, ("a", "b", "d", "d"): 15}
        assert proj.cardinality == 20

    def test_sequence_bdd_projection(self, example1_log):
        proj = project(example1_log, Candidate(BkType.SEQUENCE, ids_of(example1_log, "bdd")))
        by_labels = {example1_log.variant_labels(v): c for v, c in proj.matches.items()}
        assert by_labels == {("a", "b", "d", "d"): 15}

    def test_empty_set_candidate_covers_all(self, example1_log):
        proj = project(example1_log, Candidate(BkType.SET, ()))
        assert proj.cardinality == example1_log.total_traces
        assert len(proj.matches) == len(example1_log.variants)

    def test_unmatched_candidate_gives_empty_projection(self, example1_log):
        proj = project(example1_log, Candidate(BkType.SEQUENCE, (3, 3, 3, 3, 3, 3)))
        assert proj.cardinality == 0
        assert proj.matches == {}


class TestEnumerate:
    def test_example_set_pairs(self, example1_log):
        index = enumerate_candidates(example1_log, BkType.SET, 2)
        names = {
            "".join(example1_log.labels[a] for a in c.elements) for c in index.candidates()
        }
        assert names == {"ab", "ac", "ad", "bc", "bd", "cd"}
        assert index.candidate_count == 6

    def test_example2_singletons(self, example2_l1):
        index = enumerate_candidates(example2_l1, BkType.SET, 1)
        assert index.candidate_count == 4

    def test_size_above_longest_trace_is_empty(self, example1_log):
        for bk_type in (BkType.SET, BkType.MULTISET, BkType.SEQUENCE):
            assert enumerate_candidates(example1_log, bk_type, 5).candidate_count == 0
        # Set size is bounded by per-trace distinct activities: only the two
        # four-distinct-activity variants contribute at l=4.
        assert enumerate_candidates(example1_log, BkType.SET, 4).candidate_count == 1

    def test_cap_exceeded_within_one_variant(self, example1_log):
        with pytest.raises(CandidateLimitError) as exc:
            enumerate_candidates(example1_log, BkType.SET, 2, cap=3)
        err = exc.value
        assert err.bk_type is BkType.SET
        assert err.size == 2
        assert err.cap == 3
        assert err.count > 3

    def test_cap_exceeded_across_variants(self):
        log = EventLog.from_counts({("a", "b", "c"): 1, ("a", "d", "e"): 1})
        with pytest.raises(CandidateLimitError) as exc:
            enumerate_candidates(log, BkType.SET, 2, cap=4)
        assert exc.value.count > 4

    def test_determinism(self, example1_log):
        a = enumerate_candidates(example1_log, BkType.SEQUENCE, 3)
        b = enumerate_candidates(example1_log, BkType.SEQUENCE, 3)
        assert list(a.candidates()) == list(b.candidates())
        assert a.cardinalities().tolist() == b.cardinalities().tolist()
        assert a.entropy_sums().tolist() == b.entropy_sums().tolist()

    def test_csv_dump_is_sorted_and_complete(self, example1_log):
        index = enumerate_candidates(example1_log, BkType.SET, 2)
        buf = io.StringIO()
        index.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "candidate,cardinality"
        assert len(lines) == 7
        assert lines[1].startswith("a|b,")
        assert sorted(lines[1:]) == lines[1:]

    def test_wide_alphabet_uses_multiword_keys(self):
        # 70 activities * size 12 > 63 packed bits
        labels = [f"x{i:02d}" for i in range(70)]
        trace = tuple(labels[:14])
        log = EventLog.from_counts({trace: 2, tuple(labels[50:60]): 1})
        index = enumerate_candidates(log, BkType.SEQUENCE, 12)
        assert index.candidate_count > 0
        first = next(index.candidates())
        assert first.size == 12
        proj = project(log, first)
        assert proj.cardinality >= 1

    def test_multiword_keys_on_a_wide_alphabet_match_oracle(self):
        # 70 activities need 7 bits each, so sizes 10-12 need two key words.
        rng = random.Random(404)
        labels = [f"x{i:02d}" for i in range(70)]
        traces = {}
        for lo in range(0, 70, 14):
            group = labels[lo : lo + 14] + rng.sample(labels[lo : lo + 14], 1)
            for _ in range(2):
                rng.shuffle(group)
                traces[tuple(group)] = rng.randint(1, 9)
        log = EventLog.from_counts(traces)
        for kind in KINDS:
            for size in (10, 11, 12):
                index = enumerate_candidates(log, KINDS[kind], size)
                oracle = itertools_candidate_index(log, kind, size)
                assert_matches_oracle(index, oracle)
                for cand in list(index.candidates())[::97]:
                    assert project(log, cand).matches == oracle[cand.elements]
        index = enumerate_candidates(log, BkType.SEQUENCE, 12)
        assert {cand: dict(project(log, cand).matches) for cand in index.candidates()} == {
            Candidate(BkType.SEQUENCE, k): v
            for k, v in itertools_candidate_index(log, "seq", 12).items()
        }
        buf = io.StringIO()
        index.write_csv(buf)
        lines = buf.getvalue().splitlines()[1:]
        assert len(lines) == index.candidate_count
        assert lines == sorted(lines)

    def test_lazy_projections_agree_with_oracle_and_aggregates(self):
        rng = random.Random(505)
        for _ in range(10):
            log = random_log(rng, max_variants=8, max_alphabet=4, max_len=8)
            for kind in KINDS:
                for size in (1, 2, 3):
                    index = enumerate_candidates(log, KINDS[kind], size)
                    items = [(cand, project(log, cand)) for cand in index.candidates()]
                    got = {cand.elements: dict(proj.matches) for cand, proj in items}
                    assert got == naive_candidate_index(log, kind, size)
                    assert index.cardinalities().tolist() == [p.cardinality for _, p in items]
                    np.testing.assert_allclose(
                        index.entropy_sums(),
                        [entropy_sum(p.matches) for _, p in items],
                        rtol=0,
                        atol=1e-9,
                    )


def entropy_sum(matches) -> float:
    return sum(c * math.log2(c) for c in matches.values())


def assert_matches_oracle(index, oracle) -> None:
    """Keys, cardinalities and entropy sums of ``index`` against an oracle."""
    keys = sorted(oracle)
    assert [cand.elements for cand in index.candidates()] == keys
    assert index.cardinalities().tolist() == [sum(oracle[k].values()) for k in keys]
    np.testing.assert_allclose(
        index.entropy_sums(), [entropy_sum(oracle[k]) for k in keys], rtol=0, atol=1e-9
    )


class TestLongTraces:
    """Sizes 4-6 on traces of 15-25 events that repeat activities."""

    @pytest.mark.parametrize("size", [4, 5, 6])
    def test_random_logs_match_itertools_oracle(self, size):
        rng = random.Random(2000 + size)
        for _ in range(3):
            log = random_log(
                rng, max_variants=5, min_alphabet=3, max_alphabet=6, min_len=15, max_len=25
            )
            for kind in KINDS:
                index = enumerate_candidates(log, KINDS[kind], size)
                assert_matches_oracle(index, itertools_candidate_index(log, kind, size))

    def test_chunks_that_split_one_variants_frontier(self, monkeypatch):
        # Expand one state per step, so every variant's frontier spans many
        # chunks and the reduction merges many of them.
        monkeypatch.setattr(bg, "_FRONTIER_CAP", 3)
        rng = random.Random(606)
        log = random_log(rng, max_variants=3, min_alphabet=4, max_alphabet=4, min_len=15, max_len=18)
        for kind in KINDS:
            for size in (2, 3):
                oracle = itertools_candidate_index(log, kind, size)
                index = enumerate_candidates(log, KINDS[kind], size, cap=len(oracle))
                assert_matches_oracle(index, oracle)
                with pytest.raises(CandidateLimitError) as exc:
                    enumerate_candidates(log, KINDS[kind], size, cap=len(oracle) - 1)
                assert exc.value.count > len(oracle) - 1


# Permutations of one another: every variant's set view is abc, and the three
# of four events share the multiset view abbc, yet each must add its own count.
PERMUTED_VARIANTS = {"abcb": 1, "bcba": 2, "cbab": 3, "abc": 4}


class TestOracleEquivalence:
    @pytest.mark.parametrize("kind", ["set", "mult", "seq"])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_random_logs_match_naive_enumeration(self, kind, size):
        rng = random.Random(1000 + size)
        logs = [random_log(rng) for _ in range(40)]
        for log in logs + [EventLog.from_counts(PERMUTED_VARIANTS)]:
            index = enumerate_candidates(log, KINDS[kind], size)
            got = {
                cand.elements: dict(project(log, cand).matches) for cand in index.candidates()
            }
            expected = naive_candidate_index(log, kind, size)
            assert got == expected
            assert_matches_oracle(index, expected)

    def test_conservation_of_cardinalities(self):
        rng = random.Random(77)
        for _ in range(25):
            log = random_log(rng)
            for kind in KINDS:
                for size in (1, 2, 3):
                    index = enumerate_candidates(log, KINDS[kind], size)
                    naive = naive_candidate_index(log, kind, size)
                    per_variant_patterns = Counter()
                    for elements, proj in naive.items():
                        for v in proj:
                            per_variant_patterns[v] += 1
                    expected_total = sum(
                        log.count(v) * n for v, n in per_variant_patterns.items()
                    )
                    assert int(index.cardinalities().sum()) == expected_total


traces_strategy = st.lists(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=6).map(tuple),
    min_size=1,
    max_size=5,
)


@given(traces_strategy, st.data())
@settings(max_examples=120, deadline=None)
def test_projection_nesting_invariant(traces, data):
    log = EventLog.from_traces(traces)
    variant = data.draw(st.sampled_from(log.variants))
    length = data.draw(st.integers(min_value=1, max_value=len(variant)))
    positions = sorted(data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(variant) - 1),
            min_size=length,
            max_size=length,
            unique=True,
        )
    ))
    subseq = tuple(variant[p] for p in positions)
    p_seq = project(log, Candidate(BkType.SEQUENCE, subseq))
    p_mult = project(log, Candidate(BkType.MULTISET, tuple(sorted(subseq))))
    p_set = project(log, Candidate(BkType.SET, tuple(sorted(set(subseq)))))
    for smaller, larger in ((p_seq, p_mult), (p_mult, p_set)):
        for v, c in smaller.matches.items():
            assert larger.matches.get(v, 0) >= c
