from __future__ import annotations

import io
import itertools
import math
import random
import tracemalloc
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
    risk_profile,
)
from logprivacy import background as bg
from oracles import itertools_candidate_index, markov_log_pair, naive_candidate_index, random_log

KINDS = {"set": BkType.SET, "mult": BkType.MULTISET, "seq": BkType.SEQUENCE}

# A size is reduced in dense key bins when a first activity's keys span at
# most ``_DENSE_SPAN`` values, each chunk's leaves added into them as they
# are built, and otherwise by sorting held leaves once they reach a limit.
# The oracle tests run as shipped (dense on these small alphabets), with
# every cell sorted, with spans of at most 64 keys that chunks of a few rows
# add into many times while larger spans sort, and with every cell sorted
# from a buffer that flushes every few rows.
REDUCTIONS = (
    {},
    {"_DENSE_SPAN": 0},
    {"_DENSE_SPAN": 64, "_FRONTIER_CAP": 16},
    {"_DENSE_SPAN": 0, "_FRONTIER_CAP": 4},
)


def each_reduction(monkeypatch, reductions=REDUCTIONS):
    """Yield once under each patch of the reduction settings."""
    for patch in reductions:
        with monkeypatch.context() as m:
            for name, value in patch.items():
                m.setattr(bg, name, value)
            yield patch


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
        # One pass over sizes 8-12 mixes key widths: sizes 8-9 fit one word,
        # and each takes its words from the two-word keys of size 12.
        for kind in KINDS:
            found = enumerate_candidates(log, KINDS[kind], range(8, 13))
            for size, index in found.items():
                single = enumerate_candidates(log, KINDS[kind], size)
                assert_same_index(index, single)
                assert csv_text(index) == csv_text(single)

    def test_lazy_projections_agree_with_oracle_and_aggregates(self, monkeypatch):
        rng = random.Random(505)
        logs = [random_log(rng, max_variants=8, max_alphabet=4, max_len=8) for _ in range(10)]
        for _ in each_reduction(monkeypatch):
            for log, kind, size in itertools.product(logs, KINDS, (1, 2, 3)):
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


def csv_text(index) -> str:
    buf = io.StringIO()
    index.write_csv(buf)
    return buf.getvalue()


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
    def test_random_logs_match_itertools_oracle(self, size, monkeypatch):
        rng = random.Random(2000 + size)
        logs = [
            random_log(rng, max_variants=5, min_alphabet=3, max_alphabet=6, min_len=15, max_len=25)
            for _ in range(3)
        ]
        for _ in each_reduction(monkeypatch):
            for log, kind in itertools.product(logs, KINDS):
                index = enumerate_candidates(log, KINDS[kind], size)
                assert_matches_oracle(index, itertools_candidate_index(log, kind, size))

    def test_chunks_that_split_one_variants_frontier(self, monkeypatch):
        # Expand one state per step, so every variant's frontier spans many
        # chunks and the reduction merges many of them.  Both reductions
        # must stop at the cap.
        monkeypatch.setattr(bg, "_FRONTIER_CAP", 3)
        rng = random.Random(606)
        log = random_log(rng, max_variants=3, min_alphabet=4, max_alphabet=4, min_len=15, max_len=18)
        for _ in each_reduction(monkeypatch, ({}, {"_DENSE_SPAN": 0})):
            for kind, size in itertools.product(KINDS, (2, 3)):
                oracle = itertools_candidate_index(log, kind, size)
                index = enumerate_candidates(log, KINDS[kind], size, cap=len(oracle))
                assert_matches_oracle(index, oracle)
                with pytest.raises(CandidateLimitError) as exc:
                    enumerate_candidates(log, KINDS[kind], size, cap=len(oracle) - 1)
                assert exc.value.count > len(oracle) - 1

    def test_sorted_reduction_stops_inside_a_first_activity(self, monkeypatch):
        # Every candidate of this cell sorts, and the buffer is reduced every
        # few rows.  The cap must be checked at each reduction, not only once
        # a first activity is done: the 72 candidates that start with ``a``
        # would all be held before an after-subtree check could stop them.
        monkeypatch.setattr(bg, "_DENSE_SPAN", 0)
        monkeypatch.setattr(bg, "_FRONTIER_CAP", 4)
        log = EventLog.from_counts({tuple("abcdefghij"): 1, tuple("ajihgfedcb"): 1})
        assert sum(k[0] == 0 for k in itertools_candidate_index(log, "seq", 3)) == 72
        with pytest.raises(CandidateLimitError) as exc:
            enumerate_candidates(log, BkType.SEQUENCE, 3, cap=5)
        assert 5 < exc.value.count < 72


class TestUnitCounts:
    """Count-1 variants' rows are grown and tallied apart from repeated ones."""

    @staticmethod
    def logs(rng: random.Random, n_labels: int, count):
        """Random logs over exactly ``n_labels`` activities, counted by ``count(rng)``."""
        labels = [chr(ord("a") + i) for i in range(n_labels)]
        logs = []
        for _ in range(6):
            # One variant holds every activity, so the alphabet (and the
            # table's padding to a power of two) is always ``n_labels`` wide.
            traces = {tuple(rng.sample(labels, n_labels)): count(rng)}
            for _ in range(rng.randint(1, 6)):
                trace = tuple(rng.choice(labels) for _ in range(rng.randint(1, 7)))
                traces[trace] = count(rng)
            logs.append(EventLog.from_counts(traces))
        return logs

    @pytest.mark.parametrize(
        "count",
        [lambda rng: 1, lambda rng: rng.randint(2, 9), lambda rng: rng.choice((1, 1, 2, 5))],
        ids=["all-ones", "all-repeated", "mixed"],
    )
    def test_count_mixes_on_padded_alphabets_match_naive_enumeration(self, count, monkeypatch):
        rng = random.Random(808)
        cells = [(log, 4) for log in self.logs(rng, 5, count)]
        cells += [(log, 3) for log in self.logs(rng, 10, count)]
        for _ in each_reduction(monkeypatch):
            for (log, max_size), kind in itertools.product(cells, KINDS):
                # One call per size, and one pass over all of them, whose
                # smaller sizes reduce rows that go on growing.
                sizes = range(1, max_size + 1)
                found = [(size, enumerate_candidates(log, KINDS[kind], size)) for size in sizes]
                found += enumerate_candidates(log, KINDS[kind], sizes).items()
                for size, index in found:
                    oracle = naive_candidate_index(log, kind, size)
                    assert_matches_oracle(index, oracle)
                    # No candidate uses one of the table's padded columns.
                    assert all(max(c.elements) < len(log.labels) for c in index.candidates())
                    # Candidates matched only by count-1 variants have
                    # entropy sums of exactly 0.
                    for elements, ent in zip(sorted(oracle), index.entropy_sums()):
                        if set(oracle[elements].values()) == {1}:
                            assert ent == 0.0


def test_a_dense_pass_holds_no_leaves():
    # 16 activities take 4 key bits, so size 6 spans 2**20 dense bins per
    # first activity: 16 MB for the two bin arrays.  Leaves go into them as
    # each chunk is built; a pass that held them until they filled the span
    # peaked at 32 MB.
    log = markov_log_pair(1, 400)[0]
    assert len(log.labels) == 16
    tracemalloc.start()
    try:
        enumerate_candidates(log, BkType.MULTISET, [6], fold=lambda size, *part: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def assert_same_index(got, expected) -> None:
    """Two indices of one cell: equal keys and cardinalities, entropy sums up to summation order."""
    assert (got.bk_type, got.size) == (expected.bk_type, expected.size)
    assert list(got.candidates()) == list(expected.candidates())
    assert got.cardinalities().dtype == expected.cardinalities().dtype
    assert np.array_equal(got.cardinalities(), expected.cardinalities())
    np.testing.assert_allclose(got.entropy_sums(), expected.entropy_sums(), rtol=1e-12, atol=0)


class TestMultiSize:
    """One pass over several sizes gives each size the index of its own call."""

    @staticmethod
    def logs(seed: int, min_len: int = 4, max_len: int = 8):
        rng = random.Random(seed)
        return [
            random_log(rng, max_variants=6, min_alphabet=3, max_alphabet=5, min_len=min_len, max_len=max_len)
            for _ in range(5)
        ]

    def test_sizes_match_single_size_calls_and_naive_enumeration(self, monkeypatch):
        logs = self.logs(909)
        for _ in each_reduction(monkeypatch):
            for log, kind in itertools.product(logs, KINDS):
                above = max(map(len, log.variants)) + 1
                for sizes in ({2, 5}, [3, 1, 3, 2], [above, 1]):
                    found = enumerate_candidates(log, KINDS[kind], sizes)
                    assert list(found) == sorted(set(sizes))
                    for size, index in found.items():
                        assert_same_index(index, enumerate_candidates(log, KINDS[kind], size))
                        if size < above:
                            assert_matches_oracle(index, naive_candidate_index(log, kind, size))
                        else:  # no trace is that long
                            assert index.candidate_count == 0

    def test_one_pass_mixes_dense_and_sorted_sizes(self, monkeypatch):
        # Five to eight activities take 3 key bits, so with at most 64 dense
        # bins sizes 1-3 are binned and sizes 4-5 sorted in the same pass.
        monkeypatch.setattr(bg, "_DENSE_SPAN", 64)
        logs = TestUnitCounts.logs(random.Random(910), 6, lambda rng: rng.choice((1, 1, 2, 5)))
        for log, kind in itertools.product(logs, KINDS):
            assert (len(log.labels) - 1).bit_length() == 3
            found = enumerate_candidates(log, KINDS[kind], range(1, 6))
            for size, index in found.items():
                assert_same_index(index, enumerate_candidates(log, KINDS[kind], size))
                assert_matches_oracle(index, naive_candidate_index(log, kind, size))

    def test_cap_between_sizes_fails_only_the_larger(self, monkeypatch):
        # At a cap of exactly the size-4 count, size 5 alone is over it.  On
        # these long traces that holds for most sequence and multiset cells.
        logs = self.logs(911, min_len=9, max_len=12)
        checked = 0
        for _ in each_reduction(monkeypatch):
            for log, kind in itertools.product(logs, KINDS):
                single = {size: enumerate_candidates(log, KINDS[kind], size) for size in range(1, 6)}
                cap = single[4].candidate_count
                if single[5].candidate_count <= cap:
                    continue
                found = enumerate_candidates(log, KINDS[kind], range(1, 6), cap=cap)
                err = found[5]
                assert isinstance(err, CandidateLimitError)
                assert (err.bk_type, err.size, err.cap) == (KINDS[kind], 5, cap)
                assert err.count > cap
                for size in range(1, 5):
                    assert_same_index(found[size], single[size])
                with pytest.raises(CandidateLimitError):
                    enumerate_candidates(log, KINDS[kind], 5, cap=cap)
                checked += 1
        assert checked >= 30

    def test_smaller_sizes_over_the_cap_while_the_largest_finishes(self, monkeypatch):
        # Each trace holds one size-3 set, so size 3 has 5 candidates, but
        # sizes 1 and 2 have 11 and 15.  The cap stops size 1 at the sixth
        # first activity and size 2 within the first; with a buffer of a few
        # rows, size 2 fails while its rows are held, before they grow on.
        log = EventLog.from_traces([list("abc"), list("ade"), list("afg"), list("ahi"), list("bjk")])
        for _ in each_reduction(monkeypatch):
            found = enumerate_candidates(log, BkType.SET, [1, 2, 3], cap=5)
            assert all(isinstance(found[s], CandidateLimitError) for s in (1, 2))
            assert [(err.size, err.count) for err in (found[1], found[2])] == [(1, 6), (2, 8)]
            assert found[3].candidate_count == 5
            assert_same_index(found[3], enumerate_candidates(log, BkType.SET, 3))
            # With ``fold`` each size maps to its error or None.
            folded = enumerate_candidates(log, BkType.SET, [1, 2, 3], cap=5, fold=lambda *part: None)
            assert [str(folded[s]) for s in (1, 2)] == [str(found[s]) for s in (1, 2)]
            assert folded[3] is None

    def test_one_size_and_collections_of_sizes(self, example1_log):
        index = enumerate_candidates(example1_log, BkType.SET, 2)
        assert_same_index(enumerate_candidates(example1_log, BkType.SET, [2])[2], index)
        assert_same_index(enumerate_candidates(example1_log, BkType.SET, np.int64(2)), index)
        assert_same_index(enumerate_candidates(example1_log, BkType.SET, [np.int32(2)])[2], index)
        with pytest.raises(CandidateLimitError):
            enumerate_candidates(example1_log, BkType.SET, 2, cap=3)
        assert isinstance(enumerate_candidates(example1_log, BkType.SET, (2,), cap=3)[2], CandidateLimitError)
        # A size that is not an integer is refused: 2.5 was once enumerated
        # as size 2 and returned under key 2, and True as size 1.
        for sizes in ([], [0, 1], 0, 2.5, np.float64(2), [2.5], [2.5, 1], [1, 2.0], "2",
                      True, [True], [2, False]):
            with pytest.raises(ValueError):
                enumerate_candidates(example1_log, BkType.SET, sizes)
        # cap=True once failed only at the cap, and cap=2.5 was accepted.
        for cap in (0, True, 2.5):
            with pytest.raises(ValueError, match="cap must be an integer >= 1"):
                enumerate_candidates(example1_log, BkType.SET, 2, cap=cap)
            with pytest.raises(ValueError, match="cap must be an integer >= 1"):
                risk_profile(example1_log, [BkType.SET], [2], cap=cap)

    def test_a_type_that_is_not_a_bk_type_is_refused(self):
        # "seq" was once enumerated as a set: 1 candidate here, not the 3
        # sequences ab, ba and aa.
        log = EventLog.from_counts({("a", "b", "a"): 2, ("b", "a"): 1})
        assert enumerate_candidates(log, BkType.SEQUENCE, 2).candidate_count == 3
        for bk_type in ("seq", "set", None, 2):
            for sizes in (2, [2]):
                with pytest.raises(ValueError, match="type"):
                    enumerate_candidates(log, bk_type, sizes)
            with pytest.raises(ValueError, match="type"):
                enumerate_candidates(log, bk_type, [1, 2], fold=lambda size, *part: None)

    def test_fold_gets_the_parts_an_index_splits_into(self, monkeypatch):
        # ``fold`` gets each first activity's candidates as one part, with
        # its size, and an index keeps the same parts.
        def handed_parts(log, bk_type, sizes):
            handed = {size: [] for size in sizes}
            found = enumerate_candidates(log, bk_type, sizes,
                                         fold=lambda size, *part: handed[size].append(part))
            assert found == dict.fromkeys(sizes)
            return handed

        def assert_same_parts(handed, index):
            kept = list(index.parts())
            assert len(handed) == len(kept)
            for got, expected in zip(handed, kept):
                for x, y in zip(got, expected):
                    assert x.dtype == y.dtype and np.array_equal(x, y)
            # Each part is one first activity's candidates, ascending.
            firsts = [c.elements[0] for c in index.candidates()]
            at, part_firsts = 0, []
            for _, cards, _ in kept:
                assert len(cards) > 0
                assert len(set(firsts[at : at + len(cards)])) == 1
                part_firsts.append(firsts[at])
                at += len(cards)
            assert at == len(firsts) == index.candidate_count
            assert part_firsts == sorted(set(part_firsts))
            for i, whole in ((1, index.cardinalities()), (2, index.entropy_sums())):
                joined = np.concatenate([part[i] for part in kept]) if kept else whole[:0]
                assert joined.dtype == whole.dtype and np.array_equal(joined, whole)

        # 70 activities need 7 bits each, so size 10 needs two key words.
        labels = [f"x{i:02d}" for i in range(70)]
        wide = EventLog.from_counts({tuple(labels[lo : lo + 12]): 2 for lo in range(0, 60, 6)})
        for _ in each_reduction(monkeypatch):
            for log, kind in itertools.product(self.logs(606), KINDS):
                handed = handed_parts(log, KINDS[kind], [1, 2, 3, 4])
                for size, index in enumerate_candidates(log, KINDS[kind], [1, 2, 3, 4]).items():
                    assert_same_parts(handed[size], index)
            handed = handed_parts(wide, BkType.SEQUENCE, [9, 10])
            for size, index in enumerate_candidates(wide, BkType.SEQUENCE, [9, 10]).items():
                assert_same_parts(handed[size], index)
            assert len(handed[10]) == 30


class TestDecoding:
    """Candidates and dump rows are decoded part by part, in blocks of rows."""

    labels = [f"a{i:02d}" for i in range(30)]

    def test_blocks_inside_one_part(self):
        # One trace of 30 distinct activities: seq/6 has C(30, 6) = 593,775
        # candidates, and the part of a00 holds C(29, 5) = 118,755, more than
        # one block of 8,192 rows.
        log = EventLog.from_counts({tuple(self.labels): 3})
        assert list(log.labels) == self.labels
        index = enumerate_candidates(log, BkType.SEQUENCE, 6)
        assert len(next(index.parts())[1]) == 118_755
        assert index.candidate_count == 593_775
        decoded = (c.elements for c in index.candidates())
        pairs = itertools.zip_longest(decoded, itertools.combinations(range(30), 6))
        assert all(got == expected for got, expected in pairs)
        assert np.array_equal(index.cardinalities(), np.full(593_775, 3))
        out = io.StringIO()
        index.write_csv(out)
        out.seek(0)
        assert next(out) == "candidate,cardinality\n"
        rows = (
            "|".join(self.labels[a] for a in c) + ",3\n"
            for c in itertools.combinations(range(30), 6)
        )
        assert all(got == expected for got, expected in itertools.zip_longest(out, rows))

    def test_an_empty_index(self):
        index = enumerate_candidates(EventLog.from_counts({tuple(self.labels): 3}), BkType.SEQUENCE, 31)
        assert index.candidate_count == 0
        assert list(index.parts()) == [] and list(index.candidates()) == []
        for got, dtype in ((index.cardinalities(), np.int64), (index.entropy_sums(), np.float64)):
            assert got.dtype == dtype and got.shape == (0,)
        out = io.StringIO()
        index.write_csv(out)
        assert out.getvalue() == "candidate,cardinality\n"


# Permutations of one another: every variant's set view is abc, and the three
# of four events share the multiset view abbc, yet each must add its own count.
PERMUTED_VARIANTS = {"abcb": 1, "bcba": 2, "cbab": 3, "abc": 4}


class TestOracleEquivalence:
    @pytest.mark.parametrize("kind", ["set", "mult", "seq"])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_random_logs_match_naive_enumeration(self, kind, size, monkeypatch):
        rng = random.Random(1000 + size)
        logs = [random_log(rng) for _ in range(40)] + [EventLog.from_counts(PERMUTED_VARIANTS)]
        for _ in each_reduction(monkeypatch):
            for log in logs:
                index = enumerate_candidates(log, KINDS[kind], size)
                got = {
                    cand.elements: dict(project(log, cand).matches)
                    for cand in index.candidates()
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
