from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logprivacy import distance, distance_matrix, levenshtein, normalized_distance
from oracles import random_log, table_distance_matrix

# Variants encoded over the Example 3 alphabet a..e -> 0..4.
ABCD = (0, 1, 2, 3)
ACBD = (0, 2, 1, 3)
AECD = (0, 4, 2, 3)
AEBD = (0, 4, 1, 3)


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein(ABCD, ABCD) == 0

    def test_single_substitution(self):
        assert levenshtein(ABCD, AECD) == 1

    def test_adjacent_swap_costs_two(self):
        # No transposition operation, so the b/c swap is two substitutions.
        assert levenshtein(ABCD, ACBD) == 2

    def test_empty_side(self):
        assert levenshtein((), (1, 2, 3)) == 3


class TestNormalizedDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (ABCD, ABCD, 0.0),
            (ABCD, AECD, 0.25),
            (ABCD, ACBD, 0.5),
            (ACBD, AECD, 0.5),
            (ACBD, AEBD, 0.25),
            (ABCD, AEBD, 0.5),
        ],
    )
    def test_reference_table_values(self, a, b, expected):
        assert normalized_distance(a, b) == expected

    def test_different_lengths_divide_by_longer(self):
        assert normalized_distance((0,), (0, 1)) == 0.5
        assert normalized_distance((0,), (1,)) == 1.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            normalized_distance((), (0,))


variants = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8).map(tuple)


@given(variants, variants)
@settings(max_examples=200, deadline=None)
def test_symmetry_and_identity(a, b):
    d_ab = normalized_distance(a, b)
    assert d_ab == normalized_distance(b, a)
    assert 0.0 <= d_ab <= 1.0
    assert (d_ab == 0.0) == (a == b)


@given(variants, variants, variants)
@settings(max_examples=200, deadline=None)
def test_raw_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(
    st.lists(variants, min_size=1, max_size=6),
    st.lists(variants, min_size=1, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_matrix_agrees_with_scalar(rows, cols):
    got = distance_matrix(rows, cols)
    expected = np.array([[normalized_distance(a, b) for b in cols] for a in rows])
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


def test_matrix_handles_mixed_lengths_across_buckets():
    rows = [(0,), (0, 1, 2, 3, 4, 0, 1, 2, 3, 4)]
    cols = [(1,), (0, 1), (0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5)]
    got = distance_matrix(rows, cols)
    expected = np.array([[normalized_distance(a, b) for b in cols] for a in rows])
    assert np.array_equal(got, expected)


# Lengths on both sides of the kernel's 64-event word boundaries.
BOUNDARY_LENGTHS = [1, 63, 64, 65, 127, 128, 129, 200]


def _random_trace(rng: random.Random, length: int, n_symbols: int) -> tuple[int, ...]:
    return tuple(rng.randrange(n_symbols) for _ in range(length))


def _edited(rng: random.Random, trace: tuple[int, ...], n_edits: int, n_symbols: int):
    """``trace`` after a few random substitutions, insertions and deletions."""
    events = list(trace)
    for _ in range(n_edits):
        pos = rng.randrange(len(events))
        op = rng.choice("sid")
        if op == "s":
            events[pos] = rng.randrange(n_symbols)
        elif op == "i":
            events.insert(pos, rng.randrange(n_symbols))
        elif len(events) > 1:
            del events[pos]
    return tuple(events)


def _boundary_traces(seed: int, n_symbols: int):
    """Random traces at every boundary length, and near copies of them."""
    rng = random.Random(seed)
    rows = [_random_trace(rng, n, n_symbols) for n in BOUNDARY_LENGTHS]
    cols = [_random_trace(rng, n, n_symbols) for n in BOUNDARY_LENGTHS]
    cols += [_edited(rng, r, rng.randint(1, 6), n_symbols) for r in rows]
    return rows, cols


class TestKernelAgainstTableOracle:
    # 70 symbols: more distinct symbols than events in one word.
    @pytest.mark.parametrize("n_symbols", [2, 4, 16, 70])
    def test_word_boundary_lengths(self, n_symbols):
        rows, cols = _boundary_traces(64 + n_symbols, n_symbols)
        assert np.array_equal(distance_matrix(rows, cols), table_distance_matrix(rows, cols))

    def test_one_symbol_alphabet(self):
        # Every event matches every other, so only the length gap counts.
        traces = [(7,) * n for n in BOUNDARY_LENGTHS]
        got = distance_matrix(traces, traces)
        assert np.array_equal(got, table_distance_matrix(traces, traces))
        lens = np.array(BOUNDARY_LENGTHS, dtype=np.float64)
        expected = np.abs(lens[:, None] - lens[None, :]) / np.maximum(lens[:, None], lens[None, :])
        assert np.array_equal(got, expected)

    def test_negative_and_very_large_ids(self):
        rows, cols = _boundary_traces(99, 5)
        ids = [-(2**62), -1, 0, 2**62, 10**30]

        def relabel(traces):
            return [tuple(ids[e] for e in t) for t in traces]

        got = distance_matrix(relabel(rows), relabel(cols))
        assert np.array_equal(got, distance_matrix(rows, cols))
        assert np.array_equal(got, table_distance_matrix(rows, cols))

    def test_empty_row_or_column_lists(self):
        traces = [(0, 1), (2,)]
        assert distance_matrix([], traces).shape == (0, 2)
        assert distance_matrix(traces, []).shape == (2, 0)
        assert distance_matrix([], []).shape == (0, 0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            distance_matrix([(0, 1)], [(2,), ()])
        with pytest.raises(ValueError, match="non-empty"):
            distance_matrix([()], [])

    def test_transpose_swaps_rows_and_columns(self):
        rows, cols = _boundary_traces(7, 3)
        assert np.array_equal(distance_matrix(cols, rows), distance_matrix(rows, cols).T)

    def test_either_side_may_hold_the_longer_traces(self):
        # The matrix is computed with the side that takes fewer word steps
        # as rows, and transposed back when that is the columns.
        rng = random.Random(23)
        long = random_log(rng, max_variants=10, max_alphabet=6, min_len=65, max_len=200)
        short = random_log(rng, max_variants=10, max_alphabet=6, max_len=40)
        longest = max(map(len, long.variants))
        assert 128 < longest and min(map(len, long.variants)) > 64
        for rows, cols in ((long.variants, short.variants), (long.variants, long.variants[:-1]),
                           (short.variants, long.variants[1:])):
            got = distance_matrix(rows, cols)
            assert got.flags.c_contiguous
            assert np.array_equal(got, distance_matrix(cols, rows).T)
        got = distance_matrix(long.variants[:3], short.variants)
        assert np.array_equal(got, table_distance_matrix(long.variants[:3], short.variants))

    def test_a_longer_column_that_needs_a_second_word_makes_the_rows(self):
        # Rows of at most 52 events against columns of at most 66, as in the
        # 70-trace benchmark pair.  The given rows hold the shorter longest
        # trace, but against them the 66-event column takes two words per
        # step; the columns as rows take 66 one-word steps, so they are the
        # rows and the matrix is transposed back.
        rng = random.Random(70)
        rows = [tuple(rng.randrange(16) for _ in range(n)) for n in (52, 47, 40, 33, 28, 12)]
        cols = [tuple(rng.randrange(16) for _ in range(n)) for n in (66, 60, 51, 38, 20)]
        row_lens, col_lens = np.array([len(r) for r in rows]), np.array([len(c) for c in cols])
        n_syms = len(set().union(*rows, *cols))
        assert max(row_lens) < max(col_lens)
        assert distance._word_steps(col_lens, row_lens, n_syms) < distance._word_steps(row_lens, col_lens, n_syms)
        got = distance_matrix(rows, cols)
        assert got.flags.c_contiguous
        assert np.array_equal(got, table_distance_matrix(rows, cols))
        assert np.array_equal(distance_matrix(cols, rows), got.T)

    def test_one_pair_per_slab(self, monkeypatch):
        # Mixed lengths put columns of one to four words in separate groups
        # and rows that end at different steps in the same slab; with the
        # smallest slab every pair runs alone.
        rows, cols = _boundary_traces(11, 6)
        expected = distance_matrix(rows, cols)
        assert np.array_equal(expected, table_distance_matrix(rows, cols))
        monkeypatch.setattr(distance, "_SLAB_WORDS", 1)
        assert np.array_equal(distance_matrix(rows, cols), expected)


class TestClosestColumns:
    @pytest.mark.parametrize(
        "weight,expected",
        [
            ([9, 0, 0], 1),  # a weight of 0 still picks among the closest
            ([9, 0, 3], 2),  # the larger weight wins a distance tie
            ([9, 3, 3], 1),  # and the first column a weight tie too
        ],
    )
    def test_tie_rule(self, weight, expected):
        cost = np.array([[1.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        assert distance.closest_columns(cost, np.array(weight)).tolist() == [expected, 0]
