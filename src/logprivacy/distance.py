"""Trace ground distance: plain and length-normalized Levenshtein.

``distance_matrix`` runs the bit-parallel edit-distance recurrence of Myers
(1999), in the multi-word form of Hyyrö (2003), vectorized across pairs.
Each column variant is encoded as one match bitmask per symbol, in uint64
words of 64 trace positions; a column of n events takes ceil(n / 64) words,
and columns are grouped by that word count.  The differences between adjacent
cells of one DP column are then held as two bitmasks (+1 and -1 steps), and
one row event advances every cell of the column at once with about twenty
word operations; a word passes its horizontal step at position 63 on to the
next word as a carry.  The distance is the column length plus the sum of the
steps seen at the column's last position.

The recurrence runs on slabs of (row, column) pairs: a chunk of columns of
equal word count against a run of rows, each step feeding one event of every
row to the whole slab as numpy array operations.  Rows are taken longest
first, so the pairs whose row has ended form the tail of the slab and sit out
the remaining steps; each row's distance is read at its own last event.  A
slab takes one step per event of its longest row, and a step costs one pass
per column word, so both orientations' word steps are counted from the
trace lengths, the side that takes fewer is made the rows, and the matrix is
transposed back when that side was given as the columns.  The longest trace
alone does not decide it: rows of up to 52 events against a column of 66
take two words per step, the other way round one.
``_SLAB_WORDS`` bounds each of the slab's eleven work buffers and a chunk's
match table, so they stay under 200 KB however many traces there are (one
column's table alone can exceed it on alphabets of over 2048 symbols); only
the dense copy of the input's symbols (8 bytes per event) grows with the log.
Symbols are remapped through the union of both sides, so any hashable
symbols are accepted: activity ids, or the labels themselves when the two
sides come from logs with different alphabets.

On the benchmark's Sepsis-shaped log (863 variants of up to 185 events over
16 activities), on a 2-core VM, the ten distance matrices of a merge-nearest
sweep take 0.05 s with the anchors as rows (0.07-0.08 s with the variants as
rows) and the full 863x863 matrix about 0.45 s, against 3.3 s and 3.6 s for
the former prefix-minimum DP.
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Sequence

import numpy as np

from .event_log import Variant

# Words held by one work buffer of a slab (one word per pair and column word)
# and by one column chunk's match table.
_SLAB_WORDS = 1 << 11

# Typed, so that every operation stays in uint64, where additions wrap, under
# both numpy 1.x value-based casting and numpy 2 (NEP 50) rules.
_ONE = np.uint64(1)
_TOP_BIT = np.uint64(63)
_ALL_ONES = ~np.uint64(0)


def levenshtein(a: Sequence[int], b: Sequence[int]) -> int:
    """Minimal number of single-activity edits (insert/delete/substitute)
    turning ``a`` into ``b``.  All three operations cost 1; there is no
    transposition operation."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    if tuple(a) == tuple(b):
        return 0
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a):
        cur = [i + 1]
        for j, cb in enumerate(b):
            cur.append(min(prev[j + 1] + 1, cur[j] + 1, prev[j] + (ca != cb)))
        prev = cur
    return prev[-1]


def normalized_distance(a: Variant, b: Variant) -> float:
    """Levenshtein distance divided by the longer trace length; in [0, 1]."""
    if not a or not b:
        raise ValueError("normalized distance requires non-empty traces")
    return levenshtein(a, b) / max(len(a), len(b))


def closest_columns(cost: np.ndarray, weight) -> np.ndarray:
    """Each row's closest column: the least cost, then the largest weight,
    then the first column.

    ``weight`` holds one non-negative number per column.  This is
    merge-nearest's anchor choice; the EMD's nearest-sink plan reuses it, so
    the two cannot disagree on a tie.
    """
    return np.where(cost == cost.min(axis=1, keepdims=True), weight, -1).argmax(axis=1)


def _match_table(syms: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                 n_words: int, n_syms: int) -> np.ndarray:
    """Per-symbol match bitmasks of some columns, shape (words, symbols, columns).

    Bit p of word w of entry [w, s, c] is set when event 64w + p of column c
    is symbol s.
    """
    owner = np.repeat(np.arange(len(lens)), lens)
    pos = np.arange(len(owner)) - np.repeat(np.cumsum(lens) - lens, lens)
    table = np.zeros((n_words, n_syms, len(lens)), dtype=np.uint64)
    bits = np.left_shift(_ONE, (pos % 64).astype(np.uint64))
    np.bitwise_or.at(table, (pos // 64, syms[np.repeat(starts, lens) + pos], owner), bits)
    return table


def _slab_distances(table: np.ndarray, col_lens: np.ndarray, syms: np.ndarray,
                    starts: np.ndarray, lens: list[int]) -> np.ndarray:
    """Edit distances between some rows, longest first, and a column chunk.

    ``table`` is the chunk's match table, ``syms`` the dense symbols of all
    rows and ``starts``/``lens`` where each slab row begins and how long it
    is.  Returns an (rows, columns) uint64 array.
    """
    n_words, _, n_cols = table.shape
    shape = (len(lens), n_cols)
    # Vertical +1 and -1 steps down each DP column; D[i][0] = i starts them
    # all at +1, and the bottom cell at the column length.
    vp = np.full((n_words,) + shape, _ALL_ONES, dtype=np.uint64)
    vn = np.zeros((n_words,) + shape, dtype=np.uint64)
    score = np.empty(shape, dtype=np.uint64)
    score[:] = col_lens
    last_bit = ((col_lens - 1) % 64).astype(np.uint64)
    eq, d0, hp, hn = (np.empty(shape, dtype=np.uint64) for _ in range(4))
    # Horizontal steps carried out of one word into the next, in and out.
    carries = [np.empty(shape, dtype=np.uint64) for _ in range(4)]
    idx = np.empty(len(lens), dtype=np.intp)
    sym = np.empty(len(lens), dtype=np.intp)

    active = len(lens)
    for t in range(lens[0]):
        if t == 0 or lens[active - 1] <= t:
            while lens[active - 1] <= t:
                active -= 1
            a_eq, a_d0, a_hp, a_hn, a_score = (b[:active] for b in (eq, d0, hp, hn, score))
            a_vp = [v[:active] for v in vp]
            a_vn = [v[:active] for v in vn]
            hp_in, hn_in, hp_out, hn_out = (c[:active] for c in carries)
            a_idx, a_sym, a_starts = idx[:active], sym[:active], starts[:active]
        # Indices are always in range; "clip" lets take write straight into out.
        np.add(a_starts, t, out=a_idx)
        np.take(syms, a_idx, out=a_sym, mode="clip")
        for w in range(n_words):
            vp_w, vn_w = a_vp[w], a_vn[w]
            # x = eq | hn_in: the match vector, and a -1 step entering at the top
            np.take(table[w], a_sym, axis=0, out=a_eq, mode="clip")
            if w:
                np.bitwise_or(a_eq, hn_in, out=a_eq)
            # d0: cells whose diagonal step is 0
            np.bitwise_and(a_eq, vp_w, out=a_d0)
            np.add(a_d0, vp_w, out=a_d0)
            np.bitwise_xor(a_d0, vp_w, out=a_d0)
            np.bitwise_or(a_d0, a_eq, out=a_d0)
            np.bitwise_or(a_d0, vn_w, out=a_d0)
            # horizontal +1 and -1 steps
            np.bitwise_or(a_d0, vp_w, out=a_hp)
            np.invert(a_hp, out=a_hp)
            np.bitwise_or(a_hp, vn_w, out=a_hp)
            np.bitwise_and(a_d0, vp_w, out=a_hn)
            shift = _TOP_BIT if w < n_words - 1 else last_bit
            np.right_shift(a_hp, shift, out=hp_out)
            np.right_shift(a_hn, shift, out=hn_out)
            np.left_shift(a_hp, _ONE, out=a_hp)
            np.left_shift(a_hn, _ONE, out=a_hn)
            if w:
                np.bitwise_or(a_hp, hp_in, out=a_hp)
                np.bitwise_or(a_hn, hn_in, out=a_hn)
            else:
                # the top row D[0][j] = j rises by one per row event
                np.bitwise_or(a_hp, _ONE, out=a_hp)
            # new vertical steps
            np.bitwise_or(a_d0, a_hp, out=vp_w)
            np.invert(vp_w, out=vp_w)
            np.bitwise_or(vp_w, a_hn, out=vp_w)
            np.bitwise_and(a_hp, a_d0, out=vn_w)
            hp_in, hn_in, hp_out, hn_out = hp_out, hn_out, hp_in, hn_in
        # The last word's steps at each column's last event, in the low bit,
        # move the bottom cell D[n][t].
        np.bitwise_and(hp_in, _ONE, out=hp_in)
        np.bitwise_and(hn_in, _ONE, out=hn_in)
        np.add(a_score, hp_in, out=a_score)
        np.subtract(a_score, hn_in, out=a_score)
    return score


def _chunks(n_words: int, n_cols: int, n_syms: int):
    """Cut a group of ``n_cols`` columns of ``n_words`` words into chunks.

    Yields (start, stop, rows per slab) for each chunk, sized so that a
    chunk's match table and each of a slab's work buffers hold at most
    ``_SLAB_WORDS`` words.
    """
    chunk_cols = max(1, _SLAB_WORDS // (n_words * n_syms))
    for c0 in range(0, n_cols, chunk_cols):
        c1 = min(c0 + chunk_cols, n_cols)
        yield c0, c1, max(1, _SLAB_WORDS // (n_words * (c1 - c0)))


def _word_steps(row_lens: np.ndarray, col_lens: np.ndarray, n_syms: int) -> int:
    """Word steps the recurrence takes with these rows and columns.

    Each slab takes one step per event of its longest row and column word.
    """
    # A list sort: the first np.sort in a process maps about 0.4 MB more.
    longest_first = sorted(row_lens.tolist(), reverse=True)
    steps = 0
    for n_words, n_cols in enumerate(np.bincount((col_lens + 63) // 64).tolist()):
        if n_cols:
            for _, _, slab_rows in _chunks(n_words, n_cols, n_syms):
                steps += n_words * sum(longest_first[::slab_rows])
    return steps


def distance_matrix(
    rows: Sequence[Sequence[Hashable]], cols: Sequence[Sequence[Hashable]]
) -> np.ndarray:
    """Dense matrix of normalized distances between two lists of traces.

    Same values as calling :func:`normalized_distance` per pair: the integer
    edit distance divided by the longer length.  A trace may hold any
    hashable symbols, compared by equality across both lists.  See the
    module docstring for how the distances are computed.
    """
    if any(not r for r in rows) or any(not c for c in cols):
        raise ValueError("normalized distance requires non-empty traces")
    out = np.zeros((len(rows), len(cols)), dtype=np.float64)
    if not rows or not cols:
        return out

    row_lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    col_lens = np.fromiter(map(len, cols), dtype=np.int64, count=len(cols))
    alphabet = {s: i for i, s in enumerate(set(chain.from_iterable(chain(rows, cols))))}
    n_syms = len(alphabet)
    view = out
    if _word_steps(col_lens, row_lens, n_syms) < _word_steps(row_lens, col_lens, n_syms):
        # The given columns make the cheaper rows: the transpose is computed,
        # written through a transposed view of the C-ordered result.
        rows, cols, row_lens, col_lens, view = cols, rows, col_lens, row_lens, out.T
    n_row_events = int(row_lens.sum())
    dense = np.fromiter(map(alphabet.__getitem__, chain.from_iterable(chain(rows, cols))),
                        dtype=np.intp, count=n_row_events + int(col_lens.sum()))
    row_syms, col_syms = dense[:n_row_events], dense[n_row_events:]
    row_starts = np.cumsum(row_lens) - row_lens
    col_starts = np.cumsum(col_lens) - col_lens

    # Longest rows first, so the rows still running are a prefix of each slab.
    row_order = np.array(sorted(range(len(rows)), key=lambda i: -len(rows[i])), dtype=np.intp)
    col_words = (col_lens + 63) // 64
    for n_words in sorted(set(col_words.tolist())):
        group = np.flatnonzero(col_words == n_words)
        for c0, c1, slab_rows in _chunks(n_words, len(group), n_syms):
            chunk = group[c0:c1]
            table = _match_table(col_syms, col_starts[chunk], col_lens[chunk], n_words, n_syms)
            for r0 in range(0, len(rows), slab_rows):
                slab = row_order[r0:r0 + slab_rows]
                dist = _slab_distances(table, col_lens[chunk], row_syms,
                                       row_starts[slab], row_lens[slab].tolist())
                denom = np.maximum(row_lens[slab][:, None], col_lens[chunk][None, :])
                view[np.ix_(slab, chunk)] = dist / denom.astype(np.float64)
    return out
