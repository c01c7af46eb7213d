"""Background-knowledge candidates: set, multiset and subsequence patterns.

An adversary is assumed to know a size-l piece of a victim's trace: which
activities occurred (set), how often they occurred (multiset), or in which
order some of them occurred (subsequence).  This module enumerates every such
candidate that matches at least one trace of a log, together with the two
aggregates of its matching traces that the risk measures read.

Each type is decided by one rule over a view of the trace: a candidate
matches a trace when it is a subsequence of the trace's view.  The view of
a subsequence is the trace itself; of a multiset, its sorted activities; of
a set, its sorted distinct activities.  Canonical multiset and set
candidates are sorted, and a sorted candidate is a subsequence of a sorted
view exactly when every activity occurs in the view at least as often as in
the candidate.

Enumeration never ranges over the full activity alphabet.  It grows a
frontier of partial candidates inside the variants' views, one activity per
level, so only candidates with a non-empty projection are ever produced.  A
frontier row is (variant, position, packed key), and every candidate a view
contains is reached from it along exactly one path: the position indexes a
per-call next-occurrence table, and the successor for activity a is the
first occurrence of a after it.  Variants whose views are equal stay
separate rows, each adding its own trace count.

A level is one vectorized step over the frontier for all activities at once,
and rows that can no longer reach the requested size are dropped as they
arise.  Candidates with different first activities have disjoint key ranges,
so each first activity is grown on its own: its first level is read from the
table's column at each view's start, and it is expanded depth first in
chunks of a bounded number of rows, so the frontier's memory stays bounded
however long the traces are.  The table is built once per call and not
chunked: it holds one int32 for every event and every end of the views
and every activity code, the alphabet rounded up to a power of two, so it
grows with view events x alphabet.  On the benchmark's Sepsis-shaped log
(16 activities) it takes 0.94 MB for subsequences and multisets and
0.55 MB for sets; 100k variants of 50 events over 200 activities (256
codes) would need about 5.2 GB.  The table is a function of the views
alone, so building it per block of views is one call on a slice of them.
Keys are fixed-width packed integers, split over several 63-bit words when
the alphabet and size need more bits.

Only the last level is reduced, straight to each candidate's cardinality and
entropy sum.  When a key fits one word, a first activity's keys differ only
in the bits below it; if those span at most ``_DENSE_SPAN`` values (2**20:
up to 16 activities at size 6), they are summed into dense bins over that
span, and no leaf row is built.  Each chunk of rows one level short is
turned straight into its leaves' bins: a leaf's cell in the chunk's table
block is ``row << bits | activity``, so its bin is that cell plus an offset
of its row.  A variant that occurs once adds exactly 1 to a cardinality and
0 to an entropy sum, so the rows of such variants are split off before they
grow and their leaves tallied by an unweighted ``np.bincount``; only
repeated variants' leaves are weighted.  The held bins are summed whenever
they fill the span, and the non-empty bins are the candidates in canonical
order.  Wider alphabets, larger sizes and multi-word keys build their leaf
rows, without successor positions, and sort them with the keys so far once
they outnumber both those keys and ``_FRONTIER_CAP``.

The index keeps only the keys, those aggregates and the activity labels;
callers that need a candidate's matching traces get them from
:func:`project`.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import CandidateLimitError
from .event_log import EventLog, Variant

DEFAULT_CANDIDATE_CAP = 50_000_000

# Frontier states examined by one expansion step; bounds its transient memory.
_FRONTIER_CAP = 1 << 18

# The most keys a first activity's last level may span and still be reduced
# into dense bins: two float64 arrays of this length, 16 MB.
_DENSE_SPAN = _FRONTIER_CAP << 2


class BkType(Enum):
    """The three background-knowledge shapes, weakest to strongest."""

    SET = "set"
    MULTISET = "mult"
    SEQUENCE = "seq"


@dataclass(frozen=True)
class Candidate:
    """One concrete piece of background knowledge.

    ``elements`` is canonical for the kind: strictly increasing ids for SET,
    non-decreasing ids (repetition = multiplicity) for MULTISET, and the
    known order for SEQUENCE.  An empty element tuple is the trivial
    constraint that matches every trace; enumeration never produces it.
    """

    kind: BkType
    elements: tuple[int, ...]

    def __post_init__(self):
        if self.kind is BkType.SET:
            if any(a >= b for a, b in zip(self.elements, self.elements[1:])):
                raise ValueError("set candidate ids must be strictly increasing")
        elif self.kind is BkType.MULTISET:
            if any(a > b for a, b in zip(self.elements, self.elements[1:])):
                raise ValueError("multiset candidate ids must be non-decreasing")

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class Projection:
    """The traces of a log consistent with one candidate."""

    matches: Mapping[Variant, int]
    cardinality: int


def _view(kind: BkType, v: Variant) -> Sequence[int]:
    """The trace whose subsequences are the candidates of ``kind`` in ``v``."""
    if kind is BkType.SEQUENCE:
        return v
    if kind is BkType.MULTISET:
        return sorted(v)
    return sorted(set(v))


def matches(candidate: Candidate, v: Variant) -> bool:
    """Does variant ``v`` carry the knowledge described by ``candidate``?"""
    it = iter(_view(candidate.kind, v))
    return all(a in it for a in candidate.elements)


def project(log: EventLog, candidate: Candidate) -> Projection:
    """Collect all log variants matching ``candidate``, with their counts."""
    found = {
        v: c for v, c in zip(log.variants, log.counts) if matches(candidate, v)
    }
    return Projection(matches=found, cardinality=sum(found.values()))


# -- the index ---------------------------------------------------------------


class CandidateIndex:
    """All size-l candidates of one type with non-empty projections.

    Candidates live in canonical ascending order as packed key words, one
    int64 array per word.  Besides the keys the index holds only what the
    risk measures read: each candidate's multiplicity-weighted projection
    size and its entropy sum ``sum(count * log2 count)`` over matching
    variants, plus the activity labels :meth:`write_csv` prints.  A
    candidate's matching traces come from :func:`project`.
    """

    def __init__(
        self,
        labels: Sequence[str],
        bk_type: BkType,
        size: int,
        words: Sequence[np.ndarray],
        bits: int,
        cards: np.ndarray,
        entsums: np.ndarray,
    ):
        self._labels = tuple(labels)
        self.bk_type = bk_type
        self.size = size
        self._words = tuple(words)
        self._bits = bits
        self._cards = cards
        self._entsums = entsums

    @property
    def candidate_count(self) -> int:
        return len(self._cards)

    def _elements(self, pos: int) -> list[int]:
        """The activity ids of the candidate at ``pos``, decoded from its key."""
        mask = (1 << self._bits) - 1
        per_word = 63 // self._bits
        elements = []
        for w, column in enumerate(self._words):
            n = min(per_word, self.size - w * per_word)
            word = int(column[pos])
            elements.extend((word >> (self._bits * (n - 1 - i))) & mask for i in range(n))
        return elements

    def candidates(self) -> Iterator[Candidate]:
        for pos in range(self.candidate_count):
            yield Candidate(self.bk_type, tuple(self._elements(pos)))

    def cardinalities(self) -> np.ndarray:
        """Multiplicity-weighted projection size per candidate, canonical order."""
        return self._cards

    def entropy_sums(self) -> np.ndarray:
        """Per candidate: sum over matching variants of count*log2(count)."""
        return self._entsums

    def write_csv(self, out: TextIO) -> None:
        """Debug dump: one ``candidate,cardinality`` CSV row in canonical order.

        A candidate is its labels joined by ``|``; a name holding a comma,
        quote or line break is quoted as RFC 4180 asks.
        """
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("candidate", "cardinality"))
        for pos, card in enumerate(self._cards):
            writer.writerow(("|".join(self._labels[a] for a in self._elements(pos)), int(card)))


# -- enumeration -------------------------------------------------------------

def _next_occurrence(
    views: Sequence[Sequence[int]], n_labels: int, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next-occurrence table of ``views`` over activities ``0 .. n_labels - 1``.

    Every view owns one row per event and one end row after them; ``ends``
    and ``starts`` give each view's end row and first row, in the table's
    dtype.  ``nxt[p, a]`` is the first row at or after ``p`` of an event
    ``a`` in ``p``'s view, or the number of rows when there is none.  The
    table has ``width >= n_labels`` columns; those past ``n_labels`` hold
    no occurrence.
    """
    lengths = np.fromiter(map(len, views), dtype=np.int64, count=len(views))
    events = np.fromiter(
        itertools.chain.from_iterable(views), dtype=np.int64, count=int(lengths.sum())
    )
    ends = np.cumsum(lengths + 1) - 1
    n_rows = int(ends[-1]) + 1
    acts = np.full(n_rows, -1, dtype=np.int64)
    is_event = np.ones(n_rows, dtype=bool)
    is_event[ends] = False
    acts[is_event] = events
    row_end = np.repeat(ends, lengths + 1)
    rows = np.arange(n_rows)
    dtype = np.int32 if n_rows < 2**31 - 1 else np.int64
    nxt = np.full((n_rows, width), n_rows, dtype=dtype)
    for a in range(n_labels):
        first = np.minimum.accumulate(np.where(acts == a, rows, n_rows)[::-1])[::-1]
        nxt[:, a] = np.where(first < row_end, first, n_rows)
    return nxt, ends.astype(dtype), (ends - lengths).astype(dtype)


def _group(words: list[np.ndarray], cards: np.ndarray, ents: np.ndarray):
    """Sort rows by key and sum the aggregates of equal keys."""
    order = np.lexsort(words[::-1])
    words = [w[order] for w in words]
    changed = np.any([w[1:] != w[:-1] for w in words], axis=0)
    starts = np.flatnonzero(np.concatenate(([True], changed)))
    return (
        [w[starts] for w in words],
        np.add.reduceat(cards[order], starts),
        np.add.reduceat(ents[order], starts),
    )


def _concat(parts):
    """Join (key words, cardinalities, entropy sums) aggregates end to end."""
    return (
        [np.concatenate(column) for column in zip(*(p[0] for p in parts))],
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
    )


def enumerate_candidates(
    log: EventLog,
    bk_type: BkType,
    size: int,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> CandidateIndex:
    """Build the index of all size-``size`` candidates with matching traces.

    The frontier grows one activity per level inside each variant's view
    for ``bk_type`` (see the module docstring), so only candidates with
    non-empty projections are produced, and each variant reaches each of its
    candidates exactly once and adds its full trace count to it.  Each first
    activity is seeded from its column of the next-occurrence table, then
    expanded depth first in chunks of a bounded number of rows and reduced
    on its own; only size ``size`` is reduced to per-candidate
    cardinalities and entropy sums.  When the first activity's keys span at
    most ``_DENSE_SPAN`` values of one key word, each chunk one level short
    of ``size`` is turned straight into its leaves' bin indices, with
    count-1 variants tallied apart from repeated ones, and summed into
    dense bins; otherwise the leaves are built as key rows and sorted a
    buffer at a time.  Which one runs depends only on the alphabet's width
    and ``size``.
    Exceeding ``cap`` distinct candidates aborts with
    :class:`CandidateLimitError` rather than returning a partial index.
    """
    if size < 1:
        raise ValueError("candidate size must be >= 1")
    if cap < 1:
        raise ValueError("candidate cap must be >= 1")

    n_labels = len(log.labels)
    bits = max(1, (n_labels - 1).bit_length())
    per_word = 63 // bits
    n_words = -(-size // per_word)
    # One table column per ``bits``-bit activity code, so the cell of row r
    # and activity a in a block of rows is ``r << bits | a``.
    nxt, ends, starts = _next_occurrence(
        [_view(bk_type, v) for v in log.variants], n_labels, 1 << bits
    )
    counts = np.asarray(log.counts, dtype=np.float64)
    clog = counts * np.log2(counts)
    unit = counts == 1
    # Rows per expansion step.  Their table block is padded to a power of
    # two wide, so it holds at most ``2 * _FRONTIER_CAP`` cells.
    chunk = max(1, _FRONTIER_CAP // n_labels)
    # In one key word, a first activity's keys differ only in the low
    # ``shift`` bits below it, so they fit a span of dense bins.
    shift = bits * (size - 1)
    span = 1 << shift
    dense = n_words == 1 and span <= _DENSE_SPAN

    def children(level: int, variant: np.ndarray, pos: np.ndarray):
        """The table block of the given rows at ``level``, and their children's cells in it."""
        succ = nxt[pos]
        # The chosen event must leave room for the elements still to add.
        return succ, np.flatnonzero(succ < (ends[variant] - (size - level - 1))[:, None])

    def expand(level: int, variant: np.ndarray, pos: np.ndarray, words: list[np.ndarray]):
        """The frontier rows one level deeper than the given rows at ``level``.

        Rows at ``size`` get no successor positions: nothing grows from them.
        """
        succ, flat = children(level, variant, pos)
        parent = flat >> bits
        words = [w[parent] for w in words]
        w = level // per_word
        words[w] <<= bits
        words[w] |= flat & ((1 << bits) - 1)
        pos = succ.ravel()[flat] + 1 if level + 1 < size else None
        return variant[parent], pos, words

    def bin_leaves(level: int, variant: np.ndarray, pos: np.ndarray, key: np.ndarray):
        """The dense bin of each leaf below the given rows, and the row it grows from.

        A bin is a leaf key's low ``shift`` bits: its row's key shifted up by
        ``bits``, or'ed with its activity.  The leaf's cell in the block is
        ``row << bits | activity``, so its bin is the cell plus ``off[row]``.
        Size-1 seed rows are their own leaves.
        """
        if level == size:
            return key & (span - 1), np.arange(len(key))
        flat = children(level, variant, pos)[1]
        parent = flat >> bits
        off = ((key << bits) & (span - 1)) - (np.arange(len(key)) << bits)
        return flat + off[parent], parent

    def check_cap(count: int) -> None:
        if count > cap:
            raise CandidateLimitError(bk_type, size, count=count, cap=cap)

    def reduce(leaves: list, ones: list, acc):
        """Fold (key words, variant) rows into the key bins or grouped aggregates ``acc``.

        Dense leaves hold only their bin for a key, and ``ones`` the bins of
        count-1 variants' leaves, which add 1 to a cardinality and 0 to an
        entropy sum.
        """
        words = [np.concatenate(column) for column in zip(*(k for k, _ in leaves))]
        variant = np.concatenate([v for _, v in leaves])
        if dense:
            acc[0] += np.bincount(np.concatenate(ones), minlength=span)
            if len(variant):
                for b, x in zip(acc, (counts, clog)):
                    b += np.bincount(words[0], weights=x[variant], minlength=span)
            return acc
        rows = (words, counts[variant], clog[variant])
        acc = _group(*(rows if acc is None else _concat([acc, rows])))
        check_cap(found + len(acc[1]))
        return acc

    # Candidates with different first activities have disjoint key ranges,
    # so each first activity is grown and reduced on its own, in ascending
    # order.  Its rows are the views whose first occurrence of it leaves
    # room for the rest of the candidate.
    results = [([np.zeros(0, dtype=np.int64)] * n_words, np.zeros(0, dtype=np.int64), np.zeros(0))]
    # The dense bins; each first activity clears those it filled.
    tally = [np.zeros(span), np.zeros(span)] if dense else None
    found = 0
    for a in range(n_labels):
        first = nxt[starts, a]
        variant = np.flatnonzero(first < ends - (size - 1))
        if not len(variant):
            continue
        words = [np.full(len(variant), a, dtype=np.int64)]
        words += [np.zeros(len(variant), dtype=np.int64)] * (n_words - 1)
        stack = [(1, variant, first[variant] + 1, words)]
        # Depth first, chunk by chunk: a level is dropped once its last chunk
        # is expanded.  The leaves below a chunk at ``size - 1`` are held
        # until they reach a limit, then reduced into ``acc``: the span for
        # dense bins, so a first activity costs O(rows + span), else the keys
        # so far, at least ``_FRONTIER_CAP``, so each row is grouped O(log n)
        # times.  Dense leaves are held as bins, split by their variant's
        # count before they are grown, and only repeated variants' leaves
        # keep a variant to weight them by.
        acc = tally if dense else None
        leaves, ones, held = [], [], 0
        while stack:
            level, variant, pos, words = stack.pop()
            if level < size and len(variant) > chunk:
                stack.append((level, variant[chunk:], pos[chunk:], [w[chunk:] for w in words]))
                variant, pos, words = variant[:chunk], pos[:chunk], [w[:chunk] for w in words]
            if level + 1 < size:
                variant, pos, words = expand(level, variant, pos, words)
                if len(variant):
                    stack.append((level + 1, variant, pos, words))
                continue
            if dense:
                one = unit[variant]
                ones.append(bin_leaves(level, variant[one], pos[one], words[0][one])[0])
                held += len(ones[-1])
                many = ~one
                bins, parent = bin_leaves(level, variant[many], pos[many], words[0][many])
                variant, words = variant[many][parent], [bins]
            elif level < size:
                variant, _, words = expand(level, variant, pos, words)
            leaves.append((words, variant))
            held += len(variant)
            if held >= (span if dense else max(_FRONTIER_CAP, len(acc[1]) if acc else 0)):
                acc, leaves, ones, held = reduce(leaves, ones, acc), [], [], 0
        if leaves:
            acc = reduce(leaves, ones, acc)
        if dense:
            present = np.flatnonzero(acc[0] > 0)
            acc = ([present | a << shift], *(b[present] for b in acc))
            for b in tally:
                b[present] = 0
        results.append((acc[0], acc[1].astype(np.int64), acc[2]))
        found += len(acc[1])
        check_cap(found)

    del tally  # not held while the index is joined
    words, cards, ents = _concat(results)
    return CandidateIndex(log.labels, bk_type, size, words, bits, cards, ents)
