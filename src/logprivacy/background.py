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
so after the first level the frontier is split by first activity, and each
part is expanded depth first in chunks of a bounded number of states, so the
frontier's memory stays bounded however long the traces are.  The table a
step reads is built once per call and not chunked: it holds one int32 per
activity for every event and every end of the views, so it grows with view
events x alphabet.  On the benchmark's Sepsis-shaped log it takes 0.94 MB
for subsequences and multisets and 0.55 MB for sets; 100k variants of 50
events over 200 activities would need about 4 GB.  Only the last level is
reduced, straight to each candidate's cardinality and entropy sum, by
sorting the keys and summing runs of equal ones.  Keys are fixed-width
packed integers, split over several 63-bit words when the alphabet and size
need more bits.

The index keeps only the keys, those aggregates and the activity labels;
callers that need a candidate's matching traces get them from
:func:`project`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import CandidateLimitError
from .event_log import EventLog, Variant

DEFAULT_CANDIDATE_CAP = 50_000_000

# Frontier states examined by one expansion step; bounds its transient memory.
_FRONTIER_CAP = 1 << 18


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

    def _decode(self, pos: int) -> Candidate:
        mask = (1 << self._bits) - 1
        per_word = 63 // self._bits
        elements = []
        for w, column in enumerate(self._words):
            n = min(per_word, self.size - w * per_word)
            word = int(column[pos])
            elements.extend((word >> (self._bits * (n - 1 - i))) & mask for i in range(n))
        return Candidate(self.bk_type, tuple(elements))

    def candidates(self) -> Iterator[Candidate]:
        for pos in range(self.candidate_count):
            yield self._decode(pos)

    def cardinalities(self) -> np.ndarray:
        """Multiplicity-weighted projection size per candidate, canonical order."""
        return self._cards

    def entropy_sums(self) -> np.ndarray:
        """Per candidate: sum over matching variants of count*log2(count)."""
        return self._entsums

    def write_csv(self, out: TextIO) -> None:
        """Debug dump: one ``candidate,cardinality`` line in canonical order."""
        out.write("candidate,cardinality\n")
        for pos, card in enumerate(self._cards):
            cand = self._decode(pos)
            name = "|".join(self._labels[a] for a in cand.elements)
            out.write(f"{name},{int(card)}\n")


# -- enumeration -------------------------------------------------------------

# A frontier state is a tuple of arrays: the variant index and the position in
# the next-occurrence table.  An expansion step takes the states and the
# number of elements still to add after this one, and returns, for every
# successor, the row of its parent, the activity it adds, and the successor
# states.
_State = tuple[np.ndarray, ...]
_Expand = Callable[[_State, int], tuple[np.ndarray, np.ndarray, _State]]


def _flatten(variants: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Variant lengths, and the events of all variants end to end."""
    lengths = np.fromiter(map(len, variants), dtype=np.int64, count=len(variants))
    events = np.fromiter(
        itertools.chain.from_iterable(variants), dtype=np.int64, count=int(lengths.sum())
    )
    return lengths, events


def _subsequence_frontier(
    variants: Sequence[Sequence[int]], n_labels: int
) -> tuple[_State, _Expand]:
    """Start states (variant, position) and expansion step for subsequences
    of ``variants`` over activities ``0 .. n_labels - 1``."""
    lengths, events = _flatten(variants)
    # Every variant owns one row per event and one end row after them.
    ends = np.cumsum(lengths + 1) - 1
    n_rows = int(ends[-1]) + 1
    acts = np.full(n_rows, -1, dtype=np.int64)
    is_event = np.ones(n_rows, dtype=bool)
    is_event[ends] = False
    acts[is_event] = events
    row_end = np.repeat(ends, lengths + 1)
    rows = np.arange(n_rows)
    # nxt[p, a]: the first row at or after p of an event a in p's variant,
    # or n_rows when there is none.
    nxt = np.empty((n_rows, n_labels), dtype=np.int32 if n_rows < 2**31 - 1 else np.int64)
    for a in range(n_labels):
        first = np.minimum.accumulate(np.where(acts == a, rows, n_rows)[::-1])[::-1]
        nxt[:, a] = np.where(first < row_end, first, n_rows)

    def expand(state: _State, need: int):
        variant, pos = state
        succ = nxt[pos]
        # The chosen event must leave at least ``need`` events after it.
        flat = np.flatnonzero(succ < (ends[variant] - need)[:, None])
        parent, act = np.divmod(flat, n_labels)
        return parent, act, (variant[parent], succ.ravel()[flat] + 1)

    return (np.arange(len(lengths)), ends - lengths), expand


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

    The frontier starts with one empty candidate per variant and grows one
    activity per level inside the variant's view for ``bk_type`` (see the
    module docstring), so only candidates with non-empty projections are
    produced, and each variant reaches each of its candidates exactly once
    and adds its full trace count to it.  After the first level the frontier
    is split by first activity, and each part is expanded depth first in
    chunks of a bounded number of states and reduced on its own; only size
    ``size`` is reduced to per-candidate cardinalities and entropy sums.
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
    start, expand = _subsequence_frontier([_view(bk_type, v) for v in log.variants], n_labels)
    counts = np.asarray(log.counts, dtype=np.float64)
    clog = counts * np.log2(counts)
    chunk = max(1, _FRONTIER_CAP // n_labels)

    def descend(level: int, state: _State, words: list[np.ndarray]):
        """The size-``size`` frontier grown from ``state``, chunk by chunk."""
        stack = [(level, state, words)]
        while stack:
            level, state, words = stack.pop()
            if level == size:
                yield state, words
                continue
            if len(state[0]) > chunk:
                stack.append((level, tuple(s[chunk:] for s in state), [w[chunk:] for w in words]))
                state, words = tuple(s[:chunk] for s in state), [w[:chunk] for w in words]
            parent, act, state = expand(state, size - level - 1)
            if len(parent):
                words = [w[parent] for w in words]
                w = level // per_word
                words[w] <<= bits
                words[w] |= act
                stack.append((level + 1, state, words))

    def check_cap(count: int) -> None:
        if count > cap:
            raise CandidateLimitError(bk_type, size, count=count, cap=cap)

    # The first level for all variants at once; it is no larger than the
    # tables behind ``expand``.  Candidates with different first activities
    # have disjoint key ranges, so each first activity is grown and reduced
    # on its own, in ascending order.
    _, first_act, first_state = expand(start, size - 1)
    order = np.argsort(first_act, kind="stable")
    bounds = np.searchsorted(first_act[order], np.arange(n_labels + 1))
    empty = ([np.zeros(0, dtype=np.int64)] * n_words, np.zeros(0), np.zeros(0))
    results = [empty]
    found = 0
    for a in range(n_labels):
        rows = order[bounds[a] : bounds[a + 1]]
        if not len(rows):
            continue
        words = [np.full(len(rows), a, dtype=np.int64)]
        words += [np.zeros(len(rows), dtype=np.int64)] * (n_words - 1)
        chunks = descend(1, tuple(s[rows] for s in first_state), words)
        # Chunks are grouped as they come and merged once the pending
        # rows outgrow the merged ones, so each row is merged O(log n) times.
        merged, parts = empty, []
        for state, words in chunks:
            parts.append(_group(words, counts[state[0]], clog[state[0]]))
            if sum(len(p[1]) for p in parts) > max(len(merged[1]), _FRONTIER_CAP):
                merged, parts = _group(*_concat([merged, *parts])), []
                check_cap(found + len(merged[1]))
        results.append(_group(*_concat([merged, *parts])))
        found += len(results[-1][1])
        check_cap(found)

    words, cards, ents = _concat(results)
    return CandidateIndex(log.labels, bk_type, size, words, bits, cards.astype(np.int64), ents)
