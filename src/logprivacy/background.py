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
frontier row is (position, packed key), and every candidate a view contains
is reached from it along exactly one path: the position indexes a per-call
next-occurrence table, and the successor for activity a is the first
occurrence of a after it.  The position also names the row's view: arrays
built beside the table give each table row its view's end row, its trace
count and count * log2 count, 20 bytes per table row (the end in the
table's int32 dtype and two float64).  Variants whose views are equal stay
separate rows, each adding its own trace count.

A level is one vectorized step over the frontier for all activities at once.
One pass serves every requested size of a type: the frontier grows up to the
largest, and a row is dropped as soon as it cannot reach the smallest
requested size still ahead of it.  Candidates with different first
activities have disjoint key ranges, so each first activity is grown on its
own: its first level is read from the table's column at each view's start,
and it is expanded depth first in chunks of ``_FRONTIER_CAP // alphabet``
rows (4,096 on 16 activities), so the frontier's memory stays bounded
however long the traces are.  The table is built once per pass and not
chunked: it holds one int32 for every event and every end of the views and
every activity code, the alphabet rounded up to a power of two, so it grows
with view events x alphabet.  On the benchmark's
Sepsis-shaped log (16 activities) it takes 0.94 MB for subsequences and
multisets and 0.55 MB for sets, and the arrays beside it 0.29 MB and
0.17 MB; 100k variants of 50 events over 200 activities (256 codes) would
need about 5.2 GB.  The table is a function of the views alone, so building
it per block of views is one call on a slice of them.  Keys are fixed-width
packed integers, split over several 63-bit words when the alphabet and size
need more bits, and held as one (rows, words) int64 array by the frontier,
the reductions and the index alike; a row's key at a level is the key of
its candidate of that size.

Every requested level is reduced during the pass, straight to each
candidate's cardinality and entropy sum, by a reduction of its own that
keeps its own buffer and its own cap count.  When a key fits one word, a
first activity's keys differ only in the bits below it; if those span at
most ``_DENSE_SPAN`` values (2**20: up to 16 activities at size 6), they are
summed into dense bins over that span.  A requested level short of the
largest bins its rows, which the pass builds anyway.  A dense largest level
builds no leaf row: each chunk of rows one level short is turned straight
into its leaves' bins, since a leaf's cell in the chunk's table block is
``row << bits | activity``, so its bin is that cell plus an offset of its
row.  Each chunk's leaves are added into their bins with ``np.add.at`` as
soon as they are built, so no leaf is held and no step costs O(span).  A
variant that occurs once adds exactly 1 to a cardinality and 0 to an entropy
sum, and a row never leaves its variant's view.  So each first activity is
grown twice, from the views of variants that occur once and then from the
others', and every chunk holds one kind of row: a count-1 chunk adds 1 to
its cardinality bins alone, and only repeated variants' chunks read their
weights.  When a first activity closes, the non-empty bins are its
candidates in canonical order.  Wider alphabets, larger sizes and multi-word
keys hold their rows as keys, the largest level like any other, and sort
them with the keys so far once they outnumber both those keys and
``_FRONTIER_CAP`` (2**16).  Dense bins or sorting is chosen per size, so one
pass may use both.  A size whose candidates exceed the cap stops its own
reduction and hands over no further part; the others finish.

Each first activity's candidates of a size become one part as the first
activity closes, and the pass hands it at once to one callback,
``fold(size, keys, cardinalities, entropy sums)``, whatever its size.  The
risk path folds each part into the running sums of its cell and drops it,
and the candidate dump writes the part's rows from the same pass, so
neither holds an index.  Without a callback each part is appended to its
size's index, which keeps the parts as they came and joins them only when
asked for a whole array.

The index keeps only the keys, those aggregates and the activity labels;
callers that need a candidate's matching traces get them from
:func:`project`.
"""

from __future__ import annotations

import csv
import io
import itertools
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import CandidateLimitError
from .event_log import EventLog, Variant

DEFAULT_CANDIDATE_CAP = 50_000_000

# One expansion step takes ``_FRONTIER_CAP // n_labels`` rows, so this bounds
# its temporaries and the per-level rows it leaves on the stack; it is also
# the sorted path's smallest reduction buffer.  On the benchmark's
# Sepsis-shaped log, the set/mult/seq grid of sizes 1-5 raised peak RSS over
# the built log by 7.0 MB at 2**18 and by 4.8 MB at 2**16.  2**15 made the
# seq pass and the sorted path slower.
_FRONTIER_CAP = 1 << 16

# The most keys a size's candidates under one first activity may span and
# still be reduced into dense bins: two float64 arrays of this length, 16 MB,
# which are all a dense size holds, since leaves are added into them as they
# are built.  It does not follow ``_FRONTIER_CAP``, so the dense-or-sorted
# choice of each alphabet and size stays put when the step size changes.
_DENSE_SPAN = 1 << 20


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


def _key_bits(n_labels: int) -> int:
    """Bits per activity code in a packed key over ``n_labels`` activities."""
    return max(1, (n_labels - 1).bit_length())


def _key_digits(keys: np.ndarray, size: int, bits: int) -> Iterator[np.ndarray]:
    """The activity ids of size-``size`` packed keys, one array per position, first to last.

    A key word holds ``63 // bits`` codes, the earliest in its highest bits;
    the last word holds the rest.
    """
    mask = (1 << bits) - 1
    per_word = 63 // bits
    for w, word in enumerate(keys.T):
        n = min(per_word, size - w * per_word)
        for i in range(n):
            yield (word >> (bits * (n - 1 - i))) & mask


def _element_blocks(parts: Iterable, size: int, bits: int) -> Iterator:
    """The activity ids of the parts' candidates, one row each, decoded from the keys.

    Yields (ids, cardinalities) for blocks of at most 65,536 candidates
    of one part.
    """
    step = 1 << 16
    for keys, cards, *_ in parts:
        for lo in range(0, len(cards), step):
            columns = list(_key_digits(keys[lo : lo + step], size, bits))
            yield np.stack(columns, axis=1), cards[lo : lo + step]


def csv_writer(out: TextIO, labels: Sequence[str], size: int) -> Callable[[Iterable], None]:
    """Start a debug dump of size-``size`` candidates: one ``candidate,cardinality`` CSV row each.

    Writes the header to ``out`` and returns the function that writes the
    rows of the parts it is given, in the order given; the parts of a size
    in the order the enumeration pass builds them give canonical order.  A
    candidate is its labels joined by ``|``; a name holding a comma, quote
    or line break is quoted as RFC 4180 asks.
    """
    csv.writer(out, lineterminator="\n").writerow(("candidate", "cardinality"))
    # Each label as the csv module writes it; a name with a quoted label
    # is quoted whole, its inner quotes doubled.
    cells = []
    for label in labels:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow((label, ""))
        cells.append(buf.getvalue()[: -len(",\n")])
    quoted = np.array([c != label for c, label in zip(cells, labels)], dtype=bool)
    inner = [c[1:-1] if q else c for c, q in zip(cells, quoted)]
    first = np.array(inner, dtype=object)
    later = np.array(["|" + c for c in inner], dtype=object)

    def write(parts: Iterable) -> None:
        for ids, cards in _element_blocks(parts, size, _key_bits(len(labels))):
            name = first[ids[:, 0]]
            for column in ids.T[1:]:
                name = name + later[column]
            wrap = quoted[ids].any(axis=1)
            name[wrap] = '"' + name[wrap] + '"'
            out.writelines(f"{n},{c}\n" for n, c in zip(name.tolist(), cards.tolist()))

    return write


class CandidateIndex:
    """All size-l candidates of one type with non-empty projections.

    The index keeps the parts the enumeration pass built, one per first
    activity, first activities ascending.  A part is (keys, cardinalities,
    entropy sums) of its candidates in canonical ascending order; its keys
    are packed, one row each of a (candidates, words) int64 array.  Besides
    the keys the index holds only what the risk measures read: each
    candidate's multiplicity-weighted projection size and its entropy sum
    ``sum(count * log2 count)`` over matching variants, plus the activity
    labels :meth:`write_csv` prints.  :meth:`cardinalities` and
    :meth:`entropy_sums` join the parts on each call.  A candidate's
    matching traces come from :func:`project`.
    """

    def __init__(self, labels: Sequence[str], bk_type: BkType, size: int, parts: Iterable):
        self._labels, self._parts = tuple(labels), list(parts)
        self.bk_type, self.size = bk_type, size

    @property
    def candidate_count(self) -> int:
        return sum(len(cards) for _, cards, _ in self._parts)

    def parts(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(keys, cardinalities, entropy sums) of each first activity's candidates.

        These are the parts the enumeration pass built, first activities
        ascending.
        """
        return iter(self._parts)

    def candidates(self) -> Iterator[Candidate]:
        for block, _ in _element_blocks(self._parts, self.size, _key_bits(len(self._labels))):
            for elements in block.tolist():
                yield Candidate(self.bk_type, tuple(elements))

    def cardinalities(self) -> np.ndarray:
        """Multiplicity-weighted projection size per candidate, canonical order."""
        return np.concatenate([np.empty(0, dtype=np.int64), *(c for _, c, _ in self._parts)])

    def entropy_sums(self) -> np.ndarray:
        """Per candidate: sum over matching variants of count*log2(count)."""
        return np.concatenate([np.empty(0), *(e for _, _, e in self._parts)])

    def write_csv(self, out: TextIO) -> None:
        """Debug dump: one ``candidate,cardinality`` CSV row per candidate, as :func:`csv_writer`."""
        csv_writer(out, self._labels, self.size)(self._parts)


# -- enumeration -------------------------------------------------------------

def _next_occurrence(
    views: Sequence[Sequence[int]], n_labels: int, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next-occurrence table of ``views`` over activities ``0 .. n_labels - 1``.

    Every view owns one row per event and one end row after them; ``starts``
    gives each view's first row and ``end`` each row's view's end row, in
    the table's dtype.  ``nxt[p, a]`` is the first row at or after ``p`` of
    an event ``a`` in ``p``'s view, or the number of rows when there is
    none.  The table has ``width >= n_labels`` columns; those past
    ``n_labels`` hold no occurrence.
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
    return nxt, (ends - lengths).astype(dtype), row_end.astype(dtype)


def _group(keys: np.ndarray, cards: np.ndarray, ents: np.ndarray):
    """Sort key rows and sum the aggregates of equal keys."""
    order = np.lexsort(keys.T[::-1])
    keys = np.take(keys, order, axis=0)
    starts = np.flatnonzero(np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1))))
    return (
        np.take(keys, starts, axis=0),
        np.add.reduceat(cards[order], starts),
        np.add.reduceat(ents[order], starts),
    )


class _Reduction:
    """The candidates of one requested size, reduced while the pass runs.

    Dense leaves are added into ``acc``, two bin arrays over a first
    activity's key span, as they arrive, those of count-1 variants into the
    cardinality bins alone.  Sorted leaves are held until they reach a
    limit, then grouped with ``acc``, that first activity's sorted (keys,
    cardinalities, entropy sums).  Each first activity's candidates
    become one part, which :meth:`close` returns.  Past ``cap`` distinct
    candidates the reduction stops and ``error`` holds the
    :class:`CandidateLimitError`.
    """

    def __init__(self, bk_type: BkType, size: int, bits: int, cap: int, weights):
        self.bk_type, self.size, self.cap = bk_type, size, cap
        self.weights = weights  # each table row's trace count and count * log2 count
        self.n_words = -(-size // (63 // bits))
        # In one key word, a first activity's keys differ only in the low
        # ``shift`` bits below it, so they fit a span of dense bins.
        self.shift = bits * (size - 1)
        self.span = 1 << self.shift
        self.dense = self.n_words == 1 and self.span <= _DENSE_SPAN
        # The dense bins serve the whole pass; each first activity clears
        # those it filled.
        self.acc = [np.zeros(self.span), np.zeros(self.span)] if self.dense else None
        self.leaves, self.held, self.opened = [], 0, False
        self.found, self.error = 0, None

    def hold(self, keys: np.ndarray, pos: np.ndarray | None, ones: bool) -> None:
        """Take leaves as keys and the table position each was reached at.

        Dense leaves come as their bins for keys, and are added into them
        at once, so a first activity costs O(rows) until it closes.  When
        ``ones`` is set they are all count-1 variants' leaves, each adding
        1 to a cardinality and 0 to an entropy sum, so no position is read.
        Sorted leaves are held until they reach the keys so far, at least
        ``_FRONTIER_CAP``, so each row is grouped O(log n) times.
        """
        self.opened = True
        if self.dense:
            if ones:
                # A float 1: an int is cast per element, which made this call
                # 40 times slower on numpy 2.4.
                np.add.at(self.acc[0], keys, 1.0)
            else:
                for b, x in zip(self.acc, self.weights):
                    np.add.at(b, keys, np.take(x, pos))
            return
        self.leaves.append((keys, pos))
        self.held += len(pos)
        if self.held >= max(_FRONTIER_CAP, len(self.acc[1]) if self.acc else 0):
            self.reduce()

    def reduce(self) -> None:
        """Group the held leaves with ``acc``."""
        keys = np.concatenate([k for k, _ in self.leaves])
        pos = np.concatenate([p for _, p in self.leaves])
        self.leaves, self.held = [], 0
        rows = (keys, *(np.take(x, pos) for x in self.weights))
        if self.acc is not None:
            rows = [np.concatenate(pair) for pair in zip(self.acc, rows)]
        self.acc = _group(*rows)
        self.check(self.found + len(self.acc[1]))

    def check(self, count: int) -> None:
        if count > self.cap:
            self.error = CandidateLimitError(self.bk_type, self.size, count=count, cap=self.cap)
            self.acc, self.leaves = None, []

    def close(self, a: int):
        """End first activity ``a``: the part of its candidates, or ``None`` if it has none."""
        if not self.opened:
            return None
        self.opened = False
        if self.leaves:
            self.reduce()
        if self.error is not None:
            return None
        if self.dense:
            present = np.flatnonzero(self.acc[0] > 0)
            part = ((present | a << self.shift)[:, None], *(b[present] for b in self.acc))
            for b in self.acc:
                b[present] = 0
        else:
            part, self.acc = self.acc, None
        self.found += len(part[1])
        self.check(self.found)
        if self.error is not None or not len(part[1]):
            return None
        return part[0], part[1].astype(np.int64), part[2]


def _wanted_sizes(sizes: Iterable) -> list[int]:
    """The distinct requested sizes, ascending; ``ValueError`` unless each is an integer >= 1."""
    given = tuple(sizes)
    if not all(isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in given):
        raise ValueError("candidate sizes must be integers")
    wanted = sorted({int(s) for s in given})
    if not wanted:
        raise ValueError("at least one candidate size is required")
    if wanted[0] < 1:
        raise ValueError("candidate size must be >= 1")
    return wanted


def enumerate_candidates(
    log: EventLog,
    bk_type: BkType,
    sizes: int | Iterable[int],
    cap: int = DEFAULT_CANDIDATE_CAP,
    *,
    fold: Callable[[int, np.ndarray, np.ndarray, np.ndarray], None] | None = None,
):
    """Build the index of all candidates of each requested size with matching traces.

    The frontier grows one activity per level inside each variant's view
    for ``bk_type`` (see the module docstring), so only candidates with
    non-empty projections are produced, and each variant reaches each of its
    candidates exactly once and adds its full trace count to it.  One pass
    grows the frontier up to the largest size, and each requested size is
    reduced to per-candidate cardinalities and entropy sums as the frontier
    reaches it.  Each first activity is seeded from its column of the
    next-occurrence table, then expanded depth first in chunks of a bounded
    number of rows; a row is dropped once it cannot reach the smallest
    requested size still ahead of it.  A row is a position in the table,
    which also gives its view's end, trace count and entropy term, and a
    key, one row of a (rows, words) int64 array.  Each requested level is
    reduced from its rows as they are built.  When the first activity's
    keys span at most ``_DENSE_SPAN`` values of one key word, a size's rows
    are added into dense bins as they are built, and the largest size's
    rows are never built: each chunk one level short of it is turned
    straight into its leaves' bin indices.  Each first activity grows the
    rows of count-1 variants first and those of repeated variants after, so
    every chunk holds one kind, and a count-1 chunk adds only to its
    cardinality bins.
    Otherwise a size's rows are sorted a buffer at a time.  Dense bins or
    sorting is chosen for each size from the alphabet's width and the size
    alone, so one pass may use both.

    ``bk_type`` must be a :class:`BkType`, and ``sizes`` one size or a
    collection of them, each an integer; anything else raises
    ``ValueError``.  For one size the index is returned,
    and more than ``cap`` distinct candidates raise
    :class:`CandidateLimitError` rather than return a partial index.  For a
    collection a dict maps each distinct size, ascending, to its index or,
    past ``cap``, to its :class:`CandidateLimitError`; a size over the cap
    stops its own reduction, and the other sizes still finish.

    Each size's candidates come in non-empty parts: ``(keys,
    cardinalities, entropy sums)`` of one first activity's candidates, as
    soon as that first activity closes, first activities ascending.  By
    default a size's :class:`CandidateIndex` keeps its parts.  ``fold``,
    when given, is called as ``fold(size, keys, cardinalities, entropy
    sums)`` with every part of every size, and no index is built; the
    result then maps each size to its :class:`CandidateLimitError` or
    ``None``.  A size over the cap hands over no further part, so the
    parts it did hand over are not all its candidates.
    """
    if not isinstance(bk_type, BkType):
        raise ValueError(f"unknown background-knowledge type {bk_type!r}")
    single = not isinstance(sizes, Iterable)
    wanted = _wanted_sizes((sizes,) if single else sizes)
    if cap < 1:
        raise ValueError("candidate cap must be >= 1")

    n_labels = len(log.labels)
    bits = _key_bits(n_labels)
    # One table column per ``bits``-bit activity code, so the cell of row r
    # and activity a in a block of rows is ``r << bits | a``.
    nxt, starts, end = _next_occurrence(
        [_view(bk_type, v) for v in log.variants], n_labels, 1 << bits
    )
    # Each table row's trace count: that of the variant whose view holds it.
    counts = np.repeat(np.asarray(log.counts, dtype=np.float64), np.diff(starts, append=len(end)))
    weights = (counts, counts * np.log2(counts))
    # The views' starts, split by whether their variant occurs once.
    unit = np.asarray(log.counts) == 1
    groups = ((True, starts[unit]), (False, starts[~unit]))
    reductions = [_Reduction(bk_type, size, bits, cap, weights) for size in wanted]
    kept: dict[int, list] = {size: [] for size in wanted}
    hand = fold or (lambda size, *part: kept[size].append(part))
    # Rows per expansion step.  Their table block is padded to a power of
    # two wide, so it holds at most ``2 * _FRONTIER_CAP`` cells.
    chunk = max(1, _FRONTIER_CAP // n_labels)

    def plan():
        """The reductions still running, by size, and the room each level's children need.

        ``room[level]`` is how many events a child of a row at ``level``
        must leave after it to reach the smallest running size beyond
        ``level``, so the list is as long as the largest running size.
        """
        live = {r.size: r for r in reductions if r.error is None}
        deepest = max(live, default=0)
        room = [min(s for s in live if s > level) - level - 1 for level in range(deepest)]
        return live, room

    def children(level: int, pos: np.ndarray):
        """The table block of the given rows at ``level``, and their children's cells in it."""
        # Positions are in the table's dtype.  ``np.take`` gathers by them
        # without first casting them to intp, as indexing does, and copies
        # table rows faster too.
        succ = np.take(nxt, pos, axis=0)
        return succ, np.flatnonzero(succ < (np.take(end, pos) - room[level])[:, None])

    def expand(level: int, pos: np.ndarray, keys: np.ndarray):
        """The frontier rows one level deeper than the given rows at ``level``."""
        succ, flat = children(level, pos)
        keys = np.take(keys, flat >> bits, axis=0)
        w = level // (63 // bits)
        keys[:, w] <<= bits
        keys[:, w] |= flat & ((1 << bits) - 1)
        return succ.ravel()[flat] + 1, keys

    def bin_leaves(level: int, pos: np.ndarray, key: np.ndarray, span: int, ones: bool):
        """The dense bin of each leaf below the given rows, and its row's position unless ``ones``.

        A bin is a leaf key's low bits below its first activity: its row's
        key shifted up by ``bits``, or'ed with its activity.  The leaf's cell
        in the block is ``row << bits | activity``, so its bin is the cell
        plus ``off[row]``.
        """
        flat = children(level, pos)[1]
        parent = flat >> bits
        off = ((key << bits) & (span - 1)) - (np.arange(len(key)) << bits)
        return flat + off[parent], None if ones else np.take(pos, parent)

    def reach(level: int, pos: np.ndarray, keys: np.ndarray, ones: bool) -> None:
        """Reduce rows that end at a requested size, and stack those that grow on."""
        nonlocal live, room
        if level in live:
            r = live[level]
            r.hold(keys[:, 0] & (r.span - 1) if r.dense else keys[:, : r.n_words], pos, ones)
            if r.error is not None:
                live, room = plan()
            if level < len(room):
                # Their own level asked no room of them; the next size does.
                keep = np.flatnonzero(pos < np.take(end, pos) - room[level])
                pos, keys = pos[keep], np.take(keys, keep, axis=0)
        if level < len(room) and len(pos):
            stack.append((level, pos, keys))

    # Candidates with different first activities have disjoint key ranges,
    # so each first activity is grown and reduced on its own, in ascending
    # order.  Its rows are the views whose first occurrence of it leaves
    # room for the rest of the smallest requested candidate: count-1
    # variants' views first, then the others, so every chunk holds one kind
    # of row.  A size that exceeds the cap drops out of the plan, and the
    # rows that only led to it are skipped.
    for a in range(n_labels):
        for ones, seeds in groups:
            live, room = plan()
            if not live:
                break
            first = nxt[seeds, a]
            first = first[first < end[seeds] - room[0]]
            if not len(first):
                continue
            keys = np.zeros((len(first), live[len(room)].n_words), dtype=np.int64)
            keys[:, 0] = a
            stack = []
            reach(1, first + 1, keys, ones)
            # Depth first, chunk by chunk: a level is dropped once its last
            # chunk is expanded.  Rows that reach a requested size are reduced
            # as they are built, except at a dense largest size: a chunk one
            # level short of it is turned straight into its leaves' bins.
            while stack:
                level, pos, keys = stack.pop()
                if level >= len(room):
                    continue
                if len(pos) > chunk:
                    stack.append((level, pos[chunk:], keys[chunk:]))
                    pos, keys = pos[:chunk], keys[:chunk]
                last = live[len(room)]
                if level + 1 < len(room) or not last.dense:
                    reach(level + 1, *expand(level, pos, keys), ones)
                else:
                    last.hold(*bin_leaves(level, pos, keys[:, 0], last.span, ones), ones)
        for r in reductions:
            part = r.close(a)
            if part is not None:
                hand(r.size, *part)
            elif r.error is not None:
                kept[r.size].clear()
        # Not held while the next first activity grows.
        del part

    found = {size: r.error or (None if fold else CandidateIndex(log.labels, bk_type, size, parts))
             for (size, parts), r in zip(kept.items(), reductions)}
    if fold or not single:
        return found
    if isinstance(found[wanted[0]], CandidateLimitError):
        raise found[wanted[0]]
    return found[wanted[0]]
