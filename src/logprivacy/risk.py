"""Disclosure-risk measures over candidate indices.

Case disclosure is the (average or worst-case) uniqueness of the traces
matching a candidate; trace disclosure is one minus the (average or
worst-case) normalized entropy of those matching traces.  Both live in
[0, 1].

A cell's measures need only five running sums over its candidates: their
count, the sum and maximum of 1 / cardinality, and the sum and minimum of
the normalized entropy.  They are folded one first activity's candidates
at a time, in canonical order: :func:`risk_profile` folds each part as the
enumeration pass closes it and keeps no index, and :func:`case_disclosure`
and :func:`trace_disclosure` fold a library index's parts the same way, so
both give the same floats.

Each pass of :func:`risk_profile` hands its parts to one callback that
files them by (type, size) cell.  A multiset pass in a grid that also asks
for sets files each part's strictly increasing rows under the set cell of
its size as well: those rows are the set candidates, with the same keys and
the same matching variants.  The CLI's candidate dump takes each cell's
parts from the same callback, so scoring and dumping share one pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .background import BkType, CandidateIndex, DEFAULT_CANDIDATE_CAP, enumerate_candidates
from .background import _key_bits, _key_digits, _wanted_sizes
from .event_log import EventLog


class Aggregation(Enum):
    AVERAGE = "average"
    WORST = "worst"


@dataclass(frozen=True)
class RiskScore:
    bk_type: BkType
    size: int
    cd: float
    td: float
    n_candidates: int
    aggregation: Aggregation


@dataclass(frozen=True)
class RiskProfile:
    """Risk scores over a (type, size) grid plus the cells that produced none.

    ``skipped`` records cells for which no candidate of that size exists (a
    legitimate absence); ``failures`` records cells whose enumeration hit the
    candidate cap.  scores/skipped/failures keys partition the grid, and
    each mapping lists its keys in grid order: by type as given, then by
    size as given.
    """

    scores: Mapping[tuple[BkType, int], RiskScore]
    skipped: Mapping[tuple[BkType, int], str]
    failures: Mapping[tuple[BkType, int], str]


class _Sums:
    """A cell's running sums, fed one non-empty part of its candidates at a time."""

    def __init__(self):
        self.n, self.uniq_sum, self.uniq_max, self.ratio_sum, self.ratio_min = 0, 0.0, 0.0, 0.0, 1.0

    def __call__(self, keys: np.ndarray, cards: np.ndarray, entsums: np.ndarray) -> None:
        card = cards.astype(np.float64)
        uniqueness = 1.0 / card
        # The normalized entropy, in place over two arrays of the part's
        # length.  A candidate matching a single trace copy has ratio 0: its
        # entropy sum and log2(1) are 0, and it is divided by 1, not 0.
        ent = entsums / card
        max_ent = np.log2(card, out=card)
        ratios = np.subtract(max_ent, ent, out=ent)
        np.divide(ratios, np.maximum(max_ent, 1.0, out=max_ent), out=ratios)
        # Guard float noise; a ratio outside [0, 1] is meaningless.
        np.clip(ratios, 0.0, 1.0, out=ratios)
        self.n += len(cards)
        self.uniq_sum += float(uniqueness.sum())
        self.uniq_max = max(self.uniq_max, float(uniqueness.max()))
        self.ratio_sum += float(ratios.sum())
        self.ratio_min = min(self.ratio_min, float(ratios.min()))

    def scores(self, aggregation: Aggregation) -> tuple[float, float]:
        """Case and trace disclosure over the candidates folded so far."""
        if aggregation is Aggregation.WORST:
            return self.uniq_max, 1.0 - self.ratio_min
        return self.uniq_sum / self.n, 1.0 - self.ratio_sum / self.n


def _fold(index: CandidateIndex) -> _Sums:
    if index.candidate_count == 0:
        raise ValueError("no candidates at this size")
    sums = _Sums()
    for part in index.parts():
        sums(*part)
    return sums


def case_disclosure(index: CandidateIndex, aggregation: Aggregation = Aggregation.AVERAGE) -> float:
    """Uniqueness of matching traces, averaged (or maximized) over candidates."""
    return _fold(index).scores(aggregation)[0]


def trace_disclosure(index: CandidateIndex, aggregation: Aggregation = Aggregation.AVERAGE) -> float:
    """How determined the full trace is given a matching candidate.

    Per candidate the normalized entropy of the matching-trace distribution
    is taken; a candidate matching a single trace copy has ratio 0 by
    convention (the trace is revealed with certainty).
    """
    return _fold(index).scores(aggregation)[1]


def risk_profile(
    log: EventLog,
    types: Iterable[BkType],
    sizes: Iterable[int],
    aggregation: Aggregation = Aggregation.AVERAGE,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> RiskProfile:
    """Compute one RiskScore per (type, size) cell of the requested grid.

    Each distinct type is enumerated in one pass over all requested sizes,
    which folds each first activity's candidates into the cell's sums as
    it closes.  A grid that asks for both sets and multisets scores its set
    cells from the multiset pass, and runs a set pass only for the sizes
    whose multiset candidates exceed the cap.  Cells whose enumeration hits
    the candidate cap are recorded in ``failures`` with the error text; the
    remaining cells are still computed.  No types, a type that is not a
    :class:`BkType`, no sizes, or a size or ``cap`` that is not an integer
    >= 1 raise ``ValueError`` before any pass.
    """
    return _risk_profile(log, types, sizes, aggregation, cap)


def _risk_profile(log: EventLog, types, sizes, aggregation, cap, hook=None) -> RiskProfile:
    """:func:`risk_profile`, handing each cell's parts to ``hook`` as its sums take them.

    ``hook(bk_type, size, part)`` gets every part ``(keys, cardinalities,
    entropy sums)`` a cell's sums take, in the order they take them, and
    ``part=None`` when the pass drops the parts taken so far: the cell's
    candidates exceeded the cap, or, for a set cell scored from the
    multiset pass, that size's multiset candidates did.  Such a set cell
    then gets the parts of a set pass.
    """
    type_list, size_list = list(types), list(sizes)
    if not type_list:
        raise ValueError("at least one background-knowledge type is required")
    if not all(isinstance(t, BkType) for t in type_list):
        raise ValueError("background-knowledge types must be BkType members")
    wanted = _wanted_sizes(size_list)
    # A repeated type or size keeps its first place in grid order.
    distinct = list(dict.fromkeys(type_list))
    both = BkType.SET in distinct and BkType.MULTISET in distinct
    bits = _key_bits(len(log.labels))
    sums: dict[tuple[BkType, int], _Sums] = {}
    errors: dict[tuple[BkType, int], str] = {}

    def take(cell: tuple[BkType, int], part: tuple | None) -> None:
        if part is None:
            sums.pop(cell, None)
        else:
            sums.setdefault(cell, _Sums())(*part)
        if hook:
            hook(*cell, part)

    def run(bk_type: BkType, sizes: list[int]) -> None:
        """One pass of ``bk_type``; with sets in the grid, a multiset pass scores them too."""
        sets = both and bk_type is BkType.MULTISET

        def fold(size: int, *part) -> None:
            take((bk_type, size), part)
            if sets:
                # A set candidate is a multiset candidate whose activities
                # strictly increase: same key, same matching variants.
                ids = np.array(list(_key_digits(part[0], size, bits)))
                rising = (ids[1:] > ids[:-1]).all(axis=0)
                if rising.any():
                    take((BkType.SET, size), tuple(x[rising] for x in part))

        lost = []
        for size, error in enumerate_candidates(log, bk_type, sizes, cap=cap, fold=fold).items():
            if error is not None:
                errors[(bk_type, size)] = str(error)
                take((bk_type, size), None)
                if sets:
                    take((BkType.SET, size), None)
                    lost.append(size)
        if lost:
            # Their set candidates may still fit the cap.
            run(BkType.SET, lost)

    for bk_type in distinct:
        if not (both and bk_type is BkType.SET):
            run(bk_type, wanted)
    scores, skipped, failures = {}, {}, {}
    for cell in dict.fromkeys(itertools.product(distinct, size_list)):
        if cell in errors:
            failures[cell] = errors[cell]
        elif cell in sums:
            scores[cell] = RiskScore(*cell, *sums[cell].scores(aggregation), sums[cell].n,
                                     aggregation)
        else:
            skipped[cell] = "no candidates at this size"
    return RiskProfile(scores=scores, skipped=skipped, failures=failures)
