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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .background import BkType, CandidateIndex, DEFAULT_CANDIDATE_CAP, _wanted_sizes, enumerate_candidates
from .errors import CandidateLimitError
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
    it closes.  Cells whose enumeration hits the candidate cap are recorded
    in ``failures`` with the error text; the remaining cells are still
    computed.  No types, a type that is not a :class:`BkType`, no sizes, or
    a size that is not an integer >= 1 raise ``ValueError`` before any pass.
    """
    type_list = list(types)
    size_list = list(sizes)
    if not type_list:
        raise ValueError("at least one background-knowledge type is required")
    if not all(isinstance(t, BkType) for t in type_list):
        raise ValueError("background-knowledge types must be BkType members")
    _wanted_sizes(size_list)
    scores: dict[tuple[BkType, int], RiskScore] = {}
    skipped: dict[tuple[BkType, int], str] = {}
    failures: dict[tuple[BkType, int], str] = {}
    # A repeated type or size keeps its first place in grid order.
    for bk_type in dict.fromkeys(type_list):
        found = enumerate_candidates(log, bk_type, size_list, cap=cap, fold=_Sums)
        for size in size_list:
            sums = found.pop(size, None)
            if sums is None:
                continue
            if isinstance(sums, CandidateLimitError):
                failures[(bk_type, size)] = str(sums)
            elif sums.n == 0:
                skipped[(bk_type, size)] = "no candidates at this size"
            else:
                cd, td = sums.scores(aggregation)
                scores[(bk_type, size)] = RiskScore(
                    bk_type=bk_type,
                    size=size,
                    cd=cd,
                    td=td,
                    n_candidates=sums.n,
                    aggregation=aggregation,
                )
    return RiskProfile(scores=scores, skipped=skipped, failures=failures)
