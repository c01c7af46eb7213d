"""Disclosure-risk measures over candidate indices.

Case disclosure is the (average or worst-case) uniqueness of the traces
matching a candidate; trace disclosure is one minus the (average or
worst-case) normalized entropy of those matching traces.  Both live in
[0, 1] and are computed in canonical candidate order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .background import BkType, CandidateIndex, DEFAULT_CANDIDATE_CAP, enumerate_candidates
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


def _require_candidates(index: CandidateIndex) -> None:
    if index.candidate_count == 0:
        raise ValueError("no candidates at this size")


def case_disclosure(index: CandidateIndex, aggregation: Aggregation = Aggregation.AVERAGE) -> float:
    """Uniqueness of matching traces, averaged (or maximized) over candidates."""
    _require_candidates(index)
    uniqueness = 1.0 / index.cardinalities()
    if aggregation is Aggregation.WORST:
        return float(uniqueness.max())
    return float(uniqueness.mean())


def _normalized_entropy_ratios(index: CandidateIndex) -> np.ndarray:
    # In place over two float arrays of the index's length.
    card = index.cardinalities().astype(np.float64)
    repeated = card > 1
    ent = index.entropy_sums() / card
    max_ent = np.log2(card, out=card)
    np.subtract(max_ent, ent, out=ent)
    ratio = np.divide(ent, max_ent, out=ent, where=repeated)
    ratio[~repeated] = 0.0
    # Guard float noise; a ratio outside [0, 1] is meaningless.
    return np.clip(ratio, 0.0, 1.0, out=ratio)


def trace_disclosure(index: CandidateIndex, aggregation: Aggregation = Aggregation.AVERAGE) -> float:
    """How determined the full trace is given a matching candidate.

    Per candidate the normalized entropy of the matching-trace distribution
    is taken; a candidate matching a single trace copy has ratio 0 by
    convention (the trace is revealed with certainty).
    """
    _require_candidates(index)
    ratios = _normalized_entropy_ratios(index)
    if aggregation is Aggregation.WORST:
        return 1.0 - float(ratios.min())
    return 1.0 - float(ratios.mean())


def risk_profile(
    log: EventLog,
    types: Iterable[BkType],
    sizes: Iterable[int],
    aggregation: Aggregation = Aggregation.AVERAGE,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> RiskProfile:
    """Compute one RiskScore per (type, size) cell of the requested grid.

    Each type is enumerated in one pass over all requested sizes.  Cells
    whose enumeration hits the candidate cap are recorded in ``failures``
    with the error text; the remaining cells are still computed.
    """
    type_list = list(types)
    size_list = list(sizes)
    if not size_list:
        raise ValueError("at least one background-knowledge size is required")
    if any(s < 1 for s in size_list):
        raise ValueError("background-knowledge sizes must be >= 1")
    scores: dict[tuple[BkType, int], RiskScore] = {}
    skipped: dict[tuple[BkType, int], str] = {}
    failures: dict[tuple[BkType, int], str] = {}
    for bk_type in type_list:
        found = enumerate_candidates(log, bk_type, size_list, cap=cap)
        for size in size_list:
            # Each size's index is released once scored; a repeated size
            # keeps its first place in grid order.
            index = found.pop(size, None)
            if index is None:
                continue
            if isinstance(index, CandidateLimitError):
                failures[(bk_type, size)] = str(index)
            elif index.candidate_count == 0:
                skipped[(bk_type, size)] = "no candidates at this size"
            else:
                scores[(bk_type, size)] = RiskScore(
                    bk_type=bk_type,
                    size=size,
                    cd=case_disclosure(index, aggregation),
                    td=trace_disclosure(index, aggregation),
                    n_candidates=index.candidate_count,
                    aggregation=aggregation,
                )
    return RiskProfile(scores=scores, skipped=skipped, failures=failures)
