"""Variant-level k-anonymization for producing risk-utility sweeps.

Deliberately simple: a variant occurring fewer than k times is either dropped
(Suppress) or its whole count is reassigned to the nearest frequent variant
(MergeNearest).  This is plumbing for end-to-end sweeps, not a faithful
reimplementation of any published group-based anonymization scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np

# ``distance_matrix`` is no longer called here: the distances come from a
# ``GroundCost``.  The name stays importable because bench/tracing.py wraps it.
from .distance import closest_columns, distance_matrix  # noqa: F401
from .event_log import EventLog
from .utility import GroundCost


class Strategy(Enum):
    SUPPRESS = "suppress"
    MERGE_NEAREST = "merge-nearest"


@dataclass(frozen=True)
class AnonymizationConfig:
    k: int
    strategy: Strategy

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, Integral) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        if not isinstance(self.strategy, Strategy):
            raise ValueError(f"strategy must be a Strategy member, got {self.strategy!r}")


def k_anonymize(
    log: EventLog, config: AnonymizationConfig, *, cost: GroundCost | None = None
) -> EventLog:
    """Return a log in which every variant occurs at least k times.

    A log with no variant below k is returned as it is.  Raises
    ``ValueError("k too large for this log")`` when no variant reaches
    count k, since suppression would empty the log and merging has no
    anchor.  ``cost``, a :class:`GroundCost` of ``log``, supplies the
    labelled variants and merge-nearest's distances; without it one is
    built for this call.
    """
    k = config.k
    small = [i for i, c in enumerate(log.counts) if c < k]
    if not small:
        return log
    keep = [i for i, c in enumerate(log.counts) if c >= k]
    if not keep:
        raise ValueError("k too large for this log")
    cost = GroundCost.of(log, cost)

    new_counts = {i: log.counts[i] for i in keep}
    if config.strategy is Strategy.MERGE_NEAREST:
        # Reassign each infrequent variant's whole count to its nearest
        # anchor; anchors only gain traces, so one pass suffices.
        dists = cost.columns([cost.rows[i] for i in keep])[small]
        # Ties: closest distance, then larger anchor count, then canonical order.
        best = closest_columns(dists, np.array([log.counts[i] for i in keep]))
        for i, a in zip(small, best.tolist()):
            new_counts[keep[a]] += log.counts[i]
    result = EventLog.from_counts({cost.rows[i]: c for i, c in new_counts.items()})
    assert all(c >= k for c in result.counts)
    return result
