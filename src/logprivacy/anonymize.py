"""Variant-level k-anonymization for producing risk-utility sweeps.

Deliberately simple: a variant occurring fewer than k times is either dropped
(Suppress) or its whole count is reassigned to the nearest frequent variant
(MergeNearest).  This is plumbing for end-to-end sweeps, not a faithful
reimplementation of any published group-based anonymization scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distance import closest_columns, distance_matrix
from .event_log import EventLog


class Strategy(Enum):
    SUPPRESS = "suppress"
    MERGE_NEAREST = "merge-nearest"


@dataclass(frozen=True)
class AnonymizationConfig:
    k: int
    strategy: Strategy

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


def k_anonymize(log: EventLog, config: AnonymizationConfig) -> EventLog:
    """Return a log in which every variant occurs at least k times.

    Raises ``ValueError("k too large for this log")`` when no variant reaches
    count k, since suppression would empty the log and merging has no anchor.
    """
    if config.k == 1:
        return log

    k = config.k
    keep = [i for i, c in enumerate(log.counts) if c >= k]
    if not keep:
        raise ValueError("k too large for this log")

    if config.strategy is Strategy.SUPPRESS:
        counted = {
            log.variant_labels(log.variants[i]): log.counts[i] for i in keep
        }
        return EventLog.from_counts(counted)

    # MergeNearest: reassign each infrequent variant's whole count to its
    # nearest anchor; anchors only gain traces, so one pass suffices.
    small = [i for i, c in enumerate(log.counts) if c < k]
    new_counts = {i: log.counts[i] for i in keep}
    if small:
        dists = distance_matrix(
            [log.variants[i] for i in small], [log.variants[i] for i in keep]
        )
        # Ties: closest distance, then larger anchor count, then canonical order.
        best = closest_columns(dists, np.array([log.counts[i] for i in keep]))
        for i, a in zip(small, best.tolist()):
            new_counts[keep[a]] += log.counts[i]
    counted = {
        log.variant_labels(log.variants[i]): c for i, c in new_counts.items()
    }
    result = EventLog.from_counts(counted)
    assert all(c >= k for c in result.counts)
    return result
