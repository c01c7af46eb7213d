from __future__ import annotations

import random

import numpy as np
import pytest

from logprivacy import (
    Aggregation,
    AnonymizationConfig,
    BkType,
    EventLog,
    GroundCost,
    Strategy,
    case_disclosure,
    enumerate_candidates,
    k_anonymize,
    stats,
    utility,
)
from oracles import random_log


class TestSuppress:
    def test_drops_infrequent_variants(self):
        log = EventLog.from_counts({("a", "b"): 5, ("a", "c"): 1})
        result = k_anonymize(log, AnonymizationConfig(k=2, strategy=Strategy.SUPPRESS))
        assert result == EventLog.from_counts({("a", "b"): 5})

    def test_never_increases_trace_count(self):
        rng = random.Random(12)
        for _ in range(30):
            log = random_log(rng, max_count=6)
            k = rng.randint(1, 4)
            try:
                result = k_anonymize(log, AnonymizationConfig(k=k, strategy=Strategy.SUPPRESS))
            except ValueError:
                continue
            assert result.total_traces <= log.total_traces
            assert all(c >= k for c in result.counts)

    def test_unused_activities_leave_the_alphabet(self):
        log = EventLog.from_counts({("a", "b"): 5, ("z", "q"): 1})
        result = k_anonymize(log, AnonymizationConfig(k=3, strategy=Strategy.SUPPRESS))
        assert result.labels == ("a", "b")
        assert stats(result).n_unique_activities == 2

    def test_k_too_large_is_an_error(self):
        log = EventLog.from_counts({("a",): 2, ("b",): 3})
        with pytest.raises(ValueError, match="k too large"):
            k_anonymize(log, AnonymizationConfig(k=4, strategy=Strategy.SUPPRESS))


class TestMergeNearest:
    def test_single_anchor_absorbs(self):
        log = EventLog.from_counts({("a", "b"): 5, ("a", "c"): 1})
        result = k_anonymize(log, AnonymizationConfig(k=2, strategy=Strategy.MERGE_NEAREST))
        assert result == EventLog.from_counts({("a", "b"): 6})

    def test_total_traces_preserved_exactly(self):
        rng = random.Random(13)
        for _ in range(30):
            log = random_log(rng, max_count=9)
            k = rng.randint(1, 5)
            try:
                result = k_anonymize(log, AnonymizationConfig(k=k, strategy=Strategy.MERGE_NEAREST))
            except ValueError:
                continue
            assert result.total_traces == log.total_traces
            assert all(c >= k for c in result.counts)

    def test_nearest_anchor_wins(self):
        # ("a","b","x") is distance 1/3 from ("a","b","c") and 1 from ("q","r").
        log = EventLog.from_counts({("a", "b", "c"): 4, ("q", "r"): 4, ("a", "b", "x"): 1})
        result = k_anonymize(log, AnonymizationConfig(k=2, strategy=Strategy.MERGE_NEAREST))
        assert result == EventLog.from_counts({("a", "b", "c"): 5, ("q", "r"): 4})

    def test_distance_ties_break_by_higher_count(self):
        # ("x",) is equidistant (1.0) from both anchors; the heavier one wins.
        log = EventLog.from_counts({("a",): 3, ("b",): 5, ("x",): 1})
        result = k_anonymize(log, AnonymizationConfig(k=2, strategy=Strategy.MERGE_NEAREST))
        assert result == EventLog.from_counts({("a",): 3, ("b",): 6})

    @pytest.mark.parametrize(
        "counts,winner",
        [
            # closest first: ("x","y") is 1/2 from ("x","b"), 1 from the rest
            ({("c",): 9, ("d",): 9, ("x", "b"): 2}, ("x", "b")),
            # a three-way distance tie goes to the larger count ...
            ({("a",): 3, ("b",): 5, ("c",): 4}, ("b",)),
            # ... and a tie in count too to the first in canonical order
            ({("a",): 4, ("b",): 6, ("c",): 6}, ("b",)),
            ({("c",): 4, ("b",): 4, ("a",): 4}, ("a",)),
        ],
    )
    def test_three_way_ties(self, counts, winner):
        log = EventLog.from_counts({**counts, ("x", "y"): 1})
        result = k_anonymize(log, AnonymizationConfig(k=2, strategy=Strategy.MERGE_NEAREST))
        expected = dict(counts)
        expected[winner] += 1
        assert result == EventLog.from_counts(expected)

    def test_no_anchor_is_an_error(self):
        log = EventLog.from_counts({("a",): 1, ("b",): 1})
        with pytest.raises(ValueError, match="k too large"):
            k_anonymize(log, AnonymizationConfig(k=3, strategy=Strategy.MERGE_NEAREST))


class TestIdentityAndInvariants:
    def test_k1_is_identity_for_both_strategies(self, example1_log):
        for strategy in Strategy:
            result = k_anonymize(example1_log, AnonymizationConfig(k=1, strategy=strategy))
            assert result == example1_log

    def test_invalid_k_rejected_at_config(self):
        with pytest.raises(ValueError):
            AnonymizationConfig(k=0, strategy=Strategy.SUPPRESS)

    def test_config_fields_must_have_their_types(self):
        # A strategy given as its string once ran merge-nearest, k=2.5 acted
        # as 3, k=True as 1, and k="3" raised a bare TypeError.
        for k in (2.5, True, "3", None):
            with pytest.raises(ValueError, match="k must be an integer"):
                AnonymizationConfig(k=k, strategy=Strategy.SUPPRESS)
        for strategy in ("suppress", "merge-nearest", None):
            with pytest.raises(ValueError, match="strategy must be a Strategy"):
                AnonymizationConfig(k=2, strategy=strategy)
        assert AnonymizationConfig(k=np.int64(2), strategy=Strategy.SUPPRESS).k == 2

    def test_a_k_leaving_no_variant_below_it_returns_the_log(self, example1_log, monkeypatch):
        def refuse(*args):
            raise AssertionError("a distance was computed")

        monkeypatch.setattr(utility, "distance_matrix", refuse)
        for strategy in Strategy:
            config = AnonymizationConfig(k=min(example1_log.counts), strategy=strategy)
            assert k_anonymize(example1_log, config) is example1_log

    def test_a_ground_cost_of_another_log_is_refused(self, example1_log):
        other = EventLog.from_counts({("a", "b"): 5, ("a", "c"): 1})
        for strategy in Strategy:
            with pytest.raises(ValueError, match="another log"):
                k_anonymize(other, AnonymizationConfig(k=2, strategy=strategy),
                            cost=GroundCost(example1_log))

    def test_worst_case_disclosure_bounded_by_inverse_k(self):
        rng = random.Random(14)
        checked = 0
        for _ in range(40):
            log = random_log(rng, max_count=9)
            k = rng.randint(2, 4)
            for strategy in Strategy:
                try:
                    result = k_anonymize(log, AnonymizationConfig(k=k, strategy=strategy))
                except ValueError:
                    continue
                for bk_type in BkType:
                    index = enumerate_candidates(result, bk_type, 2)
                    if index.candidate_count == 0:
                        continue
                    # every projection contains at least one whole variant
                    assert case_disclosure(index, Aggregation.WORST) <= 1.0 / k
                    checked += 1
        assert checked > 10
