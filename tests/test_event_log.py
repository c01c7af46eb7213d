from __future__ import annotations

import gzip
import io
import math
import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logprivacy import (
    ColumnMapping,
    ConfigError,
    EventLog,
    InputError,
    RawEvent,
    build_log,
    ingest_csv,
    ingest_xes,
    log_entropy,
    max_entropy,
    stats,
    trace_frequency,
)
from logprivacy.event_log import parse_timestamp


def csv_stream(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


MINIMAL_XES = """<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0">
  <trace>
    <string key="concept:name" value="case-1"/>
    <event>
      <string key="concept:name" value="a"/>
      <date key="time:timestamp" value="2020-01-01T08:00:00.000+00:00"/>
    </event>
    <event>
      <string key="concept:name" value="b"/>
      <date key="time:timestamp" value="2020-01-01T09:00:00.000+00:00"/>
    </event>
  </trace>
</log>
"""


class TestIngestCsv:
    def test_three_rows_in_file_order(self):
        result = ingest_csv(
            csv_stream("case,activity,time\n1,a,2020-01-01\n1,b,2020-01-02\n2,a,2020-01-01\n")
        )
        assert [e.activity for e in result.events] == ["a", "b", "a"]
        assert [e.source_index for e in result.events] == [0, 1, 2]
        assert not result.errors

    def test_empty_activity_is_reported_not_dropped_silently(self):
        result = ingest_csv(
            csv_stream("case,activity,time\n1,a,2020-01-01\n1,,2020-01-02\n2,b,2020-01-03\n")
        )
        assert [e.activity for e in result.events] == ["a", "b"]
        assert len(result.errors) == 1
        assert result.errors[0].index == 1
        assert "activity" in result.errors[0].message

    def test_bad_timestamp_collected_per_row(self):
        result = ingest_csv(
            csv_stream("case,activity,time\n1,a,not-a-date\n1,b,2020-01-02\n")
        )
        assert len(result.events) == 1
        assert len(result.errors) == 1
        assert "timestamp" in result.errors[0].message

    def test_empty_file_is_an_input_error(self):
        with pytest.raises(InputError):
            ingest_csv(csv_stream(""))

    def test_missing_mapped_column_is_a_config_error(self):
        with pytest.raises(ConfigError, match="case"):
            ingest_csv(csv_stream("id,activity,time\n1,a,2020-01-01\n"))

    def test_custom_column_mapping_and_format(self):
        result = ingest_csv(
            csv_stream("Case ID,Activity,Complete\nc7,x,31/12/2020 23:59\n"),
            ColumnMapping(case="Case ID", activity="Activity", time="Complete"),
            time_format="%d/%m/%Y %H:%M",
        )
        (event,) = result.events
        assert event.case_id == "c7"
        assert event.timestamp == datetime(2020, 12, 31, 23, 59, tzinfo=timezone.utc)

    def test_utf8_byte_order_mark_is_skipped(self):
        result = ingest_csv(io.BytesIO(b"\xef\xbb\xbfcase,activity,time\n1,a,2020-01-01\n"))
        (event,) = result.events
        assert (event.case_id, event.activity) == ("1", "a")
        assert not result.errors

    def test_gzipped_csv_is_transparent(self):
        raw = gzip.compress(b"case,activity,time\n1,a,2020-01-01\n")
        result = ingest_csv(io.BytesIO(raw))
        assert len(result.events) == 1


class TestTimestampParsing:
    def test_z_suffix_and_offsets_normalize_to_utc(self):
        a = parse_timestamp("2020-06-01T12:00:00Z")
        b = parse_timestamp("2020-06-01T14:00:00+02:00")
        assert a == b
        assert a.tzinfo == timezone.utc

    def test_long_fractional_seconds_truncate(self):
        ts = parse_timestamp("2020-06-01T12:00:00.123456789Z")
        assert ts.microsecond == 123456

    def test_naive_is_treated_as_utc(self):
        ts = parse_timestamp("2020-06-01 12:00:00")
        assert ts.tzinfo == timezone.utc


class TestIngestXes:
    def test_minimal_log(self):
        result = ingest_xes(io.BytesIO(MINIMAL_XES.encode()))
        assert [(e.case_id, e.activity) for e in result.events] == [("case-1", "a"), ("case-1", "b")]
        assert not result.errors

    def test_event_missing_timestamp_is_excluded_with_error(self):
        xml = MINIMAL_XES.replace(
            '<date key="time:timestamp" value="2020-01-01T09:00:00.000+00:00"/>', ""
        )
        result = ingest_xes(io.BytesIO(xml.encode()))
        assert [e.activity for e in result.events] == ["a"]
        assert len(result.errors) == 1
        assert "time:timestamp" in result.errors[0].message

    def test_event_missing_activity_is_excluded_with_error(self):
        xml = MINIMAL_XES.replace('<string key="concept:name" value="b"/>', "")
        result = ingest_xes(io.BytesIO(xml.encode()))
        assert [e.activity for e in result.events] == ["a"]
        assert len(result.errors) == 1

    def test_malformed_xml_is_an_input_error(self):
        with pytest.raises(InputError, match="malformed"):
            ingest_xes(io.BytesIO(b"<log><trace></log>"))

    def test_gzipped_xes_is_transparent(self):
        result = ingest_xes(io.BytesIO(gzip.compress(MINIMAL_XES.encode())))
        assert len(result.events) == 2


def _ev(case, activity, ts, idx):
    return RawEvent(case, activity, datetime(2020, 1, 1, 0, 0, ts, tzinfo=timezone.utc), idx)


class TestBuildLog:
    def test_single_case_ordered_by_time(self):
        log = build_log([_ev("1", "c", 3, 0), _ev("1", "a", 1, 1), _ev("1", "b", 2, 2)])
        assert log.variant_labels(log.variants[0]) == ("a", "b", "c")
        assert log.total_traces == 1

    def test_same_sequence_aggregates_to_one_variant(self):
        events = [_ev("1", "a", 1, 0), _ev("1", "b", 2, 1), _ev("2", "a", 1, 2), _ev("2", "b", 2, 3)]
        log = build_log(events)
        assert len(log.variants) == 1
        assert log.counts == (2,)

    def test_timestamp_ties_keep_input_order(self):
        log = build_log([_ev("1", "x", 5, 0), _ev("1", "y", 5, 1), _ev("1", "z", 5, 2)])
        assert log.variant_labels(log.variants[0]) == ("x", "y", "z")

    def test_no_events_is_an_input_error(self):
        with pytest.raises(InputError):
            build_log([])

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance_with_distinct_timestamps(self, rnd):
        events = []
        idx = 0
        for case in ("p", "q", "r"):
            for second, act in enumerate(rnd.sample("abcdef", rnd.randint(1, 6))):
                events.append(_ev(case, act, second, idx))
                idx += 1
        shuffled = events[:]
        rnd.shuffle(shuffled)
        shuffled = [
            RawEvent(e.case_id, e.activity, e.timestamp, i) for i, e in enumerate(shuffled)
        ]
        assert build_log(shuffled) == build_log(events)


class TestEventLogInvariants:
    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError):
            EventLog.from_counts({(): 1, ("a",): 1})

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            EventLog.from_counts({("a",): 0})

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="distinct"):
            EventLog([(0,), (1,)], [1, 3], ["a", "a"])

    def test_alphabet_is_exactly_used_activities(self):
        log = EventLog.from_counts({("b", "a"): 2})
        assert log.labels == ("a", "b")

    def test_variants_in_canonical_order(self):
        log = EventLog.from_counts({("b",): 1, ("a", "c"): 1, ("a",): 1})
        assert [log.variant_labels(v) for v in log.variants] == [("a",), ("a", "c"), ("b",)]

    def test_equal_logs_with_different_ids_hash_alike(self):
        # ids not assigned in label order: equality and hashing go by label
        unsorted = EventLog([(0, 1), (1,)], [3, 1], ["b", "a"])
        sorted_ids = EventLog.from_counts({("b", "a"): 3, ("a",): 1})
        assert unsorted.variants != sorted_ids.variants
        assert unsorted == sorted_ids
        assert hash(unsorted) == hash(sorted_ids)
        assert len({unsorted, sorted_ids}) == 1
        assert unsorted != EventLog.from_counts({("b", "a"): 2, ("a",): 1})


class TestFrequency:
    def test_example_variant_frequency(self, example1_log):
        acbd = tuple(example1_log.labels.index(x) for x in "acbd")
        assert trace_frequency(example1_log, acbd) == 0.4

    def test_single_variant_log(self):
        log = EventLog.from_counts({("a",): 4})
        assert trace_frequency(log, log.variants[0]) == 1.0

    def test_frequencies_sum_to_one(self, example1_log):
        total = sum(trace_frequency(example1_log, v) for v in example1_log.variants)
        assert abs(total - 1.0) <= 1e-12

    def test_absent_variant_is_a_domain_error(self, example1_log):
        with pytest.raises(ValueError):
            trace_frequency(example1_log, (0, 0, 0))


class TestEntropy:
    def test_single_variant_is_zero(self):
        assert log_entropy(EventLog.from_counts({("a",): 4})) == 0.0

    def test_uniform_unique_traces_hit_max_entropy(self):
        log = EventLog.from_counts({("a",): 1, ("b",): 1, ("c",): 1, ("d",): 1})
        assert log_entropy(log) == 2.0
        assert max_entropy(log) == 2.0

    def test_skewed_two_variant_value(self):
        # Independent evaluation of -(0.75*log2(0.75) + 0.25*log2(0.25)).
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        log = EventLog.from_counts({("a",): 3, ("b",): 1})
        assert log_entropy(log) == pytest.approx(expected, abs=1e-12)
        assert log_entropy(log) == pytest.approx(0.8112781, abs=1e-7)


class TestStats:
    def test_tiny_log(self):
        s = stats(EventLog.from_counts({("a", "b"): 2}))
        assert (s.n_traces, s.n_variants, s.n_events, s.n_unique_activities) == (2, 1, 4, 2)
        assert s.trace_uniqueness == 0.5

    def test_uniqueness_times_traces_is_variant_count(self, example1_log):
        s = stats(example1_log)
        assert s.trace_uniqueness * s.n_traces == pytest.approx(s.n_variants, abs=1e-9)


@given(
    st.dictionaries(
        st.tuples(*[st.sampled_from("abc")] * 3).map(tuple),
        st.integers(min_value=1, max_value=50),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=80, deadline=None)
def test_entropy_bounds_property(counted):
    log = EventLog.from_counts(counted)
    ent = log_entropy(log)
    assert -1e-12 <= ent <= max_entropy(log) + 1e-12
    assert abs(sum(trace_frequency(log, v) for v in log.variants) - 1.0) <= 1e-12
