from __future__ import annotations

import csv
import dataclasses
import gzip
import io
import math
import random
import tracemalloc
from datetime import datetime, timezone
from xml.sax.saxutils import quoteattr

import numpy as np
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
from logprivacy import event_log
from logprivacy.event_log import _parse_iso_timestamp, parse_timestamp
from oracles import random_log


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

    def test_short_row_is_reported(self):
        result = ingest_csv(csv_stream("case,activity,time\n1,a\n1,b,2020-01-02\n"))
        assert [e.activity for e in result.events] == ["b"]
        assert [(e.index, e.message) for e in result.errors] == [
            (0, "row has fewer cells than the mapped columns")
        ]

    def test_empty_case_id_is_reported(self):
        result = ingest_csv(csv_stream("case,activity,time\n1,a,2020-01-01\n ,b,2020-01-02\n"))
        assert [e.activity for e in result.events] == ["a"]
        assert [(e.index, e.message) for e in result.errors] == [(1, "empty case identifier")]

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

    @pytest.mark.parametrize(
        "digits, microsecond",
        [(1, 100000), (2, 120000), (3, 123000), (4, 123400), (5, 123450),
         (6, 123456), (7, 123456), (8, 123456), (9, 123456)],
    )
    def test_fractions_of_every_length_give_microseconds(self, digits, microsecond):
        # Python 3.10's fromisoformat reads only 3 or 6 digits by itself.
        fraction = "123456789"[:digits]
        for text in (f"2020-06-01T12:00:00.{fraction}Z", f"2020-06-01 12:00:00.{fraction}+02:00"):
            ts = parse_timestamp(text)
            assert ts.microsecond == microsecond and ts.second == 0

    def test_naive_is_treated_as_utc(self):
        ts = parse_timestamp("2020-06-01 12:00:00")
        assert ts.tzinfo == timezone.utc

    def test_raw_fromisoformat_agrees_with_the_normalization(self):
        # parse_timestamp first tries datetime.fromisoformat on the text as
        # it is.  Wherever that succeeds (more often on 3.11 than on 3.10),
        # it must read the instant the normalizing parse reads; elsewhere
        # the normalizing parse decides alone.
        def utc(ts):
            return ts.replace(tzinfo=timezone.utc) if ts.tzinfo is None else ts.astimezone(timezone.utc)

        stamps = [
            f"2020-06-01{sep}12:34:56{fraction}{zone}"
            for sep in ("T", " ")
            for fraction in ["", ",5", ",123456", ",1234567"] + [f".{'987654321'[:n]}" for n in range(1, 10)]
            for zone in ("", "Z", "z", "+00:00", "+02:00", "-05:30")
        ]
        corpus = stamps + ["2020-06-01", "2020-06-01T12:34", "2020-06-01T12", "20200601T123456", "nope", ""]
        corpus += [pad(text) for text in stamps[::7] + ["2020-06-01"]
                   for pad in (lambda t: f" {t}", lambda t: f"{t} ", lambda t: f"\t{t}\n")]
        accepted = 0
        for text in corpus:
            try:
                normalized = utc(_parse_iso_timestamp(text))
            except ValueError:
                with pytest.raises(ValueError):
                    parse_timestamp(text)
                continue
            assert parse_timestamp(text) == normalized, text
            assert parse_timestamp(text).tzinfo == timezone.utc
            try:
                raw = datetime.fromisoformat(text)
            except ValueError:
                continue
            accepted += 1
            assert utc(raw) == normalized, text
        assert accepted >= 20  # offsets with 0, 3 or 6 digits parse raw on every version


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

    def test_events_of_a_trace_without_a_name_are_reported_each(self):
        def trace(name, activities):
            named = f'<string key="concept:name" value="{name}"/>' if name else ""
            return f"<trace>{named}" + "".join(
                f'<event><string key="concept:name" value="{a}"/>'
                f'<date key="time:timestamp" value="2020-01-01T0{i}:00:00Z"/></event>'
                for i, a in enumerate(activities)
            ) + "</trace>"

        xml = "<log>" + trace("c1", "a") + trace(None, "bc") + trace("c3", "d") + "</log>"
        result = ingest_xes(io.BytesIO(xml.encode()))
        assert [(e.activity, e.source_index) for e in result.events] == [("a", 0), ("d", 3)]
        assert [e.index for e in result.errors] == [1, 2]
        assert all("without a concept:name" in e.message for e in result.errors)

    def test_unparsable_timestamp_is_excluded_with_error(self):
        xml = MINIMAL_XES.replace("2020-01-01T09:00:00.000+00:00", "tomorrow")
        result = ingest_xes(io.BytesIO(xml.encode()))
        assert [e.activity for e in result.events] == ["a"]
        assert [e.index for e in result.errors] == [1]
        assert "unparsable time:timestamp 'tomorrow'" in result.errors[0].message

    def test_root_other_than_log_is_an_input_error(self):
        xml = MINIMAL_XES.replace('<log xes.version="1.0">', "<events>").replace("</log>", "</events>")
        with pytest.raises(InputError, match="no <log> root"):
            ingest_xes(io.BytesIO(xml.encode()))

    def test_malformed_xml_is_an_input_error(self):
        with pytest.raises(InputError, match="malformed"):
            ingest_xes(io.BytesIO(b"<log><trace></log>"))

    def test_gzipped_xes_is_transparent(self):
        result = ingest_xes(io.BytesIO(gzip.compress(MINIMAL_XES.encode())))
        assert len(result.events) == 2


MESSY_XES = """<?xml version="1.0" encoding="UTF-8"?>
<log xmlns="http://www.xes-standard.org/">
  <trace><string key="concept:name" value="c1"/>
    <event><string key="concept:name" value="b"/><date key="time:timestamp" value="2020-01-01T10:00:00Z"/></event>
    <event><string key="concept:name" value="a"/><date key="time:timestamp" value="2020-01-01T09:00:00.1234567+01:00"/></event>
    <event><date key="time:timestamp" value="2020-01-01T09:00:00Z"/></event>
    <event><string key="concept:name" value="x"/><date key="time:timestamp" value="nope"/></event>
    <event><string key="concept:name" value="y"/></event>
  </trace>
  <trace><event><string key="concept:name" value="q"/><date key="time:timestamp" value="2020-01-01T09:00:00Z"/></event></trace>
  <trace><string key="concept:name" value="c2"/>
    <event><string key="concept:name" value="a"/><date key="time:timestamp" value="2020-01-01T09:00:00z"/></event>
    <event><string key="concept:name" value="c"/><date key="time:timestamp" value="2020-01-01T09:00:00Z"/></event>
  </trace>
  <trace><string key="concept:name" value="c3"/><event><string key="concept:name" value="z"/></event></trace>
  <trace><string key="concept:name" value="c1"/>
    <event><string key="concept:name" value="d"/><date key="time:timestamp" value="2020-01-01T09:30:00Z"/></event>
    <event><string key="concept:name" value="e"/><date key="time:timestamp" value=" 2020-01-01T10:00:00Z "/></event>
  </trace>
</log>
"""


def _at(hour, minute, microsecond=0):
    return datetime(2020, 1, 1, hour, minute, 0, microsecond, tzinfo=timezone.utc)


class TestIngestOrder:
    """Traces that share a case id, interleaved CSV cases, and the events and
    errors of a log with every kind of unusable event, pinned as read before
    ingest kept its events grouped by case."""

    def test_xes_traces_sharing_a_name_merge_into_one_case(self):
        result = ingest_xes(io.BytesIO(MESSY_XES.encode()))
        log = build_log(result.events)
        # c1: a (08:00 UTC) from its first trace, d (09:30) from its second,
        # then b and e at 10:00 in file order.
        assert sorted(log.variant_labels(v) for v in log.variants) == [("a", "c"), ("a", "d", "b", "e")]
        assert log.total_traces == 2

    def test_xes_events_and_errors_in_file_order(self):
        for data in (MESSY_XES.encode(), gzip.compress(MESSY_XES.encode())):
            result = ingest_xes(io.BytesIO(data))
            assert list(result.events) == [
                RawEvent("c1", "b", _at(10, 0), 0),
                RawEvent("c1", "a", _at(8, 0, 123456), 1),
                RawEvent("c2", "a", _at(9, 0), 6),
                RawEvent("c2", "c", _at(9, 0), 7),
                RawEvent("c1", "d", _at(9, 30), 9),
                RawEvent("c1", "e", _at(10, 0), 10),
            ]
            assert [(e.index, e.message) for e in result.errors] == [
                (2, "event is missing concept:name"),
                (3, "unparsable time:timestamp 'nope': Invalid isoformat string: 'nope'"),
                (4, "event is missing time:timestamp"),
                (5, "event belongs to a trace without a concept:name"),
                (8, "event is missing time:timestamp"),
            ]

    def test_events_of_a_nameless_trace_are_reported_once_whatever_they_lack(self):
        xml = """<log>
          <trace><string key="concept:name" value="c1"/>
            <event><string key="concept:name" value="a"/><date key="time:timestamp" value="2020-01-01T09:00:00Z"/></event>
          </trace>
          <trace><string key="org:resource" value="r1"/>
            <event><date key="time:timestamp" value="2020-01-01T09:00:00Z"/></event>
            <event><string key="concept:name" value="b"/></event>
            <event><string key="concept:name" value="c"/><date key="time:timestamp" value="nope"/></event>
            <event/>
            <event><string key="concept:name" value="d"/><date key="time:timestamp" value="2020-01-01T09:00:00Z"/></event>
          </trace>
          <trace><string key="concept:name" value="c2"/>
            <event><date key="time:timestamp" value="2020-01-01T09:00:00Z"/></event>
          </trace>
        </log>"""
        result = ingest_xes(io.BytesIO(xml.encode()))
        assert list(result.events) == [RawEvent("c1", "a", _at(9, 0), 0)]
        assert [(e.index, e.message) for e in result.errors] == [
            (i, "event belongs to a trace without a concept:name") for i in range(1, 6)
        ] + [(6, "event is missing concept:name")]

    def test_a_trace_named_after_its_events_is_named(self):
        xml = """<log><trace>
          <event><string key="concept:name" value="a"/><date key="time:timestamp" value="2020-01-01T09:00:00Z"/></event>
          <string key="concept:name" value="late"/>
          <event><string key="concept:name" value="b"/><date key="time:timestamp" value="2020-01-01T10:00:00Z"/></event>
        </trace></log>"""
        result = ingest_xes(io.BytesIO(xml.encode()))
        assert list(result.events) == [
            RawEvent("late", "a", _at(9, 0), 0), RawEvent("late", "b", _at(10, 0), 1),
        ]
        assert not result.errors

    def test_a_trace_with_two_names_takes_the_first(self):
        xml = """<log><trace><string key="concept:name" value="first"/>
          <event><string key="concept:name" value="a"/><date key="time:timestamp" value="2020-01-01T09:00:00Z"/></event>
          <string key="concept:name" value="second"/>
        </trace></log>"""
        result = ingest_xes(io.BytesIO(xml.encode()))
        assert list(result.events) == [RawEvent("first", "a", _at(9, 0), 0)]
        assert not result.errors

    def test_csv_interleaved_cases(self):
        text = (
            "case,activity,time\n"
            "1,a,2020-01-01T03:00:00\n"
            "2,x,2020-01-01T01:00:00\n"
            "1,b,2020-01-01T01:00:00\n"
            ",d,2020-01-01T01:00:00\n"
            "2,y,2020-01-01T01:00:00Z\n"
            "1,c,2020-01-01T02:00:00\n"
            "3,f\n"
            "2,e,bad\n"
        )
        result = ingest_csv(csv_stream(text))
        assert [(e.case_id, e.activity, e.timestamp.hour, e.source_index) for e in result.events] == [
            ("1", "a", 3, 0), ("2", "x", 1, 1), ("1", "b", 1, 2), ("2", "y", 1, 4), ("1", "c", 2, 5),
        ]
        assert [(e.index, e.message) for e in result.errors] == [
            (3, "empty case identifier"),
            (6, "row has fewer cells than the mapped columns"),
            (7, "unparsable timestamp 'bad': Invalid isoformat string: 'bad'"),
        ]
        log = build_log(result.events)
        assert sorted(log.variant_labels(v) for v in log.variants) == [("b", "c", "a"), ("x", "y")]

    def test_events_are_a_read_only_sequence_equal_to_a_list(self):
        result = ingest_xes(io.BytesIO(MESSY_XES.encode()))
        events = list(result.events)
        assert len(result.events) == 6 and result.events
        assert result.events == events and events == result.events
        assert result.events != events[:-1] and result.events != events[::-1]
        assert result.events[0] == events[0] and result.events[-1] == events[-1]
        assert result.events[1:3] == events[1:3]
        assert events[2] in result.events and result.events.index(events[2]) == 2
        assert not hasattr(result.events, "append")
        assert result == ingest_xes(io.BytesIO(MESSY_XES.encode()))
        assert result != ingest_xes(io.BytesIO(MINIMAL_XES.encode()))

    def test_events_are_made_once_and_only_when_read(self, monkeypatch):
        made = []

        def counting(*fields):
            made.append(fields)
            return RawEvent(*fields)

        monkeypatch.setattr(event_log, "RawEvent", counting)
        xes = ingest_xes(io.BytesIO(_generated_xes(30, 4)))
        rows = "".join(f"c{i % 3},a{i % 2},2020-01-01T00:00:{i:02d}\n" for i in range(9))
        text = ingest_csv(csv_stream("case,activity,time\n" + rows))
        for result, n in ((xes, 120), (text, 9)):
            assert len(result.events) == n and result.events
            build_log(result.events)
            assert not made
            assert len(list(result.events)) == n and len(made) == n
            assert result.events[0] is next(iter(result.events))
            assert len(list(result.events)) == n and len(made) == n
            made.clear()


_LABELS = ("a", "b", "c d", "e,f", 'g"h', "i<j&k")
# Time-of-day formats; the first three read 12:mm UTC, so stamps tie across
# formats.
_STAMPS = ("12:{:02d}:00+00:00", "12:{:02d}:00Z", "14:{:02d}:00+02:00", "11:{:02d}:00.5-01:00",
           "12:{:02d}:00.1234567Z")


@st.composite
def _event_logs(draw):
    """Traces as (case name or None, events); an event is (activity or None,
    minute, stamp format or None).  Names repeat, so traces merge; None marks
    a missing name, activity or timestamp."""
    names = st.one_of(st.none(), st.sampled_from(["c1", "c2", "c3", "c4"]))
    events = st.tuples(
        st.one_of(st.none(), st.sampled_from(_LABELS)),
        st.integers(0, 4),
        st.one_of(st.none(), st.sampled_from(_STAMPS)),
    )
    return draw(st.lists(st.tuples(names, st.lists(events, max_size=6)), min_size=1, max_size=8))


def _write_xes(traces, namespaced: bool) -> bytes:
    parts = ['<log xmlns="http://www.xes-standard.org/">' if namespaced else "<log>"]
    for name, events in traces:
        parts.append("<trace>")
        if name is not None:
            parts.append(f'<string key="concept:name" value="{name}"/>')
        for activity, minute, stamp in events:
            parts.append("<event>")
            if activity is not None:
                parts.append(f'<string key="concept:name" value={quoteattr(activity)}/>')
            if stamp is not None:
                parts.append(f'<date key="time:timestamp" value="2020-01-01T{stamp.format(minute)}"/>')
            parts.append("</event>")
        parts.append("</trace>")
    return ("".join(parts) + "</log>").encode()


def _write_csv(traces) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["case", "activity", "time"])
    for name, events in traces:
        for activity, minute, stamp in events:
            writer.writerow([name or "", activity or "", "" if stamp is None else f"2020-01-01T{stamp.format(minute)}"])
    return out.getvalue().encode()


@given(_event_logs())
@settings(max_examples=60, deadline=None)
def test_grouped_events_build_the_log_their_list_builds(traces):
    # Each event is one CSV row in XES file order, so both readers give the
    # same events with the same indices, and unusable ones at the same
    # indices.
    xes = _write_xes(traces, namespaced=False)
    results = [ingest_xes(io.BytesIO(data)) for data in
               (xes, _write_xes(traces, namespaced=True), gzip.compress(xes))]
    results.append(ingest_csv(io.BytesIO(_write_csv(traces))))
    expected = list(results[0].events)
    n_events = sum(len(events) for _, events in traces)
    for result in results:
        events = list(result.events)
        assert events == expected and len(result.events) == len(events)
        assert [e.source_index for e in events] == sorted(e.source_index for e in events)
        assert sorted([e.index for e in result.errors] + [e.source_index for e in events]) == list(range(n_events))
        if events:
            assert build_log(result.events) == build_log(events)
        else:
            with pytest.raises(InputError):
                build_log(result.events)
    assert [e.index for e in results[3].errors] == [e.index for e in results[0].errors]


def _generated_xes(n_traces: int, per_trace: int) -> bytes:
    """An XES log under the standard namespace: 16 activities, one second apart."""
    parts = ['<log xmlns="http://www.xes-standard.org/">']
    for t in range(n_traces):
        parts.append(f'<trace><string key="concept:name" value="case {t}"/>')
        for i in range(per_trace):
            s = t * per_trace + i
            parts.append(
                f'<event><string key="concept:name" value="activity {(t + 7 * i) % 16:02d}"/>'
                f'<date key="time:timestamp" value="2020-01-{1 + s // 86400:02d}T'
                f'{s // 3600 % 24:02d}:{s // 60 % 60:02d}:{s % 60:02d}.000+00:00"/></event>'
            )
        parts.append("</trace>")
    return ("".join(parts) + "</log>").encode()


class TestIngestMemory:
    def test_bytes_held_per_event(self):
        # What an XES ingest leaves allocated per event, its input excluded:
        # the event's row, its timestamp, its index and its slot in its
        # case's list.  With an instance dict per event and a label string
        # per event it held about 260 bytes; slotted events with shared
        # labels held about 160, and rows grouped by case hold about 167.
        stream = io.BytesIO(_generated_xes(1000, 12))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = ingest_xes(stream)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result.events) == 12_000 and not result.errors
        assert held / len(result.events) < 200

    def test_equal_labels_share_one_string(self):
        result = ingest_xes(io.BytesIO(_generated_xes(40, 5)))
        assert len({e.activity for e in result.events}) == 16
        assert len({id(e.activity) for e in result.events}) == 16
        rows = "".join(f"case {i % 3},act {i % 4},2020-01-01T00:00:{i:02d}\n" for i in range(24))
        result = ingest_csv(csv_stream("case,activity,time\n" + rows))
        assert len({id(e.activity) for e in result.events}) == 4
        assert len({id(e.case_id) for e in result.events}) == 3

    def test_raw_event_is_slotted_and_frozen(self):
        event = _ev("1", "a", 1, 0)
        assert not hasattr(event, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.activity = "b"
        assert event == _ev("1", "a", 1, 0) and hash(event) == hash(_ev("1", "a", 1, 0))
        assert event != _ev("1", "a", 1, 1)


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

    def test_equal_timestamp_and_source_index_keep_input_order(self):
        # The sort never compares labels: "y" stays before "x".
        log = build_log([_ev("1", "y", 5, 0), _ev("1", "x", 5, 0), _ev("2", "x", 5, 3), _ev("2", "w", 5, 3)])
        assert sorted(log.variant_labels(v) for v in log.variants) == [("x", "w"), ("y", "x")]

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

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ValueError, match="integer"):
            EventLog([(0,)], [1.5], ["a"])
        # True was once taken as count 1.
        with pytest.raises(ValueError, match="integer"):
            EventLog([(0,)], [True], ["a"])
        with pytest.raises(ValueError, match="integer"):
            EventLog.from_counts({("a",): 2.7})
        with pytest.raises(ValueError, match="integer"):
            EventLog.from_counts({("a",): 2.0})
        assert EventLog([(0,)], [np.int64(3)], ["a"]).counts == (3,)

    def test_rejects_duplicate_labels(self):
        for labels in (["a", "a"], ["b", "a"]):
            with pytest.raises(ValueError, match="distinct"):
                EventLog([(0,), (1,)], [1, 3], labels)

    def test_rejects_malformed_constructor_arguments(self):
        with pytest.raises(ValueError, match="same length"):
            EventLog([(0,), (1,)], [1], ["a", "b"])
        with pytest.raises(InputError, match="at least one trace"):
            EventLog([], [], [])
        with pytest.raises(InputError, match="at least one trace"):
            EventLog.from_counts({})
        with pytest.raises(ValueError, match="exactly the activities"):
            EventLog([(0,)], [1], ["a", "b"])
        with pytest.raises(ValueError, match="exactly the activities"):
            EventLog([(0, 2)], [1], ["a", "b"])
        with pytest.raises(ValueError, match="non-empty"):
            EventLog([(0, 1)], [1], ["a", ""])
        with pytest.raises(ValueError, match="unique"):
            EventLog([(0, 1), (1,), (0, 1)], [1, 2, 3], ["a", "b"])

    def test_alphabet_is_exactly_used_activities(self):
        log = EventLog.from_counts({("b", "a"): 2})
        assert log.labels == ("a", "b")

    def test_variants_in_canonical_order(self):
        log = EventLog.from_counts({("b",): 1, ("a", "c"): 1, ("a",): 1})
        assert [log.variant_labels(v) for v in log.variants] == [("a",), ("a", "c"), ("b",)]

    def test_ids_follow_the_sorted_labels(self):
        # Any other numbering is refused, so equal logs hold equal id tuples.
        rng = random.Random(31)
        refused = kept = 0
        for _ in range(40):
            log = random_log(rng)
            perm = list(range(len(log.labels)))
            rng.shuffle(perm)
            labels = [""] * len(perm)
            for a, label in enumerate(log.labels):
                labels[perm[a]] = label
            variants = [tuple(perm[a] for a in v) for v in log.variants]
            if perm != sorted(perm):
                with pytest.raises(ValueError, match="ascending"):
                    EventLog(variants, log.counts, labels)
                refused += 1
                continue
            relabelled = EventLog(variants, log.counts, labels)
            assert relabelled == log and log == relabelled
            assert hash(relabelled) == hash(log)
            kept += 1
        assert refused and kept

    def test_equality_compares_contents_past_the_summaries(self):
        log = EventLog.from_counts({("a", "b"): 2, ("b",): 1})
        assert log == log
        assert log == EventLog.from_counts({("b",): 1, ("a", "b"): 2})
        # Same number of variants, trace total and labels.
        assert log != EventLog.from_counts({("b", "a"): 2, ("b",): 1})
        assert log != EventLog.from_counts({("a", "b"): 1, ("b",): 2})
        # One summary differs: number of variants, trace total, label set.
        assert log != EventLog.from_counts({("a", "b"): 3})
        assert log != EventLog.from_counts({("a", "b"): 2, ("b",): 2})
        assert log != EventLog.from_counts({("a", "c"): 2, ("c",): 1})


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
