"""Simple event logs: ingestion, variant multisets, frequency and entropy.

An event log is reduced to its control-flow essence: every case becomes the
sequence of activity labels it executed, ordered by timestamp, and the log is
the multiset of those sequences.  Activity labels are interned to small
integer ids once per log; all downstream computation works on id tuples and
labels reappear only at I/O boundaries.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
import re
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import BinaryIO, Iterable, Mapping, Sequence

from .errors import ConfigError, InputError

# A variant is the interned form of a trace: a tuple of activity ids.
Variant = tuple[int, ...]


@dataclass(frozen=True)
class RawEvent:
    """One event as read from an input file, before grouping into traces."""

    case_id: str
    activity: str
    timestamp: datetime
    source_index: int


@dataclass(frozen=True)
class RowError:
    """A per-row (or per-event) ingestion problem that did not abort the run."""

    index: int
    message: str


@dataclass(frozen=True)
class IngestResult:
    """Events read from a stream plus the rows that could not be used."""

    events: list[RawEvent]
    errors: list[RowError]


@dataclass(frozen=True)
class ColumnMapping:
    """Names of the CSV columns holding the three mandatory attributes."""

    case: str = "case"
    activity: str = "activity"
    time: str = "time"


@dataclass(frozen=True)
class LogStats:
    n_traces: int
    n_variants: int
    n_events: int
    n_unique_activities: int
    trace_uniqueness: float


class EventLog:
    """An immutable multiset of non-empty variants with interned activities.

    Variants are stored in canonical (lexicographic id tuple) order.  That
    equals lexicographic label-sequence order only when ids are assigned to
    sorted labels, as ``from_counts`` and ``build_log`` do.  The alphabet,
    ``labels``, holds exactly the activities occurring in at least one
    variant.  Two logs are equal when they have the same labelled variants
    with the same counts, whatever their id assignments.
    """

    __slots__ = ("_variants", "_counts", "_labels", "_total", "_positions")

    def __init__(self, variants: Sequence[Variant], counts: Sequence[int], labels: Sequence[str]):
        if len(variants) != len(counts):
            raise ValueError("variants and counts must have the same length")
        if not variants:
            raise InputError("an event log must contain at least one trace")
        used: set[int] = set()
        for v, c in zip(variants, counts):
            if not v:
                raise ValueError("empty traces are not allowed in an event log")
            if c < 1:
                raise ValueError(f"variant count must be >= 1, got {c}")
            used.update(v)
        if used != set(range(len(labels))):
            raise ValueError("labels must be exactly the activities used by the variants")
        if any(not lab for lab in labels):
            raise ValueError("activity labels must be non-empty")
        if len(set(labels)) != len(labels):
            raise ValueError("activity labels must be distinct")
        order = sorted(range(len(variants)), key=lambda i: variants[i])
        svariants = tuple(tuple(variants[i]) for i in order)
        if len(set(svariants)) != len(svariants):
            raise ValueError("variants must be unique; aggregate counts instead")
        self._variants: tuple[Variant, ...] = svariants
        self._counts: tuple[int, ...] = tuple(int(counts[i]) for i in order)
        self._labels: tuple[str, ...] = tuple(labels)
        self._total = sum(self._counts)
        self._positions = {v: i for i, v in enumerate(self._variants)}

    @classmethod
    def from_traces(cls, traces: Iterable[Sequence[str]]) -> "EventLog":
        """Build a log from label sequences, one entry per trace."""
        return cls.from_counts(Counter(tuple(t) for t in traces))

    @classmethod
    def from_counts(cls, counted: Mapping[Sequence[str], int]) -> "EventLog":
        """Build a log from a {label sequence: trace count} mapping."""
        items = [(tuple(t), c) for t, c in counted.items()]
        if not items:
            raise InputError("an event log must contain at least one trace")
        labels = sorted({a for t, _ in items for a in t})
        ids = {a: i for i, a in enumerate(labels)}
        variants = [tuple(ids[a] for a in t) for t, _ in items]
        return cls(variants, [c for _, c in items], labels)

    # -- accessors ---------------------------------------------------------

    @property
    def variants(self) -> tuple[Variant, ...]:
        return self._variants

    @property
    def counts(self) -> tuple[int, ...]:
        return self._counts

    @property
    def labels(self) -> tuple[str, ...]:
        """Activity labels indexed by activity id."""
        return self._labels

    @property
    def total_traces(self) -> int:
        return self._total

    def count(self, v: Variant) -> int:
        i = self._positions.get(tuple(v))
        return 0 if i is None else self._counts[i]

    def variant_labels(self, v: Variant) -> tuple[str, ...]:
        return tuple(self._labels[a] for a in v)

    def __contains__(self, v: object) -> bool:
        return isinstance(v, tuple) and v in self._positions

    def __len__(self) -> int:
        return len(self._variants)

    def _labelled_counts(self) -> dict[tuple[str, ...], int]:
        return {self.variant_labels(v): c for v, c in zip(self._variants, self._counts)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self._labelled_counts() == other._labelled_counts()

    def __hash__(self) -> int:
        return hash(frozenset(self._labelled_counts().items()))

    def __repr__(self) -> str:
        return f"EventLog({len(self._variants)} variants, {self._total} traces)"


# -- timestamp parsing -----------------------------------------------------

_FRACTION_RE = re.compile(r"(\.\d{7,})")


def _parse_iso_timestamp(text: str) -> datetime:
    s = text.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    # datetime only supports microseconds; truncate finer fractions.
    m = _FRACTION_RE.search(s)
    if m:
        s = s[: m.start()] + m.group(1)[:7] + s[m.end():]
    return datetime.fromisoformat(s)


def parse_timestamp(text: str, time_format: str | None = None) -> datetime:
    """Parse a timestamp and normalize it to UTC.

    With no format string, ISO-8601 is assumed ('Z' suffixes and long
    fractional seconds are tolerated).  Naive timestamps are interpreted
    as UTC so that every parsed instant is comparable.
    """
    if time_format:
        ts = datetime.strptime(text.strip(), time_format)
    else:
        ts = _parse_iso_timestamp(text)
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


# -- ingestion -------------------------------------------------------------


def _maybe_gzip(stream: BinaryIO) -> BinaryIO:
    buffered = io.BufferedReader(stream)  # type: ignore[arg-type]
    if buffered.peek(2)[:2] == b"\x1f\x8b":
        return gzip.GzipFile(fileobj=buffered)  # type: ignore[return-value]
    return buffered


def ingest_csv(
    stream: BinaryIO,
    mapping: ColumnMapping = ColumnMapping(),
    time_format: str | None = None,
) -> IngestResult:
    """Read events from a UTF-8 CSV byte stream with a header row.

    A leading UTF-8 byte order mark, as spreadsheet exports write, is
    skipped.  Rows that cannot be used (blank case or activity, unparsable timestamp,
    missing cells) are reported as :class:`RowError` entries rather than
    silently dropped; the remaining rows are returned in file order.
    """
    text = io.TextIOWrapper(_maybe_gzip(stream), encoding="utf-8-sig", newline="")
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("CSV input is empty") from None
    positions = {}
    for role, name in (("case", mapping.case), ("activity", mapping.activity), ("time", mapping.time)):
        try:
            positions[role] = header.index(name)
        except ValueError:
            raise ConfigError(f"CSV is missing the mapped {role} column {name!r}") from None
    needed = max(positions.values())

    events: list[RawEvent] = []
    errors: list[RowError] = []
    for row_index, row in enumerate(reader):
        if not row:
            continue
        if len(row) <= needed:
            errors.append(RowError(row_index, "row has fewer cells than the mapped columns"))
            continue
        case_id = row[positions["case"]].strip()
        activity = row[positions["activity"]].strip()
        raw_time = row[positions["time"]]
        if not case_id:
            errors.append(RowError(row_index, "empty case identifier"))
            continue
        if not activity:
            errors.append(RowError(row_index, "empty activity"))
            continue
        try:
            ts = parse_timestamp(raw_time, time_format)
        except ValueError as exc:
            errors.append(RowError(row_index, f"unparsable timestamp {raw_time!r}: {exc}"))
            continue
        events.append(RawEvent(case_id, activity, ts, row_index))
    return IngestResult(events, errors)


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def ingest_xes(stream: BinaryIO) -> IngestResult:
    """Read events from an XES byte stream (gzip-compressed input accepted).

    Only the minimal attribute subset is used: the trace-level concept:name
    becomes the case id, the event-level concept:name the activity, and
    time:timestamp the ordering instant.  Events lacking any of these are
    reported and excluded; everything else in the file is ignored.
    """
    events: list[RawEvent] = []
    errors: list[RowError] = []
    source_index = 0

    def flush_trace(trace_elem) -> None:
        nonlocal source_index
        case_id = ""
        for child in trace_elem:
            if _localname(child.tag) == "string" and child.get("key") == "concept:name":
                case_id = (child.get("value") or "").strip()
                break
        pending: list[tuple[int, str, str | None]] = []
        for child in trace_elem:
            if _localname(child.tag) != "event":
                continue
            idx = source_index
            source_index += 1
            activity = ""
            raw_time: str | None = None
            for attr in child:
                key = attr.get("key")
                if key == "concept:name" and _localname(attr.tag) == "string":
                    activity = (attr.get("value") or "").strip()
                elif key == "time:timestamp":
                    raw_time = attr.get("value") or ""
            pending.append((idx, activity, raw_time))
        if not case_id:
            for idx, _, _ in pending:
                errors.append(RowError(idx, "event belongs to a trace without a concept:name"))
            return
        for idx, activity, raw_time in pending:
            if not activity:
                errors.append(RowError(idx, "event is missing concept:name"))
                continue
            if raw_time is None:
                errors.append(RowError(idx, "event is missing time:timestamp"))
                continue
            try:
                ts = parse_timestamp(raw_time)
            except ValueError as exc:
                errors.append(RowError(idx, f"unparsable time:timestamp {raw_time!r}: {exc}"))
                continue
            events.append(RawEvent(case_id, activity, ts, idx))

    try:
        saw_log = False
        for _, elem in ET.iterparse(_maybe_gzip(stream), events=("end",)):
            tag = _localname(elem.tag)
            if tag == "trace":
                flush_trace(elem)
                elem.clear()
            elif tag == "log":
                saw_log = True
                elem.clear()
        if not saw_log:
            raise InputError("XES input has no <log> root element")
    except ET.ParseError as exc:
        raise InputError(f"malformed XES/XML input: {exc}") from None
    return IngestResult(events, errors)


def build_log(events: Sequence[RawEvent]) -> EventLog:
    """Group events by case, order them, and aggregate into a variant multiset.

    Within a case, events are sorted by timestamp with the input position as
    a stable tie-break, so equal instants keep their file order.
    """
    if not events:
        raise InputError("cannot build an event log from zero events")
    cases: dict[str, list[RawEvent]] = {}
    for e in events:
        cases.setdefault(e.case_id, []).append(e)
    traces = []
    for case_events in cases.values():
        case_events.sort(key=lambda e: (e.timestamp, e.source_index))
        traces.append(tuple(e.activity for e in case_events))
    return EventLog.from_traces(traces)


# -- frequency, entropy, statistics ----------------------------------------


def trace_frequency(log: EventLog, v: Variant) -> float:
    """Relative frequency of variant ``v``: its count over the trace total."""
    v = tuple(v)
    if v not in log:
        raise ValueError(f"variant {v!r} does not occur in the log")
    return log.count(v) / log.total_traces


def log_entropy(log: EventLog) -> float:
    """Shannon entropy (bits) of the trace distribution over variants."""
    total = log.total_traces
    return -sum((c / total) * math.log2(c / total) for c in log.counts)


def max_entropy(log: EventLog) -> float:
    """Entropy the log would have if all of its traces were unique."""
    return math.log2(log.total_traces)


def stats(log: EventLog) -> LogStats:
    n_traces = log.total_traces
    n_variants = len(log.variants)
    n_events = sum(c * len(v) for v, c in zip(log.variants, log.counts))
    return LogStats(
        n_traces=n_traces,
        n_variants=n_variants,
        n_events=n_events,
        n_unique_activities=len(log.labels),
        trace_uniqueness=n_variants / n_traces,
    )
