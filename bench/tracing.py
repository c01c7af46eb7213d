"""Spans around the package's public functions, installed from outside.

The traced run replaces each function at the name where its caller looks it
up (``logprivacy.cli.risk_profile``, ``logprivacy.risk.enumerate_candidates``,
``logprivacy.utility.distance_matrix`` ...) with a wrapper that records a
span: name, start, end and the span that was open when it was called.
Spans stay in memory until the run ends.  Nothing inside ``src/`` changes.

A wrapped name that no longer exists is recorded as missing and skipped, so
a refactor that moves a function makes the layer read zero instead of
crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np


def maxrss_mb() -> float:
    """High-water resident set size of this process, in MB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    round: int = 0
    error: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# What a wrapper records about a call besides its times.  Each takes the
# call's positional arguments and its result (None when the call raised) and
# runs after the span's end time is taken.
def _ingest_attrs(args, result) -> dict:
    return {} if result is None else {"events": len(result.events)}


def _enumerate_attrs(args, result) -> dict:
    return {} if result is None else {"candidates": result.candidate_count}


def _distance_attrs(args, result) -> dict:
    # The variant lists themselves, so distinct pairs can be counted after
    # the run instead of inside the timed call.
    rows, cols = args[0], args[1]
    return {"pairs": len(rows) * len(cols), "rows": rows, "cols": cols}


def _solve_attrs(args, result) -> dict:
    m, n = args[0].cost.shape
    return {"arcs": m * n}


# (module, attribute, span name, attrs).  Every name under which a
# caller inside the package reaches another module's public function.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("logprivacy.cli", "ingest_xes", "event_log.ingest", _ingest_attrs),
    ("logprivacy.cli", "ingest_csv", "event_log.ingest", _ingest_attrs),
    ("logprivacy.cli", "build_log", "event_log.build", None),
    ("logprivacy.cli", "risk_profile", "risk.profile", None),
    ("logprivacy.cli", "enumerate_candidates", "background.enumerate", _enumerate_attrs),
    ("logprivacy.risk", "enumerate_candidates", "background.enumerate", _enumerate_attrs),
    ("logprivacy.risk", "case_disclosure", "risk.reduce", None),
    ("logprivacy.risk", "trace_disclosure", "risk.reduce", None),
    ("logprivacy.cli", "k_anonymize", "anonymize.k_anonymize", None),
    ("logprivacy.anonymize", "distance_matrix", "distance.matrix", _distance_attrs),
    ("logprivacy.cli", "data_utility", "utility.data_utility", None),
    ("logprivacy.cli", "build_problem", "utility.build_problem", None),
    ("logprivacy.utility", "build_problem", "utility.build_problem", None),
    ("logprivacy.cli", "solve", "utility.solve", _solve_attrs),
    ("logprivacy.utility", "solve", "utility.solve", _solve_attrs),
    ("logprivacy.utility", "distance_matrix", "distance.matrix", _distance_attrs),
)

# Spans whose calls also record the growth of the RSS high-water mark.
_RSS_SPANS = {"background.enumerate"}


class Tracer:
    """Collects spans in memory; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.round = 0
        self._next_id = 0
        self._stack: list[Span] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        record = Span(self._next_id, name, self._stack[-1].id if self._stack else None, 0.0,
                      round=self.round)
        self._next_id += 1
        self._stack.append(record)
        rss0 = maxrss_mb() if name in _RSS_SPANS else None
        record.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            if rss0 is not None:
                record.attrs["rss_growth_mb"] = maxrss_mb() - rss0
            self._stack.pop()
            self.spans.append(record)

    def _wrap(self, name: str, fn: Callable, attrs: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = None
            try:
                result = self.span(name, fn, *args, **kwargs)
                return result
            finally:
                if attrs is not None:
                    try:
                        self.spans[-1].attrs.update(attrs(args, result))
                    except (AttributeError, IndexError, TypeError, ValueError) as exc:
                        # A changed signature loses the counts, not the run.
                        self.spans[-1].attrs["attrs_error"] = repr(exc)

        return wrapper

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name, attrs in self.targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, attrs))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines: id, name, parent, start, end, round, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, "round": s.round,
                                     "error": s.error}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover.

    Children of one span run one after another (the program is single
    threaded), so their covered time is the sum of their durations.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - covered.get(s.id, 0.0) for s in spans}


def round_self_sums(tracer: Tracer) -> list[float]:
    """Summed self times of all spans, one sum per traced round."""
    own = self_times(tracer.spans)
    sums = [0.0] * tracer.round
    for s in tracer.spans:
        sums[s.round] += own[s.id]
    return sums


def _distinct_pairs(spans: list[Span]) -> int:
    """Distinct (row variant, column variant) pairs over distance calls."""
    index: dict[tuple, int] = {}
    keys = []
    for s in spans:
        rows = np.array([index.setdefault(tuple(v), len(index)) for v in s.attrs["rows"]],
                        dtype=np.int64)
        cols = np.array([index.setdefault(tuple(v), len(index)) for v in s.attrs["cols"]],
                        dtype=np.int64)
        keys.append(np.add.outer(rows << 32, cols).ravel())
    return len(np.unique(np.concatenate(keys))) if keys else 0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the spans of the tracer's completed rounds.

    Times and counts are per round (sums divided by the number of rounds);
    rates are sums over sums; ``*_max_s`` is the slowest single call;
    ``background.rss_growth_mb`` sums the growth over the whole traced run;
    ``trace.self_sum_s`` is the median over rounds of all self times.
    """
    spans = tracer.spans
    rounds = tracer.round
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, []))

    def self_total(name: str) -> float:
        return sum(own[s.id] for s in by_name.get(name, []))

    def attr_total(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, []))

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    enum = by_name.get("background.enumerate", [])
    solves = by_name.get("utility.solve", [])
    dist = by_name.get("distance.matrix", [])
    per_round = [
        [s for s in dist if s.round == r] for r in sorted({s.round for s in dist})
    ]
    ratios = [_distinct_pairs(group) / sum(s.attrs.get("pairs", 0) for s in group)
              for group in per_round if sum(s.attrs.get("pairs", 0) for s in group)]
    return {
        "event_log.ingest_s": total("event_log.ingest") / rounds,
        "event_log.build_s": total("event_log.build") / rounds,
        "event_log.events_per_s": rate(attr_total("event_log.ingest", "events"),
                                       total("event_log.ingest")),
        "background.enumerate_s": total("background.enumerate") / rounds,
        "background.max_cell_s": max((s.duration for s in enum), default=0.0),
        "background.candidates_per_s": rate(attr_total("background.enumerate", "candidates"),
                                            total("background.enumerate")),
        "background.calls": len(enum) / rounds,
        "background.rss_growth_mb": float(attr_total("background.enumerate", "rss_growth_mb")),
        "risk.reduce_s": total("risk.reduce") / rounds,
        "risk.profile_self_s": self_total("risk.profile") / rounds,
        "distance.matrix_s": total("distance.matrix") / rounds,
        "distance.pairs": attr_total("distance.matrix", "pairs") / rounds,
        "distance.pairs_per_s": rate(attr_total("distance.matrix", "pairs"),
                                     total("distance.matrix")),
        "distance.distinct_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
        "utility.solve_s": total("utility.solve") / rounds,
        "utility.solve_max_s": max((s.duration for s in solves), default=0.0),
        "utility.arcs_per_s": rate(attr_total("utility.solve", "arcs"), total("utility.solve")),
        "utility.failed_solves": sum(1 for s in solves if s.error) / rounds,
        "utility.build_self_s": self_total("utility.build_problem") / rounds,
        "anonymize.k_anonymize_s": self_total("anonymize.k_anonymize") / rounds,
        "cli.self_s": self_total("cli") / rounds,
        "trace.self_sum_s": statistics.median(round_self_sums(tracer)),
        "trace.missing_wrappers": float(len(tracer.missing)),
    }
