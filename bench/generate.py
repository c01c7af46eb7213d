"""Deterministic synthetic inputs for the benchmark.

Two generators, each taking its seed as an argument and checking that what
it produced has the shape it promises before anything is written:

* ``sepsis_log``: a Sepsis-Cases-shaped log (16 activities, 1050 traces,
  863 variants, about 15k events, longest trace 185 events, a few
  variants occurring 20-35 times), written as XES.
* ``markov_pair``: two independent samples of one Sepsis-shaped Markov chain
  with a given number of traces (and nearly as many variants) per side,
  written as two XES files.

Trace *lengths* and variant *counts* follow fixed, seed-independent profiles;
the seed only decides which activities fill them.  That keeps the amount of
work a benchmark run does nearly constant from seed to seed while the inputs
themselves differ.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path
from statistics import NormalDist
from xml.sax.saxutils import quoteattr

# -- the Sepsis-shaped Markov chain ------------------------------------------

_RELEASES = ("Release A", "Release B", "Release C", "Release D", "Release E")
_RELEASE_WEIGHTS = (0.62, 0.18, 0.1, 0.07, 0.03)
_END = "<end>"

# Transition weights of the walk before a release ends it.  Laboratory
# tests loop, which is what makes the long Sepsis traces long; half of every
# row's weight is then spread evenly over the mid-stay activities, so long
# traces mix many activities the way the real log's long traces do.
_BASE_CHAIN = {
    "ER Registration": {"ER Triage": 0.92, "ER Sepsis Triage": 0.05, "Leucocytes": 0.03},
    "ER Triage": {"ER Sepsis Triage": 0.88, "Leucocytes": 0.06, "CRP": 0.04, "IV Liquid": 0.02},
    "ER Sepsis Triage": {"Leucocytes": 0.3, "CRP": 0.22, "LacticAcid": 0.18, "IV Liquid": 0.14,
                         "IV Antibiotics": 0.12, "Admission NC": 0.04},
    "Leucocytes": {"CRP": 0.42, "LacticAcid": 0.16, "IV Liquid": 0.08, "IV Antibiotics": 0.06,
                   "Admission NC": 0.12, "Admission IC": 0.03, "Leucocytes": 0.05, _END: 0.08},
    "CRP": {"Leucocytes": 0.3, "LacticAcid": 0.2, "IV Liquid": 0.08, "IV Antibiotics": 0.08,
            "Admission NC": 0.12, "Admission IC": 0.02, "CRP": 0.05, _END: 0.15},
    "LacticAcid": {"Leucocytes": 0.22, "CRP": 0.24, "IV Liquid": 0.16, "IV Antibiotics": 0.14,
                   "Admission NC": 0.1, "Admission IC": 0.04, _END: 0.1},
    "IV Liquid": {"IV Antibiotics": 0.62, "Leucocytes": 0.1, "CRP": 0.08, "LacticAcid": 0.06,
                  "Admission NC": 0.1, "Admission IC": 0.04},
    "IV Antibiotics": {"Admission NC": 0.5, "Admission IC": 0.08, "Leucocytes": 0.14, "CRP": 0.14,
                       "LacticAcid": 0.06, _END: 0.08},
    "Admission NC": {"Leucocytes": 0.34, "CRP": 0.34, "LacticAcid": 0.04, "Admission NC": 0.04,
                     "Admission IC": 0.04, _END: 0.2},
    "Admission IC": {"Leucocytes": 0.3, "CRP": 0.3, "LacticAcid": 0.14, "Admission NC": 0.12,
                     _END: 0.14},
}
_MID_STAY = ("ER Triage", "ER Sepsis Triage", "Leucocytes", "CRP", "LacticAcid", "IV Liquid",
             "IV Antibiotics", "Admission NC", "Admission IC", "Return ER")
_MIX = 0.5


def _mixed(row: dict[str, float]) -> dict[str, float]:
    stay = sum(w for a, w in row.items() if a != _END)
    out = {a: w * (1 - _MIX) for a, w in row.items() if a != _END}
    for a in _MID_STAY:
        out[a] = out.get(a, 0.0) + stay * _MIX / len(_MID_STAY)
    if _END in row:
        out[_END] = row[_END]
    return out


_SEPSIS_CHAIN = {"ER Registration": _BASE_CHAIN["ER Registration"]}
_SEPSIS_CHAIN.update({a: _mixed(row) for a, row in _BASE_CHAIN.items() if a != "ER Registration"})
_SEPSIS_CHAIN["Return ER"] = _SEPSIS_CHAIN["CRP"]


def _pick(rng: random.Random, weights: dict[str, float]) -> str:
    return rng.choices(list(weights), weights=list(weights.values()))[0]


_RETURN_SHARE = 0.22


def _release(rng: random.Random) -> str:
    return rng.choices(_RELEASES, weights=_RELEASE_WEIGHTS)[0]


def sepsis_walk(rng: random.Random, length: int | None = None) -> tuple[str, ...]:
    """One trace of the Sepsis chain: the walk, a release, maybe "Return ER".

    With ``length`` given the end transition is masked until exactly enough
    room is left for the release (and sometimes the return), so the trace
    has that many events.  Without it the walk stops the first time the
    chain chooses to end.
    """
    trace = ["ER Registration"]
    while True:
        room = None if length is None else length - len(trace)
        if room == 1:
            return tuple(trace + [_release(rng)])
        if room == 2 and rng.random() < _RETURN_SHARE:
            return tuple(trace + [_release(rng), "Return ER"])
        weights = _SEPSIS_CHAIN[trace[-1]]
        if length is not None:
            weights = {a: w for a, w in weights.items() if a != _END}
        nxt = _pick(rng, weights)
        if nxt == _END:
            tail = [_release(rng)]
            if rng.random() < _RETURN_SHARE:
                tail.append("Return ER")
            return tuple(trace + tail)
        trace.append(nxt)


def _quantile_lengths(n: int, mu: float, sigma: float, lo: int, hi: int) -> list[int]:
    """``n`` lengths at evenly spaced quantiles of a log-normal, clamped."""
    normal = NormalDist(mu, sigma)
    return [min(hi, max(lo, round(math.exp(normal.inv_cdf((i + 0.5) / n))))) for i in range(n)]


# -- Sepsis-shaped log ---------------------------------------------------------

SEPSIS_TRACES = 1050
SEPSIS_MAX_LEN = 185
# Counts of the repeated variants; the rest of the traces are unique.
# Mirrors Sepsis-Cases, whose top variants occur 35, 24, 22, 20 and 19 times.
SEPSIS_REPEATED_COUNTS = (35, 28, 24, 22, 20, 12, 9, 8, 6, 5, 4, 4, 3, 3, 3, 3) + (2,) * 14
_SEPSIS_REPEATED_LENGTHS = (5, 6, 6, 7, 7, 8, 8, 8, 9, 9, 9, 10, 10, 10, 11, 11) + (12,) * 14


def sepsis_log(seed: int) -> list[tuple[str, ...]]:
    """The traces of a Sepsis-shaped log, one entry per case."""
    rng = random.Random(f"sepsis:{seed}")
    n_unique = SEPSIS_TRACES - sum(SEPSIS_REPEATED_COUNTS)
    lengths = _quantile_lengths(n_unique, mu=2.6, sigma=0.6, lo=5, hi=SEPSIS_MAX_LEN - 1)
    lengths[-1] = SEPSIS_MAX_LEN
    # Every variant is drawn distinct from the ones before it, so the count
    # profile (and with it the anonymizer's anchors for each k) is exact.
    seen: set[tuple[str, ...]] = set()
    traces: list[tuple[str, ...]] = []
    for count, length in zip(SEPSIS_REPEATED_COUNTS + (1,) * n_unique,
                             _SEPSIS_REPEATED_LENGTHS + tuple(lengths)):
        variant = sepsis_walk(rng, length)
        while variant in seen:
            variant = sepsis_walk(rng, length)
        seen.add(variant)
        traces.extend([variant] * count)
    rng.shuffle(traces)
    return traces


# -- Markov-chain log pairs ----------------------------------------------------


# Traces per side of the emd-pairs series, and the seed the series is drawn
# from.  The series does not depend on the benchmark's --seed: whether the
# transport solver converges on a pair of this kind is all-or-nothing per
# pair and not monotone in its size, so only a fixed series fails (or not)
# the same way in every run.
PAIR_TRACES = (50, 70, 90, 110, 130, 150, 170)
PAIR_SEED = 0


def markov_pair(seed: int, n_traces: int) -> tuple[Counter, Counter]:
    """Two independent samples of ``n_traces`` traces of the Sepsis chain."""
    rng = random.Random(f"pair:{seed}:{n_traces}")
    return tuple(Counter(sepsis_walk(rng) for _ in range(n_traces)) for _ in range(2))


# -- shape summaries and checks -----------------------------------------------


def shape(counted: Counter) -> dict:
    """Trace, variant, event and activity counts, length profile, top counts."""
    lengths = sorted(len(v) for v, c in counted.items() for _ in range(c))
    n = len(lengths)
    return {
        "traces": n,
        "variants": len(counted),
        "events": sum(lengths),
        "activities": len({a for v in counted for a in v}),
        "length_min": lengths[0],
        "length_median": lengths[n // 2],
        "length_p90": lengths[(9 * n) // 10],
        "length_max": lengths[-1],
        "top_counts": sorted(counted.values(), reverse=True)[:5],
    }


class ShapeError(RuntimeError):
    """A generator produced an input outside the shape it promises."""


def check_shape(name: str, got: dict, want: dict) -> None:
    """``want`` maps a shape key to an exact value or an inclusive (lo, hi)."""
    for key, expected in want.items():
        value = got[key]
        ok = expected[0] <= value <= expected[1] if isinstance(expected, tuple) else value == expected
        if not ok:
            raise ShapeError(f"{name}: {key}={value!r}, expected {expected!r}")


SEPSIS_SHAPE = {
    "traces": SEPSIS_TRACES,
    "variants": SEPSIS_TRACES - sum(SEPSIS_REPEATED_COUNTS) + len(SEPSIS_REPEATED_COUNTS),
    "events": (14_000, 16_500),
    "activities": 16,
    "length_max": SEPSIS_MAX_LEN,
}

# -- writers -------------------------------------------------------------------

_EPOCH = datetime(2020, 1, 1, tzinfo=timezone.utc)


def _stamp(case: int, pos: int) -> str:
    return (_EPOCH + timedelta(hours=case, minutes=pos)).isoformat()


def write_xes(path: Path, traces: list[tuple[str, ...]]) -> None:
    """Minimal XES: case ids, activity names and timestamps, in case order."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<log xes.version="1.0">']
    for case, trace in enumerate(traces):
        lines.append(f'<trace><string key="concept:name" value="case-{case}"/>')
        for pos, activity in enumerate(trace):
            lines.append(
                f'<event><string key="concept:name" value={quoteattr(activity)}/>'
                f'<date key="time:timestamp" value="{_stamp(case, pos)}"/></event>'
            )
        lines.append("</trace>")
    lines.append("</log>")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def expand(pairs) -> list[tuple[str, ...]]:
    """One trace per count of each (variant, count) pair."""
    return [v for v, c in pairs for _ in range(c)]


# -- materialized inputs -------------------------------------------------------


def _log_entry(file: str, counted: Counter, want: dict, name: str) -> dict:
    got = shape(counted)
    check_shape(name, got, want)
    return {
        "file": file,
        "shape": got,
        "variants": sorted([list(v), c] for v, c in counted.items()),
    }


def materialize(root: Path, kind: str, seed: int) -> Path:
    """Write the inputs of ``kind`` for ``seed`` under ``root`` unless present.

    ``kind`` is ``sepsis`` or ``pairs``.  Next to the log files
    goes ``truth.json``: for each log its file name, shape and variant
    counts as generated, which the correctness checks read instead of the
    program's own ingestion.  Files are written to a scratch directory that
    is renamed into place, so a reader never sees a partial set.
    """
    final = root / ("pairs" if kind == "pairs" else f"{kind}-{seed}")
    if (final / "truth.json").is_file():
        return final
    tmp = root / f".tmp-{kind}-{seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    logs = {}
    if kind == "sepsis":
        traces = sepsis_log(seed)
        logs["log"] = _log_entry("log.xes", Counter(traces), SEPSIS_SHAPE, "sepsis")
        write_xes(tmp / "log.xes", traces)
    elif kind == "pairs":
        for n in PAIR_TRACES:
            want = {"traces": n, "variants": (int(0.85 * n), n), "activities": (12, 16)}
            for side, counted in zip("ab", markov_pair(PAIR_SEED, n)):
                name = f"pair-{n}-{side}"
                logs[name] = _log_entry(f"{name}.xes", counted, want, name)
                write_xes(tmp / f"{name}.xes", expand(sorted(counted.items())))
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    (tmp / "truth.json").write_text(json.dumps({"kind": kind, "seed": seed, "logs": logs}))
    try:
        os.rename(tmp, final)
    except OSError:
        # Another process finished the same inputs first.
        shutil.rmtree(tmp)
    return final
