from __future__ import annotations

import csv
import gzip
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import logprivacy
from logprivacy import (
    AnonymizationConfig,
    BkType,
    EventLog,
    SolverError,
    Strategy,
    cli,
    data_utility,
    k_anonymize,
    risk_profile,
    utility,
)
from logprivacy.cli import EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, EXIT_SOLVER, EXIT_USAGE, main
from oracles import markov_log_pair

DATA_DIR = Path(__file__).parent / "data"

EX2_L2_ROWS = (
    [("case", "activity", "time")]
    + [(str(c), a, f"2020-01-01T00:0{i}:00") for c in range(1, 5) for i, a in enumerate("abcd")]
    + [(str(c), a, f"2020-01-01T00:0{i}:00") for c in range(5, 9) for i, a in enumerate("ef")]
    + [(str(c), a, f"2020-01-01T00:0{i}:00") for c in range(9, 13) for i, a in enumerate("gh")]
)

EX3_ORIGINAL = {("a", "b", "c", "d"): 1, ("a", "c", "b", "d"): 1, ("a", "e", "c", "d"): 49, ("a", "e", "b", "d"): 49}
EX3_ANONYMIZED = {("a", "b", "c", "d"): 50, ("a", "c", "b", "d"): 50}


def write_csv(path: Path, rows) -> Path:
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    return path


def write_log_csv(path: Path, counted: dict) -> Path:
    rows = [("case", "activity", "time")]
    case = 0
    for trace, count in counted.items():
        for _ in range(count):
            case += 1
            for i, activity in enumerate(trace):
                rows.append((f"c{case}", activity, f"2020-01-01T{i // 60:02d}:{i % 60:02d}:00"))
    return write_csv(path, rows)


@pytest.fixture
def ex2_l2_csv(tmp_path):
    return write_csv(tmp_path / "ex2_l2.csv", EX2_L2_ROWS)


@pytest.fixture
def ex3_files(tmp_path):
    original = write_log_csv(tmp_path / "original.csv", EX3_ORIGINAL)
    anonymized = write_log_csv(tmp_path / "anonymized.csv", EX3_ANONYMIZED)
    return original, anonymized


def run_json(capsys, argv) -> tuple[int, dict]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_json_with_err(capsys, argv) -> tuple[int, dict, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


class TestStats:
    def test_toy_payload(self, capsys, tmp_path):
        path = write_log_csv(tmp_path / "toy.csv", {("a", "b"): 2})
        code, report = run_json(capsys, ["stats", str(path)])
        assert code == EXIT_OK
        assert report["results"]["stats"] == {
            "n_traces": 2,
            "n_variants": 1,
            "n_events": 4,
            "n_unique_activities": 2,
            "trace_uniqueness": 0.5,
        }
        assert report["command"] == "stats"
        digest = report["inputs"][str(path)]
        assert digest.startswith("sha256:") and len(digest) == 7 + 64

    def test_missing_file_exits_2_with_stderr(self, capsys):
        code = main(["stats", "/nonexistent/log.csv"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert "error" in captured.err

    def test_table_mode(self, capsys, tmp_path):
        path = write_log_csv(tmp_path / "toy.csv", {("a", "b"): 2})
        code = main(["stats", str(path), "--table"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "n_traces" in out and "{" not in out

    def test_row_errors_warned_but_not_fatal(self, capsys, tmp_path):
        path = write_csv(
            tmp_path / "partial.csv",
            [("case", "activity", "time"), ("1", "a", "2020-01-01"), ("1", "", "2020-01-02")],
        )
        code, report, err = run_json_with_err(capsys, ["stats", str(path)])
        assert code == EXIT_OK
        assert report["results"]["ingest"]["error_count"] == 1
        assert "unusable" in err

    def test_no_usable_event_exits_2(self, capsys, tmp_path):
        path = write_csv(
            tmp_path / "unusable.csv",
            [("case", "activity", "time"), ("1", "", "2020-01-01"), ("2", "a", "someday")],
        )
        code = main(["stats", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert "warning: 2 unusable row(s)/event(s)" in captured.err
        assert captured.err.endswith(f"error: {str(path)!r} yielded no usable events\n")


class TestRisk:
    def test_example2_l2_values(self, capsys, ex2_l2_csv):
        code, report = run_json(
            capsys, ["risk", str(ex2_l2_csv), "--types", "set", "--sizes", "1"]
        )
        assert code == EXIT_OK
        (cell,) = report["results"]["cells"]
        assert cell == {"type": "set", "size": 1, "cd": 0.25, "td": 1.0, "n_candidates": 8}

    def test_empty_size_range_is_a_usage_error(self, capsys, ex2_l2_csv):
        with pytest.raises(SystemExit) as exc:
            main(["risk", str(ex2_l2_csv), "--sizes", "9-6"])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_type_is_a_usage_error(self, capsys, ex2_l2_csv):
        with pytest.raises(SystemExit) as exc:
            main(["risk", str(ex2_l2_csv), "--types", "graph"])
        assert exc.value.code == EXIT_USAGE

    def test_cap_failures_reported_inline_with_exit_3(self, capsys, ex2_l2_csv):
        code, report = run_json(
            capsys,
            ["risk", str(ex2_l2_csv), "--types", "set", "--sizes", "1,2", "--cap", "5"],
        )
        assert code == EXIT_RESOURCE
        assert [c["size"] for c in report["results"]["cells"]] == []
        assert {f["size"] for f in report["results"]["failures"]} == {1, 2}

    @pytest.mark.parametrize("command", ["risk", "sweep"])
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_nonpositive_cap_is_a_usage_error(self, capsys, ex2_l2_csv, command, cap):
        with pytest.raises(SystemExit) as exc:
            main([command, str(ex2_l2_csv), "--sizes", "1", "--cap", cap])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: logprivacy")
        assert "candidate cap must be an integer >= 1" in captured.err

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("risk", "--sizes", "a", "bad size 'a'"),
            ("risk", "--sizes", "1-x", "bad size range '1-x'"),
            ("risk", "--sizes", "0", "sizes must be >= 1"),
            ("risk", "--sizes", ",", "at least one size is required"),
            ("risk", "--types", ",", "at least one background-knowledge type is required"),
            ("sweep", "--k-values", "0", "k values must be integers >= 1"),
            ("sweep", "--k-values", "x", "bad k list 'x'"),
            ("risk", "--cap", "x", "bad cap 'x'"),
        ],
    )
    def test_bad_flag_values_are_usage_errors(self, capsys, ex2_l2_csv, command, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main([command, str(ex2_l2_csv), flag, value])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: logprivacy")
        assert f"argument {flag}: {message}\n" in captured.err

    def test_cells_are_listed_in_grid_order(self, capsys, ex2_l2_csv):
        code, report = run_json(
            capsys, ["risk", str(ex2_l2_csv), "--types", "seq,set", "--sizes", "2,1"]
        )
        assert code == EXIT_OK
        cells = [(c["type"], c["size"]) for c in report["results"]["cells"]]
        assert cells == [("set", 1), ("set", 2), ("seq", 1), ("seq", 2)]

    def test_golden_report_schema(self, capsys, tmp_path):
        path = write_csv(tmp_path / "ex2_l2.csv", EX2_L2_ROWS)
        code, report = run_json(
            capsys, ["risk", str(path), "--types", "set", "--sizes", "1-2"]
        )
        assert code == EXIT_OK
        report["timing"] = {k: 0.0 for k in report["timing"]}
        report["inputs"] = {Path(p).name: d for p, d in report["inputs"].items()}
        golden = json.loads((DATA_DIR / "golden_risk.json").read_text())
        assert report == golden

    def test_json_is_key_sorted_and_stable(self, capsys, ex2_l2_csv):
        def normalized():
            code = main(["risk", str(ex2_l2_csv), "--types", "mult", "--sizes", "1,3"])
            assert code == EXIT_OK
            raw = capsys.readouterr().out
            assert raw == json.dumps(json.loads(raw), sort_keys=True, indent=2) + "\n"
            report = json.loads(raw)
            report["timing"] = {k: 0.0 for k in report["timing"]}
            return report

        assert normalized() == normalized()

    def test_table_lists_scored_skipped_and_failed_cells(self, capsys, ex2_l2_csv):
        # set/3 has 4 candidates, no trace holds 5 activities, and set/1's 8
        # candidates exceed the cap at the sixth first activity.
        code = main(
            ["risk", str(ex2_l2_csv), "--types", "set", "--sizes", "1,3,5", "--cap", "5", "--table"]
        )
        assert code == EXIT_RESOURCE
        assert capsys.readouterr().out.splitlines() == [
            "  type size       cd       td   candidates",
            "   set    3    0.250    1.000            4",
            "   set    5        -        -  no candidates at this size",
            "   set    1        !        !  candidate enumeration for type='set' size=1 "
            "reached 6 candidates, exceeding the cap of 5",
        ]

    def test_dump_candidates(self, capsys, ex2_l2_csv, tmp_path):
        dump = tmp_path / "dump"
        code, _ = run_json(
            capsys,
            ["risk", str(ex2_l2_csv), "--types", "set", "--sizes", "1", "--dump-candidates", str(dump)],
        )
        assert code == EXIT_OK
        content = (dump / "candidates_set_1.csv").read_text().splitlines()
        assert content[0] == "candidate,cardinality"
        assert len(content) == 9

    def test_dump_writes_no_file_for_a_type_with_no_scored_size(self, capsys, tmp_path):
        # aba has one set pair (ab) but three sequence pairs (ab, aa, ba),
        # so seq/2 exceeds the cap and seq has no scored size.
        path = write_log_csv(tmp_path / "aba.csv", {("a", "b", "a"): 2})
        dump = tmp_path / "dump"
        code, report = run_json(
            capsys,
            ["risk", str(path), "--types", "set,seq", "--sizes", "2,5", "--cap", "2",
             "--dump-candidates", str(dump)],
        )
        assert code == EXIT_RESOURCE
        assert [(f["type"], f["size"]) for f in report["results"]["failures"]] == [("seq", 2)]
        assert sorted(p.name for p in dump.iterdir()) == ["candidates_set_2.csv"]

    def test_dump_onto_a_file_is_an_input_error(self, capsys, ex2_l2_csv, tmp_path):
        dump = tmp_path / "dump"
        dump.write_text("not a directory\n")
        code = main(
            ["risk", str(ex2_l2_csv), "--types", "set", "--sizes", "1", "--dump-candidates", str(dump)]
        )
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(dump) in captured.err


class TestUtility:
    def test_example3_values(self, capsys, ex3_files):
        original, anonymized = ex3_files
        code, report = run_json(capsys, ["utility", str(original), str(anonymized)])
        assert code == EXIT_OK
        assert report["results"]["ul"] == pytest.approx(0.245, abs=1e-9)
        assert report["results"]["du"] == pytest.approx(0.755, abs=1e-9)
        assert report["results"]["n_sources"] == 4
        assert report["results"]["n_sinks"] == 2

    def test_same_file_twice_gives_unit_utility(self, capsys, ex3_files):
        original, _ = ex3_files
        code, report = run_json(capsys, ["utility", str(original), str(original)])
        assert code == EXIT_OK
        assert report["results"]["du"] == 1.0

    def test_table_mode(self, capsys, ex3_files):
        original, anonymized = ex3_files
        code = main(["utility", str(original), str(anonymized), "--table"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "utility loss (ul): 0.245",
            "data utility (du): 0.755",
        ]

    def test_plan_export(self, capsys, ex3_files, tmp_path):
        original, anonymized = ex3_files
        plan_path = tmp_path / "plan.csv"
        code, _ = run_json(
            capsys, ["utility", str(original), str(anonymized), "--plan-out", str(plan_path)]
        )
        assert code == EXIT_OK
        lines = plan_path.read_text().strip().splitlines()
        assert lines[0] == "source,sink,mass,cost"
        assert len(lines) >= 4

    def test_unwritable_plan_path_is_an_input_error(self, capsys, ex3_files, tmp_path):
        original, anonymized = ex3_files
        plan_path = tmp_path / "missing" / "plan.csv"
        code = main(["utility", str(original), str(anonymized), "--plan-out", str(plan_path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(plan_path) in captured.err

    def test_merge_nearest_pair_needs_no_simplex(self, capsys, ex3_files, tmp_path, monkeypatch):
        # the first pivot exceeds a zero pivot budget, so any simplex run fails
        monkeypatch.setattr(utility, "_PIVOTS_PER_ARC", 0)
        original, _ = ex3_files
        merged = k_anonymize(
            EventLog.from_counts(EX3_ORIGINAL), AnonymizationConfig(2, Strategy.MERGE_NEAREST)
        )
        merged_path = write_log_csv(
            tmp_path / "merged.csv",
            {merged.variant_labels(v): c for v, c in zip(merged.variants, merged.counts)},
        )
        code, report = run_json(capsys, ["utility", str(original), str(merged_path)])
        assert code == EXIT_OK
        # each single-trace variant moves a quarter, to a 49-trace variant
        assert report["results"]["ul"] == pytest.approx(0.005, abs=1e-15)
        assert report["results"]["n_flows"] == 4

    def test_solver_failure_exits_with_solver_code(self, capsys, ex3_files, monkeypatch):
        def failing_solve(problem):
            raise SolverError("no optimality certificate after 7 pivots (4x2 problem)")

        monkeypatch.setattr(cli, "solve", failing_solve)
        original, anonymized = ex3_files
        code = main(["utility", str(original), str(anonymized)])
        captured = capsys.readouterr()
        assert code == EXIT_SOLVER
        assert captured.out == ""
        assert "error: no optimality certificate after 7 pivots" in captured.err


class TestSweep:
    def test_k1_record_equals_original_risk(self, capsys, ex2_l2_csv):
        code, report = run_json(
            capsys,
            ["sweep", str(ex2_l2_csv), "--k-values", "1", "--types", "set", "--sizes", "1"],
        )
        assert code == EXIT_OK
        (record,) = report["results"]["records"]
        assert record["k"] == 1
        assert record["du"] == 1.0
        assert record["cells"][0]["cd"] == 0.25

    def test_oversized_k_produces_error_record_but_other_ks_emit(self, capsys, ex2_l2_csv):
        code, report = run_json(
            capsys,
            [
                "sweep", str(ex2_l2_csv),
                "--k-values", "1,999",
                "--types", "set",
                "--sizes", "1",
                "--strategy", "suppress",
            ],
        )
        assert code == EXIT_INPUT
        records = {r["k"]: r for r in report["results"]["records"]}
        assert "error" in records[999]
        assert records[1]["du"] == 1.0

    def test_cap_failure_at_every_k_exits_3(self, capsys, ex2_l2_csv):
        # both k keep all 8 set/1 candidates, over a cap of 5
        code, report = run_json(
            capsys,
            ["sweep", str(ex2_l2_csv), "--k-values", "1,2", "--types", "set", "--sizes", "1", "--cap", "5"],
        )
        assert code == EXIT_RESOURCE
        for record in report["results"]["records"]:
            assert record["cells"] == [] and record["du"] == 1.0
            assert [(f["type"], f["size"]) for f in record["failures"]] == [("set", 1)]

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_records_equal_per_k_calls_that_build_their_own_cost(
        self, capsys, tmp_path, strategy
    ):
        # Counts doubled, so k = 2 leaves no variant below it; the last k is
        # above every count.
        for seed in (4, 7):
            markov = markov_log_pair(seed, 160, 6)[0]
            counted = {markov.variant_labels(v): 2 * c for v, c in zip(markov.variants, markov.counts)}
            log = EventLog.from_counts(counted)
            path = write_log_csv(tmp_path / f"markov-{seed}.csv", counted)
            top = max(log.counts)
            ks = sorted({1, 2, 3, 4, 5, 8, top, top + 1})
            code, report = run_json(capsys, [
                "sweep", str(path), "--strategy", strategy.value, "--types", "set,mult",
                "--sizes", "1-3", "--k-values", ",".join(map(str, ks)),
            ])
            assert code == EXIT_INPUT
            expected = []
            for k in ks:
                try:
                    anonymized = k_anonymize(log, AnonymizationConfig(k, strategy))
                except ValueError as exc:
                    expected.append({"k": k, "error": str(exc)})
                    continue
                report_k = data_utility(log, anonymized)
                profile = risk_profile(anonymized, [BkType.SET, BkType.MULTISET], [1, 2, 3])
                cells, skipped, failures = cli._cells_payload(profile)
                expected.append({
                    "k": k, "ul": report_k.ul, "du": report_k.du, "cells": cells,
                    "skipped": skipped, "failures": failures,
                    "anonymized": cli._stats_payload(anonymized),
                })
            assert expected[-1] == {"k": top + 1, "error": "k too large for this log"}
            assert report["results"]["records"] == expected

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_a_sweep_computes_each_distance_once(self, capsys, tmp_path, monkeypatch, strategy):
        calls, pairs = [], []
        real = utility.distance_matrix

        def counted(rows, cols):
            calls.append((len(rows), len(cols)))
            pairs.extend(itertools.product(rows, cols))
            return real(rows, cols)

        monkeypatch.setattr(utility, "distance_matrix", counted)
        log = markov_log_pair(5, 300, 6)[0]
        path = write_log_csv(
            tmp_path / "markov.csv",
            {log.variant_labels(v): c for v, c in zip(log.variants, log.counts)},
        )
        code, report = run_json(capsys, [
            "sweep", str(path), "--strategy", strategy.value, "--types", "set",
            "--sizes", "1", "--k-values", "1,2,3,4,8",
        ])
        assert code == EXIT_OK
        assert [r["du"] < 1.0 for r in report["results"]["records"]] == [False] + [True] * 4
        # The first k above 1 asks about every anchor of the later ones.
        n_anchors = sum(c >= 2 for c in log.counts)
        assert calls == [(len(log.variants), n_anchors)]
        assert len(pairs) == len(set(pairs))

    def test_table_shows_error_rows_beside_scored_ones(self, capsys, ex2_l2_csv):
        code = main(
            ["sweep", str(ex2_l2_csv), "--k-values", "1,999", "--types", "set", "--sizes", "1", "--table"]
        )
        assert code == EXIT_INPUT
        assert capsys.readouterr().out.splitlines() == [
            "     k       du  cells",
            "     1    1.000  set/1:cd=0.250",
            "   999        !  k too large for this log",
        ]

    def test_solver_failure_at_one_k_is_recorded_and_others_emit(
        self, capsys, ex3_files, monkeypatch
    ):
        real_data_utility = cli.data_utility

        def data_utility(original, anonymized, *, cost):
            if original != anonymized:
                raise SolverError("optimal plan violates marginal conservation")
            return real_data_utility(original, anonymized, cost=cost)

        monkeypatch.setattr(cli, "data_utility", data_utility)
        original, _ = ex3_files
        # k=2 suppresses the two single-trace variants; k=1 keeps the log
        code, report = run_json(
            capsys,
            ["sweep", str(original), "--k-values", "1,2", "--types", "set", "--sizes", "1"],
        )
        assert code == EXIT_SOLVER
        records = {r["k"]: r for r in report["results"]["records"]}
        assert records[2] == {"k": 2, "error": "optimal plan violates marginal conservation"}
        assert records[1]["du"] == 1.0
        assert records[1]["anonymized"]["n_traces"] == 100

    def test_merge_nearest_sweep_needs_no_simplex(self, capsys, ex3_files, monkeypatch):
        # the first pivot exceeds a zero pivot budget, so any simplex run fails
        monkeypatch.setattr(utility, "_PIVOTS_PER_ARC", 0)
        original, _ = ex3_files
        argv = ["sweep", str(original), "--k-values", "1,2", "--types", "set", "--sizes", "1"]
        # k=2 merges each single-trace variant into the 49-trace variant a
        # quarter away
        code, report = run_json(capsys, argv + ["--strategy", "merge-nearest"])
        assert code == EXIT_OK
        records = {r["k"]: r for r in report["results"]["records"]}
        assert records[1]["ul"] == 0.0
        assert records[2]["ul"] == pytest.approx(0.005, abs=1e-15)
        # suppression drops abcd and acbd, which are closest to a different
        # kept variant each, so the kept counts stay proportional and the
        # nearest plan holds too
        code, report = run_json(capsys, argv + ["--strategy", "suppress"])
        assert code == EXIT_OK
        records = {r["k"]: r for r in report["results"]["records"]}
        assert records[2]["ul"] == pytest.approx(0.005, abs=1e-15)
        # with only one of them the proportions tip, so the simplex runs and
        # fails
        lopsided = {t: c for t, c in EX3_ORIGINAL.items() if t != ("a", "c", "b", "d")}
        argv[1] = str(write_log_csv(original.parent / "lopsided.csv", lopsided))
        code, report = run_json(capsys, argv + ["--strategy", "suppress"])
        assert code == EXIT_SOLVER
        records = {r["k"]: r for r in report["results"]["records"]}
        assert records[2] == {"k": 2, "error": "no optimality certificate after 0 pivots (3x2 problem)"}
        assert records[1]["du"] == 1.0

    def test_records_ordered_by_k(self, capsys, ex2_l2_csv):
        code, report = run_json(
            capsys,
            ["sweep", str(ex2_l2_csv), "--k-values", "4,1,2", "--types", "set", "--sizes", "1"],
        )
        assert code == EXIT_OK
        assert [r["k"] for r in report["results"]["records"]] == [1, 2, 4]

    def test_merge_strategy_preserves_traces(self, capsys, ex2_l2_csv):
        code, report = run_json(
            capsys,
            [
                "sweep", str(ex2_l2_csv),
                "--k-values", "4",
                "--strategy", "merge-nearest",
                "--types", "set",
                "--sizes", "1",
            ],
        )
        assert code == EXIT_OK
        (record,) = report["results"]["records"]
        assert record["anonymized"]["n_traces"] == 12


class TestCsvQuoting:
    @pytest.fixture
    def quoted_csv(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(
            'case,activity,time\n'
            '"c,1","register, fast",2020-01-01T00:00:00\n'
            '"c,1","triage",2020-01-01T00:01:00\n'
        )
        return path

    def test_rfc4180_quoted_fields(self, capsys, quoted_csv):
        code, report = run_json(capsys, ["stats", str(quoted_csv)])
        assert code == EXIT_OK
        assert report["results"]["stats"]["n_traces"] == 1
        assert report["results"]["stats"]["n_events"] == 2

    def test_candidate_dump_reads_back_as_csv(self, capsys, quoted_csv, tmp_path):
        dump = tmp_path / "dump"
        code, _ = run_json(
            capsys,
            ["risk", str(quoted_csv), "--types", "set,seq", "--sizes", "1-2", "--dump-candidates", str(dump)],
        )
        assert code == EXIT_OK
        with open(dump / "candidates_set_1.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [
                ["candidate", "cardinality"], ["register, fast", "1"], ["triage", "1"],
            ]
        with open(dump / "candidates_seq_2.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["candidate", "cardinality"], ["register, fast|triage", "1"]]


class TestXesInput:
    def test_xes_roundtrip(self, capsys, tmp_path):
        xes = tmp_path / "tiny.xes"
        xes.write_text(
            """<log><trace><string key="concept:name" value="c1"/>
            <event><string key="concept:name" value="a"/>
            <date key="time:timestamp" value="2020-01-01T08:00:00+00:00"/></event>
            <event><string key="concept:name" value="b"/>
            <date key="time:timestamp" value="2020-01-01T09:00:00+00:00"/></event>
            </trace></log>"""
        )
        code, report = run_json(capsys, ["stats", str(xes)])
        assert code == EXIT_OK
        assert report["results"]["stats"]["n_events"] == 2
        assert report["results"]["stats"]["n_traces"] == 1

    def test_gzipped_inputs_by_inferred_format(self, capsys, tmp_path):
        xes = tmp_path / "tiny.xes.gz"
        xes.write_bytes(gzip.compress(
            b'<log><trace><string key="concept:name" value="c1"/>'
            b'<event><string key="concept:name" value="a"/>'
            b'<date key="time:timestamp" value="2020-01-01T08:00:00Z"/></event></trace></log>'
        ))
        rows = write_log_csv(tmp_path / "toy.csv", {("a", "b"): 2}).read_bytes()
        csv_gz = tmp_path / "toy.csv.gz"
        csv_gz.write_bytes(gzip.compress(rows))
        for path, n_events in ((xes, 1), (csv_gz, 4)):
            code, report = run_json(capsys, ["stats", str(path)])
            assert code == EXIT_OK
            assert report["results"]["stats"]["n_events"] == n_events


class TestOutputEncoding:
    def test_output_files_are_utf8_under_an_ascii_locale(self, tmp_path):
        # Ingest reads UTF-8 whatever the locale, so the files the CLI
        # writes must not depend on it either.
        log = tmp_path / "umlaut.csv"
        log.write_bytes("case,activity,time\n1,Ärzt,2020-01-01T00:00:00\n1,b,2020-01-01T00:01:00\n".encode())
        dump, plan = tmp_path / "dump", tmp_path / "plan.csv"
        src = str(Path(logprivacy.__file__).parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": src}
        for argv in (
            ["risk", str(log), "--sizes", "1", "--types", "seq", "--dump-candidates", str(dump)],
            ["utility", str(log), str(log), "--plan-out", str(plan)],
        ):
            done = subprocess.run(
                [sys.executable, "-m", "logprivacy.cli", *argv], env=env, capture_output=True, timeout=120
            )
            assert done.returncode == EXIT_OK, done.stderr
        for path in (dump / "candidates_seq_1.csv", plan):
            assert "Ärzt" in path.read_bytes().decode("utf-8")
