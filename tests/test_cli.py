from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from logprivacy import AnonymizationConfig, EventLog, SolverError, Strategy, cli, k_anonymize, utility
from logprivacy.cli import EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, EXIT_SOLVER, EXIT_USAGE, main

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
                rows.append((f"c{case}", activity, f"2020-01-01T00:{i:02d}:00"))
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

    def test_solver_failure_at_one_k_is_recorded_and_others_emit(
        self, capsys, ex3_files, monkeypatch
    ):
        real_data_utility = cli.data_utility

        def data_utility(original, anonymized):
            if original != anonymized:
                raise SolverError("optimal plan violates marginal conservation")
            return real_data_utility(original, anonymized)

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
        # suppression changes the trace total, so the simplex runs and fails
        code, report = run_json(capsys, argv + ["--strategy", "suppress"])
        assert code == EXIT_SOLVER
        records = {r["k"]: r for r in report["results"]["records"]}
        assert records[2] == {"k": 2, "error": "no optimality certificate after 0 pivots (4x2 problem)"}
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
