"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.schema import (
    validate_lint_document,
    validate_scan_document,
)
from repro.traces.io import dump_trace
from repro.traces.litmus import figure1, figure2

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestLitmusCommand:
    def test_single_litmus(self, capsys):
        assert main(["litmus", "figure2"]) == 0
        out = capsys.readouterr().out
        assert "figure2" in out
        assert "DC: 1 static races" in out
        assert "predictable race" in out

    def test_all_litmus(self, capsys):
        assert main(["litmus"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "figure4b" in out

    def test_unknown_litmus(self, capsys):
        assert main(["litmus", "nope"]) == 2
        assert "unknown litmus" in capsys.readouterr().err

    def test_witness_flag(self, capsys):
        assert main(["litmus", "figure2", "--witness"]) == 0
        out = capsys.readouterr().out
        assert "witness (correctly reordered trace)" in out


class TestAnalyzeCommand:
    def test_analyze_file(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace(figure1(), path)
        assert main(["analyze", str(path), "--vindicate-all"]) == 0
        out = capsys.readouterr().out
        assert "WCP: 1 static races" in out
        assert "vindication:" in out

    def test_analyze_reports_distances(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace(figure2(), path)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "DC-only static races" in out

    def test_policy_flag(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace(figure2(), path)
        assert main(["analyze", str(path), "--policy", "earliest"]) == 0

    @pytest.mark.parametrize("command", ["analyze", "profile"])
    def test_unparsable_trace_is_usage_error(self, command, tmp_path,
                                             capsys):
        # Exit-code contract: unusable input exits 2 with a one-line
        # error, never a traceback.
        path = tmp_path / "bad.txt"
        path.write_text("T1 foo x\n")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unknown operation" in err
        assert "Traceback" not in err

    def test_missing_trace_is_usage_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trace")
        assert "Traceback" not in err


class TestWorkloadCommand:
    def test_workload_runs(self, capsys):
        assert main(["workload", "luindex", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "static races" in out

    def test_workload_fast_path(self, capsys):
        assert main(["workload", "luindex", "--scale", "0.2",
                     "--fast-path"]) == 0
        assert "fast path removed" in capsys.readouterr().out

    def test_unknown_workload(self, capsys):
        assert main(["workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestLintCommand:
    def test_clean_trace(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace(figure1(), path)
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s), 0 note(s)" in out

    def test_errors_reported_with_line_and_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("# comment\nT1 wr x\nT2 rel m\n")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:line 3: SA101 error:" in out
        assert "1 error(s)" in out

    def test_warnings_do_not_fail(self, tmp_path, capsys):
        path = tmp_path / "warn.txt"
        path.write_text("T1 acq m\nT1 wr x\n")
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "SA120 warning" in out

    def test_accepts_traces_analyze_rejects(self, tmp_path, capsys):
        # `analyze` would raise TraceFormatError on this trace; `lint`
        # must still process it and report every finding.
        path = tmp_path / "mess.txt"
        path.write_text("T1 rel m\nT1 rel m\nT2 join T9\n")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.count("SA101") == 2
        assert "SA110" in out

    def test_missing_file_is_usage_failure(self, tmp_path, capsys):
        # Exit-code contract: 2 is reserved for usage/IO failures, so a
        # missing trace is distinguishable from a trace with findings.
        assert main(["lint", str(tmp_path / "absent.txt")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_json_document_is_schema_valid(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace(figure1(), path)
        assert main(["lint", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_lint_document(doc)
        assert doc["schema"] == "vindicator.lint/1"
        assert doc["summary"]["findings"] == 0

    def test_json_reports_findings_and_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("# comment\nT1 wr x\nT2 rel m\n")
        assert main(["lint", str(path), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        validate_lint_document(doc)
        assert doc["summary"]["errors"] == 1
        [finding] = doc["findings"]
        assert finding["code"] == "SA101"
        assert finding["severity"] == "error"
        assert finding["line"] == 3


class TestScanCommand:
    def test_broken_cache_reports_the_race(self, capsys):
        assert main(["scan", str(EXAMPLES / "broken_cache.py")]) == 1
        out = capsys.readouterr().out
        assert "SA201" in out
        assert "cache.entry" in out

    def test_json_document_is_schema_valid(self, capsys):
        assert main(["scan", str(EXAMPLES / "broken_cache.py"),
                     "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        validate_scan_document(doc)
        assert doc["schema"] == "vindicator.scan/1"
        [module] = doc["modules"]
        assert "cache.entry" in [f["path"] for f in module["findings"]]
        # The instrumentation plan prunes thread-local sites.
        pruned = [s for s in module["plan"] if not s["instrument"]]
        assert pruned
        assert all(s["tier"] == "thread-local" for s in pruned)

    def test_clean_source_exits_0(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text(
            "import threading\n"
            "LOCK = threading.Lock()\n"
            "total = 0\n"
            "def work():\n"
            "    global total\n"
            "    with LOCK:\n"
            "        total += 1\n"
            "def main():\n"
            "    t = threading.Thread(target=work)\n"
            "    t.start()\n"
            "    work()\n"
            "    t.join()\n")
        assert main(["scan", str(path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_missing_path_is_usage_failure(self, tmp_path, capsys):
        assert main(["scan", str(tmp_path / "absent.py")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_syntax_error_is_usage_failure(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("def broken(:\n")
        assert main(["scan", str(path)]) == 2
        assert "bad.py" in capsys.readouterr().err

    def test_directory_scan_aggregates(self, capsys):
        assert main(["scan", str(EXAMPLES), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        validate_scan_document(doc)
        assert doc["summary"]["modules"] >= 4
        assert doc["summary"]["errors"] >= 3


class TestStaticFlags:
    def test_prefilter_reports_counters(self, capsys):
        assert main(["litmus", "figure2", "--prefilter"]) == 0
        out = capsys.readouterr().out
        assert "lockset pre-analysis:" in out
        assert "pre-filter: skipped" in out
        # Verdicts are unchanged by the filter.
        assert "DC: 1 static races" in out
        assert "predictable race" in out

    def test_prefilter_matches_unfiltered_output(self, capsys):
        assert main(["litmus", "figure1"]) == 0
        plain = capsys.readouterr().out
        assert main(["litmus", "figure1", "--prefilter"]) == 0
        filtered = capsys.readouterr().out
        keep = [line for line in plain.splitlines()
                if ("races" in line or "race" in line)
                and "ms)" not in line]  # vindication lines embed wall time
        for line in keep:
            assert line in filtered

    def test_sanitize_passes_on_litmus(self, capsys):
        assert main(["litmus", "figure2", "--sanitize"]) == 0
        assert "lockset pre-analysis:" in capsys.readouterr().out

    def test_sanitize_with_prefilter_on_workload(self, capsys):
        assert main(["workload", "luindex", "--scale", "0.2",
                     "--prefilter", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "pre-filter: skipped" in out

    def test_analyze_accepts_both_flags(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace(figure2(), path)
        assert main(["analyze", str(path), "--prefilter", "--sanitize",
                     "--vindicate-all"]) == 0
        out = capsys.readouterr().out
        assert "lockset pre-analysis:" in out
        assert "vindication:" in out


#: Every valid composition of the detector-variant, parallelism, and
#: static-analysis flags: --fast-vc picks the WCP/DC implementation,
#: and everything composes with it.
VARIANT_FLAGS = [[], ["--fast-vc"]]


class TestVariantFlagMatrix:
    @pytest.mark.parametrize("variant", VARIANT_FLAGS,
                             ids=["reference", "fast-vc"])
    @pytest.mark.parametrize("static", [[], ["--prefilter"]],
                             ids=["plain", "prefilter"])
    def test_workload_matrix_serial(self, variant, static, capsys):
        assert main(["workload", "luindex", "--scale", "0.2",
                     "--vindicate-all", *variant, *static]) == 0
        out = capsys.readouterr().out
        assert "DC:" in out
        if static:
            assert "pre-filter: skipped" in out

    @pytest.mark.parametrize("variant", VARIANT_FLAGS,
                             ids=["reference", "fast-vc"])
    def test_workload_matrix_parallel(self, variant, capsys):
        # The variant must reach the worker processes (bit-identical
        # verdict lines vs the serial run of the same variant).
        assert main(["workload", "luindex", "--scale", "0.2",
                     "--vindicate-all", *variant]) == 0
        serial = capsys.readouterr().out
        assert main(["workload", "luindex", "--scale", "0.2",
                     "--vindicate-all", "--jobs", "2", *variant]) == 0
        parallel = capsys.readouterr().out
        keep = [line for line in serial.splitlines()
                if "race" in line and "ms)" not in line]
        assert keep
        for line in keep:
            assert line in parallel

    @pytest.mark.parametrize("variant", VARIANT_FLAGS[1:],
                             ids=["fast-vc"])
    def test_litmus_and_analyze_accept_variants(self, variant, tmp_path,
                                                capsys):
        assert main(["litmus", "figure2", *variant]) == 0
        assert "DC: 1 static races" in capsys.readouterr().out
        path = tmp_path / "t.txt"
        dump_trace(figure2(), path)
        assert main(["analyze", str(path), "--vindicate-all",
                     *variant]) == 0
        assert "vindication:" in capsys.readouterr().out

    def test_variant_resolution_precedence(self):
        from repro.cli import build_parser
        from repro.vindicate.vindicator import Vindicator

        def parse(*argv):
            args = build_parser().parse_args(list(argv))
            return args.fast_vc, args.kernels

        assert parse("litmus") == (False, None)
        assert parse("litmus", "--fast-vc") == (True, None)
        assert (parse("--kernels", "python", "litmus", "--fast-vc")
                == (True, "python"))
        # The sub-command's --kernels wins over the global one.
        assert (parse("--kernels", "compiled", "litmus", "--kernels",
                      "python") == (False, "python"))
        with pytest.raises(ValueError):
            Vindicator(variant="warp")


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])
