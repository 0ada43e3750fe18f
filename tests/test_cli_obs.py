"""Tests for the CLI's observability surface: ``profile``, the global
``--metrics`` flag, and ``--json``."""

import json
import re

import pytest

from repro import obs
from repro.cli import main
from repro.core import kernels
from repro.obs.schema import (
    validate_analyze_document,
    validate_jsonl_path,
    validate_snapshot,
)
from repro.traces.io import dump_trace
from repro.traces.litmus import figure2


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "t.txt"
    dump_trace(figure2(), path)
    return str(path)


class TestProfileCommand:
    def test_trace_file_prints_span_tree(self, trace_file, capsys):
        assert main(["profile", trace_file]) == 0
        out = capsys.readouterr().out
        for phase in ("profile.load", "pipeline.run", "pipeline.analysis",
                      "pipeline.vindicate"):
            assert phase in out
        assert "counters:" in out
        assert re.search(r"analysis\.dc\.events\s+12", out)

    def test_phase_times_sum_to_total(self, trace_file, capsys):
        # Acceptance: the root phase accounts for ~all wall time, and
        # each printed percentage is relative to it.
        assert main(["profile", trace_file]) == 0
        out = capsys.readouterr().out
        rows = re.findall(r"^(\s*)(\S+)\s+([0-9.]+) ms\s+(\d+)%",
                          out, flags=re.MULTILINE)
        assert rows, out
        indent, root_name, root_ms, root_pct = rows[0]
        assert indent == "" and int(root_pct) == 100
        # Direct children of the root sum to <= and ~= the root time.
        child_ms = [float(ms) for ind, _, ms, _ in rows[1:]
                    if len(ind) == 2]
        assert child_ms
        assert sum(child_ms) <= float(root_ms) * 1.01
        assert sum(child_ms) >= float(root_ms) * 0.5

    def test_workload_target(self, capsys):
        assert main(["profile", "avrora", "--scale", "0.2",
                     "--min-ms", "0"]) == 0
        out = capsys.readouterr().out
        assert "runtime.execute" in out
        assert "runtime.context_switches" in out

    def test_unknown_target(self, capsys):
        assert main(["profile", "not-a-thing"]) == 2
        assert "unknown trace file or workload" in capsys.readouterr().err

    def test_metrics_export(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "prof.jsonl"
        assert main(["profile", trace_file, "--metrics",
                     str(out_path)]) == 0
        counts = validate_jsonl_path(str(out_path))
        assert counts["meta"] == 1 and counts["metrics"] == 1
        assert counts["span"] >= 4

    def test_obs_disabled_after_profile(self, trace_file, capsys):
        assert main(["profile", trace_file]) == 0
        assert not obs.enabled()

    @pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]],
                             ids=["serial", "jobs2"])
    @pytest.mark.parametrize("variant", [[], ["--fast-vc"]],
                             ids=["reference", "fast-vc"])
    def test_every_analysis_span_is_tagged(self, variant, jobs, tmp_path,
                                           capsys):
        # Every detector runs through the one Detector.analyze template,
        # so every analysis.* span carries the kernel backend and sits
        # under pipeline.analysis, serial or parallel. The backend is
        # the one --kernels installed, in --jobs workers too.
        out_path = tmp_path / "prof.jsonl"
        before = kernels.active_backend()
        try:
            assert main(["profile", "avrora", "--scale", "0.2", *variant,
                         *jobs, "--kernels", "python",
                         "--metrics", str(out_path)]) == 0
        finally:
            kernels.set_backend(before)
        records = [json.loads(line)
                   for line in out_path.read_text().splitlines()]
        # Span records stream in completion order (children before
        # their parent), so a record adopts the pending records one
        # level deeper.
        children = {}
        pending = {}
        for rec in records:
            if rec["type"] != "span":
                continue
            depth = rec["depth"]
            children.setdefault(rec["name"], []).extend(
                pending.pop(depth + 1, []))
            pending.setdefault(depth, []).append(rec)
        analysis = [rec for rec in records if rec["type"] == "span"
                    and rec["name"].startswith("analysis.")]
        assert analysis
        for rec in analysis:
            assert rec.get("tags", {}).get("kernels.backend") == "python", rec
        names = [rec["name"] for rec in children["pipeline.analysis"]]
        assert "analysis.hb" in names
        assert any(name.startswith("analysis.wcp") for name in names)
        assert any(name.startswith("analysis.dc") for name in names)


class TestGlobalMetricsFlag:
    def test_jsonl_stream(self, tmp_path, capsys):
        out_path = tmp_path / "run.jsonl"
        assert main(["--metrics", str(out_path), "litmus", "figure2"]) == 0
        counts = validate_jsonl_path(str(out_path))
        assert counts["meta"] == 1 and counts["metrics"] == 1
        assert counts["span"] >= 5
        # Human output is unchanged by --metrics.
        assert "DC: 1 static races" in capsys.readouterr().out

    def test_json_snapshot(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "run.json"
        assert main(["--metrics", str(out_path), "analyze",
                     trace_file]) == 0
        doc = json.loads(out_path.read_text())
        validate_snapshot(doc)
        assert doc["metrics"]["counters"]["analysis.dc.events"] == 12
        assert doc["spans"][0]["name"] == "pipeline.run"

    def test_prometheus_text(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "run.prom"
        assert main(["--metrics", str(out_path), "analyze",
                     trace_file]) == 0
        text = out_path.read_text()
        assert "# TYPE vindicator_analysis_dc_events counter" in text

    def test_disabled_without_flag(self, trace_file, capsys):
        assert main(["analyze", trace_file]) == 0
        assert not obs.enabled()


class TestJsonFlag:
    def test_analyze_json_validates(self, trace_file, capsys):
        assert main(["analyze", trace_file, "--vindicate-all",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_analyze_document(doc)
        assert doc["analyses"]["dc"]["static_races"] == 1
        assert doc["vindications"][0]["verdict"] == "predictable race"
        assert doc["trace"]["provenance"]["kind"] == "file"
        assert doc["metrics"] is None  # obs was off

    def test_workload_json_validates(self, capsys):
        assert main(["workload", "avrora", "--scale", "0.2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_analyze_document(doc)
        assert doc["trace"]["provenance"]["kind"] == "scheduler"

    def test_json_with_metrics_carries_snapshot(self, trace_file,
                                                tmp_path, capsys):
        out_path = tmp_path / "m.json"
        assert main(["--metrics", str(out_path), "analyze", trace_file,
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_analyze_document(doc)
        assert doc["metrics"]["counters"]["analysis.hb.events"] == 12
