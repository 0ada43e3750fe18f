"""The benchmark's own tests.

Run from the repository root (they drive the real benchmark on the
smallest workload, so they take about a minute)::

    python3 -m pytest bench_e2e -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from common import document_digest, event_lines, relabel  # noqa: E402


def declared(kind: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


def run_bench(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "h2-stream",
         "--seconds", "1", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_metrics_are_declared(trace: str, kind: str) -> None:
    result = result_line(run_bench("--trace", trace))
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == declared(kind)
    units = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]


def tampered(tmp_path: Path, edit) -> Path:
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    edit(expected["h2-stream"]["1"])
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected), encoding="utf-8")
    return path


def test_tampered_answer_counts_as_failed_ops(tmp_path: Path) -> None:
    def edit(entry: dict) -> None:
        entry["digest"] = "0" * 64
        entry["query_digests"][3] = "0" * 64
    result = result_line(run_bench("--expected", str(tampered(tmp_path, edit))))
    assert not result["correct"]
    # Every finish (one per job) and query 3 of every job are wrong.
    assert result["failed"] >= 2 * 3
    assert result["failed"] < result["attempted"]


def test_tampered_trace_hash_aborts(tmp_path: Path) -> None:
    def edit(entry: dict) -> None:
        entry["trace_sha256"] = "0" * 64
    proc = run_bench("--expected", str(tampered(tmp_path, edit)))
    assert proc.returncode == 2
    assert "workload generator changed" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_relabel_is_a_seeded_bijection() -> None:
    lines = ["T1 fork T2", "T1 wr x a.py:1", "T2 acq m", "T2 rd x",
             "T2 rel m", "T1 join T2", "T1 vwr v"]
    once, again = relabel(lines, 3), relabel(lines, 3)
    assert once == again
    assert [l.split()[:2] for l in once] == [l.split()[:2] for l in lines]
    assert once[0] == "T1 fork T2" and once[5] == "T1 join T2"
    assert once[1].endswith("a.py:1")
    targets = [l.split()[2] for l in once[1:5]] + [once[6].split()[2]]
    assert sorted(set(targets)) == ["m", "v", "x"]
    assert targets[0] == targets[2] and targets[1] == targets[3]


def test_digest_ignores_timings_and_names() -> None:
    race = {"first": {"eid": 1, "tid": "T1", "target": "x"},
            "second": {"eid": 4, "tid": "T2", "target": "x"},
            "relation": "DC", "race_class": "DC-only", "distance": 3}
    doc = {"analyses": {"dc": {"static_races": 1, "dynamic_races": 1,
                               "races": [race], "counters": {"a": 1}}},
           "race_classes": {"DC-only": 1},
           "vindications": [{"race": race, "verdict": "predictable race",
                             "witness_events": 5, "cycle": None,
                             "elapsed_seconds": 0.5}],
           "timing": {"analysis_seconds": 1.0}}
    renamed = json.loads(json.dumps(doc))
    renamed["analyses"]["dc"]["races"][0]["first"]["target"] = "y"
    renamed["vindications"][0]["elapsed_seconds"] = 9.0
    renamed["timing"]["analysis_seconds"] = 2.0
    assert document_digest(doc) == document_digest(renamed)
    renamed["vindications"][0]["witness_events"] = 6
    assert document_digest(doc) != document_digest(renamed)


def test_event_lines_skip_comments() -> None:
    assert event_lines("# header\n\nT1 wr x\n  \nT1 rd x\n") == ["T1 wr x", "T1 rd x"]
