"""End-to-end, layer-by-layer benchmark of the Vindicator pipeline.

Run from the root of a repository checkout::

    python3 bench_e2e/run.py --workload xalan-vindicate --seed 1 --seconds 20 --trace 0
    python3 bench_e2e/run.py --workload all            # every workload, one table each

Each invocation prepares a copy of ``src/repro`` under
``bench_e2e/.build`` (with the compiled kernel extension when a C
compiler is present), generates the workload's trace from the schedule
seed, renames its variables and locks by ``--seed``, runs jobs for
``--seconds`` seconds — each in a fresh interpreter or daemon — checks
every output against the shipped expected answers and the reference
detectors, prints a table, writes ``bench_e2e/results/*.json`` and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``bench_e2e/README.md``).

Exit status is 0 after a completed run (even when outputs were wrong;
``correct`` says so) and 2 when the run could not be made at all — no
source tree, a failed build, or a generated trace whose hash differs
from the shipped one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import socket
import subprocess
import sys
import sysconfig
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (DEFAULT_SCHEDULE_SEED, FRAME_LINES, QUERY_EVERY,
                    WORKLOADS, document_digest, event_lines, frames, median,
                    percentile, relabel)

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
BENCH_REL = os.path.relpath(BENCH, ROOT)
WORK_REL = os.path.join(BENCH_REL, ".work")
PYTHON = sys.executable

#: Whole-invocation budget; job timeouts shrink to stay inside it.
BUDGET_SECONDS = 170.0
#: Fewest jobs an end-to-end run makes, however short ``--seconds``.
MIN_JOBS = 3


class BenchError(Exception):
    """The run cannot be made (exit 2, no result line)."""


class JobError(Exception):
    """One job failed; it counts as a failed operation."""


# ----------------------------------------------------------------------
# Preparation
# ----------------------------------------------------------------------
def source_key(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts or \
                path.suffix in (".so", ".pyd", ".pyc"):
            continue
        digest.update(str(path.relative_to(src)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def have_compiler() -> bool:
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    return shutil.which(compiler) is not None


def prepare_build() -> Tuple[Path, str]:
    """Copy ``src/repro`` out of the source tree and compile its kernel
    extension there; returns the directory to put on ``PYTHONPATH`` and
    the kernel backend the run must report."""
    src = ROOT / "src" / "repro"
    if not src.is_dir():
        raise BenchError(f"no src/repro under {ROOT}: run from the root "
                         "of a repository checkout")
    kernels_c = src / "core" / "_kernels.c"
    backend = "compiled" if kernels_c.exists() and have_compiler() else "python"
    builds = BENCH / ".build"
    dest = builds / source_key(src)
    if (dest / "READY").exists():
        return dest, backend
    shutil.rmtree(builds, ignore_errors=True)
    shutil.copytree(src, dest / "repro", ignore=shutil.ignore_patterns(
        "__pycache__", "*.so", "*.pyd", "*.pyc"))
    if backend == "compiled":
        proc = subprocess.run(
            [PYTHON, str(BENCH / "worker.py"), "build-ext", str(dest)],
            env=worker_env(), capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise BenchError("building repro.core._kernels failed:\n"
                             + proc.stderr[-2000:])
    (dest / "READY").write_text(backend + "\n", encoding="utf-8")
    return dest, backend


def worker_env(build: Optional[Path] = None) -> Dict[str, str]:
    """Environment of every child process: the prepared copy on the
    path, a fixed hash seed, and temporary files kept in the checkout."""
    env = dict(os.environ)
    tmp = BENCH / ".work" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["PYTHONHASHSEED"] = "0"
    env.pop("VINDICATOR_KERNELS", None)   # let the program pick (auto)
    if build is not None:
        env["PYTHONPATH"] = str(build)
    return env


def load_json(path: Path) -> Dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


# ----------------------------------------------------------------------
# One workload invocation
# ----------------------------------------------------------------------
class Run:
    """State of one workload's measurement: inputs, samples, failures."""

    def __init__(self, workload: str, args: argparse.Namespace,
                 build: Path, backend: str, expected: Dict[str, Any],
                 started: float) -> None:
        self.workload = workload
        self.kind = WORKLOADS[workload][2]
        self.args = args
        self.env = worker_env(build)
        self.backend = backend
        self.expected = expected
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.trace_sha256 = ""
        self.trace_file = ""
        self.lines: List[str] = []
        self.digest: Optional[str] = expected.get("digest")
        self.query_digests: Optional[List[str]] = expected.get("query_digests")
        #: Time spent in correctness checks inside measured jobs; the
        #: measurement window is extended by it.
        self.check_seconds = 0.0
        #: Per-job end-to-end samples, kept for the results file.
        self.samples: List[Dict[str, Any]] = []

    # -- bookkeeping ----------------------------------------------------
    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def remaining(self) -> float:
        return max(5.0, BUDGET_SECONDS - (time.monotonic() - self.started))

    def same_digest(self, digest: str) -> bool:
        """Compare against the shipped answer (or, for a schedule seed
        with none shipped, the first answer of this run)."""
        if self.digest is None:
            self.digest = digest
        return digest == self.digest

    def worker(self, *argv: str) -> Tuple[float, Dict[str, Any]]:
        spawn = time.time()
        try:
            proc = subprocess.run(
                [PYTHON, os.path.join(BENCH_REL, "worker.py"), *argv],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise JobError(f"worker {argv[0]} timed out")
        if proc.returncode != 0:
            raise JobError(f"worker {argv[0]} exited {proc.returncode}: "
                           + proc.stderr.strip()[-1500:])
        merged: Dict[str, Any] = {}
        for line in proc.stdout.splitlines():
            if line.startswith("{"):
                merged.update(json.loads(line))
        if merged.get("backend", self.backend) != self.backend:
            raise BenchError(f"kernel backend {merged['backend']!r} is live, "
                             f"expected {self.backend!r}")
        return spawn, merged

    # -- inputs ---------------------------------------------------------
    def generate(self) -> None:
        os.makedirs(WORK_REL, exist_ok=True)
        sched = self.args.schedule_seed
        canonical = os.path.join(WORK_REL, f"{self.workload}-s{sched}.trace")
        try:
            self.worker("generate", "--workload", self.workload,
                        "--schedule-seed", str(sched), "--out", canonical)
        except JobError as exc:
            raise BenchError(f"generating the {self.workload} trace failed: "
                             f"{exc}")
        with open(canonical, "rb") as handle:
            data = handle.read()
        self.trace_sha256 = hashlib.sha256(data).hexdigest()
        want = self.expected.get("trace_sha256")
        if want is not None and want != self.trace_sha256:
            raise BenchError(
                f"{self.workload} (schedule seed {sched}) generated a trace "
                f"with sha256 {self.trace_sha256}, expected {want}: the "
                "workload generator changed, so this run would measure "
                "different traffic")
        self.lines = relabel(event_lines(data.decode("utf-8")), self.args.seed)
        self.trace_file = os.path.join(
            WORK_REL, f"{self.workload}-s{sched}-r{self.args.seed}.trace")
        with open(self.trace_file, "w", encoding="utf-8") as handle:
            handle.write("\n".join(self.lines) + "\n")

    # -- batch jobs -----------------------------------------------------
    def batch_job(self, mode: str, check: bool) -> Optional[Dict[str, Any]]:
        argv = ["batch", "--trace-file", self.trace_file, "--mode", mode]
        try:
            spawn, out = self.worker(*argv + (["--check"] if check else []))
        except JobError as exc:
            self.op(False, str(exc))
            return None
        result = out["result"]
        result["setup_s"] = out["ready"] - spawn
        ok = self.same_digest(result["digest"])
        if check:
            ok = self.check_passed(out.get("check"), result["digest"]) and ok
            self.check_seconds += out.get("check", {}).get("seconds", 0.0)
        self.op(ok, f"batch {mode} job: wrong document")
        return result

    def check_passed(self, check: Optional[Dict[str, Any]], digest: str) -> bool:
        if check is None:
            self.problems.append("correctness check did not report")
            return False
        ok = True
        if check["witness_failures"]:
            self.problems.extend(check["witness_failures"][:5])
            ok = False
        if check["reference_digest"] != digest:
            self.problems.append("document differs from the reference "
                                 "detectors' document")
            ok = False
        return ok

    # -- stream jobs ----------------------------------------------------
    def daemon_job(self, with_status: bool) -> Optional[Dict[str, Any]]:
        """Spawn ``vindicator serve``, stream the trace over one
        closed-loop connection, and shut the daemon down."""
        sock_path = os.path.join(WORK_REL, "serve.sock")
        log_path = os.path.join(WORK_REL, "serve.log")
        deadline = time.monotonic() + self.remaining()
        with open(log_path, "wb") as log:
            spawn = time.time()
            proc = subprocess.Popen(
                [PYTHON, "-m", "repro", "serve", "--socket", sock_path,
                 "--jobs", "1", "--checkpoint-dir",
                 os.path.join(WORK_REL, "checkpoints")],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                client = connect(sock_path, proc, deadline)
                try:
                    return self.stream_session(client, proc, spawn,
                                               with_status)
                finally:
                    client.close()
            except (JobError, OSError, ValueError, KeyError) as exc:
                self.op(False, f"daemon job: {exc!r}")
                return None
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

    def stream_session(self, client: "Client", proc: subprocess.Popen,
                       spawn: float, with_status: bool) -> Dict[str, Any]:
        setup = time.time() - spawn
        rss0 = proc_status_kb(proc.pid, "VmRSS")
        session = "bench"
        frame_ms: List[float] = []
        query_ms: List[float] = []
        query_digests: List[str] = []
        t0 = time.perf_counter()
        reply = client.request({"op": "hello", "session": session})
        if not reply.get("ok"):
            raise JobError(f"hello refused: {reply.get('error')}")
        for number, frame in enumerate(frames(self.lines), start=1):
            a = time.perf_counter()
            reply = client.request({"op": "events", "session": session,
                                    "lines": frame})
            frame_ms.append((time.perf_counter() - a) * 1e3)
            self.op(bool(reply.get("ok")) and reply.get("accepted") == len(frame),
                    f"events frame {number}: {reply.get('error')}")
            if number % QUERY_EVERY == 0:
                a = time.perf_counter()
                reply = client.request({"op": "races", "session": session})
                query_ms.append((time.perf_counter() - a) * 1e3)
                index = len(query_digests)
                digest = document_digest(reply["races"]) if reply.get("ok") else ""
                query_digests.append(digest)
                want = (self.query_digests[index]
                        if self.query_digests and index < len(self.query_digests)
                        else digest)
                self.op(bool(reply.get("ok")) and digest == want,
                        f"races query {index}: wrong answer")
        gc_runs = gc_retired = 0
        if with_status:
            status = client.request({"op": "status", "session": session})["status"]
            gc_runs, gc_retired = status["gc_runs"], status["gc_retired"]
        a = time.perf_counter()
        reply = client.request({"op": "finish", "session": session})
        finish_s = time.perf_counter() - a
        wall = time.perf_counter() - t0
        peak = (proc_status_kb(proc.pid, "VmHWM") - rss0) / 1024.0
        digest = document_digest(reply["report"]) if reply.get("ok") else ""
        self.op(bool(reply.get("ok")) and self.same_digest(digest),
                "finish: wrong report")
        if self.query_digests is None:
            self.query_digests = query_digests
        client.request({"op": "shutdown"})
        proc.wait(timeout=self.remaining())
        return {"setup_s": setup, "wall_s": wall, "peak_rss_mb": peak,
                "frame_ms": frame_ms, "query_ms": query_ms,
                "finish_s": finish_s, "reply_bytes": client.received,
                "gc_runs": gc_runs, "gc_retired": gc_retired,
                "digest": digest}

    def stream_worker(self, mode: str) -> Optional[Dict[str, Any]]:
        try:
            spawn, out = self.worker("stream", "--trace-file", self.trace_file,
                                     "--mode", mode)
        except JobError as exc:
            self.op(False, str(exc))
            return None
        result = out["result"]
        ok = self.same_digest(result["digest"]) and \
            result["query_digests"] == self.query_digests
        self.op(ok, f"in-process session ({mode}): wrong answer")
        return result

    def check_stream(self) -> None:
        """Cross-check the served report against a batch run of the
        reference detectors and re-check that run's witnesses."""
        try:
            _, out = self.worker("check-stream", "--trace-file", self.trace_file)
            ok = self.check_passed(out.get("check"), self.digest or "")
        except JobError as exc:
            self.problems.append(str(exc))
            ok = False
        if not ok:
            self.failed += 1

    # -- measurement loops ----------------------------------------------
    def measure(self) -> Dict[str, Tuple[float, int]]:
        deadline = time.monotonic() + self.args.seconds
        jobs: List[Dict[str, Any]] = []
        while time.monotonic() < deadline + self.check_seconds or \
                len(jobs) < MIN_JOBS:
            if self.kind == "batch":
                result = self.batch_job("plain", check=not jobs)
            else:
                result = self.daemon_job(with_status=False)
            if result is None:
                if self.failed > MIN_JOBS:
                    break
                continue
            jobs.append(result)
        if self.kind == "stream":
            self.check_stream()
        if not jobs:
            raise JobError("no job completed")
        self.samples = [{k: v for k, v in job.items()
                         if k not in ("frame_ms", "query_ms", "query_s")}
                        for job in jobs]
        return end_to_end_metrics(self.kind, jobs)

    def measure_traced(self) -> Tuple[Dict[str, Tuple[float, int]], List[Any]]:
        deadline = time.monotonic() + self.args.seconds
        spans_jobs: List[Dict[str, Any]] = []
        obs_jobs: List[Dict[str, Any]] = []
        daemon_jobs: List[Dict[str, Any]] = []
        while time.monotonic() < deadline + self.check_seconds or not obs_jobs:
            if self.kind == "batch":
                spans = self.batch_job("spans", check=not spans_jobs)
                observed = self.batch_job("obs", check=False)
            else:
                daemon = self.daemon_job(with_status=True)
                if daemon is not None:
                    daemon_jobs.append(daemon)
                spans = self.stream_worker("spans")
                observed = self.stream_worker("obs")
            if spans is None or observed is None:
                if self.failed > MIN_JOBS:
                    break
                continue
            spans_jobs.append(spans)
            obs_jobs.append(observed)
        if self.kind == "stream":
            self.check_stream()
        if not obs_jobs or (self.kind == "stream" and not daemon_jobs):
            raise JobError("no traced job completed")
        metrics = per_layer_metrics(self.kind, spans_jobs, obs_jobs, daemon_jobs)
        spans = [{"job": i, "mode": mode, "spans": job["spans"]}
                 for mode, group in (("spans", spans_jobs), ("obs", obs_jobs))
                 for i, job in enumerate(group)]
        return metrics, spans


class Client:
    """Closed-loop NDJSON client for the ``vindicator.serve/1`` socket."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = sock.makefile("rb")
        self.received = 0

    def request(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        self.sock.sendall(json.dumps(doc, separators=(",", ":")).encode("utf-8")
                          + b"\n")
        line = self.reader.readline()
        if not line:
            raise JobError("daemon closed the connection")
        self.received += len(line)
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def connect(path: str, proc: subprocess.Popen, deadline: float) -> Client:
    """Wait until the daemon answers ``ping`` on ``path``."""
    while True:
        if proc.poll() is not None:
            raise JobError(f"daemon exited with {proc.returncode} at start-up")
        if time.monotonic() > deadline:
            raise JobError("daemon did not start")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
        except OSError:
            sock.close()
            time.sleep(0.002)
            continue
        sock.settimeout(max(1.0, deadline - time.monotonic()))
        client = Client(sock)
        if client.request({"op": "ping"}).get("ok"):
            return client
        client.close()
        raise JobError("daemon refused ping")


def proc_status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(kind: str, jobs: List[Dict[str, Any]]
                       ) -> Dict[str, Tuple[float, int]]:
    """``name -> (value, samples)`` for the untraced run."""
    n = len(jobs)
    if kind == "batch":
        # The batch pipeline has no frames or queries of its own: a
        # "frame" is the load + analysis cost amortised over the trace's
        # 250-line slices, a "query" is re-reading the finished report
        # as a document (the median of a few re-reads per job — single
        # reads are bimodal, the first and any that trigger a full GC
        # being slow), and
        # "finish" is classification + vindication + the document — the
        # same work serve's finish does.
        frame_ms = [(j["load_s"] + j["analysis_s"]) * 1e3
                    / math.ceil(j["events"] / FRAME_LINES) for j in jobs]
        query_ms = [median(j["query_s"]) * 1e3 for j in jobs]
        finish_s = [j["run_s"] - j["analysis_s"] + j["document_s"] for j in jobs]
    else:
        frame_ms = [ms for j in jobs for ms in j["frame_ms"]]
        query_ms = [ms for j in jobs for ms in j["query_ms"]]
        finish_s = [j["finish_s"] for j in jobs]
    return {
        "setup_s": (median(j["setup_s"] for j in jobs), n),
        "wall_s": (median(j["wall_s"] for j in jobs), n),
        "peak_rss_mb": (median(j["peak_rss_mb"] for j in jobs), n),
        "frame_ms.p50": (percentile(frame_ms, 50), len(frame_ms)),
        "frame_ms.p90": (percentile(frame_ms, 90), len(frame_ms)),
        "query_ms.p50": (percentile(query_ms, 50), len(query_ms)),
        "query_ms.p90": (percentile(query_ms, 90), len(query_ms)),
        "finish_s": (median(finish_s), n),
    }


def span_times(spans: List[List[Any]]) -> Tuple[Dict[str, float],
                                                Dict[str, float], float, float]:
    """Total and self time per span name, plus the job span's duration
    and self time (the part no layer span covers)."""
    duration = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += duration[i]
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    for i, (name, _, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + duration[i]
        own[name] = own.get(name, 0.0) + duration[i] - child[i]
    return total, own, duration[0], duration[0] - child[0]


def per_layer_metrics(kind: str, spans_jobs: List[Dict[str, Any]],
                      obs_jobs: List[Dict[str, Any]],
                      daemon_jobs: List[Dict[str, Any]]
                      ) -> Dict[str, Tuple[float, int]]:
    n = len(spans_jobs)
    times = [span_times(job["spans"]) for job in spans_jobs]
    obs_walls = [span_times(job["spans"])[2] for job in obs_jobs]
    walls = [t[2] for t in times]

    def total(name: str) -> Tuple[float, int]:
        return median(t[0].get(name, 0.0) for t in times), n

    def own(name: str) -> Tuple[float, int]:
        return median(t[1].get(name, 0.0) for t in times), n

    race_ms = [(end - start) * 1e3 for job in spans_jobs
               for name, start, end, _ in job["spans"] if name == "vindicate.race"]
    counts = spans_jobs[-1]["counts"]
    obs_counts = obs_jobs[-1]["counts"]
    reach = counts["graph.reach_hits"] + counts["graph.reach_misses"]
    races = counts["vindicate.races"]
    metrics = {
        "traces.load_s": total("traces.load"),
        "analysis.hb_s": total("analysis.hb"),
        "analysis.wcp_s": total("analysis.wcp"),
        "analysis.dc_s": total("analysis.dc"),
        "graph.edges": (counts["graph.edges"], 1),
        "graph.cross_thread_edges": (counts["graph.cross_thread_edges"], 1),
        "graph.reach_hits": (counts["graph.reach_hits"], 1),
        "graph.reach_misses": (counts["graph.reach_misses"], 1),
        "graph.reach_hit_ratio": (counts["graph.reach_hits"] / reach if reach else 0.0, 1),
        "vindicate.races": (races, 1),
        "vindicate.race_verdict_ratio": (
            counts["vindicate.race_verdicts"] / races if races else 0.0, 1),
        "vindicate.race_ms.p50": (percentile(race_ms, 50) if race_ms else 0.0,
                                  len(race_ms)),
        "vindicate.race_ms.p90": (percentile(race_ms, 90) if race_ms else 0.0,
                                  len(race_ms)),
        "vindicate.total_s": total("vindicate.race"),
        "vindicate.ls_constraints": (counts["vindicate.ls_constraints"], 1),
        "vindicate.consecutive_edges": (counts["vindicate.consecutive_edges"], 1),
        "vindicate.construct_attempts": (counts["vindicate.construct_attempts"], 1),
        "vindicate.placed_events": (obs_counts["vindicate.placed_events"], 1),
        "pipeline.classify_s": own("pipeline.finalize"),
        "pipeline.document_s": total("pipeline.document"),
        "serve.feed_s": total("serve.feed"),
        "serve.query_s": total("serve.query"),
        "serve.finish_s": total("serve.finish"),
        "serve.protocol_s": (0.0, 0),
        "serve.reply_bytes": (0, 0),
        "serve.gc_runs": (0, 0),
        "serve.gc_retired": (0, 0),
        "obs.traced_wall_s": (median(walls), n),
        "obs.unattributed_s": (median(t[3] for t in times), n),
        "obs.overhead_ratio": (median(obs_walls) / median(walls), len(obs_walls)),
    }
    for name in ("vindicate.add_constraints_s", "vindicate.construct_s",
                 "vindicate.check_witness_s"):
        metrics[name] = (median(job["counts"][name] for job in obs_jobs),
                         len(obs_jobs))
    if kind == "stream":
        d = len(daemon_jobs)
        metrics["serve.protocol_s"] = (
            median(j["wall_s"] for j in daemon_jobs) - median(walls), d)
        metrics["serve.reply_bytes"] = (
            median(j["reply_bytes"] for j in daemon_jobs), d)
        metrics["serve.gc_runs"] = (daemon_jobs[-1]["gc_runs"], 1)
        metrics["serve.gc_retired"] = (daemon_jobs[-1]["gc_retired"], 1)
    return metrics


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def declared_units(trace: int) -> Dict[str, str]:
    spec = load_json(ROOT / "BENCHMARK.json")
    if not spec:
        raise BenchError(f"no BENCHMARK.json under {ROOT}")
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def render(workload: str, run: Run, metrics: Dict[str, Tuple[float, int]],
           units: Dict[str, str]) -> str:
    rows = [f"{workload}  (seed {run.args.seed}, schedule seed "
            f"{run.args.schedule_seed}, kernels {run.backend}, "
            f"{len(run.lines)} events)",
            f"  {'metric':<32} {'value':>14} {'unit':<6} {'samples':>7}"]
    for name in units:
        value, samples = metrics[name]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        rows.append(f"  {name:<32} {shown:>14} {units[name]:<6} {samples:>7}")
    share = run.failed / run.attempted if run.attempted else 0.0
    rows.append(f"  {'failed_ops':<32} {share:>14.6g} {'share':<6} "
                f"{run.attempted:>7}")
    rows.extend(f"  ! {problem}" for problem in run.problems)
    return "\n".join(rows)


def run_workload(workload: str, args: argparse.Namespace, build: Path,
                 backend: str, expected_all: Dict[str, Any],
                 units: Dict[str, str]) -> Tuple[Run, Dict[str, Tuple[float, int]]]:
    expected = {} if args.record else \
        expected_all.get(workload, {}).get(str(args.schedule_seed), {})
    run = Run(workload, args, build, backend, expected, time.monotonic())
    run.generate()
    spans: List[Any] = []
    try:
        if args.trace:
            metrics, spans = run.measure_traced()
        else:
            metrics = run.measure()
    except JobError as exc:
        raise BenchError(f"{workload}: {exc}; " + "; ".join(run.problems[:3]))
    if set(metrics) != set(units):
        raise BenchError(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    print(render(workload, run, metrics, units))
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    doc = {
        "workload": workload, "seed": args.seed,
        "schedule_seed": args.schedule_seed, "trace": args.trace,
        "seconds": args.seconds, "kernels_backend": backend,
        "trace_sha256": run.trace_sha256, "events": len(run.lines),
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "failed_ops": run.failed / run.attempted if run.attempted else 0.0,
        "problems": run.problems,
        "metrics": {name: {"value": metrics[name][0], "unit": unit,
                           "samples": metrics[name][1]}
                    for name, unit in units.items()},
        "jobs": run.samples,
        "spans": spans,
    }
    out = results / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if args.record and run.failed == 0:
        entry = {"trace_sha256": run.trace_sha256, "events": len(run.lines),
                 "digest": run.digest}
        if run.kind == "stream":
            entry["query_digests"] = run.query_digests
        expected_all.setdefault(workload, {})[str(args.schedule_seed)] = entry
    return run, metrics


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="renames variables and locks (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time per workload (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced jobs")
    parser.add_argument("--schedule-seed", type=int,
                        default=DEFAULT_SCHEDULE_SEED,
                        help="scheduler seed of the workload generator; "
                             "answers ship for 1 (default) and 2")
    parser.add_argument("--expected", type=Path,
                        default=BENCH / "expected.json",
                        help="expected-answers file")
    parser.add_argument("--record", action="store_true",
                        help="record this schedule seed's answers into "
                             "--expected after a run whose cross-checks pass")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        units = declared_units(args.trace)
        build, backend = prepare_build()
        expected_all = load_json(args.expected)
        outcome = [run_workload(w, args, build, backend, expected_all, units)
                   for w in workloads]
    except BenchError as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        return 2
    if args.record:
        args.expected.write_text(json.dumps(expected_all, indent=1,
                                            sort_keys=True) + "\n",
                                 encoding="utf-8")
    metrics = {(name if len(outcome) == 1 else f"{run.workload}/{name}"):
               {"value": result[name][0], "unit": unit}
               for run, result in outcome for name, unit in units.items()}
    failed = sum(run.failed for run, _ in outcome)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(run.attempted for run, _ in outcome),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
