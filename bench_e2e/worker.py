"""One benchmark job in a fresh interpreter.

The runner (``run.py``) starts this script once per job, with the
prepared copy of ``repro`` first on ``PYTHONPATH``. The first line the
script prints reports when the interpreter was ready (``repro``
imported) and its RSS at that point; the second is the job's result.
Every line is one JSON object.

Subcommands::

    worker.py generate --workload W --schedule-seed S --out PATH
    worker.py batch --trace-file F --mode plain|spans|obs [--check]
    worker.py stream --trace-file F --mode spans|obs
    worker.py check-stream --trace-file F
    worker.py build-ext DEST

``plain`` runs the job the way ``vindicator analyze --fast-vc`` does,
with nothing but timestamps around the public calls. ``spans`` drives
the same pipeline through its public pieces and records a span around
each call into a layer; ``obs`` does the same inside an
``repro.obs.session()`` so the program's existing ``vindicate.*`` spans
can be read back.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from common import (BATCH_VARIANT, QUERY_EVERY, WORKLOADS,
                    document_digest, event_lines, frames)


#: Report re-reads timed after each plain batch job.
QUERY_READS = 5


def emit(doc: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident = int(handle.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ready() -> float:
    """Import the program and report the set-up point."""
    import repro  # noqa: F401  (the set-up being measured)
    from repro.core import kernels

    base = rss_mb()
    emit({"ready": time.time(), "rss_mb": base,
          "backend": kernels.active_backend()})
    return base


class Recorder:
    """In-memory span recorder for the benchmark's own spans.

    Each span is ``[name, start, end, parent_index]`` with times from
    :func:`time.perf_counter`; spans of one job share the recorder.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return func(*args, **kwargs)
        return traced


class _Span:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec = rec
        self.name = name
        self.index = -1

    def __enter__(self) -> "_Span":
        rec = self.rec
        parent = rec._stack[-1] if rec._stack else -1
        self.index = len(rec.spans)
        rec.spans.append([self.name, time.perf_counter(), 0.0, parent])
        rec._stack.append(self.index)
        return self

    def __exit__(self, *exc: object) -> None:
        self.rec.spans[self.index][2] = time.perf_counter()
        self.rec._stack.pop()


def install_pipeline_spans(rec: Recorder) -> None:
    """Span the vindication layer's public entry points wherever the
    pipeline calls them (batch phases and the serve session's finish)."""
    import repro.vindicate.vindicator as vindicator

    vindicator.vindicate_race = rec.wrap("vindicate.race",
                                         vindicator.vindicate_race)
    vindicator.Vindicator.finalize = rec.wrap(
        "pipeline.finalize", vindicator.Vindicator.finalize)
    vindicator.VindicatorReport.to_document = rec.wrap(
        "pipeline.document", vindicator.VindicatorReport.to_document)


def obs_sums(session: Any) -> Dict[str, float]:
    """Self time of the program's ``vindicate.*`` spans, and the events
    the witness constructor placed."""
    sums = {"vindicate.add_constraints_s": 0.0, "vindicate.construct_s": 0.0,
            "vindicate.check_witness_s": 0.0, "vindicate.placed_events": 0}
    stack = list(session.tracer.roots)
    while stack:
        span = stack.pop()
        stack.extend(span.children)
        key = span.name + "_s"
        if key in sums:
            sums[key] += span.self_seconds
        if span.name == "vindicate.construct":
            sums["vindicate.placed_events"] += span.counts.get("placed", 0)
    return sums


def graph_counts(graph: Any, lines: List[str]) -> Dict[str, int]:
    """DC constraint-graph size and how many edges cross threads."""
    tids = [line.split(None, 1)[0] for line in lines]
    cross = sum(1 for src, dst in graph.edges() if tids[src] != tids[dst])
    return {"graph.edges": graph.stats()["edges"],
            "graph.cross_thread_edges": cross}


def vindication_counts(doc: Dict[str, Any]) -> Dict[str, Any]:
    vindications = doc["vindications"]
    counters = doc["analyses"]["dc"]["counters"]
    return {
        "graph.reach_hits": counters.get("reach_hits", 0),
        "graph.reach_misses": counters.get("reach_misses", 0),
        "vindicate.races": len(vindications),
        "vindicate.race_verdicts": sum(
            1 for v in vindications if v["verdict"] == "predictable race"),
        "vindicate.ls_constraints": sum(v["ls_constraints"] for v in vindications),
        "vindicate.consecutive_edges": sum(
            v["consecutive_edges"] for v in vindications),
        "vindicate.construct_attempts": sum(v["attempts"] for v in vindications),
    }


def recheck_witnesses(trace: Any, report: Any) -> Dict[str, Any]:
    """Re-check every RACE witness against Definition 2.1."""
    from repro.vindicate.verify import check_witness
    from repro.vindicate.vindicator import Verdict

    checked, failures = 0, []
    for v in report.vindications:
        if v.verdict is not Verdict.RACE:
            continue
        checked += 1
        try:
            check_witness(trace, v.witness, v.race.first, v.race.second)
        except Exception as exc:  # noqa: BLE001 — reported as a failed check
            failures.append(f"{v.race.first.eid},{v.race.second.eid}: {exc}")
    return {"witnesses_checked": checked, "witness_failures": failures}


def reference_run(path: str) -> Any:
    """The batch pipeline with the reference detectors (the oracle)."""
    from repro.traces.io import load_trace
    from repro.vindicate.vindicator import Vindicator

    trace = load_trace(path)
    return trace, Vindicator().run(trace)


def check_batch(path: str, trace: Any, report: Any) -> Dict[str, Any]:
    """Re-check the measured report's witnesses and digest the reference
    pipeline's document for the runner to compare."""
    start = time.perf_counter()
    check = recheck_witnesses(trace, report)
    _, reference = reference_run(path)
    check["reference_digest"] = document_digest(reference.to_document())
    check["seconds"] = time.perf_counter() - start
    return check


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> None:
    from repro.core import kernels
    from repro.runtime.scheduler import execute
    from repro.runtime.workloads import WORKLOADS as PROGRAMS
    from repro.traces.io import dump_trace

    program, scale, _ = WORKLOADS[args.workload]
    trace = execute(PROGRAMS[program](scale), args.schedule_seed)
    dump_trace(trace, args.out)
    emit({"events": len(trace), "threads": len(trace.threads),
          "backend": kernels.active_backend()})


def cmd_batch(args: argparse.Namespace) -> None:
    base = ready()
    from repro.traces.io import load_trace
    from repro.vindicate.vindicator import Vindicator

    if args.mode == "plain":
        t0 = time.perf_counter()
        trace = load_trace(args.trace_file)
        t1 = time.perf_counter()
        report = Vindicator(variant=BATCH_VARIANT).run(trace)
        t2 = time.perf_counter()
        doc = report.to_document()
        t3 = time.perf_counter()
        # Reading the report out is the batch job's "query": sample it
        # again after the job, as a client re-reading the report would.
        reads: List[float] = []
        for _ in range(QUERY_READS):
            start = time.perf_counter()
            report.to_document()
            reads.append(time.perf_counter() - start)
        emit({"result": {
            "wall_s": t3 - t0, "load_s": t1 - t0, "run_s": t2 - t1,
            "document_s": t3 - t2, "query_s": reads,
            "analysis_s": doc["timing"]["analysis_seconds"],
            "events": doc["trace"]["events"],
            "peak_rss_mb": peak_rss_mb() - base,
            "digest": document_digest(doc),
            "backend": doc["kernels"]["backend"]}})
        if args.check:
            emit({"check": check_batch(args.trace_file, trace, report)})
        return

    from repro import obs
    from repro.analysis.variants import make_analysis_detectors

    rec = Recorder()
    install_pipeline_spans(rec)

    def job() -> Any:
        with rec.span("job"):
            with rec.span("traces.load"):
                trace = load_trace(args.trace_file)
            detectors = make_analysis_detectors(BATCH_VARIANT)
            reports = []
            for name, detector in zip(("hb", "wcp", "dc"), detectors):
                detector.transitive_force = True
                with rec.span(f"analysis.{name}"):
                    reports.append(detector.analyze(trace))
            report = Vindicator(variant=BATCH_VARIANT).finalize(
                trace, *detectors, *reports)
            doc = report.to_document()
        return trace, report, doc, detectors[2].graph

    sums: Dict[str, float] = {}
    if args.mode == "obs":
        with obs.session() as session:
            trace, report, doc, graph = job()
        sums = obs_sums(session)
    else:
        trace, report, doc, graph = job()
    with open(args.trace_file, encoding="utf-8") as handle:
        lines = event_lines(handle.read())
    counts = vindication_counts(doc)
    counts.update(graph_counts(graph, lines))
    counts.update(sums)
    emit({"result": {"spans": rec.spans, "counts": counts,
                     "digest": document_digest(doc),
                     "backend": doc["kernels"]["backend"]}})
    if args.check:
        emit({"check": check_batch(args.trace_file, trace, report)})


def cmd_stream(args: argparse.Namespace) -> None:
    ready()
    from repro import obs
    from repro.core import kernels
    from repro.serve.session import SessionAnalyzer, SessionConfig

    with open(args.trace_file, encoding="utf-8") as handle:
        lines = event_lines(handle.read())
    rec = Recorder()
    install_pipeline_spans(rec)
    query_digests: List[str] = []

    def job() -> Any:
        with rec.span("job"):
            with rec.span("serve.hello"):
                analyzer = SessionAnalyzer(SessionConfig(name="bench"))
            for number, frame in enumerate(frames(lines), start=1):
                with rec.span("serve.feed"):
                    analyzer.feed_lines(frame)
                if number % QUERY_EVERY == 0:
                    with rec.span("serve.query"):
                        races = analyzer.races_document()
                    query_digests.append(document_digest(races))
            with rec.span("serve.finish"):
                doc = analyzer.finish()
        return doc, analyzer

    sums: Dict[str, float] = {}
    if args.mode == "obs":
        with obs.session() as session:
            doc, analyzer = job()
        sums = obs_sums(session)
    else:
        doc, analyzer = job()
    counts = vindication_counts(doc)
    counts.update(graph_counts(analyzer.dc.graph, lines))
    counts.update(sums)
    emit({"result": {"spans": rec.spans, "counts": counts,
                     "digest": document_digest(doc),
                     "query_digests": query_digests,
                     "backend": kernels.active_backend()}})


def cmd_check_stream(args: argparse.Namespace) -> None:
    """The serve session's reference detectors must agree with a batch
    run of the same trace; that run's witnesses are re-checked."""
    trace, reference = reference_run(args.trace_file)
    check = recheck_witnesses(trace, reference)
    check["reference_digest"] = document_digest(reference.to_document())
    emit({"check": check})


def cmd_build_ext(args: argparse.Namespace) -> None:
    """Compile ``repro.core._kernels`` into the prepared copy at DEST,
    with the same setuptools machinery ``setup.py`` uses."""
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    os.chdir(args.dest)
    ext = Extension("repro.core._kernels", sources=["repro/core/_kernels.c"])
    command = build_ext(Distribution({"ext_modules": [ext]}))
    command.build_lib = "."
    command.build_temp = "tmp"
    command.ensure_finalized()
    command.run()


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("generate")
    gen.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    gen.add_argument("--schedule-seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)
    batch = sub.add_parser("batch")
    batch.add_argument("--trace-file", required=True)
    batch.add_argument("--mode", choices=("plain", "spans", "obs"),
                       required=True)
    batch.add_argument("--check", action="store_true")
    batch.set_defaults(func=cmd_batch)
    stream = sub.add_parser("stream")
    stream.add_argument("--trace-file", required=True)
    stream.add_argument("--mode", choices=("spans", "obs"), required=True)
    stream.set_defaults(func=cmd_stream)
    check = sub.add_parser("check-stream")
    check.add_argument("--trace-file", required=True)
    check.set_defaults(func=cmd_check_stream)
    build = sub.add_parser("build-ext")
    build.add_argument("dest")
    build.set_defaults(func=cmd_build_ext)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
