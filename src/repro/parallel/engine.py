"""Parent-process orchestration for the parallel pipeline.

Two phases, two pools:

* **Analysis** — the HB, WCP, and DC detectors run concurrently, one
  task each, over a :class:`~repro.traces.packed.PackedTrace` shipped to
  each worker once by the pool initializer. The DC task also returns the
  constraint graph as flat CSR arrays plus pre-warmed reachability
  closures.
* **Vindication** — the classified races fan out as deterministic
  contiguous chunks of ``(position, race)`` pairs; every worker rebuilds
  the same pristine graph from the CSR arrays, so each race's verdict is
  a pure function of the race itself and the merge just sorts by
  position.

Determinism: results are merged in *fixed* order (analysis: hb, wcp, dc;
vindication: ascending race position; observability payloads: task
submission order), never completion order, so reports are bit-identical
to the serial path regardless of worker count or scheduling — the only
intentional differences are worker-count metadata and the reachability
cache counters, which depend on how the work was partitioned (see
``docs/PARALLEL.md``).

The pool uses the ``fork`` start method when the platform offers it
(cheap, inherits the imported modules) and falls back to ``spawn``;
worker functions live in :mod:`repro.parallel.workers` as module-level
callables so both methods can pickle them by reference.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro import obs
from repro.analysis import variants
from repro.analysis.races import DynamicRace, RaceReport
from repro.core import kernels
from repro.core.events import Target
from repro.core.trace import Trace
from repro.traces.packed import PackedTrace, pack
from repro.parallel import workers

#: Target chunks per worker in the vindication fan-out: more than one so
#: an unlucky worker that drew the slowest races does not serialise the
#: tail, bounded so per-chunk dispatch overhead stays negligible.
CHUNKS_PER_WORKER = 4


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context used by both pools."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def partition(count: int, jobs: int) -> List[Tuple[int, int]]:
    """Deterministic contiguous chunking of ``range(count)``.

    Returns ``(start, stop)`` half-open ranges — a pure function of
    ``(count, jobs)``, independent of worker scheduling. The first
    ``count % chunks`` chunks are one element longer.
    """
    if count <= 0:
        return []
    chunks = max(1, min(count, jobs * CHUNKS_PER_WORKER))
    base, extra = divmod(count, chunks)
    bounds = []
    start = 0
    for i in range(chunks):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


@dataclass
class AnalysisResult:
    """Merged output of the concurrent analysis phase."""

    hb: RaceReport
    wcp: RaceReport
    dc: RaceReport
    hb_racing_at: Dict[int, frozenset]
    wcp_racing_at: Dict[int, frozenset]
    #: The DC constraint graph as ``(offsets, targets)`` CSR arrays.
    graph_arrays: Tuple[Any, Any] = (None, None)
    #: ``ConstraintGraph.stats()`` of the DC graph.
    graph_stats: Dict[str, int] = field(default_factory=dict)
    #: Pre-warmed reachability closures (``ReachabilityIndex.export_state``).
    index_state: Dict[str, Dict[int, int]] = field(default_factory=dict)


def run_analysis(trace: Trace, *, jobs: int, transitive_force: bool,
                 prefilter: Optional[FrozenSet[Target]],
                 variant: "str | variants.VariantSpec" = "reference",
                 ) -> AnalysisResult:
    """Run the three detectors concurrently over ``trace``.

    Results merge in the fixed order hb, wcp, dc; with observability on,
    each worker's metrics snapshot is merged and its span trees are
    grafted under the currently open span in that same order.
    ``variant`` is a name or a :class:`~repro.analysis.variants
    .VariantSpec`: ``"fast"`` runs the verdict-identical epoch WCP and
    DC detectors (:mod:`repro.analysis.smarttrack`). A spec's kernel
    backend is applied here and shipped resolved to every worker, so
    the pool never mixes kernel implementations.
    """
    spec = variants.coerce(variant)
    spec.apply()
    packed = pack(trace)
    obs_on = obs.enabled()
    with ProcessPoolExecutor(
            max_workers=min(3, jobs), mp_context=pool_context(),
            initializer=workers.init_analysis,
            initargs=(packed, transitive_force, prefilter, obs_on,
                      spec.variant, kernels.active_backend())) as pool:
        futures = [pool.submit(workers.run_detector, which)
                   for which in ("hb", "wcp", "dc")]
        payloads = [f.result() for f in futures]
    _merge_obs(payloads)
    hb, wcp, dc = payloads
    return AnalysisResult(
        hb=hb["report"], wcp=wcp["report"], dc=dc["report"],
        hb_racing_at=hb["racing_at"], wcp_racing_at=wcp["racing_at"],
        graph_arrays=dc["graph_arrays"], graph_stats=dc["graph_stats"],
        index_state=dc["index_state"])


def run_vindication(trace: Trace, analysis: AnalysisResult,
                    races: List[Tuple[int, DynamicRace]], *, jobs: int,
                    policy: str, check: bool, use_window: bool,
                    ) -> Tuple[List[Any], Dict[str, int]]:
    """Fan ``(position, race)`` pairs out over a worker pool.

    Returns the vindications sorted by position — bit-identical to the
    serial loop's output order — plus the summed reachability-index
    counter deltas from all workers.
    """
    if not races:
        return [], {}
    packed = pack(trace)
    obs_on = obs.enabled()
    with ProcessPoolExecutor(
            max_workers=min(jobs, len(races)), mp_context=pool_context(),
            initializer=workers.init_vindication,
            initargs=(packed, analysis.graph_arrays, analysis.index_state,
                      policy, check, use_window, obs_on,
                      kernels.active_backend())) as pool:
        futures = [pool.submit(workers.vindicate_chunk, races[start:stop])
                   for start, stop in partition(len(races), jobs)]
        payloads = [f.result() for f in futures]
    _merge_obs(payloads)
    indexed: List[Tuple[int, Any]] = []
    index_stats: Dict[str, int] = {}
    for payload in payloads:
        indexed.extend(payload["results"])
        for key, delta in payload["index_stats"].items():
            index_stats[key] = index_stats.get(key, 0) + delta
    indexed.sort(key=lambda item: item[0])
    return [vindication for _, vindication in indexed], index_stats


def _merge_obs(payloads: List[Dict[str, Any]]) -> None:
    """Merge worker observability payloads in task order (deterministic
    regardless of completion order): metric snapshots fold into the
    parent registry, span trees graft under the open parent span."""
    registry = obs.metrics()
    tracer = obs.tracer()
    for payload in payloads:
        worker_obs = payload.get("obs")
        if not worker_obs:
            continue
        registry.merge_snapshot(worker_obs["metrics"])
        tracer.graft(worker_obs["spans"])
