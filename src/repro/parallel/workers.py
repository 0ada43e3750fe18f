"""Worker-process side of the parallel engine.

Each pool worker is primed once by an initializer that unpacks the
shared :class:`~repro.traces.packed.PackedTrace` (and, for vindication
workers, rebuilds the DC constraint graph from its CSR arrays and warms
a :class:`~repro.graph.reachability.ReachabilityIndex` from the exported
closure state) into module globals. Tasks then reference that state by
name instead of re-shipping it per call — the trace and graph cross the
process boundary exactly once per pool.

Observability: with the ``fork`` start method workers inherit the
parent's live registry/tracer objects, which must not be double-counted,
so every initializer starts with ``obs.disable()``. When the parent runs
with observability on, each *task* opens a fresh registry/tracer, runs,
and returns ``{"metrics": snapshot, "spans": span dicts}`` for the
parent to merge (:meth:`MetricsRegistry.merge_snapshot`) and graft
(:meth:`Tracer.graft`) deterministically in task order.

All functions here are module-level so they pickle by reference under
both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro import obs
from repro.analysis.races import DynamicRace
from repro.analysis.variants import make_analysis_detector
from repro.core import kernels
from repro.core.events import Target
from repro.core.trace import Trace
from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.reachability import ReachabilityIndex
from repro.traces.packed import PackedTrace

#: Per-process state installed by the pool initializers.
_STATE: Dict[str, Any] = {}


def _obs_begin(enabled: bool) -> None:
    if enabled:
        obs.enable(sample_memory=False)


def _obs_payload(enabled: bool) -> Optional[Dict[str, object]]:
    if not enabled:
        return None
    payload = {
        "metrics": obs.metrics().snapshot(),
        "spans": obs.tracer().to_dicts(),
    }
    obs.disable()
    return payload


# ----------------------------------------------------------------------
# Analysis pool
# ----------------------------------------------------------------------
def init_analysis(packed: PackedTrace, transitive_force: bool,
                  prefilter: Optional[FrozenSet[Target]],
                  obs_on: bool, variant: str = "reference",
                  kernels_backend: str = "auto") -> None:
    """Pool initializer: unpack the trace once per worker process."""
    obs.disable()
    # Under `spawn` the worker imports repro fresh and would re-resolve
    # the env default; re-apply the parent's *resolved* backend so a
    # pool never silently mixes kernel implementations.
    kernels.set_backend(kernels_backend)
    _STATE.clear()
    _STATE["trace"] = packed.unpack()
    _STATE["transitive_force"] = transitive_force
    _STATE["prefilter"] = prefilter
    _STATE["obs_on"] = obs_on
    _STATE["variant"] = variant


def run_detector(which: str) -> Dict[str, Any]:
    """Run one detector (``"hb"``, ``"wcp"``, or ``"dc"``) over the
    worker's trace and return its picklable results.

    The DC payload additionally carries the constraint graph as CSR
    arrays, the graph's structure counters, and the exported closure
    state of a reachability index pre-warmed with one backward region
    pass over the union of the race regions — exactly the ancestors
    AddConstraints starts from.
    """
    trace: Trace = _STATE["trace"]
    obs_on: bool = _STATE["obs_on"]
    variant = _STATE.get("variant", "reference")
    _obs_begin(obs_on)
    # HB always runs the reference detector (the factory enforces it):
    # FastTrack's racing_at is not equivalent, and HB is not the
    # pipeline bottleneck.
    detector: Any = make_analysis_detector(which, variant,
                                           prefilter=_STATE["prefilter"])
    detector.transitive_force = _STATE["transitive_force"]
    report = detector.analyze(trace)
    payload: Dict[str, Any] = {
        "which": which,
        "report": report,
        "racing_at": dict(detector.racing_at),
    }
    if which == "dc":
        offsets, targets = detector.graph.to_arrays()
        payload["graph_arrays"] = (offsets, targets)
        payload["graph_stats"] = detector.graph.stats()
        index = ReachabilityIndex(detector.graph)
        if report.races:
            index.ancestors_mask([r.second.eid for r in report.races])
        payload["index_state"] = index.export_state()
    payload["obs"] = _obs_payload(obs_on)
    return payload


# ----------------------------------------------------------------------
# Vindication pool
# ----------------------------------------------------------------------
def init_vindication(packed: PackedTrace,
                     graph_arrays: Tuple[Any, Any],
                     index_state: Optional[Dict[str, Dict[int, int]]],
                     policy: str, check: bool, use_window: bool,
                     obs_on: bool, kernels_backend: str = "auto") -> None:
    """Pool initializer: unpack the trace, rebuild the DC graph from its
    CSR arrays, and warm a shared reachability index — once per worker."""
    obs.disable()
    kernels.set_backend(kernels_backend)
    _STATE.clear()
    graph = ConstraintGraph.from_arrays(*graph_arrays)
    index = ReachabilityIndex(graph)
    if index_state:
        index.import_state(index_state)
    _STATE["trace"] = packed.unpack()
    _STATE["graph"] = graph
    _STATE["index"] = index
    _STATE["policy"] = policy
    _STATE["check"] = check
    _STATE["use_window"] = use_window
    _STATE["obs_on"] = obs_on


def vindicate_chunk(chunk: List[Tuple[int, DynamicRace]]) -> Dict[str, Any]:
    """Vindicate a chunk of ``(position, race)`` pairs against the
    worker's graph; positions index the parent's classified race list so
    the merge is order-independent.

    Each race sees the pristine DC graph — :func:`vindicate_race`
    removes every edge it adds — so the verdict depends only on
    ``(graph, trace, race, policy)``, never on which worker ran it or
    what ran before (the engine's determinism argument). The reachability
    index's counter deltas are returned so the parent can reconstitute
    the serial report's cache counters by summation.
    """
    # Imported here: repro.vindicate imports neither this module nor
    # repro.parallel, keeping the package dependency graph acyclic.
    from repro.vindicate.vindicator import vindicate_race

    obs_on: bool = _STATE["obs_on"]
    _obs_begin(obs_on)
    index: ReachabilityIndex = _STATE["index"]
    before = index.stats()
    results = []
    for pos, race in chunk:
        vindication = vindicate_race(
            _STATE["graph"], _STATE["trace"], race,
            policy=_STATE["policy"], check=_STATE["check"],
            use_window=_STATE["use_window"], index=index)
        results.append((pos, vindication))
    after = index.stats()
    return {
        "results": results,
        "index_stats": {key: after[key] - before[key] for key in after},
        "obs": _obs_payload(obs_on),
    }
