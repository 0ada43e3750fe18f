"""One streaming analysis session.

A session is the unit of sharding: one client stream, one
:class:`~repro.serve.streaming.StreamingTrace`, one set of reference
HB/WCP/DC detectors fed event by event as chunks arrive, with windowed
metadata GC (:mod:`repro.serve.gc`) bounding live state. Finishing a
session hands the materialised trace to the shared batch tail
(:meth:`repro.vindicate.vindicator.Vindicator.finalize`), so the final
report is bit-identical to single-shot ``vindicator analyze`` of the
same events — for any chunking, because every per-event effect
(detector updates, the determinism hash, the GC tick) is a pure
function of the accepted-event prefix, never of frame boundaries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, cast

from repro.analysis.dc import DCDetector
from repro.analysis.hb import HBDetector
from repro.analysis.races import RaceReport, classify
from repro.analysis.wcp import WCPDetector
from repro.core import kernels
from repro.core.events import Event
from repro.core.trace import Trace
from repro.serve import gc as serve_gc
from repro.serve.protocol import ProtocolError
from repro.serve.streaming import StreamingTrace
from repro.traces.io import parse_event_line
from repro.traces.packed import TraceHasher
from repro.vindicate.construct import POLICIES
from repro.vindicate.vindicator import (Vindicator, _analysis_doc,
                                        _race_doc)

#: Default GC window: one metadata sweep per this many accepted events.
#: Small enough to bound a pathological stream's live state, large
#: enough that the sweep cost is noise against per-event analysis.
DEFAULT_GC_WINDOW = 4096


@dataclass
class SessionConfig:
    """Per-session knobs, carried in ``hello`` and in checkpoints.

    Attributes:
        name: Client-chosen session name (unique per daemon).
        gc_window: Run metadata GC every this many accepted events;
            ``0`` disables GC entirely.
        build_graph: Maintain the DC constraint graph while streaming
            (required to ``finish``; sessions that only ever ask for
            online ``races`` can turn it off to keep memory flat).
        vindicate_all: Vindicate every DC-race at finish, not just
            DC-only ones.
        policy: Witness-constructor policy for vindication.
        transitive_force: See :attr:`repro.analysis.base.Detector.transitive_force`.
        require_fork_closed: Reject threads that appear without a fork.
            ``None`` (default) means "required iff GC is on" — the GC
            cover criterion is unsound on non-fork-closed streams, so
            GC-enabled sessions must enforce it at ingestion.
    """

    name: str
    gc_window: int = DEFAULT_GC_WINDOW
    build_graph: bool = True
    vindicate_all: bool = False
    policy: str = "latest"
    transitive_force: bool = True
    require_fork_closed: Optional[bool] = None

    def fork_closed(self) -> bool:
        if self.require_fork_closed is None:
            return self.gc_window > 0
        return self.require_fork_closed

    def to_dict(self) -> Dict[str, Any]:
        return {
            "gc_window": self.gc_window,
            "build_graph": self.build_graph,
            "vindicate_all": self.vindicate_all,
            "policy": self.policy,
            "transitive_force": self.transitive_force,
            "require_fork_closed": self.require_fork_closed,
        }

    @classmethod
    def from_dict(cls, name: str, doc: Dict[str, Any]) -> "SessionConfig":
        config = cls(name=name)
        for key in ("gc_window", "build_graph", "vindicate_all", "policy",
                    "transitive_force", "require_fork_closed"):
            if key in doc:
                setattr(config, key, doc[key])
        if not isinstance(config.gc_window, int) or config.gc_window < 0:
            raise ProtocolError(
                "bad-request",
                f"gc_window must be a non-negative integer, "
                f"got {config.gc_window!r}")
        if config.policy not in POLICIES:
            raise ProtocolError(
                "bad-request",
                f"policy must be one of {', '.join(map(repr, POLICIES))}, "
                f"got {config.policy!r}")
        return config


class SessionAnalyzer:
    """The analysis state machine behind one session.

    Event-at-a-time lifecycle: :meth:`feed_lines` / :meth:`feed_events`
    while the stream is open (each accepted event flows through the
    trace, the determinism hash, and the three detectors, with a GC
    sweep every ``gc_window`` events), :meth:`status` /
    :meth:`races_document` at any point, :meth:`finish` exactly once.
    """

    def __init__(self, config: SessionConfig):
        self.config = config
        self.trace = StreamingTrace(
            require_fork_closed=config.fork_closed(),
            provenance={"kind": "serve", "session": config.name})
        self.hasher = TraceHasher()
        self.hb = HBDetector()
        self.wcp = WCPDetector()
        self.dc = DCDetector(build_graph=config.build_graph)
        self._detectors = (self.hb, self.wcp, self.dc)
        for detector in self._detectors:
            detector.transitive_force = config.transitive_force
            # StreamingTrace duck-types the Trace surface the online
            # loop touches (local_time / held_locks / len / threads).
            detector.begin_trace(cast(Trace, self.trace))
        self.gc_runs = 0
        self.gc_retired = 0
        self.analysis_seconds = 0.0
        self.report_document: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.report_document is not None

    def _check_open(self) -> None:
        if self.finished:
            raise ProtocolError(
                "session-finished",
                f"session {self.config.name!r} is already finished")

    def feed_lines(self, lines: Iterable[str]) -> int:
        """Parse and accept text-format event lines; returns the number
        of events accepted (blank/comment lines parse to nothing).

        The whole frame is parsed before any event is accepted, so a
        syntax error rejects the frame *atomically* — the client can fix
        the line and resend without resynchronising. (Structural errors
        are different: they surface mid-feed at their event index, and
        everything before that index stays accepted, exactly as a batch
        load would have.)
        """
        self._check_open()
        base = len(self.trace)
        events: List[Event] = []
        for number, line in enumerate(lines, start=1):
            event = parse_event_line(line, eid=base + len(events),
                                     line_number=number)
            if event is not None:
                events.append(event)
        return self.feed_events(events)

    def feed_events(self, events: Iterable[Event]) -> int:
        """Accept already-parsed events (checkpoint replay path)."""
        self._check_open()
        accepted = 0
        start = time.perf_counter()
        for event in events:
            self._feed_one(event)
            accepted += 1
        self.analysis_seconds += time.perf_counter() - start
        return accepted

    def _feed_one(self, event: Event) -> None:
        self.trace.append(event)       # validates; raises MalformedTraceError
        self.hasher.update(event)
        self.hb.handle(event)
        self.wcp.handle(event)
        self.dc.handle(event)
        # The GC tick is a pure function of the accepted-event count, so
        # it fires at the same stream positions however the client
        # chunked its frames — and identically under checkpoint replay.
        window = self.config.gc_window
        if window and len(self.trace) % window == 0:
            self.gc_retired += serve_gc.collect(self.trace, self._detectors)
            self.gc_runs += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The session's live counters (``status`` op payload)."""
        return {
            "session": self.config.name,
            "events": len(self.trace),
            "threads": len(self.trace.threads),
            "finished": self.finished,
            "gc_runs": self.gc_runs,
            "gc_retired": self.gc_retired,
            "trace_hash": self.hasher.hexdigest(),
            "kernels": kernels.active_backend(),
            "races": {
                "hb": len(self._races_of(self.hb)),
                "wcp": len(self._races_of(self.wcp)),
                "dc": len(self._races_of(self.dc)),
            },
        }

    @staticmethod
    def _races_of(detector: Any) -> List[Any]:
        report = detector.report
        return [] if report is None else report.races

    def races_document(self) -> Dict[str, Any]:
        """Online race query: the races detected *so far*, DC races
        classified against the current HB/WCP racing sets — without
        mutating any detector state (the stream may keep going)."""
        classified = [
            replace(race, race_class=classify((
                race.first.eid not in self.hb.racing_at.get(race.second.eid, ()),
                race.first.eid not in self.wcp.racing_at.get(race.second.eid, ()),
            )))
            for race in self._races_of(self.dc)
        ]
        assert self.dc.report is not None
        dc_view = RaceReport(relation=self.dc.report.relation,
                             races=classified,
                             counters=dict(self.dc.report.counters))
        assert self.hb.report is not None and self.wcp.report is not None
        return {
            "events": len(self.trace),
            "analyses": {
                "hb": _analysis_doc(self.hb.report),
                "wcp": _analysis_doc(self.wcp.report),
                "dc": _analysis_doc(dc_view),
            },
            "race_classes": {str(cls): len(races) for cls, races
                             in dc_view.by_class().items()},
        }

    # ------------------------------------------------------------------
    # Finish
    # ------------------------------------------------------------------
    def finish(self) -> Dict[str, object]:
        """Materialise the trace and run the shared batch tail; returns
        (and caches) the ``vindicator.analyze/1`` document."""
        if self.report_document is not None:
            return self.report_document
        if not self.config.build_graph:
            raise ProtocolError(
                "bad-request",
                f"session {self.config.name!r} was opened with "
                "build_graph=false and cannot be finished (online "
                "'races' queries remain available)")
        trace = self.trace.to_trace()
        # The streaming DC detector grew its graph lazily from zero;
        # finalize's reachability index sizes itself off the graph, so
        # pad it out to the full event range first.
        graph = self.dc.graph
        assert graph is not None
        if graph.num_events < len(trace):
            graph._grow(len(trace) - 1)
        hb_report = self.hb.finish()
        wcp_report = self.wcp.finish()
        dc_report = self.dc.finish()
        vindicator = Vindicator(
            vindicate_all=self.config.vindicate_all,
            policy=self.config.policy,
            transitive_force=self.config.transitive_force)
        report = vindicator.finalize(
            trace, self.hb, self.wcp, self.dc,
            hb_report, wcp_report, dc_report,
            analysis_seconds=self.analysis_seconds)
        self.report_document = report.to_document()
        return self.report_document


# Re-exported for the shard layer's race documents.
__all__ = ["DEFAULT_GC_WINDOW", "SessionAnalyzer", "SessionConfig",
           "_race_doc"]
