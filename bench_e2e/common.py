"""Helpers shared by the benchmark runner and its worker processes.

Standard library only: the runner (``run.py``) never imports ``repro``,
so everything it needs to check answers — the verdict digest, the trace
relabelling, the statistics — lives here.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, Iterable, List, Sequence

#: Workload name -> (DaCapo-analog program, scale, how it is driven).
WORKLOADS = {
    "xalan-vindicate": ("xalan", 12, "batch"),
    "tomcat-analyze": ("tomcat", 32, "batch"),
    "h2-stream": ("h2", 16, "stream"),
}

#: Default workload (scheduler) seed; ``2`` is the held-out seed.
DEFAULT_SCHEDULE_SEED = 1

#: The pipeline variant the batch workloads run (``vindicator --fast-vc``).
BATCH_VARIANT = "fast"

#: ``events`` frame size and race-query cadence of the streaming client.
FRAME_LINES = 250
QUERY_EVERY = 10

#: Ops whose target is a thread, or absent: the relabelling skips them.
_UNRENAMED_OPS = frozenset({"fork", "join", "begin", "end"})


def document_digest(doc: Dict[str, Any]) -> str:
    """SHA-256 over the verdict-bearing fields of a ``vindicator.analyze/1``
    document or a serve ``races`` reply: race pairs (by event id) and
    classes per analysis, race-class counts, and each vindication's
    verdict, witness length and refuting cycle. Timings, counters, names
    and provenance are left out, so the digest is invariant under the
    seed's relabelling of variable and lock names."""
    analyses = {}
    for relation, analysis in sorted(doc["analyses"].items()):
        analyses[relation] = {
            "static": analysis["static_races"],
            "dynamic": analysis["dynamic_races"],
            "races": [[r["first"]["eid"], r["second"]["eid"], r["relation"],
                       r["race_class"]] for r in analysis["races"]],
        }
    vindications = [
        [v["race"]["first"]["eid"], v["race"]["second"]["eid"], v["verdict"],
         v["witness_events"], v["cycle"]]
        for v in doc.get("vindications", [])]
    canonical = {"analyses": analyses,
                 "race_classes": dict(sorted(doc["race_classes"].items())),
                 "vindications": vindications}
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def event_lines(text: str) -> List[str]:
    """The event lines of a text-format trace (comments and blanks dropped)."""
    return [line for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def relabel(lines: Sequence[str], seed: int) -> List[str]:
    """Rename every variable/lock target by a seeded bijection.

    The renamed trace is isomorphic to the original: same threads, same
    event order, every equality between targets preserved. Verdicts,
    race pairs and witnesses — all keyed by event id — are unchanged, and
    so is the work the program does, while the bytes it receives depend
    on the seed.
    """
    split = [line.split(None, 3) for line in lines]
    renamed = [len(parts) > 2 and parts[1] not in _UNRENAMED_OPS
               for parts in split]
    originals = list(dict.fromkeys(
        parts[2] for parts, rename in zip(split, renamed) if rename))
    shuffled = list(originals)
    random.Random(seed).shuffle(shuffled)
    mapping = dict(zip(originals, shuffled))
    out = []
    for parts, rename in zip(split, renamed):
        if rename:
            parts = parts[:2] + [mapping[parts[2]]] + parts[3:]
        out.append(" ".join(parts))
    return out


def frames(lines: Sequence[str]) -> List[List[str]]:
    """The streaming client's ``events`` frames."""
    return [list(lines[i:i + FRAME_LINES])
            for i in range(0, len(lines), FRAME_LINES)]


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)
