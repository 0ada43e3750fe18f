"""The one place that maps a detector variant to detector classes.

There are two variants: ``"reference"``, the dict-backed WCP/DC
detectors, and ``"fast"`` (the CLI's ``--fast-vc``), the SmartTrack
epoch detectors, which run their per-event work through the fused C
kernels whenever the compiled backend is active. A variant is a plain
string, checked by :func:`check_variant`.

The kernel backend is not part of the selection: it is process state
(:func:`repro.core.kernels.set_backend`, set once by the CLI's
``--kernels``), and pool workers and serve shards receive the parent's
:func:`~repro.core.kernels.active_backend` by value.

:func:`make_analysis_detector` / :func:`make_analysis_detectors` are
shared by the serial pipeline and the pool workers so they cannot
drift.
"""

from __future__ import annotations

from typing import Any, Tuple

#: Recognized detector variants, in increasing order of speed.
VARIANTS = ("reference", "fast")


def check_variant(variant: str) -> str:
    """Return ``variant`` unchanged, or raise ValueError if unknown."""
    if variant not in VARIANTS:
        raise ValueError(
            f"variant must be one of {', '.join(map(repr, VARIANTS))}"
            f", got {variant!r}")
    return variant


def make_analysis_detector(which: str, variant: str,
                           prefilter: Any = None) -> Any:
    """Construct the ``which`` ∈ {"hb", "wcp", "dc"} detector for a
    variant. HB always runs the reference detector: FastTrack-style
    epochs do not reproduce its ``racing_at`` sets (which drive race
    classification) and HB is never the pipeline bottleneck. The DC
    detector is always built with ``build_graph=True`` — the pipeline
    needs the constraint graph for vindication."""
    check_variant(variant)
    if which == "hb":
        from repro.analysis.hb import HBDetector
        return HBDetector(prefilter=prefilter)
    if which not in ("wcp", "dc"):
        raise ValueError(f"unknown detector {which!r}")
    if variant == "fast":
        from repro.analysis.smarttrack import (EpochDCDetector,
                                               EpochWCPDetector)
        return (EpochWCPDetector(prefilter=prefilter) if which == "wcp"
                else EpochDCDetector(build_graph=True, prefilter=prefilter))
    if which == "wcp":
        from repro.analysis.wcp import WCPDetector
        return WCPDetector(prefilter=prefilter)
    from repro.analysis.dc import DCDetector
    return DCDetector(build_graph=True, prefilter=prefilter)


def make_analysis_detectors(variant: str,
                            prefilter: Any = None) -> Tuple[Any, Any, Any]:
    """The full ``(hb, wcp, dc)`` trio for one variant."""
    return (make_analysis_detector("hb", variant, prefilter),
            make_analysis_detector("wcp", variant, prefilter),
            make_analysis_detector("dc", variant, prefilter))
