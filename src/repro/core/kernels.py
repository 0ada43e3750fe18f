"""Backend dispatch for the clock hot-path kernels.

The dispatch table holds one kind of entry: a kernel with a compiled
version in :mod:`repro.core._kernels` that a compiled run calls. That
is the dense list-clock joins, the rule (a) source-clock join, the
SmartTrack gated race scan, the sparse access-history race scan, the
recency-ordered (del-then-insert) table maintenance, and the fused
per-access and sync-op kernels of the epoch detectors. Loops with no
compiled version live in their one caller (the sparse rule (a)/(b)
loops in :mod:`repro.analysis.sync_structures`, the DC edge-buffer
drain in :mod:`repro.analysis.smarttrack`). Two interchangeable
implementations exist:

* **python** — the pure-Python reference implementations in this file
  (``py_*``). Always available; semantics-defining. The fused kernels
  have no ``py_*`` twin: they bind to None and the epoch detectors run
  their open-coded handlers, which the C code transcribes.
* **compiled** — :mod:`repro.core._kernels`, a hand-written CPython
  extension that ``setup.py`` builds on any install with a C compiler
  (without one, the install degrades to pure Python). Bit-identical to
  the reference implementations by construction and gated by
  ``tests/test_kernels_differential.py`` plus the existing
  differential suites.

The backend is process state, set once: at import from the
``VINDICATOR_KERNELS`` environment variable (``auto`` — compiled when
importable, else python; ``python``; ``compiled`` — fail loudly when
unavailable), and again by the CLI's ``--kernels`` flag through
:func:`set_backend`. Pool workers and serve shards receive the
parent's :func:`active_backend` by value and call :func:`set_backend`
on it. Consumers must call through the module attribute
(``kernels.join_into_list(...)``), never ``from``-import a kernel, so a
later :func:`set_backend` rebinds them too.

:func:`active_backend` reports which implementation is live; it is
stamped into every ``vindicator.analyze/1`` document, the obs session
meta record, the serve shard status, and the Prometheus ``/metrics``
export, so any result can be traced to the backend that produced it.

Iteration-order contract: every dict-table kernel sees the table in
insertion order (CPython dicts; ``PyDict_Next`` on the C side), and the
del-then-insert maintenance (:func:`record_latest`) keeps that order
most-recent-last — a pure function of the record sequence, which the
edge-minimising scans (and therefore the DC edge list and the GC
differentials) depend on.
"""

from __future__ import annotations

import os
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar)

__all__ = [
    "active_backend",
    "backends",
    "compiled_available",
    "set_backend",
    "join_into_list",
    "join_into_list_changed",
    "record_latest",
    "source_join_into",
    "gated_scan",
    "scan_racing_sparse",
    "access_wcp",
    "access_dc",
    "acquire_wcp",
    "release_wcp",
    "fork_wcp",
    "join_wcp",
    "acquire_dc",
    "release_dc",
    "fork_dc",
    "join_dc",
]

_K = TypeVar("_K")
_V = TypeVar("_V")

#: A dense rule-(a) record: (source eid, source local time, snapshot).
DenseRec = Tuple[int, int, List[int]]


# ----------------------------------------------------------------------
# Pure-Python reference implementations (the semantics of the layer)
# ----------------------------------------------------------------------
def py_join_into_list(dst: List[int], src: Sequence[int]) -> None:
    """In-place pointwise max: ``dst[i] = max(dst[i], src[i])``.

    Requires ``len(src) <= len(dst)`` (clocks sharing one table and
    allocated at full table size always satisfy this).
    """
    for i, value in enumerate(src):
        if value > dst[i]:
            dst[i] = value


def py_join_into_list_changed(dst: List[int], src: Sequence[int]) -> bool:
    """:func:`py_join_into_list` that also reports whether ``dst`` grew."""
    changed = False
    for i, value in enumerate(src):
        if value > dst[i]:
            dst[i] = value
            changed = True
    return changed


def py_record_latest(table: Dict[_K, _V], key: _K, value: _V) -> None:
    """(Re-)insert ``table[key] = value`` at the *end* of the table.

    Iteration order stays most-recent-last — a pure function of the
    record sequence. The edge-minimising scans mutate their target
    clock mid-scan, so an order that depended on *first* insertion
    (dict in-place update) would diverge once streaming GC removed and
    re-admitted a key (see ``SourceClocks.record``).
    """
    if key in table:
        del table[key]
    table[key] = value


def py_source_join_into(entries: Dict[int, DenseRec], values: List[int],
                        skip_ti: int) -> Optional[List[int]]:
    """Dense rule (a)/volatile join: fold every other thread's snapshot
    whose source event is not already covered (vector-clock edge
    minimisation) into ``values``. Returns the newly ordered source
    eids in table order, or None when nothing joined."""
    out: Optional[List[int]] = None
    for u, rec in entries.items():
        if u == skip_ti or values[u] >= rec[1]:
            continue
        py_join_into_list(values, rec[2])
        if out is None:
            out = [rec[0]]
        else:
            out.append(rec[0])
    return out


def py_gated_scan(
    writes: Optional[Dict[int, Tuple[int, Any, Optional[List[int]]]]],
    reads: Optional[Dict[int, Tuple[int, Any, Optional[List[int]]]]],
    ti: int, values: List[int], use_gates: bool,
    we_time: int, we_ti: int, rg_time: int, rg_ti: int, rg_shared: bool,
) -> Tuple[Optional[List[Tuple[int, Tuple[int, Any, Optional[List[int]]]]]],
           bool, bool]:
    """The SmartTrack gated race scan over dense per-thread access maps
    (tid index -> ``(time, event, snapshot)``).

    Scans ``writes`` for racing priors unless the FastTrack-style write
    epoch ``we_time @ we_ti`` is covered (the write gate, consulted
    only when ``use_gates``); then scans ``reads`` (pass None for a
    read access) unless the chained read epoch is intact and covered
    (the read gate, valid only under a passing write gate). Returns
    ``(racing, write_gate_hit, read_gate_hit)`` where ``racing`` is the
    ``(tid index, record)`` list in writes-then-reads table order, or
    None when no prior races.
    """
    racing: Optional[List[Tuple[int, Tuple[int, Any, Optional[List[int]]]]]]
    racing = None
    w_gate = False
    r_gate = False
    if writes is not None:
        if use_gates and (we_time == 0 or values[we_ti] >= we_time):
            # Write-epoch gate: the last write is covered, hence (by the
            # transitive-force propagation invariant) so is every prior
            # write — and every read up to that write.
            w_gate = True
        else:
            for u, wrec in writes.items():
                if u != ti and wrec[0] > values[u]:
                    if racing is None:
                        racing = [(u, wrec)]
                    else:
                        racing.append((u, wrec))
    if reads is not None:
        if (w_gate and not rg_shared
                and (rg_time == 0 or values[rg_ti] >= rg_time)):
            # Read gate: the chained read epoch since the last write is
            # covered (older reads are covered via the write gate,
            # which must also have passed).
            r_gate = True
        else:
            for u, rrec in reads.items():
                if u != ti and rrec[0] > values[u]:
                    if racing is None:
                        racing = [(u, rrec)]
                    else:
                        racing.append((u, rrec))
    return racing, w_gate, r_gate


def py_scan_racing_sparse(
    last_write: Dict[Any, Tuple[Any, Any]],
    last_read: Optional[Dict[Any, Tuple[Any, Any]]],
    tid: Any, local_time: Sequence[int],
    clock_get: Callable[[Any], int],
) -> Optional[List[Tuple[Any, Any]]]:
    """The sparse access-history race scan (``Detector.check_access``):
    a prior access by another thread with thread-local time above the
    current clock's component is unordered and therefore racing.
    ``last_read`` is None for read accesses (read/read pairs never
    race); ``local_time`` is a list for in-memory traces and an
    ``array('I')`` for streaming ones. Returns ``(event, snapshot)``
    entries in writes-then-reads table order, or None."""
    racing: Optional[List[Tuple[Any, Any]]] = None
    for rec in last_write.values():
        prior = rec[0]
        if prior.tid != tid and local_time[prior.eid] > clock_get(prior.tid):
            if racing is None:
                racing = [rec]
            else:
                racing.append(rec)
    if last_read is not None:
        for rec in last_read.values():
            prior = rec[0]
            if prior.tid != tid and local_time[prior.eid] > clock_get(prior.tid):
                if racing is None:
                    racing = [rec]
                else:
                    racing.append(rec)
    return racing


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
#: Kernels with both a ``py_*`` reference and a native implementation.
_COMPILED_NAMES: Tuple[str, ...] = (
    "join_into_list",
    "join_into_list_changed",
    "record_latest",
    "source_join_into",
    "gated_scan",
    "scan_racing_sparse",
)

#: Compiled-only *fused* kernels: one call executes the whole per-access
#: fast path of an epoch detector (advance + rule (a) staging +
#: prefilter gate + exclusive-stage store), returning 1 when the rare
#: SHARED-stage check must still run in Python.  Under the python
#: backend these bind to None and the detectors run their open-coded
#: ``_on_access`` — which *is* the reference implementation the fused
#: kernels are line-for-line transcriptions of.  Consumers must
#: therefore test for None at trace start (see
#: ``_EpochDetectorBase``); bit-identical behaviour across the two
#: routes is enforced by the end-to-end differential suites.
_FUSED_NAMES: Tuple[str, ...] = (
    "access_wcp",
    "access_dc",
)

#: Compiled-only fused *sync-op* kernels: one call executes the whole
#: ``on_acquire`` / ``on_release`` / ``on_fork`` / ``on_join`` body of an
#: epoch detector — clock advance, rule (a)/(b) queue maintenance, CCS
#: ownership-tag updates, H/P snapshot recording, and (for DC with the
#: graph on) edge-buffer appends — against a per-trace sync context
#: tuple.  Like the fused access kernels they bind to None under the
#: python backend (the detectors' open-coded ``on_*`` methods are the
#: reference these transcribe) and always bind under the compiled one.
#: The release kernels return a status int (0 — handled, 1 — no
#: matching acquire) so the caller raises the exact exception the
#: open-coded path would.
_SYNC_NAMES: Tuple[str, ...] = (
    "acquire_wcp",
    "release_wcp",
    "fork_wcp",
    "join_wcp",
    "acquire_dc",
    "release_dc",
    "fork_dc",
    "join_dc",
)

_compiled_mod: Optional[Any]
try:  # pragma: no cover - exercised only when the extension is built
    from repro.core import _kernels as _compiled_mod  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - default source checkout
    _compiled_mod = None

_active = "python"

# Dispatched public bindings (rebound by set_backend; call through the
# module attribute, never `from`-import these).
join_into_list: Callable[[List[int], Sequence[int]], None]
join_into_list_changed: Callable[[List[int], Sequence[int]], bool]
record_latest: Callable[..., None]
source_join_into: Callable[
    [Dict[int, DenseRec], List[int], int], Optional[List[int]]]
gated_scan: Callable[..., Tuple[Optional[List[Any]], bool, bool]]
scan_racing_sparse: Callable[..., Optional[List[Tuple[Any, Any]]]]
access_wcp: Optional[Callable[..., int]]
access_dc: Optional[Callable[..., int]]
acquire_wcp: Optional[Callable[..., Any]]
release_wcp: Optional[Callable[..., int]]
fork_wcp: Optional[Callable[..., Any]]
join_wcp: Optional[Callable[..., Any]]
acquire_dc: Optional[Callable[..., Any]]
release_dc: Optional[Callable[..., int]]
fork_dc: Optional[Callable[..., Any]]
join_dc: Optional[Callable[..., Any]]


#: Valid arguments to :func:`set_backend` (``"auto"`` resolves at
#: bind time to ``"compiled"`` when available, else ``"python"``).
BACKENDS = ("auto", "python", "compiled")


def compiled_available() -> bool:
    """Whether the native :mod:`repro.core._kernels` extension imported."""
    return _compiled_mod is not None


def backends() -> Tuple[str, ...]:
    """The backends available in this environment."""
    return ("python", "compiled") if compiled_available() else ("python",)


def active_backend() -> str:
    """The implementation currently live: ``"python"`` or ``"compiled"``."""
    return _active


def set_backend(choice: str) -> str:
    """Bind the kernel layer to ``choice`` and return the active backend.

    ``"auto"`` selects the compiled backend when the extension is
    importable and degrades to pure Python otherwise; ``"python"`` and
    ``"compiled"`` are explicit (``"compiled"`` raises RuntimeError when
    the extension is unavailable rather than silently running the slow
    path — an explicit request must not produce misleading benchmarks).
    Workers and serve shards re-apply the parent's *resolved* backend,
    so a fleet never mixes implementations silently.
    """
    global _active
    if choice == "auto":
        target = "compiled" if _compiled_mod is not None else "python"
    elif choice in ("python", "compiled"):
        if choice == "compiled" and _compiled_mod is None:
            raise RuntimeError(
                "kernels backend 'compiled' requested but the "
                "repro.core._kernels extension is not importable; build it "
                "with `python setup.py build_ext --inplace` (requires a C "
                "compiler) or use --kernels auto")
        target = choice
    else:
        raise ValueError(
            f"unknown kernels backend {choice!r}; expected one of "
            f"'auto', 'python', 'compiled'")
    g = globals()
    for name in _COMPILED_NAMES:
        g[name] = (getattr(_compiled_mod, name) if target == "compiled"
                   else g["py_" + name])
    for name in _FUSED_NAMES + _SYNC_NAMES:
        g[name] = (getattr(_compiled_mod, name) if target == "compiled"
                   else None)
    _active = target
    return target


#: Environment override consulted once at import; the CLI's --kernels
#: flag calls set_backend() again after argument parsing.
ENV_VAR = "VINDICATOR_KERNELS"

set_backend(os.environ.get(ENV_VAR, "auto"))
