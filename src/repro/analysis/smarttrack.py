"""SmartTrack-style epoch & ownership fast paths for WCP and DC.

:class:`EpochWCPDetector` and :class:`EpochDCDetector` are drop-in
replacements for :class:`~repro.analysis.wcp.WCPDetector` and
:class:`~repro.analysis.dc.DCDetector` that report *identical* races
(and, for DC, an identical constraint graph, edge for edge in insertion
order) while doing substantially less work per event. They follow
SmartTrack [Roemer, Genç & Bond, PLDI 2020], which ported FastTrack's
[Flanagan & Freund 2009] epoch/ownership ideas to the predictive
analyses, adapted to this repo's exact reference semantics:

* **Dense clocks** — one :class:`TidTable` per trace interns thread
  ids to indices; every clock is a plain ``list`` of ints of fixed
  length ``T``, joined by the list kernels in :mod:`repro.core.kernels`
  (or, on the compiled backend, inside the fused per-access and
  sync-op kernels, which transcribe this module's open-coded
  handlers). A single preprocessing pass
  (:class:`_TraceIndex`) interns variables, locks, and volatiles and
  precomputes each access's held-lock index tuple, so the per-event loop
  never hashes a thread id or rebuilds a lock stack.

* **Exclusive/shared variable staging** — a variable accessed by one
  thread only keeps O(1) last-read/last-write fields (the reference
  detector also skips its scan in this case, so outcomes agree
  trivially). The first foreign access *promotes* the variable to
  per-thread maps, preserving the reference's insertion order so the
  scan — and therefore race reporting and forced-ordering order — is
  bit-identical.

* **Epoch gates (DC only)** — after promotion, the last write is also
  kept as a FastTrack-style epoch ``t@u``, plus a chained
  single-read epoch for the reads since that write. When the current
  clock covers the write epoch, *every* prior write (and every read up
  to that write) is provably covered, so the scan is skipped in O(1);
  likewise the read scan when the read epoch chain is intact and
  covered. The proof needs every clock component ``c[u] >= t`` to imply
  ``c ⊒`` (u's full post-access clock at time t), which holds for DC
  exactly when ``force_order`` *and* ``transitive_force`` are on: every
  propagation channel (access snapshots, release clocks, rule (a)/(b)
  records, fork copies) then carries full post-force snapshots. The
  gates check both flags at consult time and fall back to the exact
  scan otherwise. They are *never* used for WCP: the access snapshots
  are P clocks, but rules (a)/(b) join H snapshots into P only, so a P
  component reaching another thread never implies that thread covers
  the source's full P snapshot — the implication fails. (The flags must
  not be flipped mid-trace — the same caveat the reference detectors
  carry.)

* **Lock ownership (DC only)** — rule (b) at a release by the only
  thread that ever acquired the lock is a provable no-op (the thread's
  clock dominates its own past, so its own records join nothing — see
  :meth:`~repro.analysis.sync_structures.LockQueues.apply_rule_b`), so
  the whole queue walk is skipped while the lock stays single-owner.
  Not valid for WCP, where own records feed the left-HB-composition.

* **Version-gated snapshot reuse** — the per-access clock snapshot is a
  ``list.copy()`` taken only when the clock changed since the thread's
  last snapshot (a dirty flag cleared at every non-self-advance
  mutation), mirroring the reference's version-keyed cache with a
  cheaper copy. ``snapshots_copied``/``snapshots_reused`` counters make
  the win measurable (``benchmarks/results/``).

Counters for all of the above are exposed via :meth:`fast_stats` and
published to the :mod:`repro.obs` metrics registry under
``analysis.<relation>_epoch.*``; the :class:`~repro.analysis.races.RaceReport`
counters stay identical to the reference detectors' so full pipeline
documents compare equal modulo timing/metrics.
"""

from __future__ import annotations

import weakref
from operator import attrgetter
from typing import (Any, Callable, Collection, Dict, List, Optional,
                    Sequence, Set, Tuple)

from repro import obs
from repro.analysis.base import Detector
from repro.analysis.races import DynamicRace, RaceReport
from repro.core.events import Event, EventKind, Target, Tid
from repro.core.exceptions import MalformedTraceError
from repro.core.trace import Trace
from repro.core import kernels as _k
from repro.analysis.sync_structures import DenseLockQueues, DenseSourceClocks
from repro.graph.constraint_graph import ConstraintGraph

__all__ = ["EpochDCDetector", "EpochWCPDetector"]

_by_eid = attrgetter("eid")

# Compact per-event kind codes (ordered so range checks dispatch fast).
_READ, _WRITE, _ACQ, _REL, _FORK, _JOIN, _VWR, _VRD, _OTHER = range(9)

# Slots of the fused-kernel counter block (``_fs``): the compiled
# access kernel bumps these list entries at C speed instead of
# round-tripping instance attributes; ``_drain_fused`` folds them back
# into the named counters before anything reads them.  Order must match
# the FS_* constants in _kernels.c.
_FS_JOINS, _FS_FILTER_SKIPS, _FS_FILTER_CHECKS = 0, 1, 2
_FS_EXCL_FAST, _FS_SNAP_REUSES, _FS_SNAP_COPIES = 3, 4, 5
_FS_GRAPH_EDGES, _FS_RULE_B_SKIPS, _FS_LOCK_TRANSFERS = 6, 7, 8
_FS_SLOTS = 9

# Keyed by id() of the (immortal, module-level) enum member: enum's
# __hash__ is a Python-level call, id() hashing is C-speed, and this map
# is hit once per event during preprocessing.
_KIND_CODE: Dict[int, int] = {
    id(EventKind.READ): _READ,
    id(EventKind.WRITE): _WRITE,
    id(EventKind.ACQUIRE): _ACQ,
    id(EventKind.RELEASE): _REL,
    id(EventKind.FORK): _FORK,
    id(EventKind.JOIN): _JOIN,
    id(EventKind.VOLATILE_WRITE): _VWR,
    id(EventKind.VOLATILE_READ): _VRD,
    id(EventKind.BEGIN): _OTHER,
    id(EventKind.END): _OTHER,
}


class TidTable:
    """Compact interning of thread ids to dense indices ``0..T-1``.

    Iteration order of :attr:`tids` is interning order, so detectors that
    pre-populate the table with ``trace.threads`` scan components in the
    same first-appearance order the dict-backed clocks use.
    """

    __slots__ = ("tids", "index")

    def __init__(self, tids: Sequence[Tid] = ()):
        #: index -> thread id.
        self.tids: List[Tid] = []
        #: thread id -> index.
        self.index: Dict[Tid, int] = {}
        for tid in tids:
            self.intern(tid)

    def intern(self, tid: Tid) -> int:
        """Return ``tid``'s index, assigning the next one if unseen."""
        idx = self.index.get(tid)
        if idx is None:
            idx = len(self.tids)
            self.index[tid] = idx
            self.tids.append(tid)
        return idx

    def __len__(self) -> int:
        return len(self.tids)

    def __repr__(self) -> str:
        return f"TidTable({self.tids!r})"


class _TraceIndex:
    """One-pass columnar preprocessing of a trace for the fast detectors.

    Columns (parallel to ``trace.events``):

    * ``codes`` — event kind as a small int (bytearray);
    * ``tix`` — executing thread's tid index;
    * ``tgt`` — role-specific target index: variable index for accesses,
      lock index for acquire/release, child tid index for fork/join,
      volatile index for volatile accesses, -1 otherwise;
    * ``held`` — for accesses under locks, the tuple of held lock
      indices (outermost first, matching ``trace.held_locks``); None
      when no locks are held.
    """

    __slots__ = ("table", "codes", "tix", "tgt", "held",
                 "var_names", "lock_names", "vol_names")

    def __init__(self, trace: Trace):
        events = trace.events
        n = len(events)
        table = TidTable(trace.threads)
        tid_index = table.index
        intern_tid = table.intern
        var_ix: Dict[Target, int] = {}
        lock_ix: Dict[Target, int] = {}
        vol_ix: Dict[Target, int] = {}
        codes = bytearray(n)
        tix = [0] * n
        tgt = [-1] * n
        held: List[Optional[Tuple[int, ...]]] = [None] * n
        acq_lock: Dict[int, int] = {}  # acquire eid -> lock index
        enclosing = trace.enclosing_acquires
        kind_code = _KIND_CODE
        for e in events:
            eid = e.eid
            tix[eid] = tid_index[e.tid]
            code = kind_code[id(e.kind)]
            codes[eid] = code
            if code <= _WRITE:
                vi = var_ix.get(e.target)
                if vi is None:
                    vi = var_ix[e.target] = len(var_ix)
                tgt[eid] = vi
                acqs = enclosing[eid]
                if acqs:
                    held[eid] = tuple(acq_lock[a] for a in acqs)
            elif code <= _REL:
                li = lock_ix.get(e.target)
                if li is None:
                    li = lock_ix[e.target] = len(lock_ix)
                tgt[eid] = li
                if code == _ACQ:
                    acq_lock[eid] = li
            elif code <= _JOIN:
                # Fork targets may name threads that never run an event;
                # intern them so clock storage covers their index.
                tgt[eid] = intern_tid(e.target)
            elif code <= _VRD:
                xi = vol_ix.get(e.target)
                if xi is None:
                    xi = vol_ix[e.target] = len(vol_ix)
                tgt[eid] = xi
        self.table = table
        self.codes = codes
        self.tix = tix
        self.tgt = tgt
        self.held = held
        self.var_names: List[Target] = list(var_ix)
        self.lock_names: List[Target] = list(lock_ix)
        self.vol_names: List[Target] = list(vol_ix)


#: One preprocessing pass per trace: WCP and DC (and repeated runs over
#: the same trace, e.g. the lockstep Vindicator pipeline) share the
#: read-only index. Weak keys keep the cache from pinning traces.
_INDEX_CACHE: "weakref.WeakKeyDictionary[Trace, _TraceIndex]" = (
    weakref.WeakKeyDictionary())


def _index_for(trace: Trace) -> _TraceIndex:
    index = _INDEX_CACHE.get(trace)
    if index is None:
        index = _TraceIndex(trace)
        _INDEX_CACHE[trace] = index
    return index


class _VarState:
    """Staged per-variable access metadata.

    EXCLUSIVE stage (``owner >= 0``): only ``owner`` has accessed the
    variable; its last read/write live in the O(1) ``x*`` fields.
    SHARED stage (``owner == -1``): per-thread last-access maps
    ``writes``/``reads`` (tid index -> ``(time, event, snapshot)``,
    insertion-ordered exactly like the reference's ``AccessHistory``)
    plus the epoch gate fields:

    * ``we_time @ we_ti`` — the last write (0 = no write yet);
    * ``rg_*`` — the chained read epoch since the last write:
      ``rg_shared`` marks a broken chain (concurrent reads), after
      which only a write resets it.
    """

    __slots__ = ("owner", "xw_time", "xw_ev", "xw_snap",
                 "xr_time", "xr_ev", "xr_snap", "writes", "reads",
                 "we_time", "we_ti", "rg_time", "rg_ti", "rg_shared")

    def __init__(self, owner: int):
        self.owner = owner
        self.xw_time = 0
        self.xw_ev: Optional[Event] = None
        self.xw_snap: Optional[List[int]] = None
        self.xr_time = 0
        self.xr_ev: Optional[Event] = None
        self.xr_snap: Optional[List[int]] = None
        self.writes: Optional[Dict[int, Tuple[int, Event, Optional[List[int]]]]] = None
        self.reads: Optional[Dict[int, Tuple[int, Event, Optional[List[int]]]]] = None
        self.we_time = 0
        self.we_ti = 0
        self.rg_time = 0
        self.rg_ti = 0
        self.rg_shared = False


class _EpochDetectorBase(Detector):
    """Shared machinery of the epoch-optimised WCP/DC detectors: trace
    preprocessing, staged variable metadata, the gated race check, and
    the dirty-flag snapshot cache."""

    #: Whether the epoch gates may be consulted (DC only; see module doc).
    _use_gates = False

    def __init__(self, prefilter: Optional[Collection[Target]] = None):
        super().__init__(prefilter)
        self._ix: Optional[_TraceIndex] = None
        self._codes = bytearray()
        self._tix: List[int] = []
        self._tgt: List[int] = []
        self._held: List[Optional[Tuple[int, ...]]] = []
        self._lt: List[int] = []
        self._T = 0
        self._nv = 0
        self._vars: List[Optional[_VarState]] = []
        self._snaps: List[Optional[List[int]]] = []
        self._snap_ok: List[bool] = []
        self._cand: Optional[List[bool]] = None
        self._pending_vars: List[Dict[int, Tuple[Set[int], Set[int]]]] = []
        self._n_excl_fast = 0
        self._n_w_gate = 0
        self._n_r_gate = 0
        self._n_promotions = 0
        self._n_inflations = 0
        self._n_rule_b_skips = 0
        self._n_lock_transfers = 0
        self._n_snap_copies = 0
        self._n_snap_reuses = 0
        # The fused compiled access kernel and its context tuple (see
        # kernels._FUSED_NAMES); None/() routes handle() through the
        # open-coded _on_access, which defines the semantics.
        self._c_access: Optional[Callable[..., int]] = None
        self._ctx: Tuple[Any, ...] = ()
        # The fused compiled sync-op kernels and their shared context;
        # None routes on_acquire/on_release/on_fork/on_join through the
        # open-coded bodies, which define the semantics.
        self._c_acquire: Optional[Callable[..., Any]] = None
        self._c_release: Optional[Callable[..., Any]] = None
        self._c_fork: Optional[Callable[..., Any]] = None
        self._c_join: Optional[Callable[..., Any]] = None
        self._sctx: Tuple[Any, ...] = ()
        self._fs: List[int] = [0] * _FS_SLOTS

    def metric_label(self) -> str:
        return super().metric_label() + "_epoch"

    def begin_trace(self, trace: Trace) -> None:
        super().begin_trace(trace)
        ix = _index_for(trace)
        self._ix = ix
        self._codes = ix.codes
        self._tix = ix.tix
        self._tgt = ix.tgt
        self._held = ix.held
        self._lt = trace.local_time
        self._T = len(ix.table)
        self._nv = len(ix.var_names)
        self._vars = [None] * self._nv
        self._snaps = [None] * self._T
        self._snap_ok = [False] * self._T
        self._pending_vars = [{} for _ in range(self._T)]
        if self.prefilter is not None:
            pf = self.prefilter
            self._cand = [v in pf for v in ix.var_names]
        else:
            self._cand = None
        self._n_excl_fast = 0
        self._n_w_gate = 0
        self._n_r_gate = 0
        self._n_promotions = 0
        self._n_inflations = 0
        self._n_rule_b_skips = 0
        self._n_lock_transfers = 0
        self._n_snap_copies = 0
        self._n_snap_reuses = 0
        self._c_access = None
        self._ctx = ()
        self._c_acquire = None
        self._c_release = None
        self._c_fork = None
        self._c_join = None
        self._sctx = ()
        self._fs = [0] * _FS_SLOTS

    def _drain_fused(self) -> None:
        """Fold the compiled kernel's counter block back into the named
        instance counters (a no-op on the python backend, whose
        open-coded paths bump the attributes directly)."""
        fs = self._fs
        self._n_joins += fs[_FS_JOINS]
        self._filter_skips += fs[_FS_FILTER_SKIPS]
        self._filter_checks += fs[_FS_FILTER_CHECKS]
        self._n_excl_fast += fs[_FS_EXCL_FAST]
        self._n_snap_reuses += fs[_FS_SNAP_REUSES]
        self._n_snap_copies += fs[_FS_SNAP_COPIES]
        self._n_rule_b_skips += fs[_FS_RULE_B_SKIPS]
        self._n_lock_transfers += fs[_FS_LOCK_TRANSFERS]
        for i in range(_FS_SLOTS):
            fs[i] = 0

    def finish(self) -> RaceReport:
        self._drain_fused()
        return super().finish()

    def _shared_slow(self, e: Event, is_write: bool) -> None:
        raise NotImplementedError  # pragma: no cover - subclasses override

    def _drive(self, trace: Trace) -> None:
        """Feed ``trace`` through the fused kernels when they are bound.

        With the fused compiled access kernel installed, accesses go
        straight to it with every per-event lookup hoisted into locals:
        once the access body itself is native, the generic ``handle``
        indirection (a bound-method call plus two attribute loads per
        event) is the largest remaining Python cost. Each event takes
        exactly the branch ``handle`` would, so streaming callers that
        drive ``begin_trace``/``handle``/``finish`` by hand see
        identical behaviour.
        """
        fused = self._c_access
        if fused is None:
            super()._drive(trace)
            return
        codes = self._codes
        ctx = self._ctx
        handle = self.handle
        shared_slow = self._shared_slow
        for event in trace:
            code = codes[event.eid]
            if code <= _WRITE:
                if fused(ctx, event.eid, code == _WRITE, event):
                    shared_slow(event, code == _WRITE)
            else:
                handle(event)

    def _bind_fused(self, fused: Optional[Callable[..., int]],
                    clock_a: List[Any], clock_b: List[Any],
                    pending_fork: Dict[int, Any],
                    cs_writes: Dict[int, "DenseSourceClocks"],
                    cs_reads: Dict[int, "DenseSourceClocks"],
                    ebuf: Optional[List[int]] = None) -> None:
        """Install the fused compiled access kernel for this trace.

        No-op (handle() keeps routing through the open-coded
        ``_on_access``) under the python backend. The context tuple
        captures every container the kernel touches; all of them are
        mutated in place for the rest of the trace, so the snapshot
        stays live.  ``ebuf`` is the DC edge buffer the
        kernel appends graph edges to (None for WCP and no-graph DC).
        """
        if fused is None:
            self._c_access = None
            self._ctx = ()
            return
        self._ctx = (self._fs, self._tix, self._lt, self._tgt, self._held,
                     clock_a, clock_b, pending_fork, self._snap_ok,
                     self._snaps, self._cand, self._vars,
                     self._pending_vars, cs_writes, cs_reads,
                     self._nv, self._T,
                     bool(self.force_order and self.transitive_force),
                     _VarState, ebuf)
        self._c_access = fused

    def _bind_sync(self, kernels: Tuple[Optional[Callable[..., Any]], ...],
                   clock_a: List[Any], clock_b: List[Any],
                   pending_fork: Dict[int, Any],
                   queues: List[Optional["DenseLockQueues"]],
                   cs_writes: Dict[int, "DenseSourceClocks"],
                   cs_reads: Dict[int, "DenseSourceClocks"],
                   ebuf: Optional[List[int]],
                   lock_h: Optional[List[Any]],
                   lock_p: Optional[List[Any]]) -> None:
        """Install the fused compiled sync-op kernels for this trace.

        ``kernels`` is the (acquire, release, fork, join) tuple from the
        dispatch module — all None under the python backend, which keeps
        the open-coded handler bodies in charge. The context mirrors
        ``_bind_fused``'s: one shared tuple of live, mutated-in-place
        containers."""
        acquire, release, fork, join = kernels
        if acquire is None:
            self._c_acquire = None
            self._c_release = None
            self._c_fork = None
            self._c_join = None
            self._sctx = ()
            return
        self._sctx = (self._fs, self._tix, self._lt, self._tgt,
                      clock_a, clock_b, pending_fork, self._snap_ok,
                      queues, DenseLockQueues, self._pending_vars,
                      cs_writes, cs_reads, DenseSourceClocks,
                      self._nv, self._T, ebuf, lock_h, lock_p)
        self._c_acquire = acquire
        self._c_release = release
        self._c_fork = fork
        self._c_join = join

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def fast_stats(self) -> Dict[str, int]:
        """Fast-path statistics for the last trace (also published to
        the metrics registry under ``analysis.<label>.*``). These live
        outside the report counters so reports stay bit-identical to
        the reference detectors'."""
        self._drain_fused()
        return {
            "epoch_exclusive_hits": self._n_excl_fast,
            "epoch_write_gate_hits": self._n_w_gate,
            "epoch_read_gate_hits": self._n_r_gate,
            "epoch_promotions": self._n_promotions,
            "epoch_read_inflations": self._n_inflations,
            "ownership_rule_b_skips": self._n_rule_b_skips,
            "ownership_lock_transfers": self._n_lock_transfers,
            "snapshots_copied": self._n_snap_copies,
            "snapshots_reused": self._n_snap_reuses,
        }

    def _publish(self, reg: obs.AnyRegistry) -> None:
        self._drain_fused()  # super()._publish reads _n_joins
        super()._publish(reg)
        label = self.metric_label()
        for name, value in self.fast_stats().items():
            reg.add(f"analysis.{label}.{name}", value)

    # ------------------------------------------------------------------
    # Snapshots (version-gated reuse via a per-thread dirty flag)
    # ------------------------------------------------------------------
    def _take_snapshot(self, ti: int, values: List[int]) -> Optional[List[int]]:
        """The access-history snapshot for thread ``ti``: None unless
        transitive forcing could consume it (mirroring the reference),
        otherwise the cached copy while the clock is unchanged since the
        thread's last snapshot (self-advances excepted — consumers
        re-derive the own component before joining, see
        ``VectorClock.advance``)."""
        if self.force_order and self.transitive_force:
            if self._snap_ok[ti]:
                self._n_snap_reuses += 1
                snap = self._snaps[ti]
                assert snap is not None
                return snap
            snap = values.copy()
            self._snaps[ti] = snap
            self._snap_ok[ti] = True
            self._n_snap_copies += 1
            return snap
        return None

    # ------------------------------------------------------------------
    # Variable staging
    # ------------------------------------------------------------------
    def _promote(self, st: _VarState) -> None:
        """EXCLUSIVE -> SHARED: materialise the owner's last accesses
        into the per-thread maps (owner first, preserving the
        reference's insertion order) and seed the epoch gates."""
        owner = st.owner
        st.owner = -1
        writes: Dict[int, Tuple[int, Event, Optional[List[int]]]] = {}
        reads: Dict[int, Tuple[int, Event, Optional[List[int]]]] = {}
        st.writes = writes
        st.reads = reads
        xw_t = st.xw_time
        if xw_t:
            assert st.xw_ev is not None
            writes[owner] = (xw_t, st.xw_ev, st.xw_snap)
            st.we_time = xw_t
            st.we_ti = owner
        xr_t = st.xr_time
        if xr_t:
            assert st.xr_ev is not None
            reads[owner] = (xr_t, st.xr_ev, st.xr_snap)
            if xr_t > xw_t:
                st.rg_time = xr_t
                st.rg_ti = owner
        st.xw_ev = st.xr_ev = None
        st.xw_snap = st.xr_snap = None
        self._n_promotions += 1

    # ------------------------------------------------------------------
    # The race check (exact mirror of Detector.check_access outcomes).
    # The prefilter gate and the exclusive fast path are inlined into
    # each subclass's _on_access — the overwhelmingly common cases pay
    # no extra call — so this only handles SHARED-stage variables.
    # ------------------------------------------------------------------
    def _check_shared(self, e: Event, ti: int, t: int,
                      values: List[int], is_write: bool,
                      st: _VarState) -> None:
        if st.owner >= 0:
            self._promote(st)
        writes = st.writes
        reads = st.reads
        assert writes is not None and reads is not None
        use_gates = (self._use_gates and self.force_order
                     and self.transitive_force)
        # One fused kernel call covers the write-epoch gate (the last
        # write being covered implies — by the transitive-force
        # propagation invariant — every prior write and every read up to
        # it is too), the chained-read-epoch gate, and the exact
        # writes-then-reads table scans when a gate does not apply.
        racing, w_gate, r_gate = _k.gated_scan(
            writes, reads if is_write else None, ti, values, use_gates,
            st.we_time, st.we_ti, st.rg_time, st.rg_ti, st.rg_shared)
        if w_gate:
            self._n_w_gate += 1
        if r_gate:
            self._n_r_gate += 1
        if racing is not None:
            self.racing_at[e.eid] = frozenset(rec[1].eid for _, rec in racing)
            shortest = max((rec[1] for _, rec in racing), key=_by_eid)
            race = DynamicRace(first=shortest, second=e, relation=self.relation)
            assert self.report is not None
            self.report.races.append(race)
            if self.force_order:
                transitive = self.transitive_force
                for u, rec in racing:
                    prior_t = rec[0]
                    if values[u] < prior_t:
                        values[u] = prior_t
                        if transitive and rec[2] is not None:
                            _k.join_into_list(values, rec[2])
                            self._n_joins += 1
                        self._snap_ok[ti] = False
                        self._forced_order_dense(rec[1], e, rec[2])
        snap2 = self._take_snapshot(ti, values)
        # Most-recent-last re-insertion, matching Detector.check_access:
        # the force loop above consumes `racing` in table order, so table
        # order must be a pure function of the access sequence.
        if is_write:
            _k.record_latest(writes, ti, (t, e, snap2))
            if self._use_gates:
                st.we_time = t
                st.we_ti = ti
                st.rg_time = 0
                st.rg_shared = False
        else:
            _k.record_latest(reads, ti, (t, e, snap2))
            if self._use_gates and not st.rg_shared:
                rg_t = st.rg_time
                if rg_t == 0 or values[st.rg_ti] >= rg_t:
                    st.rg_time = t
                    st.rg_ti = ti
                else:
                    st.rg_shared = True
                    self._n_inflations += 1

    def _forced_order_dense(self, prior: Event, e: Event,
                            snapshot: Optional[List[int]]) -> None:
        """Dense analog of :meth:`Detector.on_forced_order`, called by
        :meth:`_check_shared` with the racing prior's stored snapshot
        list after the force was joined into the analysis clock."""

    # ------------------------------------------------------------------
    # Queries shared by both subclasses
    # ------------------------------------------------------------------
    def _clock_values_of(self, tid: Tid) -> Optional[List[int]]:
        raise NotImplementedError

    def ordered_to_current(self, prior: Event, tid: Tid) -> bool:
        if prior.tid == tid:
            return True
        values = self._clock_values_of(tid)
        if values is None:
            return False
        return values[self._tix[prior.eid]] >= self._lt[prior.eid]


class EpochWCPDetector(_EpochDetectorBase):
    """Epoch-optimised WCP detector (verdict-identical to
    :class:`~repro.analysis.wcp.WCPDetector`).

    Uses dense list clocks, exclusive-variable staging, precomputed held
    locks, and int-keyed rule (a) tables. The DC-only epoch gates and
    lock-ownership skip are *not* applied — both are unsound for WCP
    (see the module docstring).
    """

    relation = "WCP"
    _use_gates = False

    def __init__(self, prefilter: Optional[Collection[Target]] = None):
        super().__init__(prefilter)
        self._h: List[Optional[List[int]]] = []
        self._p: List[Optional[List[int]]] = []
        self._lock_h: List[Optional[List[int]]] = []
        self._lock_p: List[Optional[List[int]]] = []
        self._queues: List[Optional[DenseLockQueues]] = []
        self._cs_writes: Dict[int, DenseSourceClocks] = {}
        self._cs_reads: Dict[int, DenseSourceClocks] = {}
        self._vol_writes: List[Optional[DenseSourceClocks]] = []
        self._vol_reads: List[Optional[DenseSourceClocks]] = []
        self._pending_fork: Dict[int, List[int]] = {}

    def begin_trace(self, trace: Trace) -> None:
        super().begin_trace(trace)
        assert self._ix is not None
        self._h = [None] * self._T
        self._p = [None] * self._T
        n_locks = len(self._ix.lock_names)
        self._lock_h = [None] * n_locks
        self._lock_p = [None] * n_locks
        self._queues = [None] * n_locks
        self._cs_writes = {}
        self._cs_reads = {}
        n_vols = len(self._ix.vol_names)
        self._vol_writes = [None] * n_vols
        self._vol_reads = [None] * n_vols
        self._pending_fork = {}
        self._bind_fused(_k.access_wcp, self._h, self._p,
                         self._pending_fork, self._cs_writes,
                         self._cs_reads)
        self._bind_sync(
            (_k.acquire_wcp, _k.release_wcp, _k.fork_wcp, _k.join_wcp),
            self._h, self._p, self._pending_fork, self._queues,
            self._cs_writes, self._cs_reads, None,
            self._lock_h, self._lock_p)

    def _clock_values_of(self, tid: Tid) -> Optional[List[int]]:
        assert self._ix is not None
        idx = self._ix.table.index.get(tid)
        return None if idx is None else self._p[idx]

    # ------------------------------------------------------------------
    # Clock plumbing
    # ------------------------------------------------------------------
    def _advance(self, ti: int, t: int) -> Tuple[List[int], List[int]]:
        """Advance H to this event (P carries no own program order) and
        consume any pending fork edge."""
        h = self._h[ti]
        if h is None:
            h = self._h[ti] = [0] * self._T
            self._p[ti] = [0] * self._T
        h[ti] = t
        p = self._p[ti]
        assert p is not None
        if self._pending_fork:
            parent = self._pending_fork.pop(ti, None)
            if parent is not None:
                _k.join_into_list(h, parent)
                if _k.join_into_list_changed(p, parent):
                    self._snap_ok[ti] = False
                self._n_joins += 2
        return h, p

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, event: Event) -> None:
        code = self._codes[event.eid]
        if code <= _WRITE:
            fused = self._c_access
            if fused is None:
                self._on_access(event, code == _WRITE)
            elif fused(self._ctx, event.eid, code == _WRITE, event):
                self._shared_slow(event, code == _WRITE)
        elif code == _ACQ:
            self.on_acquire(event)
        elif code == _REL:
            self.on_release(event)
        elif code == _FORK:
            self.on_fork(event)
        elif code == _JOIN:
            self.on_join(event)
        elif code == _VWR:
            self.on_volatile_write(event)
        elif code == _VRD:
            self.on_volatile_read(event)
        else:
            eid = event.eid
            self._advance(self._tix[eid], self._lt[eid])

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def _shared_slow(self, e: Event, is_write: bool) -> None:
        # The fused kernel already advanced the clocks, staged rule (a),
        # and passed the prefilter; only the SHARED-stage check remains.
        eid = e.eid
        ti = self._tix[eid]
        p = self._p[ti]
        st = self._vars[self._tgt[eid]]
        assert p is not None and st is not None
        self._check_shared(e, ti, self._lt[eid], p, is_write, st)

    def _on_access(self, e: Event, is_write: bool) -> None:
        eid = e.eid
        ti = self._tix[eid]
        t = self._lt[eid]
        # Inlined _advance: one method call per access is measurable.
        h = self._h[ti]
        if h is None:
            h = self._h[ti] = [0] * self._T
            self._p[ti] = [0] * self._T
        h[ti] = t
        p = self._p[ti]
        assert p is not None
        if self._pending_fork:
            parent = self._pending_fork.pop(ti, None)
            if parent is not None:
                _k.join_into_list(h, parent)
                if _k.join_into_list_changed(p, parent):
                    self._snap_ok[ti] = False
                self._n_joins += 2
        vi = self._tgt[eid]
        held = self._held[eid]
        if held is not None:
            # Rule (a): join the recorded conflicting-critical-section
            # clocks, record this access as pending for the release.
            nv = self._nv
            cs_writes = self._cs_writes
            pend = self._pending_vars[ti]
            snap_ok = self._snap_ok
            for li in held:
                key = li * nv + vi
                src = cs_writes.get(key)
                if src is not None and _k.source_join_into(
                        src.entries, p, ti) is not None:
                    snap_ok[ti] = False
                if is_write:
                    src = self._cs_reads.get(key)
                    if src is not None and _k.source_join_into(
                            src.entries, p, ti) is not None:
                        snap_ok[ti] = False
                cur = pend.get(li)
                if cur is None:
                    cur = pend[li] = (set(), set())
                cur[is_write].add(vi)
        # Inlined race-check entry: prefilter gate and the exclusive
        # (single-accessor) fast path, the overwhelmingly common case.
        cand = self._cand
        if cand is not None:
            if not cand[vi]:
                self._filter_skips += 1
                return
            self._filter_checks += 1
        st = self._vars[vi]
        if st is None:
            st = self._vars[vi] = _VarState(ti)
        if st.owner == ti:
            self._n_excl_fast += 1
            if self.force_order and self.transitive_force:
                if self._snap_ok[ti]:
                    self._n_snap_reuses += 1
                    snap = self._snaps[ti]
                else:
                    snap = p.copy()
                    self._snaps[ti] = snap
                    self._snap_ok[ti] = True
                    self._n_snap_copies += 1
            else:
                snap = None
            if is_write:
                st.xw_time = t
                st.xw_ev = e
                st.xw_snap = snap
            else:
                st.xr_time = t
                st.xr_ev = e
                st.xr_snap = snap
            return
        self._check_shared(e, ti, t, p, is_write, st)

    def on_read(self, e: Event) -> None:
        self._on_access(e, False)

    def on_write(self, e: Event) -> None:
        self._on_access(e, True)

    def _forced_order_dense(self, prior: Event, e: Event,
                            snapshot: Optional[List[int]]) -> None:
        # Forced race edges are hard orderings: mirror them into H as
        # well as P so they survive WCP's H-only propagation channels
        # (see WCPDetector.on_forced_order for the full rationale).
        h = self._h[self._tix[e.eid]]
        assert h is not None
        u = self._tix[prior.eid]
        prior_t = self._lt[prior.eid]
        if h[u] < prior_t:
            h[u] = prior_t
        if self.transitive_force and snapshot is not None:
            _k.join_into_list(h, snapshot)
            self._n_joins += 1

    # ------------------------------------------------------------------
    # Lock operations
    # ------------------------------------------------------------------
    def on_acquire(self, e: Event) -> None:
        kernel = self._c_acquire
        if kernel is not None:
            kernel(self._sctx, e.eid)
            return
        eid = e.eid
        ti = self._tix[eid]
        t = self._lt[eid]
        h, p = self._advance(ti, t)
        li = self._tgt[eid]
        lock_h = self._lock_h[li]
        if lock_h is not None:
            _k.join_into_list(h, lock_h)
            lock_p = self._lock_p[li]
            assert lock_p is not None
            if _k.join_into_list_changed(p, lock_p):  # right HB composition
                self._snap_ok[ti] = False
            self._n_joins += 2
        queues = self._queues[li]
        if queues is None:
            queues = self._queues[li] = DenseLockQueues()
        queues.on_acquire(ti, t)

    def on_release(self, e: Event) -> None:
        kernel = self._c_release
        if kernel is not None:
            if kernel(self._sctx, e.eid):
                raise KeyError(e.target)
            return
        eid = e.eid
        ti = self._tix[eid]
        t = self._lt[eid]
        h, p = self._advance(ti, t)
        li = self._tgt[eid]
        queues = self._queues[li]
        if queues is None:
            raise KeyError(e.target)
        if queues.apply_rule_b(ti, p) is not None:
            self._snap_ok[ti] = False
        h_snapshot = h.copy()
        pending = self._pending_vars[ti].pop(li, None)
        if pending is not None:
            read_vars, written_vars = pending
            nv = self._nv
            for vi in written_vars:
                table = self._cs_writes.get(li * nv + vi)
                if table is None:
                    table = self._cs_writes[li * nv + vi] = DenseSourceClocks()
                table.record(ti, eid, t, h_snapshot)
            for vi in read_vars:
                table = self._cs_reads.get(li * nv + vi)
                if table is None:
                    table = self._cs_reads[li * nv + vi] = DenseSourceClocks()
                table.record(ti, eid, t, h_snapshot)
        queues.on_release(eid, t, h_snapshot)
        self._lock_h[li] = h_snapshot
        self._lock_p[li] = p.copy()

    # ------------------------------------------------------------------
    # Fork / join / volatiles (hard WCP edges; H snapshots joined into P
    # by rule (c)'s left composition — see the reference detector)
    # ------------------------------------------------------------------
    def on_fork(self, e: Event) -> None:
        kernel = self._c_fork
        if kernel is not None:
            kernel(self._sctx, e.eid)
            return
        eid = e.eid
        h, _ = self._advance(self._tix[eid], self._lt[eid])
        self._pending_fork[self._tgt[eid]] = h.copy()

    def on_join(self, e: Event) -> None:
        kernel = self._c_join
        if kernel is not None:
            kernel(self._sctx, e.eid)
            return
        eid = e.eid
        ti = self._tix[eid]
        h, p = self._advance(ti, self._lt[eid])
        ci = self._tgt[eid]
        parent = self._pending_fork.pop(ci, None)
        if parent is not None:
            # Child never executed an event: the fork ordering still
            # flows through the (empty) child into the join.
            _k.join_into_list(h, parent)
            if _k.join_into_list_changed(p, parent):
                self._snap_ok[ti] = False
            self._n_joins += 2
        child_h = self._h[ci]
        if child_h is not None:
            _k.join_into_list(h, child_h)
            if _k.join_into_list_changed(p, child_h):
                self._snap_ok[ti] = False
            self._n_joins += 2

    def on_volatile_write(self, e: Event) -> None:
        eid = e.eid
        ti = self._tix[eid]
        t = self._lt[eid]
        h, p = self._advance(ti, t)
        xi = self._tgt[eid]
        writes = self._vol_writes[xi]
        if writes is None:
            writes = self._vol_writes[xi] = DenseSourceClocks()
        reads = self._vol_reads[xi]
        if reads is None:
            reads = self._vol_reads[xi] = DenseSourceClocks()
        for table in (writes, reads):
            table.join_into(h, ti)
            if table.join_into(p, ti) is not None:
                self._snap_ok[ti] = False
        writes.record(ti, eid, t, h.copy())

    def on_volatile_read(self, e: Event) -> None:
        eid = e.eid
        ti = self._tix[eid]
        t = self._lt[eid]
        h, p = self._advance(ti, t)
        xi = self._tgt[eid]
        writes = self._vol_writes[xi]
        if writes is not None and writes.entries:
            writes.join_into(h, ti)
            if writes.join_into(p, ti) is not None:
                self._snap_ok[ti] = False
        reads = self._vol_reads[xi]
        if reads is None:
            reads = self._vol_reads[xi] = DenseSourceClocks()
        reads.record(ti, eid, t, h.copy())


class EpochDCDetector(_EpochDetectorBase):
    """Epoch-optimised DC detector (verdict- and graph-identical to
    :class:`~repro.analysis.dc.DCDetector`).

    On top of the shared fast paths, DC enables the epoch gates (valid
    because DC propagates full post-force snapshots when transitive
    forcing is on) and the single-owner rule (b) skip (valid because a
    DC clock dominates its own thread's past).

    Args:
        build_graph: Build the constraint graph ``G`` alongside the
            clocks (edge-for-edge identical to the reference detector,
            including insertion order, so vindication behaves the same).
        prefilter: Race-candidate variable set for the lockset fast path.
    """

    relation = "DC"
    _use_gates = True

    def __init__(self, build_graph: bool = True,
                 prefilter: Optional[Collection[Target]] = None):
        super().__init__(prefilter)
        self.build_graph = build_graph
        self.graph = ConstraintGraph()
        self._values: List[Optional[List[int]]] = []
        self._queues: List[Optional[DenseLockQueues]] = []
        self._cs_writes: Dict[int, DenseSourceClocks] = {}
        self._cs_reads: Dict[int, DenseSourceClocks] = {}
        self._vol_writes: List[Optional[DenseSourceClocks]] = []
        self._vol_reads: List[Optional[DenseSourceClocks]] = []
        self._pending_fork: Dict[int, Tuple[int, List[int]]] = {}
        self._last_event: List[int] = []
        self._n_graph_edges = 0
        # Graph edges are staged in a flat [src0, dst0, src1, dst1, ...]
        # buffer (shared with the compiled kernels, which append to the
        # same list) and drained into the constraint graph at finish().
        # Every reference edge is inserted while its destination event is
        # being processed and events arrive in order, so the append order
        # *is* the reference insertion order; nothing reads the graph
        # mid-analysis (vindication and finalizers run post-finish).
        self._ebuf: List[int] = []

    def begin_trace(self, trace: Trace) -> None:
        super().begin_trace(trace)
        assert self._ix is not None
        # With graph building off the adjacency lists would never be
        # touched; allocating 2*len(trace) sets is pure per-trace
        # overhead on the no-graph hot path.  Consumers that need the
        # graph (vindication, serve finish) always run with
        # build_graph=True; the empty graph still grows on demand.
        self.graph = (ConstraintGraph(len(trace)) if self.build_graph
                      else ConstraintGraph())
        self._n_graph_edges = 0
        self._values = [None] * self._T
        n_locks = len(self._ix.lock_names)
        self._queues = [None] * n_locks
        self._cs_writes = {}
        self._cs_reads = {}
        n_vols = len(self._ix.vol_names)
        self._vol_writes = [None] * n_vols
        self._vol_reads = [None] * n_vols
        self._pending_fork = {}
        self._last_event = [-1] * self._T
        self._ebuf = []
        ebuf = self._ebuf if self.build_graph else None
        self._bind_fused(
            _k.access_dc, self._values, self._last_event,
            self._pending_fork, self._cs_writes, self._cs_reads, ebuf)
        self._bind_sync(
            (_k.acquire_dc, _k.release_dc, _k.fork_dc, _k.join_dc),
            self._values, self._last_event, self._pending_fork,
            self._queues, self._cs_writes, self._cs_reads, ebuf,
            None, None)

    def _drain_fused(self) -> None:
        fs = self._fs
        self._n_graph_edges += fs[_FS_GRAPH_EDGES]
        fs[_FS_GRAPH_EDGES] = 0
        super()._drain_fused()

    def finish(self) -> RaceReport:
        assert self.report is not None, "begin_trace was never called"
        ebuf = self._ebuf
        if ebuf:
            add_edge = self.graph.add_edge
            it = iter(ebuf)
            for src, dst in zip(it, it):
                add_edge(src, dst)
            ebuf.clear()
        self._drain_fused()
        if self._n_graph_edges:
            counters = self.report.counters
            counters["graph_edges"] = (
                counters.get("graph_edges", 0) + self._n_graph_edges)
            self._n_graph_edges = 0
        return super().finish()

    def _clock_values_of(self, tid: Tid) -> Optional[List[int]]:
        assert self._ix is not None
        idx = self._ix.table.index.get(tid)
        return None if idx is None else self._values[idx]

    # ------------------------------------------------------------------
    # Clock / graph plumbing
    # ------------------------------------------------------------------
    def _advance(self, eid: int, ti: int, t: int) -> List[int]:
        values = self._values[ti]
        if values is None:
            values = self._values[ti] = [0] * self._T
        values[ti] = t
        if self.build_graph:
            prev = self._last_event[ti]
            if prev >= 0:
                ebuf = self._ebuf
                ebuf.append(prev)
                ebuf.append(eid)
        if self._pending_fork:
            pending = self._pending_fork.pop(ti, None)
            if pending is not None:
                fork_eid, parent = pending
                if _k.join_into_list_changed(values, parent):
                    self._snap_ok[ti] = False
                self._n_joins += 1
                self._add_edge(fork_eid, eid)
        self._last_event[ti] = eid
        return values

    def _add_edge(self, src: int, dst: int) -> None:
        if self.build_graph:
            ebuf = self._ebuf
            ebuf.append(src)
            ebuf.append(dst)
            self._n_graph_edges += 1

    def _forced_order_dense(self, prior: Event, e: Event,
                            snapshot: Optional[List[int]]) -> None:
        # The snapshot was already joined by _check_shared; DC's single
        # clock carries it everywhere, so only the graph needs the edge.
        self._add_edge(prior.eid, e.eid)
        self.bump("forced_orders")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, event: Event) -> None:
        code = self._codes[event.eid]
        if code <= _WRITE:
            fused = self._c_access
            if fused is None:
                self._on_access(event, code == _WRITE)
            elif fused(self._ctx, event.eid, code == _WRITE, event):
                self._shared_slow(event, code == _WRITE)
        elif code == _ACQ:
            self.on_acquire(event)
        elif code == _REL:
            self.on_release(event)
        elif code == _FORK:
            self.on_fork(event)
        elif code == _JOIN:
            self.on_join(event)
        elif code == _VWR:
            self.on_volatile_write(event)
        elif code == _VRD:
            self.on_volatile_read(event)
        else:
            eid = event.eid
            self._advance(eid, self._tix[eid], self._lt[eid])

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def _shared_slow(self, e: Event, is_write: bool) -> None:
        # The fused kernel already advanced the clock, staged rule (a),
        # and passed the prefilter; only the SHARED-stage check remains.
        eid = e.eid
        ti = self._tix[eid]
        values = self._values[ti]
        st = self._vars[self._tgt[eid]]
        assert values is not None and st is not None
        self._check_shared(e, ti, self._lt[eid], values, is_write, st)

    def _on_access(self, e: Event, is_write: bool) -> None:
        eid = e.eid
        ti = self._tix[eid]
        t = self._lt[eid]
        # Inlined _advance: one method call per access is measurable.
        values = self._values[ti]
        if values is None:
            values = self._values[ti] = [0] * self._T
        values[ti] = t
        if self.build_graph:
            prev = self._last_event[ti]
            if prev >= 0:
                ebuf = self._ebuf
                ebuf.append(prev)
                ebuf.append(eid)
        if self._pending_fork:
            pending = self._pending_fork.pop(ti, None)
            if pending is not None:
                fork_eid, parent = pending
                if _k.join_into_list_changed(values, parent):
                    self._snap_ok[ti] = False
                self._n_joins += 1
                self._add_edge(fork_eid, eid)
        self._last_event[ti] = eid
        vi = self._tgt[eid]
        held = self._held[eid]
        if held is not None:
            nv = self._nv
            cs_writes = self._cs_writes
            pend = self._pending_vars[ti]
            for li in held:
                key = li * nv + vi
                src = cs_writes.get(key)
                if src is not None:
                    sources = _k.source_join_into(src.entries, values, ti)
                    if sources is not None:
                        self._snap_ok[ti] = False
                        for s in sources:
                            self._add_edge(s, eid)
                if is_write:
                    src = self._cs_reads.get(key)
                    if src is not None:
                        sources = _k.source_join_into(src.entries, values, ti)
                        if sources is not None:
                            self._snap_ok[ti] = False
                            for s in sources:
                                self._add_edge(s, eid)
                cur = pend.get(li)
                if cur is None:
                    cur = pend[li] = (set(), set())
                cur[is_write].add(vi)
        # Inlined race-check entry: prefilter gate and the exclusive
        # (single-accessor) fast path, the overwhelmingly common case.
        cand = self._cand
        if cand is not None:
            if not cand[vi]:
                self._filter_skips += 1
                return
            self._filter_checks += 1
        st = self._vars[vi]
        if st is None:
            st = self._vars[vi] = _VarState(ti)
        if st.owner == ti:
            self._n_excl_fast += 1
            if self.force_order and self.transitive_force:
                if self._snap_ok[ti]:
                    self._n_snap_reuses += 1
                    snap = self._snaps[ti]
                else:
                    snap = values.copy()
                    self._snaps[ti] = snap
                    self._snap_ok[ti] = True
                    self._n_snap_copies += 1
            else:
                snap = None
            if is_write:
                st.xw_time = t
                st.xw_ev = e
                st.xw_snap = snap
            else:
                st.xr_time = t
                st.xr_ev = e
                st.xr_snap = snap
            return
        self._check_shared(e, ti, t, values, is_write, st)

    def on_read(self, e: Event) -> None:
        self._on_access(e, False)

    def on_write(self, e: Event) -> None:
        self._on_access(e, True)

    # ------------------------------------------------------------------
    # Lock operations
    # ------------------------------------------------------------------
    def on_acquire(self, e: Event) -> None:
        kernel = self._c_acquire
        if kernel is not None:
            kernel(self._sctx, e.eid)
            return
        eid = e.eid
        ti = self._tix[eid]
        t = self._lt[eid]
        self._advance(eid, ti, t)
        li = self._tgt[eid]
        queues = self._queues[li]
        if queues is None:
            queues = self._queues[li] = DenseLockQueues()
        queues.on_acquire(ti, t)
        # No synchronisation-order join (DC departs from HB/WCP here);
        # track single-ownership for the rule (b) skip.
        owner = queues.owner
        if owner != ti:
            if owner == -1:
                queues.owner = ti
            else:
                if owner >= 0:
                    self._n_lock_transfers += 1
                queues.owner = -2

    def on_release(self, e: Event) -> None:
        kernel = self._c_release
        if kernel is not None:
            if kernel(self._sctx, e.eid):
                # Streaming traces bypass Trace's construction-time
                # validation, so a release without a matching acquire
                # must surface as a malformed-trace error.
                raise MalformedTraceError(
                    f"{e}: releases lock {e.target!r} with no matching "
                    f"acquire by thread {e.tid!r}",
                    event_index=e.eid,
                )
            return
        eid = e.eid
        ti = self._tix[eid]
        t = self._lt[eid]
        values = self._advance(eid, ti, t)
        li = self._tgt[eid]
        queues = self._queues[li]
        if queues is None or queues.open_ti != ti:
            # Streaming traces bypass Trace's construction-time
            # validation, so a release without a matching acquire must
            # surface as a malformed-trace error, not a KeyError.
            raise MalformedTraceError(
                f"{e}: releases lock {e.target!r} with no matching acquire "
                f"by thread {e.tid!r}",
                event_index=e.eid,
            )
        if queues.owner == ti:
            # Ownership fast path: every record is the releasing
            # thread's own; its clock dominates its own past, so the
            # reference walk would consume them all silently and join
            # nothing. The cursors catch up lazily if the lock is ever
            # shared.
            self._n_rule_b_skips += 1
        else:
            sources = queues.apply_rule_b(ti, values)
            if sources is not None:
                self._snap_ok[ti] = False
                for s in sources:
                    self._add_edge(s, eid)
        snapshot = values.copy()
        pending = self._pending_vars[ti].pop(li, None)
        if pending is not None:
            read_vars, written_vars = pending
            nv = self._nv
            for vi in written_vars:
                table = self._cs_writes.get(li * nv + vi)
                if table is None:
                    table = self._cs_writes[li * nv + vi] = DenseSourceClocks()
                table.record(ti, eid, t, snapshot)
            for vi in read_vars:
                table = self._cs_reads.get(li * nv + vi)
                if table is None:
                    table = self._cs_reads[li * nv + vi] = DenseSourceClocks()
                table.record(ti, eid, t, snapshot)
        queues.on_release(eid, t, snapshot)

    # ------------------------------------------------------------------
    # Fork / join / volatiles: direct DC ordering
    # ------------------------------------------------------------------
    def on_fork(self, e: Event) -> None:
        kernel = self._c_fork
        if kernel is not None:
            kernel(self._sctx, e.eid)
            return
        eid = e.eid
        ti = self._tix[eid]
        values = self._advance(eid, ti, self._lt[eid])
        self._pending_fork[self._tgt[eid]] = (eid, values.copy())

    def on_join(self, e: Event) -> None:
        kernel = self._c_join
        if kernel is not None:
            kernel(self._sctx, e.eid)
            return
        eid = e.eid
        ti = self._tix[eid]
        values = self._advance(eid, ti, self._lt[eid])
        ci = self._tgt[eid]
        pending = self._pending_fork.pop(ci, None)
        if pending is not None:
            # The child never executed an event: the fork ordering still
            # flows through the (empty) child into the join.
            fork_eid, parent = pending
            if _k.join_into_list_changed(values, parent):
                self._snap_ok[ti] = False
            self._n_joins += 1
            self._add_edge(fork_eid, eid)
        child_values = self._values[ci]
        if child_values is not None:
            if _k.join_into_list_changed(values, child_values):
                self._snap_ok[ti] = False
            self._n_joins += 1
            child_last = self._last_event[ci]
            if child_last >= 0:
                self._add_edge(child_last, eid)

    def on_volatile_write(self, e: Event) -> None:
        eid = e.eid
        ti = self._tix[eid]
        t = self._lt[eid]
        values = self._advance(eid, ti, t)
        xi = self._tgt[eid]
        writes = self._vol_writes[xi]
        if writes is None:
            writes = self._vol_writes[xi] = DenseSourceClocks()
        reads = self._vol_reads[xi]
        if reads is None:
            reads = self._vol_reads[xi] = DenseSourceClocks()
        for table in (writes, reads):
            sources = table.join_into(values, ti)
            if sources is not None:
                self._snap_ok[ti] = False
                for s in sources:
                    self._add_edge(s, eid)
        writes.record(ti, eid, t, values.copy())

    def on_volatile_read(self, e: Event) -> None:
        eid = e.eid
        ti = self._tix[eid]
        t = self._lt[eid]
        values = self._advance(eid, ti, t)
        xi = self._tgt[eid]
        writes = self._vol_writes[xi]
        if writes is not None and writes.entries:
            sources = writes.join_into(values, ti)
            if sources is not None:
                self._snap_ok[ti] = False
                for s in sources:
                    self._add_edge(s, eid)
        reads = self._vol_reads[xi]
        if reads is None:
            reads = self._vol_reads[xi] = DenseSourceClocks()
        reads.record(ti, eid, t, values.copy())
