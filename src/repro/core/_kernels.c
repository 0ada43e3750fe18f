/* Native implementations of the clock hot-path kernels.
 *
 * This module is the optional "compiled" backend behind
 * repro.core.kernels, and its method table holds exactly the names
 * that module binds.  The plain kernels are line-for-line
 * re-implementations of the pure-Python reference kernel of the same
 * name (the ``py_*`` functions in kernels.py, which define the
 * semantics); the fused access and sync-op kernels transcribe the
 * epoch detectors' open-coded handlers (repro/analysis/smarttrack.py).
 * Bit-identical behaviour is enforced by
 * tests/test_kernels_differential.py and the existing differential
 * suites.
 *
 * Contracts shared with the Python side:
 *
 * - Dict tables are iterated in insertion order (PyDict_Next walks the
 *   dense entry array of CPython's insertion-ordered dicts), and the
 *   del-then-insert maintenance (record_latest) keeps that order
 *   most-recent-last.  The edge-minimising scans depend on it.
 * - Integer comparisons take a fast path when both operands are
 *   machine-word PyLongs and fall back to rich comparison otherwise,
 *   so arbitrary-precision clock values behave exactly as in Python.
 * - scan_racing_sparse calls back into Python (clock.get, event
 *   attribute access); those callables must not mutate the table being
 *   scanned (the same requirement the Python for-loop has).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

static PyObject *str_tid;  /* interned "tid" */
static PyObject *str_eid;  /* interned "eid" */

/* Attribute names used by the fused access kernels. */
static PyObject *str_entries;        /* "entries" (DenseSourceClocks) */
static PyObject *str_owner;          /* _VarState / DenseLockQueues */
static PyObject *str_xw_time;
static PyObject *str_xw_ev;
static PyObject *str_xw_snap;
static PyObject *str_xr_time;
static PyObject *str_xr_ev;
static PyObject *str_xr_snap;
/* DenseLockQueues slots used by the fused sync-op kernels. */
static PyObject *str_records;
static PyObject *str_cursors;
static PyObject *str_open_ti;
static PyObject *str_open_rec;
/* Shared small-int singletons for the lock-queue state machine. */
static PyObject *long_neg1;
static PyObject *long_neg2;

static int ebuf_push(PyObject *ebuf, PyObject *src_obj, PyObject *dst_obj);
/* Slots of the fused-kernel counter block (smarttrack._FS_*). */
#define FS_JOINS          0
#define FS_FILTER_SKIPS   1
#define FS_FILTER_CHECKS  2
#define FS_EXCL_FAST      3
#define FS_SNAP_REUSES    4
#define FS_SNAP_COPIES    5
#define FS_GRAPH_EDGES    6
#define FS_RULE_B_SKIPS   7
#define FS_LOCK_TRANSFERS 8
#define FS_SLOTS          9

/* ------------------------------------------------------------------ */
/* Comparison helpers (exact-long fast path, rich-compare fallback)    */
/* ------------------------------------------------------------------ */
static int
obj_cmp(PyObject *a, PyObject *b, int op)
{
    if (PyLong_CheckExact(a) && PyLong_CheckExact(b)) {
        int ofa = 0, ofb = 0;
        long la = PyLong_AsLongAndOverflow(a, &ofa);
        long lb = PyLong_AsLongAndOverflow(b, &ofb);
        if (!ofa && !ofb) {
            switch (op) {
                case Py_GT: return la > lb;
                case Py_GE: return la >= lb;
                case Py_LT: return la < lb;
                default: break;
            }
        }
    }
    return PyObject_RichCompareBool(a, b, op);
}

/* values[i] with Python indexing semantics; borrowed reference. */
static PyObject *
list_get(PyObject *list, Py_ssize_t i)
{
    Py_ssize_t n = PyList_GET_SIZE(list);
    if (i < 0)
        i += n;
    if (i < 0 || i >= n) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return NULL;
    }
    return PyList_GET_ITEM(list, i);
}

/* Core of join_into_list: dst[i] = max(dst[i], src[i]) for every src
 * component.  Returns 1 if dst grew, 0 if unchanged, -1 on error. */
static int
join_core(PyObject *dst, PyObject *src)
{
    PyObject *fast;
    PyObject **items;
    Py_ssize_t i, n, nd;
    int changed = 0;

    if (!PyList_Check(dst)) {
        PyErr_SetString(PyExc_TypeError, "dst must be a list");
        return -1;
    }
    fast = PySequence_Fast(src, "src must be a sequence");
    if (fast == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(fast);
    items = PySequence_Fast_ITEMS(fast);
    nd = PyList_GET_SIZE(dst);
    for (i = 0; i < n; i++) {
        PyObject *s = items[i];
        PyObject *d;
        int c;
        if (i >= nd) {  /* mirrors the Python dst[i] IndexError */
            PyErr_SetString(PyExc_IndexError, "list index out of range");
            goto error;
        }
        d = PyList_GET_ITEM(dst, i);
        c = obj_cmp(s, d, Py_GT);
        if (c < 0)
            goto error;
        if (c) {
            Py_INCREF(s);
            PyList_SetItem(dst, i, s);  /* steals s, decrefs old */
            changed = 1;
        }
    }
    Py_DECREF(fast);
    return changed;
error:
    Py_DECREF(fast);
    return -1;
}

/* ------------------------------------------------------------------ */
/* List kernels                                                        */
/* ------------------------------------------------------------------ */
static PyObject *
k_join_into_list(PyObject *self, PyObject *args)
{
    PyObject *dst, *src;
    if (!PyArg_ParseTuple(args, "OO:join_into_list", &dst, &src))
        return NULL;
    if (join_core(dst, src) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
k_join_into_list_changed(PyObject *self, PyObject *args)
{
    PyObject *dst, *src;
    int changed;
    if (!PyArg_ParseTuple(args, "OO:join_into_list_changed", &dst, &src))
        return NULL;
    changed = join_core(dst, src);
    if (changed < 0)
        return NULL;
    return PyBool_FromLong(changed);
}

/* ------------------------------------------------------------------ */
/* Table maintenance                                                   */
/* ------------------------------------------------------------------ */
/* (Re-)insert table[key] = value at the end of the insertion order. */
static int
record_latest_core(PyObject *table, PyObject *key, PyObject *value)
{
    int has;
    if (!PyDict_Check(table)) {
        PyErr_SetString(PyExc_TypeError, "table must be a dict");
        return -1;
    }
    has = PyDict_Contains(table, key);
    if (has < 0)
        return -1;
    if (has && PyDict_DelItem(table, key) < 0)
        return -1;
    return PyDict_SetItem(table, key, value);
}

static PyObject *
k_record_latest(PyObject *self, PyObject *args)
{
    PyObject *table, *key, *value;
    if (!PyArg_ParseTuple(args, "OOO:record_latest", &table, &key, &value))
        return NULL;
    if (record_latest_core(table, key, value) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Dense rule (a): edge-minimised source-clock join                    */
/* ------------------------------------------------------------------ */

/* Core of source_join_into, shared with the fused access kernels.
 * When out != NULL, newly ordered source eids are appended to *out
 * (created lazily).  Returns 1 if any source joined, 0 if none,
 * -1 on error. */
static int
source_join_core(PyObject *entries, PyObject *values, long skip_ti,
                 PyObject **out)
{
    PyObject *key, *val;
    Py_ssize_t pos = 0;
    int joined = 0;

    if (!PyDict_Check(entries) || !PyList_Check(values)) {
        PyErr_SetString(PyExc_TypeError,
                        "source_join_into expects (dict, list, int)");
        return -1;
    }
    while (PyDict_Next(entries, &pos, &key, &val)) {
        long u = PyLong_AsLong(key);
        PyObject *vu;
        int c;
        if (u == -1 && PyErr_Occurred())
            return -1;
        if (u == skip_ti)
            continue;
        if (!PyTuple_Check(val) || PyTuple_GET_SIZE(val) != 3) {
            PyErr_SetString(PyExc_TypeError,
                            "source entry must be a 3-tuple");
            return -1;
        }
        vu = list_get(values, (Py_ssize_t)u);
        if (vu == NULL)
            return -1;
        c = obj_cmp(vu, PyTuple_GET_ITEM(val, 1), Py_GE);
        if (c < 0)
            return -1;
        if (c)
            continue;
        if (join_core(values, PyTuple_GET_ITEM(val, 2)) < 0)
            return -1;
        joined = 1;
        if (out != NULL) {
            if (*out == NULL) {
                *out = PyList_New(0);
                if (*out == NULL)
                    return -1;
            }
            if (PyList_Append(*out, PyTuple_GET_ITEM(val, 0)) < 0)
                return -1;
        }
    }
    return joined;
}

static PyObject *
k_source_join_into(PyObject *self, PyObject *args)
{
    PyObject *entries, *values, *out = NULL;
    long skip_ti;

    if (!PyArg_ParseTuple(args, "OOl:source_join_into",
                          &entries, &values, &skip_ti))
        return NULL;
    if (source_join_core(entries, values, skip_ti, &out) < 0) {
        Py_XDECREF(out);
        return NULL;
    }
    if (out == NULL)
        Py_RETURN_NONE;
    return out;
}

/* ------------------------------------------------------------------ */
/* Dense rule (b): FIFO-cursor fixpoint                                */
/* ------------------------------------------------------------------ */

/* The rule (b) fixpoint of the fused release kernels, a transcription
 * of DenseLockQueues.apply_rule_b (repro/analysis/sync_structures.py).
 * When out != NULL, the newly ordered release eids are appended to
 * *out (created lazily, reference insertion order; cleanup of *out on
 * error is the caller's job).  Returns 1 if any record joined, 0 if
 * none, -1 on error. */
static int
rule_b_core(PyObject *records, PyObject *cursors, PyObject *values,
            PyObject **out)
{
    int changed = 1, joined = 0;

    if (!PyDict_Check(records) || !PyDict_Check(cursors) ||
            !PyList_Check(values)) {
        PyErr_SetString(PyExc_TypeError,
                        "rule (b) expects (dict, dict, list)");
        return -1;
    }
    while (changed) {
        PyObject *key, *recs;
        Py_ssize_t pos = 0;
        changed = 0;
        while (PyDict_Next(records, &pos, &key, &recs)) {
            PyObject *cur, *i_obj, *vu;
            Py_ssize_t i, n;
            long u;

            u = PyLong_AsLong(key);
            if (u == -1 && PyErr_Occurred())
                return -1;
            cur = PyDict_GetItemWithError(cursors, key);
            if (cur == NULL) {
                if (PyErr_Occurred())
                    return -1;
                i = 0;
            }
            else {
                i = PyLong_AsSsize_t(cur);
                if (i == -1 && PyErr_Occurred())
                    return -1;
            }
            if (!PyList_Check(recs)) {
                PyErr_SetString(PyExc_TypeError,
                                "record queue must be a list");
                return -1;
            }
            n = PyList_GET_SIZE(recs);
            vu = NULL;
            while (i < n) {
                PyObject *rec = PyList_GET_ITEM(recs, i);
                PyObject *snap;
                int c;
                if (!PyList_Check(rec) || PyList_GET_SIZE(rec) != 4) {
                    PyErr_SetString(PyExc_TypeError,
                                    "rule (b) record must be a 4-list");
                    return -1;
                }
                snap = PyList_GET_ITEM(rec, 3);
                if (snap == Py_None)
                    break;  /* source critical section still open */
                vu = list_get(values, (Py_ssize_t)u);
                if (vu == NULL)
                    return -1;
                c = obj_cmp(vu, PyList_GET_ITEM(rec, 0), Py_LT);
                if (c < 0)
                    return -1;
                if (c)
                    break;  /* FIFO heads are monotone per thread */
                c = obj_cmp(vu, PyList_GET_ITEM(rec, 2), Py_LT);
                if (c < 0)
                    return -1;
                if (c) {
                    if (join_core(values, snap) < 0)
                        return -1;
                    joined = 1;
                    if (out != NULL) {
                        if (*out == NULL) {
                            *out = PyList_New(0);
                            if (*out == NULL)
                                return -1;
                        }
                        if (PyList_Append(*out,
                                          PyList_GET_ITEM(rec, 1)) < 0)
                            return -1;
                    }
                    changed = 1;
                }
                i++;
            }
            i_obj = PyLong_FromSsize_t(i);
            if (i_obj == NULL)
                return -1;
            if (PyDict_SetItem(cursors, key, i_obj) < 0) {
                Py_DECREF(i_obj);
                return -1;
            }
            Py_DECREF(i_obj);
        }
    }
    return joined;
}

/* ------------------------------------------------------------------ */
/* Dense gated race scan (SmartTrack epoch gates + history scan)       */
/* ------------------------------------------------------------------ */

/* Scan one dense access map for racing priors, appending (key, record)
 * pairs to *out (created lazily).  Returns 0 on success, -1 on error. */
static int
scan_dense_table(PyObject *table, long ti, PyObject *values, PyObject **out)
{
    PyObject *key, *val;
    Py_ssize_t pos = 0;

    if (!PyDict_Check(table)) {
        PyErr_SetString(PyExc_TypeError, "access map must be a dict");
        return -1;
    }
    while (PyDict_Next(table, &pos, &key, &val)) {
        long u = PyLong_AsLong(key);
        PyObject *vu, *pair;
        int c;
        if (u == -1 && PyErr_Occurred())
            return -1;
        if (u == ti)
            continue;
        if (!PyTuple_Check(val) || PyTuple_GET_SIZE(val) != 3) {
            PyErr_SetString(PyExc_TypeError,
                            "access record must be a 3-tuple");
            return -1;
        }
        vu = list_get(values, (Py_ssize_t)u);
        if (vu == NULL)
            return -1;
        c = obj_cmp(PyTuple_GET_ITEM(val, 0), vu, Py_GT);
        if (c < 0)
            return -1;
        if (!c)
            continue;
        if (*out == NULL) {
            *out = PyList_New(0);
            if (*out == NULL)
                return -1;
        }
        pair = PyTuple_Pack(2, key, val);
        if (pair == NULL)
            return -1;
        if (PyList_Append(*out, pair) < 0) {
            Py_DECREF(pair);
            return -1;
        }
        Py_DECREF(pair);
    }
    return 0;
}

static PyObject *
k_gated_scan(PyObject *self, PyObject *args)
{
    PyObject *writes, *reads, *values, *we_time, *rg_time;
    PyObject *racing = NULL, *result;
    long ti, we_ti, rg_ti;
    int use_gates, rg_shared, w_gate = 0, r_gate = 0;

    if (!PyArg_ParseTuple(args, "OOlOiOlOli:gated_scan",
                          &writes, &reads, &ti, &values, &use_gates,
                          &we_time, &we_ti, &rg_time, &rg_ti, &rg_shared))
        return NULL;
    if (!PyList_Check(values)) {
        PyErr_SetString(PyExc_TypeError, "values must be a list");
        return NULL;
    }
    if (writes != Py_None) {
        int gated = 0;
        if (use_gates) {
            int truthy = PyObject_IsTrue(we_time);
            if (truthy < 0)
                return NULL;
            if (!truthy)
                gated = 1;  /* no write yet: trivially covered */
            else {
                PyObject *v = list_get(values, (Py_ssize_t)we_ti);
                int c;
                if (v == NULL)
                    return NULL;
                c = obj_cmp(v, we_time, Py_GE);
                if (c < 0)
                    return NULL;
                gated = c;
            }
        }
        if (gated)
            w_gate = 1;
        else if (scan_dense_table(writes, ti, values, &racing) < 0)
            goto error;
    }
    if (reads != Py_None) {
        int gated = 0;
        if (w_gate && !rg_shared) {
            int truthy = PyObject_IsTrue(rg_time);
            if (truthy < 0)
                goto error;
            if (!truthy)
                gated = 1;
            else {
                PyObject *v = list_get(values, (Py_ssize_t)rg_ti);
                int c;
                if (v == NULL)
                    goto error;
                c = obj_cmp(v, rg_time, Py_GE);
                if (c < 0)
                    goto error;
                gated = c;
            }
        }
        if (gated)
            r_gate = 1;
        else if (scan_dense_table(reads, ti, values, &racing) < 0)
            goto error;
    }
    result = Py_BuildValue("(OOO)",
                           racing == NULL ? Py_None : racing,
                           w_gate ? Py_True : Py_False,
                           r_gate ? Py_True : Py_False);
    Py_XDECREF(racing);
    return result;
error:
    Py_XDECREF(racing);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Sparse access-history race scan (Detector.check_access)             */
/* ------------------------------------------------------------------ */

static int
scan_sparse_table(PyObject *table, PyObject *tid, PyObject *local_time,
                  PyObject *clock_get, PyObject **out)
{
    PyObject *key, *rec;
    Py_ssize_t pos = 0;
    /* local_time is a plain list for in-memory traces but an
     * array('I') view for streaming traces, so index generically. */
    int lt_is_list = PyList_Check(local_time);

    if (!PyDict_Check(table)) {
        PyErr_SetString(PyExc_TypeError, "history table must be a dict");
        return -1;
    }
    while (PyDict_Next(table, &pos, &key, &rec)) {
        PyObject *prior, *ptid, *peid, *lt, *cg;
        Py_ssize_t eid;
        int ne, c;

        if (!PyTuple_Check(rec) || PyTuple_GET_SIZE(rec) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "history record must be a 2-tuple");
            return -1;
        }
        prior = PyTuple_GET_ITEM(rec, 0);
        ptid = PyObject_GetAttr(prior, str_tid);
        if (ptid == NULL)
            return -1;
        ne = PyObject_RichCompareBool(ptid, tid, Py_NE);
        if (ne < 0) {
            Py_DECREF(ptid);
            return -1;
        }
        if (!ne) {
            Py_DECREF(ptid);
            continue;
        }
        peid = PyObject_GetAttr(prior, str_eid);
        if (peid == NULL) {
            Py_DECREF(ptid);
            return -1;
        }
        eid = PyLong_AsSsize_t(peid);
        Py_DECREF(peid);
        if (eid == -1 && PyErr_Occurred()) {
            Py_DECREF(ptid);
            return -1;
        }
        if (lt_is_list) {
            lt = list_get(local_time, eid);
            Py_XINCREF(lt);
        }
        else {
            lt = PySequence_GetItem(local_time, eid);
        }
        if (lt == NULL) {
            Py_DECREF(ptid);
            return -1;
        }
        cg = PyObject_CallFunctionObjArgs(clock_get, ptid, NULL);
        Py_DECREF(ptid);
        if (cg == NULL) {
            Py_DECREF(lt);
            return -1;
        }
        c = obj_cmp(lt, cg, Py_GT);
        Py_DECREF(lt);
        Py_DECREF(cg);
        if (c < 0)
            return -1;
        if (!c)
            continue;
        if (*out == NULL) {
            *out = PyList_New(0);
            if (*out == NULL)
                return -1;
        }
        if (PyList_Append(*out, rec) < 0)
            return -1;
    }
    return 0;
}

static PyObject *
k_scan_racing_sparse(PyObject *self, PyObject *args)
{
    PyObject *last_write, *last_read, *tid, *local_time, *clock_get;
    PyObject *racing = NULL;

    if (!PyArg_ParseTuple(args, "OOOOO:scan_racing_sparse",
                          &last_write, &last_read, &tid, &local_time,
                          &clock_get))
        return NULL;
    if (scan_sparse_table(last_write, tid, local_time, clock_get,
                          &racing) < 0) {
        Py_XDECREF(racing);
        return NULL;
    }
    if (last_read != Py_None &&
            scan_sparse_table(last_read, tid, local_time, clock_get,
                              &racing) < 0) {
        Py_XDECREF(racing);
        return NULL;
    }
    if (racing == NULL)
        Py_RETURN_NONE;
    return racing;
}

/* ------------------------------------------------------------------ */
/* Fused per-access fast paths (EpochWCPDetector / EpochDCDetector)    */
/* ------------------------------------------------------------------ */

/* list[i] = v with a new reference taken for the list. */
static int
list_set_obj(PyObject *list, Py_ssize_t i, PyObject *v)
{
    Py_INCREF(v);
    return PyList_SetItem(list, i, v);  /* steals v, decrefs old */
}

/* A fresh dense clock: [0] * n. */
static PyObject *
zeros_list(Py_ssize_t n)
{
    PyObject *lst = PyList_New(n);
    Py_ssize_t i;
    if (lst == NULL)
        return NULL;
    for (i = 0; i < n; i++) {
        PyObject *zero = PyLong_FromLong(0);
        if (zero == NULL) {
            Py_DECREF(lst);
            return NULL;
        }
        PyList_SET_ITEM(lst, i, zero);
    }
    return lst;
}

/* fs[i] += delta on the fused-kernel counter block (a plain list of
 * machine-word ints; smarttrack's _drain_fused folds it back into the
 * named detector counters before anything reads them). */
static int
bump_slot(PyObject *fs, Py_ssize_t i, long delta)
{
    PyObject *cur = PyList_GET_ITEM(fs, i);
    PyObject *fresh;
    int of = 0;
    long v;

    if (!PyLong_CheckExact(cur)) {
        PyErr_SetString(PyExc_TypeError, "counter block must hold ints");
        return -1;
    }
    v = PyLong_AsLongAndOverflow(cur, &of);
    if (of) {
        PyErr_SetString(PyExc_OverflowError, "counter block overflow");
        return -1;
    }
    fresh = PyLong_FromLong(v + delta);
    if (fresh == NULL)
        return -1;
    return PyList_SetItem(fs, i, fresh);
}

/* Join one conflicting critical-section table into `values`; with the
 * edge buffer active (ebuf != NULL), append one counted
 * (source_release -> eid) pair per newly ordered source, in the order
 * source_join_core visits them (= the reference's _add_edge order).
 * Returns 1 if anything joined, 0 otherwise, -1 on error. */
static int
rule_a_join_one(PyObject *src, PyObject *values, long ti,
                PyObject *fs, PyObject *ebuf, PyObject *eid_obj)
{
    PyObject *entries = PyObject_GetAttr(src, str_entries);
    PyObject *srcs = NULL;
    int c;

    if (entries == NULL)
        return -1;
    c = source_join_core(entries, values, ti, ebuf == NULL ? NULL : &srcs);
    Py_DECREF(entries);
    if (c < 0) {
        Py_XDECREF(srcs);
        return -1;
    }
    if (srcs != NULL) {
        Py_ssize_t k, n = PyList_GET_SIZE(srcs);
        for (k = 0; k < n; k++) {
            if (ebuf_push(ebuf, PyList_GET_ITEM(srcs, k), eid_obj) < 0) {
                Py_DECREF(srcs);
                return -1;
            }
        }
        if (n > 0 && bump_slot(fs, FS_GRAPH_EDGES, (long)n) < 0) {
            Py_DECREF(srcs);
            return -1;
        }
        Py_DECREF(srcs);
    }
    return c;
}

/* The held-lock rule (a) staging loop shared by both fused access
 * kernels: join the conflicting critical-section source clocks into
 * the analysis clock and record this access as pending for the
 * enclosing releases.  Returns 1 if any source joined (the caller
 * invalidates the thread's snapshot), 0 otherwise, -1 on error. */
static int
rule_a_held(PyObject *held_t, PyObject *cs_writes, PyObject *cs_reads,
            PyObject *pend, PyObject *values, long ti, long nv,
            PyObject *vi_obj, long vi, int is_write,
            PyObject *fs, PyObject *ebuf, PyObject *eid_obj)
{
    Py_ssize_t k, nheld;
    int dirty = 0;

    if (!PyTuple_Check(held_t)) {
        PyErr_SetString(PyExc_TypeError, "held locks must be a tuple");
        return -1;
    }
    if (!PyDict_Check(pend)) {
        PyErr_SetString(PyExc_TypeError, "pending map must be a dict");
        return -1;
    }
    nheld = PyTuple_GET_SIZE(held_t);
    for (k = 0; k < nheld; k++) {
        PyObject *li_obj = PyTuple_GET_ITEM(held_t, k);
        PyObject *key, *src, *cur;
        long li = PyLong_AsLong(li_obj);
        int c;

        if (li == -1 && PyErr_Occurred())
            return -1;
        key = PyLong_FromLong(li * nv + vi);
        if (key == NULL)
            return -1;
        src = PyDict_GetItemWithError(cs_writes, key);
        if (src == NULL && PyErr_Occurred()) {
            Py_DECREF(key);
            return -1;
        }
        if (src != NULL) {
            c = rule_a_join_one(src, values, ti, fs, ebuf, eid_obj);
            if (c < 0) {
                Py_DECREF(key);
                return -1;
            }
            dirty |= c;
        }
        if (is_write) {
            src = PyDict_GetItemWithError(cs_reads, key);
            if (src == NULL && PyErr_Occurred()) {
                Py_DECREF(key);
                return -1;
            }
            if (src != NULL) {
                c = rule_a_join_one(src, values, ti, fs, ebuf, eid_obj);
                if (c < 0) {
                    Py_DECREF(key);
                    return -1;
                }
                dirty |= c;
            }
        }
        Py_DECREF(key);
        /* cur = pend.setdefault(li, (set(), set())) */
        cur = PyDict_GetItemWithError(pend, li_obj);
        if (cur == NULL) {
            PyObject *reads_set, *writes_set, *fresh;
            if (PyErr_Occurred())
                return -1;
            reads_set = PySet_New(NULL);
            writes_set = PySet_New(NULL);
            if (reads_set == NULL || writes_set == NULL) {
                Py_XDECREF(reads_set);
                Py_XDECREF(writes_set);
                return -1;
            }
            fresh = PyTuple_Pack(2, reads_set, writes_set);
            Py_DECREF(reads_set);
            Py_DECREF(writes_set);
            if (fresh == NULL)
                return -1;
            if (PyDict_SetItem(pend, li_obj, fresh) < 0) {
                Py_DECREF(fresh);
                return -1;
            }
            Py_DECREF(fresh);
            cur = PyDict_GetItemWithError(pend, li_obj);
            if (cur == NULL)
                return -1;
        }
        if (!PyTuple_Check(cur) || PyTuple_GET_SIZE(cur) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "pending entry must be a (reads, writes) pair");
            return -1;
        }
        if (PySet_Add(PyTuple_GET_ITEM(cur, is_write ? 1 : 0), vi_obj) < 0)
            return -1;
    }
    return dirty;
}

/* The exclusive-stage store: take or reuse the per-thread snapshot
 * (the dirty-flag cache) and record the access in the O(1) x* fields.
 * Returns 0 on success, -1 on error. */
static int
excl_fast(PyObject *fs, PyObject *st, PyObject *clock, PyObject *snaps,
          PyObject *snap_ok, long ti, int force_snap, int is_write,
          PyObject *t_obj, PyObject *event)
{
    PyObject *snap;
    int snap_owned = 0;

    if (bump_slot(fs, FS_EXCL_FAST, 1) < 0)
        return -1;
    if (force_snap) {
        PyObject *ok = list_get(snap_ok, (Py_ssize_t)ti);
        int truthy;
        if (ok == NULL)
            return -1;
        truthy = PyObject_IsTrue(ok);
        if (truthy < 0)
            return -1;
        if (truthy) {
            if (bump_slot(fs, FS_SNAP_REUSES, 1) < 0)
                return -1;
            snap = list_get(snaps, (Py_ssize_t)ti);
            if (snap == NULL)
                return -1;
        }
        else {
            snap = PyList_GetSlice(clock, 0, PyList_GET_SIZE(clock));
            if (snap == NULL)
                return -1;
            snap_owned = 1;
            Py_INCREF(snap);
            if (PyList_SetItem(snaps, (Py_ssize_t)ti, snap) < 0)
                goto error;
            if (list_set_obj(snap_ok, (Py_ssize_t)ti, Py_True) < 0)
                goto error;
            if (bump_slot(fs, FS_SNAP_COPIES, 1) < 0)
                goto error;
        }
    }
    else {
        snap = Py_None;
    }
    if (PyObject_SetAttr(st, is_write ? str_xw_time : str_xr_time,
                         t_obj) < 0)
        goto error;
    if (PyObject_SetAttr(st, is_write ? str_xw_ev : str_xr_ev, event) < 0)
        goto error;
    if (PyObject_SetAttr(st, is_write ? str_xw_snap : str_xr_snap,
                         snap) < 0)
        goto error;
    if (snap_owned)
        Py_DECREF(snap);
    return 0;
error:
    if (snap_owned)
        Py_DECREF(snap);
    return -1;
}

/* ------------------------------------------------------------------ */
/* The DC edge buffer                                                  */
/* ------------------------------------------------------------------ */

/* Graph edges are staged as a flat [src0, dst0, src1, dst1, ...]
 * Python list shared with the detector (its `_ebuf`), appended in
 * exactly the order the reference detector inserts them into the
 * constraint graph, and drained by Python at finish() — so the fused
 * kernels stay graph-agnostic and the drained graph is edge-for-edge
 * identical, insertion order included. */
static int
ebuf_push(PyObject *ebuf, PyObject *src_obj, PyObject *dst_obj)
{
    if (PyList_Append(ebuf, src_obj) < 0)
        return -1;
    return PyList_Append(ebuf, dst_obj);
}

/* One call executes the entire _on_access body of the epoch detectors
 * for the overwhelmingly common cases; the return value tells the
 * caller whether the rare SHARED-stage race check still must run in
 * Python: 0 — fully handled, 1 — run _check_shared.
 *
 * ctx is built once per trace by the detector's begin_trace:
 *   (fs, tix, lt, tgt, held, clock_a, clock_b, pending_fork, snap_ok,
 *    snaps, cand, vars, pending_vars, cs_writes, cs_reads, nv, T,
 *    force_snap, varstate_cls, ebuf)
 * with clock_a/clock_b = (_h, _p) for WCP and (_values, _last_event)
 * for DC.  ebuf is the DC edge buffer when graph building is on, None
 * otherwise (always None for WCP). */

#define ACCESS_CTX_SIZE 20

typedef struct {
    PyObject *fs, *tix, *lt, *tgt, *held, *clock_a, *clock_b;
    PyObject *pending_fork, *snap_ok, *snaps, *cand, *vars;
    PyObject *pending_vars, *cs_w, *cs_r, *varstate_cls;
    PyObject *ebuf;  /* NULL when graph building is off */
    long nv, T;
    int force_snap;
} access_ctx;

static int
unpack_access_ctx(PyObject *ctx, access_ctx *c)
{
    if (!PyTuple_Check(ctx) || PyTuple_GET_SIZE(ctx) != ACCESS_CTX_SIZE) {
        PyErr_SetString(PyExc_TypeError, "bad access kernel context");
        return -1;
    }
    c->fs = PyTuple_GET_ITEM(ctx, 0);
    c->tix = PyTuple_GET_ITEM(ctx, 1);
    c->lt = PyTuple_GET_ITEM(ctx, 2);
    c->tgt = PyTuple_GET_ITEM(ctx, 3);
    c->held = PyTuple_GET_ITEM(ctx, 4);
    c->clock_a = PyTuple_GET_ITEM(ctx, 5);
    c->clock_b = PyTuple_GET_ITEM(ctx, 6);
    c->pending_fork = PyTuple_GET_ITEM(ctx, 7);
    c->snap_ok = PyTuple_GET_ITEM(ctx, 8);
    c->snaps = PyTuple_GET_ITEM(ctx, 9);
    c->cand = PyTuple_GET_ITEM(ctx, 10);
    c->vars = PyTuple_GET_ITEM(ctx, 11);
    c->pending_vars = PyTuple_GET_ITEM(ctx, 12);
    c->cs_w = PyTuple_GET_ITEM(ctx, 13);
    c->cs_r = PyTuple_GET_ITEM(ctx, 14);
    c->nv = PyLong_AsLong(PyTuple_GET_ITEM(ctx, 15));
    c->T = PyLong_AsLong(PyTuple_GET_ITEM(ctx, 16));
    c->force_snap = PyObject_IsTrue(PyTuple_GET_ITEM(ctx, 17));
    c->varstate_cls = PyTuple_GET_ITEM(ctx, 18);
    c->ebuf = PyTuple_GET_ITEM(ctx, 19);
    if (((c->nv == -1 || c->T == -1) && PyErr_Occurred()) ||
            c->force_snap < 0)
        return -1;
    if (c->ebuf == Py_None)
        c->ebuf = NULL;
    else if (!PyList_Check(c->ebuf)) {
        PyErr_SetString(PyExc_TypeError, "bad access kernel context");
        return -1;
    }
    if (!PyList_Check(c->fs) || PyList_GET_SIZE(c->fs) < FS_SLOTS) {
        PyErr_SetString(PyExc_TypeError, "bad access kernel context");
        return -1;
    }
    if (!PyList_Check(c->tix) || !PyList_Check(c->lt) ||
            !PyList_Check(c->tgt) || !PyList_Check(c->held) ||
            !PyList_Check(c->clock_a) || !PyList_Check(c->clock_b) ||
            !PyDict_Check(c->pending_fork) || !PyList_Check(c->snap_ok) ||
            !PyList_Check(c->snaps) || !PyList_Check(c->vars) ||
            !PyList_Check(c->pending_vars) || !PyDict_Check(c->cs_w) ||
            !PyDict_Check(c->cs_r)) {
        PyErr_SetString(PyExc_TypeError, "bad access kernel context");
        return -1;
    }
    return 0;
}

/* The tail shared by both kernels: rule (a) staging, the prefilter
 * gate, and the exclusive fast path.  `values` is the clock the race
 * check consults (P for WCP, the DC clock for DC).  Returns 0/1 as the
 * kernel result or -1 on error. */
static int
access_tail(access_ctx *c, Py_ssize_t eid, int is_write, PyObject *event,
            PyObject *ti_obj, long ti, PyObject *t_obj, PyObject *values,
            PyObject *eid_obj)
{
    PyObject *held_t, *st, *vi_obj;
    long vi, owner;
    int st_owned = 0;

    vi_obj = list_get(c->tgt, eid);
    if (vi_obj == NULL)
        return -1;
    vi = PyLong_AsLong(vi_obj);
    if (vi == -1 && PyErr_Occurred())
        return -1;
    held_t = list_get(c->held, eid);
    if (held_t == NULL)
        return -1;
    if (held_t != Py_None) {
        PyObject *pend = list_get(c->pending_vars, ti);
        int dirty;
        if (pend == NULL)
            return -1;
        dirty = rule_a_held(held_t, c->cs_w, c->cs_r, pend, values,
                            ti, c->nv, vi_obj, vi, is_write,
                            c->fs, c->ebuf, eid_obj);
        if (dirty < 0)
            return -1;
        if (dirty && list_set_obj(c->snap_ok, ti, Py_False) < 0)
            return -1;
    }
    if (c->cand != Py_None) {
        PyObject *cv;
        int truthy;
        if (!PyList_Check(c->cand)) {
            PyErr_SetString(PyExc_TypeError, "prefilter must be a list");
            return -1;
        }
        cv = list_get(c->cand, vi);
        if (cv == NULL)
            return -1;
        truthy = PyObject_IsTrue(cv);
        if (truthy < 0)
            return -1;
        if (!truthy)
            return bump_slot(c->fs, FS_FILTER_SKIPS, 1) < 0 ? -1 : 0;
        if (bump_slot(c->fs, FS_FILTER_CHECKS, 1) < 0)
            return -1;
    }
    st = list_get(c->vars, vi);
    if (st == NULL)
        return -1;
    if (st == Py_None) {
        st = PyObject_CallFunctionObjArgs(c->varstate_cls, ti_obj, NULL);
        if (st == NULL)
            return -1;
        st_owned = 1;
        Py_INCREF(st);
        if (PyList_SetItem(c->vars, vi, st) < 0)
            goto error;
    }
    {
        PyObject *owner_obj = PyObject_GetAttr(st, str_owner);
        if (owner_obj == NULL)
            goto error;
        owner = PyLong_AsLong(owner_obj);
        Py_DECREF(owner_obj);
        if (owner == -1 && PyErr_Occurred())
            goto error;
    }
    if (owner == ti) {
        if (excl_fast(c->fs, st, values, c->snaps, c->snap_ok, ti,
                      c->force_snap, is_write, t_obj, event) < 0)
            goto error;
        if (st_owned)
            Py_DECREF(st);
        return 0;
    }
    if (st_owned)
        Py_DECREF(st);
    return 1;
error:
    if (st_owned)
        Py_DECREF(st);
    return -1;
}

/* The per-event WCP clock advance shared by the access and sync-op
 * kernels: bump H[ti] to the event's local time (P carries no own
 * program order) and consume a pending fork edge.  On success the
 * h_out and p_out parameters receive borrowed references kept alive
 * by the clock tables. */
static int
wcp_advance(PyObject *fs, PyObject *clock_a, PyObject *clock_b,
            PyObject *pending_fork, PyObject *snap_ok, long T, long ti,
            PyObject *ti_obj, PyObject *t_obj,
            PyObject **h_out, PyObject **p_out)
{
    PyObject *h, *p;

    h = list_get(clock_a, ti);
    if (h == NULL)
        return -1;
    if (h == Py_None) {
        h = zeros_list(T);
        if (h == NULL)
            return -1;
        if (PyList_SetItem(clock_a, ti, h) < 0)  /* list keeps h alive */
            return -1;
        p = zeros_list(T);
        if (p == NULL)
            return -1;
        if (PyList_SetItem(clock_b, ti, p) < 0)
            return -1;
    }
    else {
        p = list_get(clock_b, ti);
        if (p == NULL)
            return -1;
    }
    if (!PyList_Check(h) || !PyList_Check(p)) {
        PyErr_SetString(PyExc_TypeError, "clock must be a list");
        return -1;
    }
    if (list_set_obj(h, ti, t_obj) < 0)  /* h[ti] = t */
        return -1;
    if (PyDict_GET_SIZE(pending_fork) > 0) {
        PyObject *parent = PyDict_GetItemWithError(pending_fork, ti_obj);
        if (parent == NULL) {
            if (PyErr_Occurred())
                return -1;
        }
        else {
            int changed;
            Py_INCREF(parent);
            if (PyDict_DelItem(pending_fork, ti_obj) < 0 ||
                    join_core(h, parent) < 0) {
                Py_DECREF(parent);
                return -1;
            }
            changed = join_core(p, parent);
            Py_DECREF(parent);
            if (changed < 0)
                return -1;
            if (changed && list_set_obj(snap_ok, ti, Py_False) < 0)
                return -1;
            if (bump_slot(fs, FS_JOINS, 2) < 0)
                return -1;
        }
    }
    *h_out = h;
    *p_out = p;
    return 0;
}

/* The per-event DC advance shared by the access and sync-op kernels:
 * values[ti] = t, the (uncounted) program-order edge from the thread's
 * previous event, a pending fork join plus its counted edge, then
 * last_event[ti] = eid — exactly EpochDCDetector._advance.  ebuf is
 * NULL when graph building is off.  On success *values_out receives a
 * borrowed reference kept alive by the clock table. */
static int
dc_advance(PyObject *fs, PyObject *clock_a, PyObject *clock_b,
           PyObject *pending_fork, PyObject *snap_ok, PyObject *ebuf,
           long T, long ti, PyObject *ti_obj, PyObject *t_obj,
           PyObject *eid_obj, PyObject **values_out)
{
    PyObject *values;

    values = list_get(clock_a, ti);
    if (values == NULL)
        return -1;
    if (values == Py_None) {
        values = zeros_list(T);
        if (values == NULL)
            return -1;
        if (PyList_SetItem(clock_a, ti, values) < 0)
            return -1;
    }
    if (!PyList_Check(values)) {
        PyErr_SetString(PyExc_TypeError, "clock must be a list");
        return -1;
    }
    if (list_set_obj(values, ti, t_obj) < 0)  /* values[ti] = t */
        return -1;
    if (ebuf != NULL) {
        /* Program order: read prev before last_event is overwritten. */
        PyObject *prev_obj = list_get(clock_b, ti);
        long prev;
        if (prev_obj == NULL)
            return -1;
        prev = PyLong_AsLong(prev_obj);
        if (prev == -1 && PyErr_Occurred())
            return -1;
        if (prev >= 0 && ebuf_push(ebuf, prev_obj, eid_obj) < 0)
            return -1;
    }
    if (PyDict_GET_SIZE(pending_fork) > 0) {
        PyObject *pending = PyDict_GetItemWithError(pending_fork, ti_obj);
        if (pending == NULL) {
            if (PyErr_Occurred())
                return -1;
        }
        else {
            int changed;
            if (!PyTuple_Check(pending) || PyTuple_GET_SIZE(pending) != 2) {
                PyErr_SetString(PyExc_TypeError,
                                "pending fork must be (eid, clock)");
                return -1;
            }
            Py_INCREF(pending);
            if (PyDict_DelItem(pending_fork, ti_obj) < 0) {
                Py_DECREF(pending);
                return -1;
            }
            changed = join_core(values, PyTuple_GET_ITEM(pending, 1));
            if (changed < 0) {
                Py_DECREF(pending);
                return -1;
            }
            if (changed && list_set_obj(snap_ok, ti, Py_False) < 0) {
                Py_DECREF(pending);
                return -1;
            }
            if (bump_slot(fs, FS_JOINS, 1) < 0) {
                Py_DECREF(pending);
                return -1;
            }
            if (ebuf != NULL &&
                    (ebuf_push(ebuf, PyTuple_GET_ITEM(pending, 0),
                               eid_obj) < 0 ||
                     bump_slot(fs, FS_GRAPH_EDGES, 1) < 0)) {
                Py_DECREF(pending);
                return -1;
            }
            Py_DECREF(pending);
        }
    }
    if (list_set_obj(clock_b, ti, eid_obj) < 0)  /* last_event[ti] = eid */
        return -1;
    *values_out = values;
    return 0;
}

static PyObject *
k_access_wcp(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *event, *ti_obj, *t_obj, *h, *p;
    access_ctx c;
    Py_ssize_t eid;
    long ti;
    int is_write, r;

    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "access_wcp expects (ctx, eid, is_write, event)");
        return NULL;
    }
    eid = PyLong_AsSsize_t(args[1]);
    if (eid == -1 && PyErr_Occurred())
        return NULL;
    is_write = PyObject_IsTrue(args[2]);
    if (is_write < 0)
        return NULL;
    event = args[3];
    if (unpack_access_ctx(args[0], &c) < 0)
        return NULL;
    ti_obj = list_get(c.tix, eid);
    if (ti_obj == NULL)
        return NULL;
    ti = PyLong_AsLong(ti_obj);
    if (ti == -1 && PyErr_Occurred())
        return NULL;
    t_obj = list_get(c.lt, eid);
    if (t_obj == NULL)
        return NULL;
    if (wcp_advance(c.fs, c.clock_a, c.clock_b, c.pending_fork, c.snap_ok,
                    c.T, ti, ti_obj, t_obj, &h, &p) < 0)
        return NULL;
    r = access_tail(&c, eid, is_write, event, ti_obj, ti, t_obj, p, NULL);
    if (r < 0)
        return NULL;
    return PyLong_FromLong(r);
}

static PyObject *
k_access_dc(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *event, *ti_obj, *t_obj, *values, *eid_obj;
    access_ctx c;
    Py_ssize_t eid;
    long ti;
    int is_write, r;

    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "access_dc expects (ctx, eid, is_write, event)");
        return NULL;
    }
    eid = PyLong_AsSsize_t(args[1]);
    if (eid == -1 && PyErr_Occurred())
        return NULL;
    is_write = PyObject_IsTrue(args[2]);
    if (is_write < 0)
        return NULL;
    event = args[3];
    if (unpack_access_ctx(args[0], &c) < 0)
        return NULL;
    ti_obj = list_get(c.tix, eid);
    if (ti_obj == NULL)
        return NULL;
    ti = PyLong_AsLong(ti_obj);
    if (ti == -1 && PyErr_Occurred())
        return NULL;
    t_obj = list_get(c.lt, eid);
    if (t_obj == NULL)
        return NULL;
    eid_obj = PyLong_FromSsize_t(eid);
    if (eid_obj == NULL)
        return NULL;
    if (dc_advance(c.fs, c.clock_a, c.clock_b, c.pending_fork, c.snap_ok,
                   c.ebuf, c.T, ti, ti_obj, t_obj, eid_obj, &values) < 0) {
        Py_DECREF(eid_obj);
        return NULL;
    }
    r = access_tail(&c, eid, is_write, event, ti_obj, ti, t_obj, values,
                    eid_obj);
    Py_DECREF(eid_obj);
    if (r < 0)
        return NULL;
    return PyLong_FromLong(r);
}

/* ------------------------------------------------------------------ */
/* Fused sync-op fast paths (acquire / release / fork / join)          */
/* ------------------------------------------------------------------ */

/* One call executes the entire on_acquire / on_release / on_fork /
 * on_join body of the epoch detectors: clock advance, lock-queue
 * rule (a)/(b) maintenance, CCS ownership tags, and H/P snapshot
 * recording.  Signature: kernel(sctx, eid).  The release kernels
 * return a status int — 0 handled, 1 no matching acquire (the caller
 * raises the reference exception); the others return None.
 *
 * sctx is built once per trace by the detector's _bind_sync:
 *   (fs, tix, lt, tgt, clock_a, clock_b, pending_fork, snap_ok,
 *    queues, lockq_cls, pending_vars, cs_writes, cs_reads,
 *    srcclocks_cls, nv, T, ebuf, lock_h, lock_p)
 * with clock_a/clock_b = (_h, _p) for WCP and (_values, _last_event)
 * for DC; ebuf is the DC edge buffer or None; lock_h/lock_p are the
 * WCP per-lock snapshot tables (None for DC). */

#define SYNC_CTX_SIZE 19

typedef struct {
    PyObject *fs, *tix, *lt, *tgt, *clock_a, *clock_b;
    PyObject *pending_fork, *snap_ok, *queues, *lockq_cls;
    PyObject *pending_vars, *cs_w, *cs_r, *srcclocks_cls;
    PyObject *ebuf;            /* NULL when graph building is off */
    PyObject *lock_h, *lock_p; /* NULL for DC */
    long nv, T;
} sync_ctx;

static int
unpack_sync_ctx(PyObject *ctx, sync_ctx *c)
{
    if (!PyTuple_Check(ctx) || PyTuple_GET_SIZE(ctx) != SYNC_CTX_SIZE) {
        PyErr_SetString(PyExc_TypeError, "bad sync kernel context");
        return -1;
    }
    c->fs = PyTuple_GET_ITEM(ctx, 0);
    c->tix = PyTuple_GET_ITEM(ctx, 1);
    c->lt = PyTuple_GET_ITEM(ctx, 2);
    c->tgt = PyTuple_GET_ITEM(ctx, 3);
    c->clock_a = PyTuple_GET_ITEM(ctx, 4);
    c->clock_b = PyTuple_GET_ITEM(ctx, 5);
    c->pending_fork = PyTuple_GET_ITEM(ctx, 6);
    c->snap_ok = PyTuple_GET_ITEM(ctx, 7);
    c->queues = PyTuple_GET_ITEM(ctx, 8);
    c->lockq_cls = PyTuple_GET_ITEM(ctx, 9);
    c->pending_vars = PyTuple_GET_ITEM(ctx, 10);
    c->cs_w = PyTuple_GET_ITEM(ctx, 11);
    c->cs_r = PyTuple_GET_ITEM(ctx, 12);
    c->srcclocks_cls = PyTuple_GET_ITEM(ctx, 13);
    c->nv = PyLong_AsLong(PyTuple_GET_ITEM(ctx, 14));
    c->T = PyLong_AsLong(PyTuple_GET_ITEM(ctx, 15));
    c->ebuf = PyTuple_GET_ITEM(ctx, 16);
    c->lock_h = PyTuple_GET_ITEM(ctx, 17);
    c->lock_p = PyTuple_GET_ITEM(ctx, 18);
    if ((c->nv == -1 || c->T == -1) && PyErr_Occurred())
        return -1;
    if (c->ebuf == Py_None)
        c->ebuf = NULL;
    else if (!PyList_Check(c->ebuf)) {
        PyErr_SetString(PyExc_TypeError, "bad sync kernel context");
        return -1;
    }
    if (c->lock_h == Py_None)
        c->lock_h = NULL;
    else if (!PyList_Check(c->lock_h)) {
        PyErr_SetString(PyExc_TypeError, "bad sync kernel context");
        return -1;
    }
    if (c->lock_p == Py_None)
        c->lock_p = NULL;
    else if (!PyList_Check(c->lock_p)) {
        PyErr_SetString(PyExc_TypeError, "bad sync kernel context");
        return -1;
    }
    if (!PyList_Check(c->fs) || PyList_GET_SIZE(c->fs) < FS_SLOTS ||
            !PyList_Check(c->tix) || !PyList_Check(c->lt) ||
            !PyList_Check(c->tgt) || !PyList_Check(c->clock_a) ||
            !PyList_Check(c->clock_b) || !PyDict_Check(c->pending_fork) ||
            !PyList_Check(c->snap_ok) || !PyList_Check(c->queues) ||
            !PyList_Check(c->pending_vars) || !PyDict_Check(c->cs_w) ||
            !PyDict_Check(c->cs_r)) {
        PyErr_SetString(PyExc_TypeError, "bad sync kernel context");
        return -1;
    }
    return 0;
}

/* Shared (ctx, eid) prologue: parse, unpack, and resolve the event's
 * thread index, local time, and role-specific target index. */
static int
sync_prologue(PyObject *const *args, Py_ssize_t nargs, const char *name,
              sync_ctx *c, Py_ssize_t *eid, PyObject **ti_obj, long *ti,
              PyObject **t_obj, PyObject **tgt_obj, long *target)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "%s expects (ctx, eid)", name);
        return -1;
    }
    *eid = PyLong_AsSsize_t(args[1]);
    if (*eid == -1 && PyErr_Occurred())
        return -1;
    if (unpack_sync_ctx(args[0], c) < 0)
        return -1;
    *ti_obj = list_get(c->tix, *eid);
    if (*ti_obj == NULL)
        return -1;
    *ti = PyLong_AsLong(*ti_obj);
    if (*ti == -1 && PyErr_Occurred())
        return -1;
    *t_obj = list_get(c->lt, *eid);
    if (*t_obj == NULL)
        return -1;
    *tgt_obj = list_get(c->tgt, *eid);
    if (*tgt_obj == NULL)
        return -1;
    *target = PyLong_AsLong(*tgt_obj);
    if (*target == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

/* queues[li], creating a DenseLockQueues on the first touch.  Returns
 * a borrowed reference kept alive by the queues list. */
static PyObject *
lockq_lazy(PyObject *queues, long li, PyObject *lockq_cls)
{
    PyObject *q = list_get(queues, (Py_ssize_t)li);
    if (q == NULL || q != Py_None)
        return q;
    q = PyObject_CallNoArgs(lockq_cls);
    if (q == NULL)
        return NULL;
    if (PyList_SetItem(queues, (Py_ssize_t)li, q) < 0)  /* steals q */
        return NULL;
    return q;
}

/* DenseLockQueues.on_acquire: append [acq_time, -1, -1, None] to the
 * thread's record queue and mark it as the open critical section. */
static int
lockq_on_acquire(PyObject *q, PyObject *ti_obj, PyObject *t_obj)
{
    PyObject *rec, *records = NULL, *recs;
    int ok = -1;

    rec = PyList_New(4);
    if (rec == NULL)
        return -1;
    Py_INCREF(t_obj);
    PyList_SET_ITEM(rec, 0, t_obj);
    Py_INCREF(long_neg1);
    PyList_SET_ITEM(rec, 1, long_neg1);
    Py_INCREF(long_neg1);
    PyList_SET_ITEM(rec, 2, long_neg1);
    Py_INCREF(Py_None);
    PyList_SET_ITEM(rec, 3, Py_None);
    records = PyObject_GetAttr(q, str_records);
    if (records == NULL)
        goto done;
    if (!PyDict_Check(records)) {
        PyErr_SetString(PyExc_TypeError, "records must be a dict");
        goto done;
    }
    recs = PyDict_GetItemWithError(records, ti_obj);
    if (recs == NULL) {
        if (PyErr_Occurred())
            goto done;
        recs = PyList_New(0);
        if (recs == NULL)
            goto done;
        if (PyDict_SetItem(records, ti_obj, recs) < 0) {
            Py_DECREF(recs);
            goto done;
        }
        Py_DECREF(recs);  /* the records dict keeps it alive */
    }
    if (PyList_Append(recs, rec) < 0)
        goto done;
    if (PyObject_SetAttr(q, str_open_ti, ti_obj) < 0)
        goto done;
    if (PyObject_SetAttr(q, str_open_rec, rec) < 0)
        goto done;
    ok = 0;
done:
    Py_XDECREF(records);
    Py_DECREF(rec);
    return ok;
}

/* DenseLockQueues.on_release: close the open record in place. */
static int
lockq_on_release(PyObject *q, PyObject *eid_obj, PyObject *t_obj,
                 PyObject *snapshot)
{
    PyObject *rec = PyObject_GetAttr(q, str_open_rec);
    if (rec == NULL)
        return -1;
    if (rec == Py_None) {
        Py_DECREF(rec);
        PyErr_SetString(PyExc_AssertionError,
                        "release without matching acquire");
        return -1;
    }
    if (!PyList_Check(rec) || PyList_GET_SIZE(rec) != 4) {
        Py_DECREF(rec);
        PyErr_SetString(PyExc_TypeError,
                        "rule (b) record must be a 4-list");
        return -1;
    }
    if (list_set_obj(rec, 1, eid_obj) < 0 ||
            list_set_obj(rec, 2, t_obj) < 0 ||
            list_set_obj(rec, 3, snapshot) < 0) {
        Py_DECREF(rec);
        return -1;
    }
    Py_DECREF(rec);
    if (PyObject_SetAttr(q, str_open_ti, long_neg1) < 0)
        return -1;
    return PyObject_SetAttr(q, str_open_rec, Py_None);
}

/* The observer's rule (b) cursor map: q.cursors.setdefault(ti, {}).
 * Returns a new reference. */
static PyObject *
lockq_cursors_for(PyObject *q, PyObject *ti_obj)
{
    PyObject *cursors, *cur;

    cursors = PyObject_GetAttr(q, str_cursors);
    if (cursors == NULL)
        return NULL;
    if (!PyDict_Check(cursors)) {
        Py_DECREF(cursors);
        PyErr_SetString(PyExc_TypeError, "cursors must be a dict");
        return NULL;
    }
    cur = PyDict_GetItemWithError(cursors, ti_obj);
    if (cur == NULL) {
        if (PyErr_Occurred()) {
            Py_DECREF(cursors);
            return NULL;
        }
        cur = PyDict_New();
        if (cur == NULL || PyDict_SetItem(cursors, ti_obj, cur) < 0) {
            Py_XDECREF(cur);
            Py_DECREF(cursors);
            return NULL;
        }
    }
    else {
        Py_INCREF(cur);
    }
    Py_DECREF(cursors);
    return cur;
}

/* Record one pending rule-(a) variable set into a conflicting
 * critical-section table: for every variable in the set (iterated in
 * the set's own order, identical to the reference for-loop over the
 * same set object), (re-)insert `rec` as thread ti's latest entry of
 * table_map[li * nv + vi], creating the DenseSourceClocks lazily. */
static int
record_vars_into(PyObject *vars_set, PyObject *table_map, long li, long nv,
                 PyObject *srcclocks_cls, PyObject *ti_obj, PyObject *rec)
{
    PyObject *it, *vi_obj;

    it = PyObject_GetIter(vars_set);
    if (it == NULL)
        return -1;
    while ((vi_obj = PyIter_Next(it)) != NULL) {
        long vi = PyLong_AsLong(vi_obj);
        PyObject *key, *table, *entries;

        if (vi == -1 && PyErr_Occurred())
            goto item_error;
        key = PyLong_FromLong(li * nv + vi);
        if (key == NULL)
            goto item_error;
        table = PyDict_GetItemWithError(table_map, key);
        if (table == NULL) {
            if (PyErr_Occurred()) {
                Py_DECREF(key);
                goto item_error;
            }
            table = PyObject_CallNoArgs(srcclocks_cls);
            if (table == NULL) {
                Py_DECREF(key);
                goto item_error;
            }
            if (PyDict_SetItem(table_map, key, table) < 0) {
                Py_DECREF(key);
                Py_DECREF(table);
                goto item_error;
            }
            Py_DECREF(table);  /* the table map keeps it alive */
        }
        Py_DECREF(key);
        entries = PyObject_GetAttr(table, str_entries);
        if (entries == NULL)
            goto item_error;
        if (record_latest_core(entries, ti_obj, rec) < 0) {
            Py_DECREF(entries);
            goto item_error;
        }
        Py_DECREF(entries);
        Py_DECREF(vi_obj);
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? -1 : 0;
item_error:
    Py_DECREF(vi_obj);
    Py_DECREF(it);
    return -1;
}

/* The pending rule-(a) recording at a release: pop this lock's
 * (reads, writes) variable sets for the releasing thread and record
 * the release snapshot — written vars into cs_writes first, then read
 * vars into cs_reads, matching the reference order. */
static int
release_record_pending(sync_ctx *c, long li, PyObject *li_obj, long ti,
                       PyObject *ti_obj, PyObject *eid_obj,
                       PyObject *t_obj, PyObject *snapshot)
{
    PyObject *pend_map, *pending, *rec;
    int r = -1;

    pend_map = list_get(c->pending_vars, ti);
    if (pend_map == NULL)
        return -1;
    if (!PyDict_Check(pend_map)) {
        PyErr_SetString(PyExc_TypeError, "pending map must be a dict");
        return -1;
    }
    pending = PyDict_GetItemWithError(pend_map, li_obj);
    if (pending == NULL)
        return PyErr_Occurred() ? -1 : 0;
    Py_INCREF(pending);
    if (PyDict_DelItem(pend_map, li_obj) < 0) {
        Py_DECREF(pending);
        return -1;
    }
    if (!PyTuple_Check(pending) || PyTuple_GET_SIZE(pending) != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "pending entry must be a (reads, writes) pair");
        Py_DECREF(pending);
        return -1;
    }
    rec = PyTuple_Pack(3, eid_obj, t_obj, snapshot);
    if (rec == NULL) {
        Py_DECREF(pending);
        return -1;
    }
    if (record_vars_into(PyTuple_GET_ITEM(pending, 1), c->cs_w, li,
                         c->nv, c->srcclocks_cls, ti_obj, rec) == 0 &&
            record_vars_into(PyTuple_GET_ITEM(pending, 0), c->cs_r, li,
                             c->nv, c->srcclocks_cls, ti_obj, rec) == 0)
        r = 0;
    Py_DECREF(rec);
    Py_DECREF(pending);
    return r;
}

static PyObject *
k_acquire_wcp(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    sync_ctx c;
    Py_ssize_t eid;
    PyObject *ti_obj, *t_obj, *li_obj, *h, *p, *q, *lh;
    long ti, li;

    if (sync_prologue(args, nargs, "acquire_wcp", &c, &eid, &ti_obj, &ti,
                      &t_obj, &li_obj, &li) < 0)
        return NULL;
    if (c.lock_h == NULL || c.lock_p == NULL) {
        PyErr_SetString(PyExc_TypeError, "bad sync kernel context");
        return NULL;
    }
    if (wcp_advance(c.fs, c.clock_a, c.clock_b, c.pending_fork, c.snap_ok,
                    c.T, ti, ti_obj, t_obj, &h, &p) < 0)
        return NULL;
    lh = list_get(c.lock_h, (Py_ssize_t)li);
    if (lh == NULL)
        return NULL;
    if (lh != Py_None) {
        PyObject *lp = list_get(c.lock_p, (Py_ssize_t)li);
        int changed;
        if (lp == NULL)
            return NULL;
        if (join_core(h, lh) < 0)
            return NULL;
        changed = join_core(p, lp);  /* right HB composition */
        if (changed < 0)
            return NULL;
        if (changed && list_set_obj(c.snap_ok, ti, Py_False) < 0)
            return NULL;
        if (bump_slot(c.fs, FS_JOINS, 2) < 0)
            return NULL;
    }
    q = lockq_lazy(c.queues, li, c.lockq_cls);
    if (q == NULL || lockq_on_acquire(q, ti_obj, t_obj) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
k_release_wcp(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    sync_ctx c;
    Py_ssize_t eid;
    PyObject *ti_obj, *t_obj, *li_obj, *h, *p, *q;
    PyObject *cursors, *records, *h_snapshot, *eid_obj = NULL, *p_copy;
    long ti, li;
    int joined;

    if (sync_prologue(args, nargs, "release_wcp", &c, &eid, &ti_obj, &ti,
                      &t_obj, &li_obj, &li) < 0)
        return NULL;
    if (c.lock_h == NULL || c.lock_p == NULL) {
        PyErr_SetString(PyExc_TypeError, "bad sync kernel context");
        return NULL;
    }
    if (wcp_advance(c.fs, c.clock_a, c.clock_b, c.pending_fork, c.snap_ok,
                    c.T, ti, ti_obj, t_obj, &h, &p) < 0)
        return NULL;
    q = list_get(c.queues, (Py_ssize_t)li);
    if (q == NULL)
        return NULL;
    if (q == Py_None)  /* no matching acquire: caller raises KeyError */
        return PyLong_FromLong(1);
    cursors = lockq_cursors_for(q, ti_obj);
    if (cursors == NULL)
        return NULL;
    records = PyObject_GetAttr(q, str_records);
    if (records == NULL) {
        Py_DECREF(cursors);
        return NULL;
    }
    joined = rule_b_core(records, cursors, p, NULL);
    Py_DECREF(records);
    Py_DECREF(cursors);
    if (joined < 0)
        return NULL;
    if (joined && list_set_obj(c.snap_ok, ti, Py_False) < 0)
        return NULL;
    h_snapshot = PyList_GetSlice(h, 0, PyList_GET_SIZE(h));
    if (h_snapshot == NULL)
        return NULL;
    eid_obj = PyLong_FromSsize_t(eid);
    if (eid_obj == NULL)
        goto error;
    if (release_record_pending(&c, li, li_obj, ti, ti_obj, eid_obj,
                               t_obj, h_snapshot) < 0)
        goto error;
    if (lockq_on_release(q, eid_obj, t_obj, h_snapshot) < 0)
        goto error;
    if (list_set_obj(c.lock_h, (Py_ssize_t)li, h_snapshot) < 0)
        goto error;
    p_copy = PyList_GetSlice(p, 0, PyList_GET_SIZE(p));
    if (p_copy == NULL)
        goto error;
    if (PyList_SetItem(c.lock_p, (Py_ssize_t)li, p_copy) < 0)  /* steals */
        goto error;
    Py_DECREF(eid_obj);
    Py_DECREF(h_snapshot);
    return PyLong_FromLong(0);
error:
    Py_XDECREF(eid_obj);
    Py_DECREF(h_snapshot);
    return NULL;
}

static PyObject *
k_fork_wcp(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    sync_ctx c;
    Py_ssize_t eid;
    PyObject *ti_obj, *t_obj, *tgt_obj, *h, *p, *h_copy;
    long ti, ci;

    if (sync_prologue(args, nargs, "fork_wcp", &c, &eid, &ti_obj, &ti,
                      &t_obj, &tgt_obj, &ci) < 0)
        return NULL;
    if (wcp_advance(c.fs, c.clock_a, c.clock_b, c.pending_fork, c.snap_ok,
                    c.T, ti, ti_obj, t_obj, &h, &p) < 0)
        return NULL;
    h_copy = PyList_GetSlice(h, 0, PyList_GET_SIZE(h));
    if (h_copy == NULL)
        return NULL;
    if (PyDict_SetItem(c.pending_fork, tgt_obj, h_copy) < 0) {
        Py_DECREF(h_copy);
        return NULL;
    }
    Py_DECREF(h_copy);
    Py_RETURN_NONE;
}

static PyObject *
k_join_wcp(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    sync_ctx c;
    Py_ssize_t eid;
    PyObject *ti_obj, *t_obj, *tgt_obj, *h, *p, *parent, *child_h;
    long ti, ci;
    int changed;

    if (sync_prologue(args, nargs, "join_wcp", &c, &eid, &ti_obj, &ti,
                      &t_obj, &tgt_obj, &ci) < 0)
        return NULL;
    if (wcp_advance(c.fs, c.clock_a, c.clock_b, c.pending_fork, c.snap_ok,
                    c.T, ti, ti_obj, t_obj, &h, &p) < 0)
        return NULL;
    parent = PyDict_GetItemWithError(c.pending_fork, tgt_obj);
    if (parent == NULL) {
        if (PyErr_Occurred())
            return NULL;
    }
    else {
        /* Child never executed an event: the fork ordering still flows
         * through the (empty) child into the join. */
        Py_INCREF(parent);
        if (PyDict_DelItem(c.pending_fork, tgt_obj) < 0 ||
                join_core(h, parent) < 0) {
            Py_DECREF(parent);
            return NULL;
        }
        changed = join_core(p, parent);
        Py_DECREF(parent);
        if (changed < 0)
            return NULL;
        if (changed && list_set_obj(c.snap_ok, ti, Py_False) < 0)
            return NULL;
        if (bump_slot(c.fs, FS_JOINS, 2) < 0)
            return NULL;
    }
    child_h = list_get(c.clock_a, (Py_ssize_t)ci);
    if (child_h == NULL)
        return NULL;
    if (child_h != Py_None) {
        PyObject *child_p = list_get(c.clock_b, (Py_ssize_t)ci);
        if (child_p == NULL)
            return NULL;
        if (join_core(h, child_h) < 0)
            return NULL;
        changed = join_core(p, child_h);
        if (changed < 0)
            return NULL;
        if (changed && list_set_obj(c.snap_ok, ti, Py_False) < 0)
            return NULL;
        if (bump_slot(c.fs, FS_JOINS, 2) < 0)
            return NULL;
        (void)child_p;
    }
    Py_RETURN_NONE;
}

static PyObject *
k_acquire_dc(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    sync_ctx c;
    Py_ssize_t eid;
    PyObject *ti_obj, *t_obj, *li_obj, *values, *eid_obj, *q, *owner_obj;
    long ti, li, owner;

    if (sync_prologue(args, nargs, "acquire_dc", &c, &eid, &ti_obj, &ti,
                      &t_obj, &li_obj, &li) < 0)
        return NULL;
    eid_obj = PyLong_FromSsize_t(eid);
    if (eid_obj == NULL)
        return NULL;
    if (dc_advance(c.fs, c.clock_a, c.clock_b, c.pending_fork, c.snap_ok,
                   c.ebuf, c.T, ti, ti_obj, t_obj, eid_obj, &values) < 0)
        goto error;
    q = lockq_lazy(c.queues, li, c.lockq_cls);
    if (q == NULL || lockq_on_acquire(q, ti_obj, t_obj) < 0)
        goto error;
    /* No synchronisation-order join (DC departs from HB/WCP here);
     * track single-ownership for the rule (b) skip. */
    owner_obj = PyObject_GetAttr(q, str_owner);
    if (owner_obj == NULL)
        goto error;
    owner = PyLong_AsLong(owner_obj);
    Py_DECREF(owner_obj);
    if (owner == -1 && PyErr_Occurred())
        goto error;
    if (owner != ti) {
        if (owner == -1) {
            if (PyObject_SetAttr(q, str_owner, ti_obj) < 0)
                goto error;
        }
        else {
            if (owner >= 0 &&
                    bump_slot(c.fs, FS_LOCK_TRANSFERS, 1) < 0)
                goto error;
            if (PyObject_SetAttr(q, str_owner, long_neg2) < 0)
                goto error;
        }
    }
    Py_DECREF(eid_obj);
    Py_RETURN_NONE;
error:
    Py_DECREF(eid_obj);
    return NULL;
}

static PyObject *
k_release_dc(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    sync_ctx c;
    Py_ssize_t eid;
    PyObject *ti_obj, *t_obj, *li_obj, *values, *eid_obj, *q, *attr;
    PyObject *snapshot = NULL;
    long ti, li, open_ti, owner;

    if (sync_prologue(args, nargs, "release_dc", &c, &eid, &ti_obj, &ti,
                      &t_obj, &li_obj, &li) < 0)
        return NULL;
    eid_obj = PyLong_FromSsize_t(eid);
    if (eid_obj == NULL)
        return NULL;
    if (dc_advance(c.fs, c.clock_a, c.clock_b, c.pending_fork, c.snap_ok,
                   c.ebuf, c.T, ti, ti_obj, t_obj, eid_obj, &values) < 0)
        goto error;
    q = list_get(c.queues, (Py_ssize_t)li);
    if (q == NULL)
        goto error;
    if (q == Py_None)
        goto unmatched;
    attr = PyObject_GetAttr(q, str_open_ti);
    if (attr == NULL)
        goto error;
    open_ti = PyLong_AsLong(attr);
    Py_DECREF(attr);
    if (open_ti == -1 && PyErr_Occurred())
        goto error;
    if (open_ti != ti)
        goto unmatched;
    attr = PyObject_GetAttr(q, str_owner);
    if (attr == NULL)
        goto error;
    owner = PyLong_AsLong(attr);
    Py_DECREF(attr);
    if (owner == -1 && PyErr_Occurred())
        goto error;
    if (owner == ti) {
        /* Ownership fast path: every record is the releasing thread's
         * own, so the reference walk would join nothing. */
        if (bump_slot(c.fs, FS_RULE_B_SKIPS, 1) < 0)
            goto error;
    }
    else {
        PyObject *cursors, *records, *srcs = NULL;
        int joined;
        cursors = lockq_cursors_for(q, ti_obj);
        if (cursors == NULL)
            goto error;
        records = PyObject_GetAttr(q, str_records);
        if (records == NULL) {
            Py_DECREF(cursors);
            goto error;
        }
        joined = rule_b_core(records, cursors, values,
                             c.ebuf == NULL ? NULL : &srcs);
        Py_DECREF(records);
        Py_DECREF(cursors);
        if (joined < 0) {
            Py_XDECREF(srcs);
            goto error;
        }
        if (joined && list_set_obj(c.snap_ok, ti, Py_False) < 0) {
            Py_XDECREF(srcs);
            goto error;
        }
        if (srcs != NULL) {
            Py_ssize_t k, n = PyList_GET_SIZE(srcs);
            for (k = 0; k < n; k++) {
                if (ebuf_push(c.ebuf, PyList_GET_ITEM(srcs, k),
                              eid_obj) < 0) {
                    Py_DECREF(srcs);
                    goto error;
                }
            }
            if (n > 0 && bump_slot(c.fs, FS_GRAPH_EDGES, (long)n) < 0) {
                Py_DECREF(srcs);
                goto error;
            }
            Py_DECREF(srcs);
        }
    }
    snapshot = PyList_GetSlice(values, 0, PyList_GET_SIZE(values));
    if (snapshot == NULL)
        goto error;
    if (release_record_pending(&c, li, li_obj, ti, ti_obj, eid_obj,
                               t_obj, snapshot) < 0)
        goto error;
    if (lockq_on_release(q, eid_obj, t_obj, snapshot) < 0)
        goto error;
    Py_DECREF(snapshot);
    Py_DECREF(eid_obj);
    return PyLong_FromLong(0);
unmatched:
    /* No matching acquire by this thread: the caller raises the
     * reference MalformedTraceError (the clock advance above already
     * happened, exactly as in the open-coded path). */
    Py_DECREF(eid_obj);
    return PyLong_FromLong(1);
error:
    Py_XDECREF(snapshot);
    Py_DECREF(eid_obj);
    return NULL;
}

static PyObject *
k_fork_dc(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    sync_ctx c;
    Py_ssize_t eid;
    PyObject *ti_obj, *t_obj, *tgt_obj, *values, *eid_obj, *copy, *pair;
    long ti, ci;

    if (sync_prologue(args, nargs, "fork_dc", &c, &eid, &ti_obj, &ti,
                      &t_obj, &tgt_obj, &ci) < 0)
        return NULL;
    eid_obj = PyLong_FromSsize_t(eid);
    if (eid_obj == NULL)
        return NULL;
    if (dc_advance(c.fs, c.clock_a, c.clock_b, c.pending_fork, c.snap_ok,
                   c.ebuf, c.T, ti, ti_obj, t_obj, eid_obj, &values) < 0) {
        Py_DECREF(eid_obj);
        return NULL;
    }
    copy = PyList_GetSlice(values, 0, PyList_GET_SIZE(values));
    if (copy == NULL) {
        Py_DECREF(eid_obj);
        return NULL;
    }
    pair = PyTuple_Pack(2, eid_obj, copy);
    Py_DECREF(copy);
    Py_DECREF(eid_obj);
    if (pair == NULL)
        return NULL;
    if (PyDict_SetItem(c.pending_fork, tgt_obj, pair) < 0) {
        Py_DECREF(pair);
        return NULL;
    }
    Py_DECREF(pair);
    Py_RETURN_NONE;
}

static PyObject *
k_join_dc(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    sync_ctx c;
    Py_ssize_t eid;
    PyObject *ti_obj, *t_obj, *tgt_obj, *values, *eid_obj;
    PyObject *pending, *child_values;
    long ti, ci;
    int changed;

    if (sync_prologue(args, nargs, "join_dc", &c, &eid, &ti_obj, &ti,
                      &t_obj, &tgt_obj, &ci) < 0)
        return NULL;
    eid_obj = PyLong_FromSsize_t(eid);
    if (eid_obj == NULL)
        return NULL;
    if (dc_advance(c.fs, c.clock_a, c.clock_b, c.pending_fork, c.snap_ok,
                   c.ebuf, c.T, ti, ti_obj, t_obj, eid_obj, &values) < 0)
        goto error;
    pending = PyDict_GetItemWithError(c.pending_fork, tgt_obj);
    if (pending == NULL) {
        if (PyErr_Occurred())
            goto error;
    }
    else {
        /* Child never executed an event: the fork ordering still flows
         * through the (empty) child into the join. */
        if (!PyTuple_Check(pending) || PyTuple_GET_SIZE(pending) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "pending fork must be (eid, clock)");
            goto error;
        }
        Py_INCREF(pending);
        if (PyDict_DelItem(c.pending_fork, tgt_obj) < 0) {
            Py_DECREF(pending);
            goto error;
        }
        changed = join_core(values, PyTuple_GET_ITEM(pending, 1));
        if (changed < 0) {
            Py_DECREF(pending);
            goto error;
        }
        if (changed && list_set_obj(c.snap_ok, ti, Py_False) < 0) {
            Py_DECREF(pending);
            goto error;
        }
        if (bump_slot(c.fs, FS_JOINS, 1) < 0) {
            Py_DECREF(pending);
            goto error;
        }
        if (c.ebuf != NULL &&
                (ebuf_push(c.ebuf, PyTuple_GET_ITEM(pending, 0),
                           eid_obj) < 0 ||
                 bump_slot(c.fs, FS_GRAPH_EDGES, 1) < 0)) {
            Py_DECREF(pending);
            goto error;
        }
        Py_DECREF(pending);
    }
    child_values = list_get(c.clock_a, (Py_ssize_t)ci);
    if (child_values == NULL)
        goto error;
    if (child_values != Py_None) {
        PyObject *child_last_obj;
        long child_last;
        changed = join_core(values, child_values);
        if (changed < 0)
            goto error;
        if (changed && list_set_obj(c.snap_ok, ti, Py_False) < 0)
            goto error;
        if (bump_slot(c.fs, FS_JOINS, 1) < 0)
            goto error;
        child_last_obj = list_get(c.clock_b, (Py_ssize_t)ci);
        if (child_last_obj == NULL)
            goto error;
        child_last = PyLong_AsLong(child_last_obj);
        if (child_last == -1 && PyErr_Occurred())
            goto error;
        if (child_last >= 0 && c.ebuf != NULL &&
                (ebuf_push(c.ebuf, child_last_obj, eid_obj) < 0 ||
                 bump_slot(c.fs, FS_GRAPH_EDGES, 1) < 0))
            goto error;
    }
    Py_DECREF(eid_obj);
    Py_RETURN_NONE;
error:
    Py_DECREF(eid_obj);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Module plumbing                                                     */
/* ------------------------------------------------------------------ */
static PyMethodDef kernel_methods[] = {
    {"join_into_list", k_join_into_list, METH_VARARGS,
     "In-place pointwise max: dst[i] = max(dst[i], src[i])."},
    {"join_into_list_changed", k_join_into_list_changed, METH_VARARGS,
     "join_into_list that also reports whether dst grew."},
    {"record_latest", k_record_latest, METH_VARARGS,
     "(Re-)insert table[key] = value at the end of the table."},
    {"source_join_into", k_source_join_into, METH_VARARGS,
     "Dense rule (a) edge-minimised source-clock join."},
    {"gated_scan", k_gated_scan, METH_VARARGS,
     "SmartTrack gated race scan over dense access maps."},
    {"scan_racing_sparse", k_scan_racing_sparse, METH_VARARGS,
     "Sparse access-history race scan (Detector.check_access)."},
    {"access_wcp", (PyCFunction)(void (*)(void))k_access_wcp, METH_FASTCALL,
     "Fused EpochWCPDetector per-access fast path."},
    {"access_dc", (PyCFunction)(void (*)(void))k_access_dc, METH_FASTCALL,
     "Fused EpochDCDetector per-access fast path (graph building off)."},
    {"acquire_wcp", (PyCFunction)(void (*)(void))k_acquire_wcp,
     METH_FASTCALL, "Fused EpochWCPDetector on_acquire."},
    {"release_wcp", (PyCFunction)(void (*)(void))k_release_wcp,
     METH_FASTCALL, "Fused EpochWCPDetector on_release (returns status)."},
    {"fork_wcp", (PyCFunction)(void (*)(void))k_fork_wcp,
     METH_FASTCALL, "Fused EpochWCPDetector on_fork."},
    {"join_wcp", (PyCFunction)(void (*)(void))k_join_wcp,
     METH_FASTCALL, "Fused EpochWCPDetector on_join."},
    {"acquire_dc", (PyCFunction)(void (*)(void))k_acquire_dc,
     METH_FASTCALL, "Fused EpochDCDetector on_acquire."},
    {"release_dc", (PyCFunction)(void (*)(void))k_release_dc,
     METH_FASTCALL, "Fused EpochDCDetector on_release (returns status)."},
    {"fork_dc", (PyCFunction)(void (*)(void))k_fork_dc,
     METH_FASTCALL, "Fused EpochDCDetector on_fork."},
    {"join_dc", (PyCFunction)(void (*)(void))k_join_dc,
     METH_FASTCALL, "Fused EpochDCDetector on_join."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    "repro.core._kernels",
    "Compiled clock kernels (the native backend of repro.core.kernels).",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
#define INTERN(var, text)                                \
    do {                                                 \
        (var) = PyUnicode_InternFromString(text);        \
        if ((var) == NULL)                               \
            return NULL;                                 \
    } while (0)
    INTERN(str_tid, "tid");
    INTERN(str_eid, "eid");
    INTERN(str_entries, "entries");
    INTERN(str_owner, "owner");
    INTERN(str_xw_time, "xw_time");
    INTERN(str_xw_ev, "xw_ev");
    INTERN(str_xw_snap, "xw_snap");
    INTERN(str_xr_time, "xr_time");
    INTERN(str_xr_ev, "xr_ev");
    INTERN(str_xr_snap, "xr_snap");
    INTERN(str_records, "records");
    INTERN(str_cursors, "cursors");
    INTERN(str_open_ti, "open_ti");
    INTERN(str_open_rec, "open_rec");
#undef INTERN
    long_neg1 = PyLong_FromLong(-1);
    if (long_neg1 == NULL)
        return NULL;
    long_neg2 = PyLong_FromLong(-2);
    if (long_neg2 == NULL)
        return NULL;
    return PyModule_Create(&kernels_module);
}
