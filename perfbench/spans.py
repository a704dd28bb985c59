"""Span tracing of winterdyn's layers, installed from outside the package.

`Tracer.install()` replaces every public function of the layer modules with a
wrapper that records one span per call: name, start, end, parent span and
whether the call raised.  Each function is wrapped under every name that
binds it, so `winterdyn.cli.psi_power_quad` is traced as well as
`winterdyn.evolution.psi_power_quad`; the binding module is kept with the
span, which lets `poles.b_evals` count only the b-evaluations made from the
pole solver.  Spans stay in memory; `layer_metrics` reduces them to the
per-layer metrics after the timed region.

Calls made on worker threads (the `pole_table` thread pool) start with an
empty stack; their parent is the innermost span open on the main thread,
which is the `pole_table` call waiting for them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from array import array

import numpy as np

LAYERS = ("spectrum", "poles", "quadrature", "evolution", "mixing", "cli")

# Public evolution functions of each of the three independent routes.
ROUTES = {
    "direct": ("direct_field", "psi_direct"),
    "exponential": (
        "exponential_field",
        "psi_exponential",
        "resonance_term_norm",
        "resonance_exponential_norm",
    ),
    "power": ("psi_power_quad", "power_field", "psi_power_asym", "asymptotic_field"),
}

BENCH = "bench"  # layer of the spans the benchmark opens around each task

# a per-crossing count and a per-call maximum; every other count, size and
# time is reported per task list
NOT_SUMMED = ("cli.crossings.probes", "evolution.direct.dense_bytes")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Sizes recorded from the arguments and result of a few functions.
_RECORDERS = {
    "direct_panel_nodes": lambda a, kw, r: (
        _arg(a, kw, 2, "n_panels"),
        len(r[0]) if r is not None else 0,
    ),
    "direct_field": lambda a, kw, r: (np.size(_arg(a, kw, 1, "x_grid")),),
    "atomic_write": lambda a, kw, r: (len(_arg(a, kw, 1, "text").encode()),),
    "find_crossings": lambda a, kw, r: (len(r) if r is not None else 0,),
}


class _Buffer:
    """Spans opened on one thread, in opening order."""

    def __init__(self):
        self.sid = array("q")
        self.key = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = bytearray()
        self.stack: list[int] = []  # open spans, as indices into this buffer


class Tracer:
    """Spans of one process.  Each thread appends to its own buffer, so the
    pool threads of `pole_table` never wait on each other to record."""

    def __init__(self):
        self.keys: list[tuple[str, str, str]] = []  # (layer, function, binder)
        self.values: dict[int, tuple] = {}  # span id -> recorded sizes
        self.norm_evals = 0  # curve evaluations made inside find_crossings
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._main = self._buffer()
        self._undo: list[tuple[object, str, object]] = []

    def key_id(self, key: tuple[str, str, str]) -> int:
        """Register a span name; call from the main thread only."""
        self.keys.append(key)
        return len(self.keys) - 1

    def _buffer(self) -> _Buffer:
        buf = self._local.__dict__.get("buf")
        if buf is None:
            buf = self._local.buf = _Buffer()
            self._buffers.append(buf)
        return buf

    def open(self, kid: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        if buf.stack:
            parent = buf.sid[buf.stack[-1]]
        elif buf is not self._main and self._main.stack:
            parent = self._main.sid[self._main.stack[-1]]
        else:
            parent = -1
        i = len(buf.sid)
        buf.sid.append(next(self._ids))
        buf.key.append(kid)
        buf.parent.append(parent)
        buf.raised.append(0)
        buf.end.append(0.0)
        buf.stack.append(i)
        buf.start.append(time.perf_counter())
        return buf, i

    def close(self, buf: _Buffer, i: int, raised: bool):
        buf.end[i] = time.perf_counter()
        buf.stack.pop()
        if raised:
            buf.raised[i] = 1

    def _wrap(self, fn, key):
        tracer = self
        kid = self.key_id(key)
        record = _RECORDERS.get(key[1])
        counts_curves = key[1] == "find_crossings"

        def counted(curve):
            def probe(t):
                tracer.norm_evals += 1
                return curve(t)

            return probe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_curves:
                args = (counted(args[0]), counted(args[1])) + args[2:]
            buf, i = tracer.open(kid)
            result, raised = None, True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                tracer.close(buf, i, raised)
                if record is not None:
                    tracer.values[buf.sid[i]] = record(args, kwargs, result)

        return wrapper

    def install(self):
        """Wrap every public function of the layer modules wherever it is bound."""
        modules = {name: importlib.import_module(f"winterdyn.{name}") for name in LAYERS}
        binders = dict(modules, winterdyn=importlib.import_module("winterdyn"))
        for layer, mod in modules.items():
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                for bname, bmod in binders.items():
                    for attr, val in list(vars(bmod).items()):
                        if val is fn:
                            setattr(bmod, attr, self._wrap(fn, (layer, fname, bname)))
                            self._undo.append((bmod, attr, fn))
        return self

    def uninstall(self):
        for bmod, attr, fn in reversed(self._undo):
            setattr(bmod, attr, fn)
        self._undo.clear()


# -- reduction -------------------------------------------------------------


def _union(s: np.ndarray, e: np.ndarray) -> float:
    """Total length covered by the intervals [s_i, e_i]."""
    if len(s) == 0:
        return 0.0
    order = np.argsort(s, kind="stable")
    s, e = s[order], e[order]
    reach = np.maximum.accumulate(e)
    lo = np.maximum(s[1:], reach[:-1])
    return float((e[0] - s[0]) + np.clip(e[1:] - lo, 0.0, None).sum())


def _self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the part of it that child spans cover."""
    n = len(start)
    dur = end - start
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=n)
    # children of one parent overlap only when they ran on pool threads;
    # those few parents get an exact union instead of the plain sum
    kids = np.flatnonzero(has)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    p, s, e = parent[order], start[order], end[order]
    overlap = (p[1:] == p[:-1]) & (s[1:] < e[:-1])
    for q in np.unique(p[1:][overlap]):
        sel = order[parent[order] == q]
        covered[q] = _union(start[sel], end[sel])
    return dur - covered


def layer_metrics(tr: Tracer, timed: list[tuple[float, float]], wall_s: float, cpu_s: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}, counts and times per task list.

    `timed` holds the (start, end) of each timed task list, `wall_s` their
    median duration and `cpu_s` the process CPU time spent inside them.
    """
    bufs = tr._buffers
    sid = np.concatenate([np.frombuffer(b.sid, dtype=np.int64) for b in bufs if len(b.sid)] or [[]])
    order = np.argsort(sid)  # span ids are 0..n-1, so this indexes by id
    n = len(sid)

    def merged(field, dtype):
        parts = [np.frombuffer(getattr(b, field), dtype=dtype) for b in bufs if len(b.sid)]
        return np.concatenate(parts)[order] if parts else np.zeros(0, dtype=dtype)

    start, end = merged("start", float), merged("end", float)
    parent = merged("parent", np.int64)
    raised = merged("raised", np.uint8).astype(bool)
    key = merged("key", np.int32)

    def by_key(f) -> np.ndarray:
        table = np.array([f(k) for k in tr.keys] or [False], dtype=bool)
        return table[key] if n else np.zeros(0, dtype=bool)

    def func(*names, binder=None):
        return by_key(lambda k: k[1] in names and (binder is None or k[2] == binder))

    def par(mask):  # mask evaluated at each span's parent (False at the root)
        out = np.zeros(n, dtype=bool)
        out[parent >= 0] = mask[parent[parent >= 0]]
        return out

    self_time = _self_times(start, end, parent)
    out: dict[str, tuple[float, str]] = {}

    def group(name, mask):
        outer = mask & ~par(mask)
        out[f"{name}.calls"] = (int(outer.sum()), "count")
        out[f"{name}.busy_s"] = (_union(start[outer], end[outer]), "s")
        out[f"{name}.self_s"] = (float(self_time[mask].sum()), "s")

    for layer in LAYERS:
        group(layer, by_key(lambda k, layer=layer: k[0] == layer))
    for route, names in ROUTES.items():
        group(f"evolution.{route}", by_key(lambda k, names=names: k[0] == "evolution" and k[1] in names))

    def values(name):
        return [(i, v) for i, v in tr.values.items() if tr.keys[key[i]][1] == name]

    out["poles.tables"] = (int(func("pole_table").sum()), "count")
    out["poles.poles_solved"] = (int((func("find_pole") & ~raised).sum()), "count")
    out["poles.b_evals"] = (int(func("coef_b", "coef_b_dk", binder="poles").sum()), "count")
    out["quadrature.refine_calls"] = (int(func("refine_edges").sum()), "count")
    panel_nodes = values("direct_panel_nodes")
    out["quadrature.direct_nodes"] = (sum(v[1] for _, v in panel_nodes), "count")

    quad = func("psi_power_quad")
    points = int(quad.sum())
    refines = int(func("refine_edges", binder="evolution").sum())
    out["evolution.power.points"] = (points, "count")
    out["evolution.power.refines_per_point"] = (refines / points if points else 0.0, "ratio")
    out["evolution.power.marginal_fallbacks"] = (
        int((quad & raised & (parent >= 0) & ~par(raised)).sum()),
        "count",
    )

    direct = func("direct_field")
    x_points = dict(values("direct_field"))
    panels = nodes = dense = 0
    for i, (n_panels, n_nodes) in panel_nodes:
        p = parent[i]
        if p >= 0 and direct[p]:
            panels += n_panels
            nodes += n_nodes
            dense = max(dense, n_nodes * x_points[p][0] * 16)
    out["evolution.direct.panels"] = (panels, "count")
    out["evolution.direct.nodes"] = (nodes, "count")
    out["evolution.direct.dense_bytes"] = (dense, "B")
    out["evolution.direct.failed"] = (int((direct & raised).sum()), "count")

    out["cli.bytes_written"] = (sum(v[0] for _, v in values("atomic_write")), "B")
    crossings = sum(v[0] for _, v in values("find_crossings"))
    out["cli.crossings.probes"] = (tr.norm_evals / crossings if crossings else 0.0, "count")

    bench = by_key(lambda k: k[0] == BENCH)
    top = ~bench & (par(bench) | (parent < 0))
    total = covered = 0.0
    for lo, hi in timed:
        sel = top & (end > lo) & (start < hi)
        total += hi - lo
        covered += _union(np.maximum(start[sel], lo), np.minimum(end[sel], hi))
    out["trace.uncovered_share"] = ((total - covered) / total if total else 0.0, "ratio")
    out["trace.spans"] = (n, "count")
    out["process.cpu_s"] = (cpu_s, "s")
    # a faster program fits more lists into a run: report per list
    for name, (value, unit) in out.items():
        if unit in ("count", "s", "B") and name not in NOT_SUMMED:
            out[name] = (value / len(timed), unit)
    out["trace.wall_s"] = (wall_s, "s")
    return out
