"""Timing spans and call counters installed around qodesign from outside.

The tracer wraps the public functions of each package module, and the
public methods of ``ModelDocument``, with spans (name, start, end,
parent) kept in memory.  The four hot ``Quantale`` methods and
``LaxMap.__call__`` get plain counters instead, because a span per call
would cost more than the call itself.  ``install`` replaces every module
or class attribute that refers to a wrapped function, including the
re-exports in ``qodesign/__init__.py``, and ``Tracer.restore`` puts each
original object back.  Nothing under ``src/`` is edited.

Self time of a span is its duration minus the durations of its direct
children.  Calls are strictly nested on one thread, so children never
overlap and this equals the part of the interval no child covers.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = (
    "quantales",
    "categories",
    "problems",
    "fastpath",
    "lax",
    "model",
    "cli",
    "casestudies",
)

# Module name (relative to the package) -> layer.
MODULE_LAYER = {
    "quantales": "quantales",
    "categories": "categories",
    "problems": "problems",
    "_fastpath": "fastpath",
    "lax": "lax",
    "model.parser": "model",
    "model.documents": "model",
    "cli": "cli",
    "casestudies.uav": "casestudies",
    "casestudies.tracking": "casestudies",
    "casestudies.report": "casestudies",
    "casestudies.export": "casestudies",
}

COUNTED_QUANTALE_METHODS = ("normalize", "mult", "leq", "join")
KERNELS = ("series_product", "category_violation", "bimodule_violation", "trace_values")
# Functions counted but not spanned: cheap and called once per operator.
COUNT_ONLY = ("fastpath.mode_for",)

_ERR_ATTR = "_perfbench_layers"


@dataclass
class Record:
    """Spans and counters of one traced region."""

    names: list = field(default_factory=list)  # span name per function id
    layers: list = field(default_factory=list)  # layer per function id
    fid: list = field(default_factory=list)
    start: list = field(default_factory=list)
    end: list = field(default_factory=list)
    parent: list = field(default_factory=list)
    current: int = -1
    counts: dict = field(default_factory=dict)
    errors: dict = field(default_factory=lambda: {layer: 0 for layer in LAYERS})

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def note_error(self, layer, exc):
        # An exception crossing several wrappers of one layer counts once.
        seen = getattr(exc, _ERR_ATTR, None)
        if seen is None:
            seen = set()
            try:
                setattr(exc, _ERR_ATTR, seen)
            except AttributeError:
                pass
        if layer not in seen:
            seen.add(layer)
            self.errors[layer] += 1


def self_times(durations, parents):
    """Self time per span: its duration minus its direct children's."""
    child = [0] * len(durations)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += durations[i]
    return [d - c for d, c in zip(durations, child)]


def self_time_by_name(rec: Record) -> dict:
    """Seconds of self time per span name, summed over all its spans."""
    durations = [e - s for s, e in zip(rec.start, rec.end)]
    out = {}
    for i, st in enumerate(self_times(durations, rec.parent)):
        name = rec.names[rec.fid[i]]
        out[name] = out.get(name, 0) + st
    return {k: v / 1e9 for k, v in out.items()}


# -- hooks run after a wrapped call returns ---------------------------------


def _kernel_hook(name):
    def hook(rec, args, result):
        rec.add("fastpath.kernel_calls")
        if name == "series_product":
            a, b = args[1], args[2]
            ops = a.shape[0] * a.shape[1] * b.shape[1]
            moved = a.nbytes + b.nbytes + result.nbytes
        elif name == "category_violation":
            h = args[1]
            ops = h.shape[0] ** 3
            moved = 2 * h.nbytes
        elif name == "bimodule_violation":
            r, f, d = args[1], args[2], args[3]
            nr, nf = d.shape
            ops = nr * nf * nf + nr * nr * nf
            moved = r.nbytes + f.nbytes + 3 * d.nbytes
        else:
            d4, m = args[1], args[2]
            ops = d4.size
            moved = d4.nbytes + m.nbytes + result.nbytes
        rec.add("fastpath.kernel_ops", int(ops))
        rec.add("fastpath.kernel_bytes", int(moved))

    return hook


def _cells_hook(rec, args, result):
    values = getattr(result, "values", None)
    if values is not None and hasattr(result, "source"):
        rec.add("problems.cells_out", len(result.source.objects) * len(result.target.objects))


def _tensor_hook(rec, args, result):
    rec.add("categories.tensor_cells", len(result.objects) ** 2)


def _mode_hook(rec, args, result):
    rec.add("fastpath.mode_calls")
    if result is None:
        rec.add("fastpath.fallback_calls")


def _hook_for(name):
    layer, _, fn = name.partition(".")
    if layer == "fastpath" and fn in KERNELS:
        return _kernel_hook(fn)
    if name == "fastpath.mode_for":
        return _mode_hook
    if name == "categories.tensor":
        return _tensor_hook
    if layer in ("problems", "lax"):
        return _cells_hook
    return None


# -- wrappers -----------------------------------------------------------------


def _span_wrapper(orig, fid, layer, rec, hook):
    now = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        parent = rec.current
        idx = len(rec.start)
        rec.fid.append(fid)
        rec.parent.append(parent)
        rec.start.append(now())
        rec.end.append(0)
        rec.current = idx
        try:
            result = orig(*args, **kwargs)
        except BaseException as exc:
            rec.note_error(layer, exc)
            raise
        finally:
            rec.end[idx] = now()
            rec.current = parent
        if hook is not None:
            hook(rec, args, result)
        return result

    return wrapper


def _count_wrapper(orig, layer, rec, key, hook=None):
    counts = rec.counts
    counts.setdefault(key, 0)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        try:
            result = orig(*args, **kwargs)
        except BaseException as exc:
            rec.note_error(layer, exc)
            raise
        if hook is not None:
            hook(rec, args, result)
        return result

    return wrapper


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == mod.__name__:
            yield name, obj


class Tracer:
    """Installs wrappers on import and remembers what to put back."""

    def __init__(self):
        self.record = Record()
        self._patched = []  # (owner, attribute, original)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        from qodesign.lax import LaxMap
        from qodesign.model.documents import ModelDocument
        from qodesign.quantales import Quantale

        rec = self.record
        replace = {}  # id(original) -> wrapper
        for rel, layer in MODULE_LAYER.items():
            mod = importlib.import_module(f"qodesign.{rel}")
            for name, fn in _public_functions(mod):
                span = f"{layer}.{name}"
                hook = _hook_for(span)
                if span in COUNT_ONLY:
                    replace[id(fn)] = (fn, _count_wrapper(fn, layer, rec, span, hook))
                    continue
                fid = len(rec.names)
                rec.names.append(span)
                rec.layers.append(layer)
                replace[id(fn)] = (fn, _span_wrapper(fn, fid, layer, rec, hook))
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "qodesign" or mname.startswith("qodesign.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])

        for name, fn in list(vars(ModelDocument).items()):
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            fid = len(rec.names)
            rec.names.append(f"model.ModelDocument.{name}")
            rec.layers.append("model")
            self._set(ModelDocument, name, _span_wrapper(fn, fid, "model", rec, None))
        for name in COUNTED_QUANTALE_METHODS:
            fn = vars(Quantale)[name]
            self._set(Quantale, name, _count_wrapper(fn, "quantales", rec, f"quantales.{name}_calls"))
        self._set(
            LaxMap, "__call__", _count_wrapper(vars(LaxMap)["__call__"], "lax", rec, "lax.map_calls")
        )
        return self

    def restore(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


def layer_summary(rec: Record) -> dict:
    """Raw per-layer figures of one record: self seconds, counts, errors."""
    by_name = self_time_by_name(rec)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, name in enumerate(rec.names):
        layer_self[rec.layers[i]] += by_name.get(name, 0.0)
    return {
        "self_s": by_name,
        "layer_self_s": layer_self,
        "counts": dict(rec.counts),
        "errors": dict(rec.errors),
        "spans": len(rec.start),
    }


def merge_summaries(parts) -> dict:
    """Sum several layer summaries (for example one per CLI process)."""
    out = {"self_s": {}, "layer_self_s": {layer: 0.0 for layer in LAYERS},
           "counts": {}, "errors": {layer: 0 for layer in LAYERS}, "spans": 0}
    for p in parts:
        for key in ("self_s", "layer_self_s", "counts", "errors"):
            for k, v in p[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["spans"] += p["spans"]
    return out


def _sum(self_s, names):
    return sum(self_s.get(n, 0.0) for n in names)


def per_layer_metrics(summary: dict) -> dict:
    """The benchmark's per-layer metrics from a (merged) layer summary."""
    s, c = summary["self_s"], summary["counts"]
    mode_calls = c.get("fastpath.mode_calls", 0)
    fallback = c.get("fastpath.fallback_calls", 0)
    doc = "model.ModelDocument."
    m = {
        "quantales.normalize_calls": (c.get("quantales.normalize_calls", 0), "count"),
        "quantales.mult_calls": (c.get("quantales.mult_calls", 0), "count"),
        "quantales.leq_calls": (c.get("quantales.leq_calls", 0), "count"),
        "quantales.join_calls": (c.get("quantales.join_calls", 0), "count"),
        "categories.build_category_s": (_sum(s, ["categories.build_category"]), "s"),
        "categories.tensor_s": (_sum(s, ["categories.tensor"]), "s"),
        "categories.tensor_cells": (c.get("categories.tensor_cells", 0), "count"),
        "categories.pushforward_s": (_sum(s, ["categories.pushforward"]), "s"),
        "categories.axioms_s": (_sum(s, ["categories.check_category_axioms"]), "s"),
        "problems.build_problem_s": (_sum(s, ["problems.build_problem"]), "s"),
        "problems.bimodule_s": (_sum(s, ["problems.check_bimodule"]), "s"),
        "problems.series_s": (_sum(s, ["problems.series"]), "s"),
        "problems.parallel_s": (_sum(s, ["problems.parallel"]), "s"),
        "problems.trace_s": (_sum(s, ["problems.trace"]), "s"),
        "problems.cells_out": (c.get("problems.cells_out", 0), "count"),
        "fastpath.kernel_s": (_sum(s, [f"fastpath.{k}" for k in KERNELS]), "s"),
        "fastpath.kernel_calls": (c.get("fastpath.kernel_calls", 0), "count"),
        "fastpath.kernel_ops": (c.get("fastpath.kernel_ops", 0), "count"),
        "fastpath.kernel_bytes": (c.get("fastpath.kernel_bytes", 0), "B"),
        "fastpath.encode_s": (_sum(s, ["fastpath.encode"]), "s"),
        "fastpath.decode_s": (_sum(s, ["fastpath.decode"]), "s"),
        "fastpath.fallback_calls": (fallback, "count"),
        "fastpath.fast_ratio": ((mode_calls - fallback) / mode_calls if mode_calls else 0.0, "ratio"),
        "lax.hetero_s": (_sum(s, ["lax.hetero_series", "lax.hetero_parallel", "lax.hetero_trace"]), "s"),
        "lax.map_calls": (c.get("lax.map_calls", 0), "count"),
        "model.compose_s": (_sum(s, [doc + "compose", doc + "run_query", doc + "run_sweep"]), "s"),
        "model.parse_s": (_sum(s, ["model.tokenize", "model.parse_model"]), "s"),
        "model.build_document_s": (_sum(s, ["model.build_document", "model.loads", "model.load_model"]), "s"),
        "model.render_s": (_sum(s, [doc + "render"]), "s"),
        "cli.import_s": (c.get("cli.import_ns", 0) / 1e9, "s"),
        "cli.main_s": (_sum(s, ["cli.main"]), "s"),
        "casestudies.physics_s": (summary["layer_self_s"]["casestudies"], "s"),
    }
    for layer in LAYERS:
        if layer != "casestudies":  # its self time is physics_s above
            m[f"{layer}.self_s"] = (summary["layer_self_s"][layer], "s")
        m[f"{layer}.errors"] = (summary["errors"][layer], "count")
    return m
