"""Model documents: registries, diagram evaluation, queries, rendering.

A ModelDocument holds named quantales, categories, lax maps, catalogs,
problems, diagrams (composition expressions), queries, and sweeps.  It
can be built programmatically through the add_* methods or from parsed
declarations via build_document / load_model.  render() emits canonical
model text that parses back to an equivalent document; rendering is
idempotent.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from ..categories import QCategory, build_category, chain_category, discrete_category
from ..categories import _category, _grid, _hom_array, _push, pushforward, tensor
from ..errors import CodesignError, ModelError
from ..lax import (
    Catalog,
    CatalogPart,
    LaxMap,
    builtin_lax,
    catalog_problem,
    check_lax,
    hetero_parallel,
    hetero_series,
    hetero_trace,
    implementation_series,
    pushforward_problem,
)
from ..problems import (
    DesignProblem,
    _terms,
    build_problem,
    identity_problem,
    parallel,
    series,
    trace,
)
from ..quantales import (
    Quantale,
    bool_quantale,
    compatible,
    cost_quantale,
    fuzz_quantale,
    make_powerset,
    make_product,
    nat_quantale,
    pace_quantale,
)
from ..values import QValue
from .parser import (
    DIAGRAM_OPS,
    CatalogDecl,
    CategoryDecl,
    DiagramDecl,
    MapDecl,
    ProblemDecl,
    QuantaleDecl,
    QueryDecl,
    SweepDecl,
    parse_model,
)

_PLAIN_NAME = re.compile(r"[A-Za-z0-9_.*+/][A-Za-z0-9_.*+/-]*")


def name_token(name: str) -> str:
    """Render a name as a bare word when possible, else quoted."""
    if _PLAIN_NAME.fullmatch(name) and "->" not in name:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


# ---------------------------------------------------------------------------
# payload conversion between value trees and quantale payloads


def _payload_from_tree(q: Quantale, tree, entity=None):
    tag, body, loc = tree

    def bad(msg):
        raise ModelError(msg, loc.line, loc.col, entity)

    if q.kind == "product":
        if tag != "tuple":
            bad(f"expected a tuple value for {q.name}")
        factors = q.params["factors"]
        if len(body) != len(factors):
            bad(f"expected {len(factors)} components, got {len(body)}")
        return tuple(
            _payload_from_tree(f, t, entity) for f, t in zip(factors, body)
        )
    if q.kind == "powerset":
        if tag != "set":
            bad(f"expected a set value like [a, b] for {q.name}")
        base = set(q.params["base"])
        for n in body:
            if n not in base:
                bad(f"{n!r} is not in the base of {q.name}")
        return frozenset(body)
    if tag != "atom":
        bad(f"expected a scalar value for {q.name}")
    text = body
    if q.kind == "bool":
        if text == "true":
            return True
        if text == "false":
            return False
        bad(f"expected true or false, found {text!r}")
    if q.kind in ("cost", "fuzz"):
        if text == "inf":
            val = math.inf
        else:
            try:
                val = float(text)
            except ValueError:
                bad(f"expected a number, found {text!r}")
        try:
            return q.normalize(val)
        except CodesignError as exc:
            bad(str(exc))
    if q.kind == "nat":
        if text == "inf":
            return math.inf
        try:
            return q.normalize(int(text))
        except (ValueError, CodesignError):
            bad(f"expected a natural number or inf, found {text!r}")
    if q.kind == "pace":
        if text in ("E", "C", "A", "P"):
            return text
        bad(f"expected one of E, C, A, P, found {text!r}")
    bad(f"no literal form for values of {q.name}")


def _value_text(q: Quantale, payload) -> str:
    if q.kind == "bool":
        return "true" if payload else "false"
    if q.kind == "powerset":
        return "[" + ", ".join(name_token(n) for n in sorted(payload)) + "]"
    if q.kind == "product":
        return (
            "("
            + ", ".join(
                _value_text(f, p) for f, p in zip(q.params["factors"], payload)
            )
            + ")"
        )
    return q.format_value(payload)


def _param_text(v) -> str:
    if isinstance(v, float):
        return q_float_text(v)
    return str(v)


def q_float_text(f: float) -> str:
    if f == math.inf:
        return "inf"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class QueryResult:
    diagram: str
    resource: str
    functionality: str
    value: QValue
    rendered: str
    breakdown: Optional[tuple] = None  # ((mid, rendered, payload), ...)

    def format(self, verbose: bool = False) -> str:
        lines = [
            f"diagram       {self.diagram}",
            f"resource      {self.resource}",
            f"functionality {self.functionality}",
            f"value         {self.rendered}",
        ]
        if verbose and self.breakdown is not None:
            lines.append("via:")
            for mid, rendered, _ in self.breakdown:
                lines.append(f"  {mid}: {rendered}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ResultTable:
    diagram: str
    rows: tuple
    cols: tuple
    cells: tuple  # payload matrix, row-major
    quantale: Quantale

    def _cell_text(self, payload, compact: bool) -> str:
        q = self.quantale
        if (
            compact
            and q.kind in ("cost", "fuzz")
            and isinstance(payload, float)
            and math.isfinite(payload)
        ):
            return f"{payload:.6g}"
        return _value_text(q, payload)

    def format_text(self) -> str:
        headers = [""] + [str(c) for c in self.cols]
        body = [
            [str(r)] + [self._cell_text(v, True) for v in row]
            for r, row in zip(self.rows, self.cells)
        ]
        widths = [
            max(len(line[i]) for line in [headers] + body)
            for i in range(len(headers))
        ]
        out = [f"sweep of {self.diagram}"]
        for line in [headers] + body:
            out.append("  ".join(s.rjust(w) for s, w in zip(line, widths)).rstrip())
        return "\n".join(out)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["resource"] + [str(c) for c in self.cols])
        for r, row in zip(self.rows, self.cells):
            writer.writerow([str(r)] + [self._cell_text(v, False) for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "diagram": self.diagram,
                "rows": list(self.rows),
                "cols": list(self.cols),
                "cells": [
                    [self._cell_text(v, False) for v in row] for row in self.cells
                ],
            },
            indent=2,
        )


@dataclass(frozen=True)
class NodeStat:
    op: str
    cut: int
    detail: str


@dataclass(frozen=True)
class QuerySpec:
    name: str
    diagram: str
    resource: str
    functionality: str


@dataclass(frozen=True)
class SweepSpec:
    name: str
    diagram: str


# ---------------------------------------------------------------------------
# the document


# Section name -> the ModelDocument attribute holding its registry.
_REGISTRIES = {
    "quantale": "quantales",
    "category": "categories",
    "map": "maps",
    "catalog": "catalogs",
    "problem": "problems",
    "diagram": "diagrams",
    "query": "queries",
    "sweep": "sweeps",
}


class _Op(NamedTuple):
    """How the document composes, measures and explains one operator.

    Each callable takes the node's resolved arguments in DIAGRAM_OPS order.
    """

    apply: Callable
    # the node's cut and what it counts; None for nodes without one
    cut: Optional[Callable] = None
    counts: str = ""
    # (quantale, a, b) of a node whose value at (r, f) joins a[r, m] * b[m, f],
    # arrays in the quantale's mode, over m; None for other nodes
    join: Optional[Callable] = None


# Rows call the operators through lambdas, so that they look each name up
# in this module when called: a wrapper installed on the module attribute
# (a profiler or tracer) then sees every composition.
_OPS = {
    "series": _Op(
        lambda *a: series(*a),
        lambda d1, d2: len(d1.target.objects),
        "interface objects",
        lambda d1, d2: (d1.quantale, _hom_array(d1), _hom_array(d2)),
    ),
    "parallel": _Op(
        lambda *a: parallel(*a), lambda *a: 1, "independent sides"
    ),
    "trace": _Op(
        lambda *a: trace(*a),
        lambda d, loop: len(d.source.objects),
        "looped source objects",
    ),
    "hetero_series": _Op(
        lambda *a: hetero_series(*a),
        lambda d1, d2, phi1, phi2: len(d1.target.objects),
        "interface objects",
        lambda d1, d2, phi1, phi2: (phi1.target, _push(d1, phi1), _push(d2, phi2)),
    ),
    "hetero_parallel": _Op(
        lambda *a: hetero_parallel(*a), lambda *a: 1, "independent sides"
    ),
    "hetero_trace": _Op(
        lambda *a: hetero_trace(*a),
        lambda d, loop, phi: len(d.source.objects),
        "looped source objects",
    ),
    "pushforward": _Op(lambda *a: pushforward_problem(*a)),
    "identity": _Op(lambda *a: identity_problem(*a)),
    "catalog_problem": _Op(lambda *a: catalog_problem(*a)),
    "implementation_series": _Op(
        lambda *a: implementation_series(*a),
        lambda first, second, requires, mid, provides: len(mid.objects),
        "interface objects",
    ),
}


class ModelDocument:
    """Named registries plus diagram evaluation with memoization."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.quantales = {}
        self.categories = {}
        self.maps = {}
        self.catalogs = {}
        self.problems = {}
        self.diagrams = {}
        self.queries = {}
        self.sweeps = {}
        self._qspec = {}
        self._cspec = {}
        self._psrc = {}
        self._order = []
        self._cache = {}

    # -- registration --------------------------------------------------------

    def _claim(self, section: str, name: str):
        if name in getattr(self, _REGISTRIES[section]):
            raise ModelError(f"duplicate {section} name {name!r}")
        self._order.append((section, name))
        self._cache.clear()

    def add_quantale(self, name: str, q: Quantale, spec: tuple = None):
        if spec is None:
            if q.kind in ("bool", "cost", "nat", "pace"):
                spec = (q.kind,)
            elif q.kind == "fuzz":
                spec = ("fuzz", q.params["tnorm"])
            elif q.kind == "powerset":
                spec = ("powerset",) + tuple(q.params["base"])
            else:
                raise ModelError(
                    f"quantale {name!r}: product quantales need an explicit "
                    "spec naming their registered factors"
                )
        self._claim("quantale", name)
        self.quantales[name] = q
        self._qspec[name] = spec
        return q

    def add_category(self, name: str, cat: QCategory, spec: tuple = ("table",)):
        self._claim("category", name)
        self.categories[name] = cat
        self._cspec[name] = spec
        return cat

    def add_tensor_category(self, name: str, a: str, b: str):
        ca = self._get("category", a)
        cb = self._get("category", b)
        cat = tensor(ca, cb, validate=False)
        return self.add_category(name, cat, ("tensor", a, b))

    def add_pushforward_category(self, name: str, base: str, map_name: str):
        c = self._get("category", base)
        phi = self._get("map", map_name)
        if not phi.is_certified_lax:
            raise ModelError(
                f"category {name!r}: map {map_name!r} is not certified lax; "
                "a pushforward category needs a lax or strict map"
            )
        cat = pushforward(c, phi, validate=False)
        return self.add_category(name, cat, ("pushforward", base, map_name))

    def add_map(self, name: str, phi: LaxMap):
        self._claim("map", name)
        self.maps[name] = phi
        return phi

    def add_catalog(self, name: str, cat: Catalog):
        self._claim("catalog", name)
        self.catalogs[name] = cat
        return cat

    def add_problem(
        self, name: str, d: DesignProblem, source: str = None, target: str = None
    ):
        if source is None:
            source = self._find_category(d.source, name, "source")
        if target is None:
            target = self._find_category(d.target, name, "target")
        for label, cname, cat in (
            ("source", source, d.source),
            ("target", target, d.target),
        ):
            reg = self._get("category", cname)
            if reg is not cat and not reg.same_interface(cat):
                raise ModelError(
                    f"problem {name!r}: {label} category {cname!r} does not "
                    "match the registered category of that name"
                )
        self._claim("problem", name)
        self.problems[name] = d
        self._psrc[name] = (source, target)
        return d

    def _find_category(self, cat: QCategory, pname: str, side: str) -> str:
        for n, c in self.categories.items():
            if c is cat:
                return n
        raise ModelError(
            f"problem {pname!r}: register its {side} category first or pass "
            f"{side}= explicitly"
        )

    def add_diagram(self, name: str, expr: tuple):
        expr = self._normalize_expr(expr)
        self._check_expr(expr, name)
        self._claim("diagram", name)
        self.diagrams[name] = expr
        return expr

    def _normalize_expr(self, expr):
        # Accept bare problem/diagram names in expression slots.
        if isinstance(expr, str):
            return ("ref", expr)
        if isinstance(expr, tuple) and expr and expr[0] in DIAGRAM_OPS:
            sig = DIAGRAM_OPS[expr[0]]
            if len(expr) == len(sig) + 1:
                return (expr[0],) + tuple(
                    self._normalize_expr(a) if slot == "expr" else a
                    for slot, a in zip(sig, expr[1:])
                )
        return expr

    def add_query(self, name: str, diagram: str, resource: str, functionality: str):
        self._ref_diagram(diagram)
        self._claim("query", name)
        self.queries[name] = QuerySpec(name, diagram, resource, functionality)

    def add_sweep(self, name: str, diagram: str):
        self._ref_diagram(diagram)
        self._claim("sweep", name)
        self.sweeps[name] = SweepSpec(name, diagram)

    # -- lookups --------------------------------------------------------------

    def _get(self, section: str, name: str):
        registry = getattr(self, _REGISTRIES[section])
        if name not in registry:
            known = ", ".join(sorted(registry)) or "none declared"
            raise ModelError(f"unknown {section} {name!r} (known: {known})")
        return registry[name]

    def _ref_diagram(self, name: str):
        if name not in self.problems:
            self._get("diagram", name)

    def _check_expr(self, expr, context: str):
        if not isinstance(expr, tuple) or not expr:
            raise ModelError(f"diagram {context!r}: malformed expression node")
        op = expr[0]
        if op == "ref":
            name = expr[1]
            if name not in self.problems and name not in self.diagrams:
                raise ModelError(
                    f"diagram {context!r} references unknown problem or "
                    f"diagram {name!r}"
                )
            return
        if op not in DIAGRAM_OPS:
            raise ModelError(f"diagram {context!r}: unknown operator {op!r}")
        sig = DIAGRAM_OPS[op]
        if len(expr) != len(sig) + 1:
            raise ModelError(
                f"diagram {context!r}: {op} takes {len(sig)} arguments"
            )
        for slot, arg in zip(sig, expr[1:]):
            if slot == "expr":
                self._check_expr(arg, context)
            else:
                self._get(slot, arg)

    # -- evaluation ------------------------------------------------------------

    def clear_cache(self):
        self._cache.clear()

    def compose(self, name: str) -> DesignProblem:
        """Evaluate a diagram (or bare problem) by name."""
        if name in self.problems and name not in self.diagrams:
            return self.problems[name]
        expr = self._get("diagram", name)
        return self._eval(expr)

    def diagram_stats(self, name: str):
        """Composition-node statistics: (stats, composed problem).

        The cut of a node is the cardinality it joins or loops over:
        interface objects for series, looped source objects for trace,
        interface objects for implementation_series, 1 for parallel.
        Nodes are listed in post-order, operands first.
        """
        if name in self.problems and name not in self.diagrams:
            return (), self.problems[name]
        expr = self._get("diagram", name)
        out = self._eval(expr)
        stats = []
        self._node_stats(expr, stats)
        return tuple(stats), out

    def _node_stats(self, expr, stats):
        """Append the NodeStat of each composition node under expr, reading
        operands from the cache that composing expr filled."""
        op = expr[0]
        if op == "ref":
            if expr[1] in self.diagrams:
                self._node_stats(self.diagrams[expr[1]], stats)
            return
        for slot, arg in zip(DIAGRAM_OPS[op], expr[1:]):
            if slot == "expr":
                self._node_stats(arg, stats)
        row = _OPS[op]
        if row.cut is not None:
            stats.append(NodeStat(op, row.cut(*self._args(expr)), row.counts))

    def _args(self, expr) -> tuple:
        """A node's arguments: subexpressions evaluated through the cache,
        names looked up in the section their slot names."""
        return tuple(
            self._eval(arg) if slot == "expr" else self._get(slot, arg)
            for slot, arg in zip(DIAGRAM_OPS[expr[0]], expr[1:])
        )

    def _eval(self, expr) -> DesignProblem:
        key = ("expr", expr)
        if key in self._cache:
            return self._cache[key]
        if expr[0] == "ref":
            name = expr[1]
            if name in self.diagrams:
                out = self._eval(self.diagrams[name])
            else:
                out = self.problems[name]
        else:
            out = _OPS[expr[0]].apply(*self._args(expr))
        self._cache[key] = out
        return out

    # -- queries and sweeps ------------------------------------------------------

    def run_query(
        self,
        name: str = None,
        diagram: str = None,
        resource: str = None,
        functionality: str = None,
        verbose: bool = False,
    ) -> QueryResult:
        if name is not None:
            spec = self._get("query", name)
            diagram, resource, functionality = (
                spec.diagram, spec.resource, spec.functionality,
            )
        if diagram is None or resource is None or functionality is None:
            raise ModelError(
                "a query needs a diagram, a resource, and a functionality"
            )
        d = self.compose(diagram)
        _check_member(d.source, resource, "resource")
        _check_member(d.target, functionality, "functionality")
        payload = d.value_payload(resource, functionality)
        breakdown = None
        if verbose:
            breakdown = self._breakdown(diagram, resource, functionality)
        return QueryResult(
            diagram,
            resource,
            functionality,
            QValue(d.quantale.name, payload),
            _value_text(d.quantale, payload),
            breakdown,
        )

    def _breakdown(self, diagram: str, resource: str, functionality: str):
        expr = ("ref", diagram)
        while expr[0] == "ref" and expr[1] in self.diagrams:
            expr = self.diagrams[expr[1]]
        if expr[0] == "ref" or _OPS[expr[0]].join is None:
            return None
        args = self._args(expr)
        d1, d2 = args[:2]
        q, a, b = _OPS[expr[0]].join(*args)
        terms = _terms(q, a, b, d1.source.index(resource), d2.target.index(functionality))
        return tuple((m, _value_text(q, v), v) for m, v in zip(d1.target.objects, terms))

    def run_sweep(self, name: str) -> ResultTable:
        spec = self._get("sweep", name)
        d = self.compose(spec.diagram)
        return ResultTable(
            spec.diagram, d.source.objects, d.target.objects, d.values, d.quantale
        )

    # -- rendering ----------------------------------------------------------------

    def render(self) -> str:
        out = []
        for section, name in self._order:
            out.append(_RENDERERS[section](self, name))
        return "\n".join(out) + "\n"


def _check_member(cat: QCategory, obj: str, what: str):
    if not cat.has_object(obj):
        sample = ", ".join(name_token(o) for o in cat.objects[:6])
        more = ", ..." if len(cat.objects) > 6 else ""
        raise ModelError(
            f"unknown {what} {obj!r}; the composed diagram offers: {sample}{more}"
        )


# ---------------------------------------------------------------------------
# rendering helpers


def _render_quantale(doc: ModelDocument, name: str) -> str:
    spec = doc._qspec[name]
    kind = spec[0]
    if kind in ("bool", "cost", "nat", "pace"):
        return f"quantale {name} = {kind}"
    if kind == "fuzz":
        return f"quantale {name} = fuzz({spec[1]})"
    if kind == "powerset":
        inner = ", ".join(name_token(n) for n in spec[1:])
        return f"quantale {name} = powerset({inner})"
    inner = ", ".join(spec[1:])
    return f"quantale {name} = product({inner})"


def _matrix_lines(q, row_names, col_names, rows, indent):
    """Default-compressed entry lines for a hom or values table."""
    counts = {}
    for row in rows:
        for v in row:
            t = _value_text(q, v)
            counts[t] = counts.get(t, 0) + 1
    default = max(sorted(counts), key=lambda t: counts[t])
    lines = []
    for rn, row in zip(row_names, rows):
        for cn, v in zip(col_names, row):
            t = _value_text(q, v)
            if t != default:
                lines.append(
                    f"{indent}{name_token(rn)} -> {name_token(cn)} : {t}"
                )
    return default, lines


def _render_category(doc: ModelDocument, name: str) -> str:
    spec = doc._cspec[name]
    if spec[0] == "tensor":
        return f"category {name} = tensor({spec[1]}, {spec[2]})"
    if spec[0] == "pushforward":
        return f"category {name} = pushforward({spec[1]}, {spec[2]})"
    cat = doc.categories[name]
    qname = _quantale_name(doc, cat.quantale, f"category {name!r}")
    lines = [f"category {name} over {qname} {{"]
    objs = ", ".join(name_token(o) for o in cat.objects)
    lines.append(f"  objects: {objs}")
    if spec[0] in ("chain", "discrete", "grid"):
        lines.append(f"  order: {spec[0]}")
    else:
        default, entries = _matrix_lines(
            cat.quantale, cat.objects, cat.objects, cat.hom, "    "
        )
        lines.append(f"  default: {default}")
        lines.append("  hom {")
        lines.extend(entries)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def _quantale_name(doc: ModelDocument, q, context: str) -> str:
    for n, reg in doc.quantales.items():
        if reg is q:
            return n
    for n, reg in doc.quantales.items():
        if compatible(reg, q):
            return n
    raise ModelError(f"{context}: its quantale is not registered in the document")


def _render_map(doc: ModelDocument, name: str) -> str:
    phi = doc.maps[name]
    src = _quantale_name(doc, phi.source, f"map {name!r}")
    tgt = _quantale_name(doc, phi.target, f"map {name!r}")
    params = {
        k: v for k, v in phi.params.items() if k != "entries"
    }
    ptext = "".join(
        f", {k}={_param_text(v)}" for k, v in sorted(params.items())
    )
    head = f"map {name} = {phi.kind}({src} -> {tgt}{ptext})"
    if phi.kind != "table":
        return head
    lines = [head + " {"]
    for k, v in phi.params["entries"]:
        lines.append(
            f"  {_value_text(phi.source, k)} -> {_value_text(phi.target, v)}"
        )
    lines.append("}")
    return "\n".join(lines)


def _render_catalog(doc: ModelDocument, name: str) -> str:
    cat = doc.catalogs[name]
    lines = [f"catalog {name} {{"]
    for p in cat.parts:
        lines.append(
            f"  part {name_token(p.name)} requires {name_token(p.requires)} "
            f"provides {name_token(p.provides)}"
        )
    lines.append("}")
    return "\n".join(lines)


def _render_problem(doc: ModelDocument, name: str) -> str:
    d = doc.problems[name]
    src, tgt = doc._psrc[name]
    lines = [f"problem {name} : {src} -> {tgt} {{"]
    default, entries = _matrix_lines(
        d.quantale, d.source.objects, d.target.objects, d.values, "    "
    )
    lines.append(f"  default: {default}")
    lines.append("  values {")
    lines.extend(entries)
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def _expr_text(expr) -> str:
    if expr[0] == "ref":
        return expr[1]
    op = expr[0]
    parts = []
    for slot, arg in zip(DIAGRAM_OPS[op], expr[1:]):
        parts.append(_expr_text(arg) if slot == "expr" else arg)
    return f"{op}({', '.join(parts)})"


def _render_diagram(doc: ModelDocument, name: str) -> str:
    return f"diagram {name} = {_expr_text(doc.diagrams[name])}"


def _render_query(doc: ModelDocument, name: str) -> str:
    q = doc.queries[name]
    return (
        f"query {name} {{\n"
        f"  diagram: {q.diagram}\n"
        f"  resource: {name_token(q.resource)}\n"
        f"  functionality: {name_token(q.functionality)}\n"
        f"}}"
    )


def _render_sweep(doc: ModelDocument, name: str) -> str:
    return f"sweep {name} {{\n  diagram: {doc.sweeps[name].diagram}\n}}"


_RENDERERS = {
    "quantale": _render_quantale,
    "category": _render_category,
    "map": _render_map,
    "catalog": _render_catalog,
    "problem": _render_problem,
    "diagram": _render_diagram,
    "query": _render_query,
    "sweep": _render_sweep,
}


# ---------------------------------------------------------------------------
# building documents from parsed declarations


def _build_quantale(doc: ModelDocument, decl: QuantaleDecl):
    if decl.kind == "bool":
        q = bool_quantale(decl.name)
    elif decl.kind == "cost":
        q = cost_quantale(decl.name)
    elif decl.kind == "nat":
        q = nat_quantale(decl.name)
    elif decl.kind == "pace":
        q = pace_quantale(decl.name)
    elif decl.kind == "fuzz":
        q = fuzz_quantale(decl.args[0], decl.name)
    elif decl.kind == "powerset":
        q = make_powerset(decl.args, decl.name)
    else:
        factors = [doc._get("quantale", n) for n in decl.args]
        if len(factors) < 2:
            raise ModelError("product needs at least two factors")
        q = make_product(factors, decl.name)
    doc.add_quantale(decl.name, q, (decl.kind,) + tuple(decl.args))


def _fill_matrix(q, row_names, col_names, entries, default, diag_unit, entity):
    index_r = {n: i for i, n in enumerate(row_names)}
    index_c = {n: i for i, n in enumerate(col_names)}
    filled = [[None] * len(col_names) for _ in row_names]
    seen = set()
    for src, dst, tree, eloc in entries:
        if src not in index_r:
            raise ModelError(f"unknown object {src!r}", eloc.line, eloc.col, entity)
        if dst not in index_c:
            raise ModelError(f"unknown object {dst!r}", eloc.line, eloc.col, entity)
        if (src, dst) in seen:
            raise ModelError(
                f"duplicate entry {src!r} -> {dst!r}", eloc.line, eloc.col, entity
            )
        seen.add((src, dst))
        filled[index_r[src]][index_c[dst]] = _payload_from_tree(q, tree, entity)
    dflt = _payload_from_tree(q, default, entity) if default is not None else None
    for i, rn in enumerate(row_names):
        for j, cn in enumerate(col_names):
            if filled[i][j] is None:
                # unlisted diagonals take the unit even past a default:
                # every builtin quantale has unit = top, so anything else
                # could only fail the identity axiom
                if diag_unit and rn == cn:
                    filled[i][j] = q.unit
                elif dflt is not None:
                    filled[i][j] = dflt
                else:
                    raise ModelError(f"missing entry {rn!r} -> {cn!r} and no default")
    return filled


def _build_category(doc: ModelDocument, decl: CategoryDecl):
    if decl.tensor_of is not None:
        doc.add_tensor_category(decl.name, *decl.tensor_of)
        return
    if decl.pushforward_of is not None:
        doc.add_pushforward_category(decl.name, *decl.pushforward_of)
        return
    q = doc._get("quantale", decl.quantale)
    objs = decl.objects
    if decl.order == "chain":
        cat = chain_category(q, objs)
    elif decl.order == "discrete":
        cat = discrete_category(q, objs)
    elif decl.order == "grid":
        if q.kind not in ("cost", "nat"):
            raise ModelError("grid order needs a cost or nat quantale")
        try:
            nums = [int(o) if q.kind == "nat" else float(o) for o in objs]
        except ValueError:
            raise ModelError("grid order needs numeric object names") from None
        if not all(map(math.isfinite, nums)):
            raise ModelError("grid objects must be finite")
        if any(b <= a for a, b in zip(nums, nums[1:])):
            raise ModelError("grid objects must be strictly ascending")
        cat = _category(q, tuple(objs), _grid(q, nums))
    else:
        hom = _fill_matrix(
            q, objs, objs, decl.hom_entries, decl.default, True, decl.name
        )
        cat = build_category(q, objs, hom)
    doc.add_category(decl.name, cat, (decl.order or "table",))


def _build_map(doc: ModelDocument, decl: MapDecl):
    src = doc._get("quantale", decl.source)
    tgt = doc._get("quantale", decl.target)
    params = dict(decl.params)
    if decl.kind == "table":
        params["entries"] = [
            (
                _payload_from_tree(src, f, decl.name),
                _payload_from_tree(tgt, t, decl.name),
            )
            for f, t, _ in decl.table_entries
        ]
    phi = builtin_lax(decl.kind, src, tgt, decl.name, **params)
    if phi.verdict is None:
        check_lax(phi)
    doc.add_map(decl.name, phi)


def _build_catalog(doc: ModelDocument, decl: CatalogDecl):
    parts = tuple(CatalogPart(n, req, prov) for n, req, prov, _ in decl.parts)
    doc.add_catalog(decl.name, Catalog(decl.name, parts))


def _build_problem(doc: ModelDocument, decl: ProblemDecl):
    src = doc._get("category", decl.source)
    tgt = doc._get("category", decl.target)
    vals = _fill_matrix(
        src.quantale,
        src.objects,
        tgt.objects,
        decl.entries,
        decl.default,
        False,
        decl.name,
    )
    d = build_problem(src, tgt, vals)
    doc.add_problem(decl.name, d, decl.source, decl.target)


_BUILDERS = {
    QuantaleDecl: _build_quantale,
    CategoryDecl: _build_category,
    MapDecl: _build_map,
    CatalogDecl: _build_catalog,
    ProblemDecl: _build_problem,
    DiagramDecl: lambda doc, d: doc.add_diagram(d.name, d.expr),
    QueryDecl: lambda doc, d: doc.add_query(
        d.name, d.diagram, d.resource, d.functionality
    ),
    SweepDecl: lambda doc, d: doc.add_sweep(d.name, d.diagram),
}


def build_document(decls, name: str = "model") -> ModelDocument:
    """Resolve parsed declarations into a validated document.

    Declarations bind strictly in file order; every reference must point
    at an earlier declaration.  A failure without a position of its own
    is reported at its declaration.
    """
    doc = ModelDocument(name)
    for decl in decls:
        build = _BUILDERS.get(type(decl))
        if build is None:
            raise ModelError(f"unknown declaration record {decl!r}")
        loc = decl.loc
        try:
            build(doc, decl)
        except ModelError as exc:
            if exc.line is not None:
                raise
            raise ModelError(
                exc.message, loc.line, loc.col, decl.name or exc.entity
            )
        except CodesignError as exc:
            raise ModelError(str(exc), loc.line, loc.col, decl.name) from None
    return doc


def loads(text: str, name: str = "model") -> ModelDocument:
    """Parse and build a document from model text."""
    return build_document(parse_model(text, name), name)


def load_model(path) -> ModelDocument:
    """Parse and build a document from a model file on disk."""
    import os

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads(text, os.path.splitext(os.path.basename(str(path)))[0])
