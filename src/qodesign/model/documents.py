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
from .parser import DIAGRAM_OPS, WORD, Decl, name_token, parse_model, write_decl


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


class _Node(NamedTuple):
    """One composed diagram node: its operator ("ref" for a bare problem),
    its output, its resolved arguments in DIAGRAM_OPS order, and the
    NodeStats of its operands followed by its own."""

    op: str
    out: DesignProblem
    args: tuple
    stats: tuple


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
        if not WORD.fullmatch(name):
            raise ModelError(f"{section} name {name!r} is not a bare word", entity=name)
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
        expr = self._resolve(expr, name)
        self._claim("diagram", name)
        self.diagrams[name] = expr
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

    def _resolve(self, expr, context: str) -> tuple:
        """expr with each bare name in an expression slot read as a ref,
        each node's operator, arity and names checked in slot order."""
        if isinstance(expr, str):
            expr = ("ref", expr)
        if not isinstance(expr, tuple) or not expr:
            raise ModelError(f"diagram {context!r}: malformed expression node")
        op, args = expr[0], expr[1:]
        if op == "ref":
            if len(args) != 1 or not isinstance(args[0], str):
                raise ModelError(f"diagram {context!r}: a ref takes exactly one name")
            if args[0] not in self.problems and args[0] not in self.diagrams:
                raise ModelError(
                    f"diagram {context!r} references unknown problem or "
                    f"diagram {args[0]!r}"
                )
            return expr
        if not isinstance(op, str) or op not in DIAGRAM_OPS:
            raise ModelError(f"diagram {context!r}: unknown operator {op!r}")
        sig = DIAGRAM_OPS[op]
        if len(args) != len(sig):
            raise ModelError(
                f"diagram {context!r}: {op} takes {len(sig)} arguments"
            )
        resolved = []
        for slot, arg in zip(sig, args):
            if slot == "expr":
                arg = self._resolve(arg, context)
            elif not isinstance(arg, str):
                raise ModelError(f"diagram {context!r}: {op} takes a {slot} name, not {arg!r}")
            else:
                self._get(slot, arg)
            resolved.append(arg)
        return (op, *resolved)

    # -- evaluation ------------------------------------------------------------

    def clear_cache(self):
        self._cache.clear()

    def compose(self, name: str) -> DesignProblem:
        """Evaluate a diagram (or bare problem) by name."""
        return self._node(name).out

    def diagram_stats(self, name: str):
        """Composition-node statistics: (stats, composed problem).

        The cut of a node is the cardinality it joins or loops over:
        interface objects for series, looped source objects for trace,
        interface objects for implementation_series, 1 for parallel.
        Nodes are listed in post-order, operands first.
        """
        node = self._node(name)
        return node.stats, node.out

    def _node(self, name: str) -> _Node:
        self._ref_diagram(name)
        return self._eval(("ref", name))

    def _eval(self, expr) -> _Node:
        """The node of a resolved expression, composed once, operands first;
        a ref is the node of the diagram or problem it names."""
        node = self._cache.get(expr)
        if node is not None:
            return node
        op = expr[0]
        if op == "ref":
            name = expr[1]
            if name in self.diagrams:
                node = self._eval(self.diagrams[name])
            else:
                node = _Node(op, self.problems[name], (), ())
        else:
            args, stats = [], []
            for slot, arg in zip(DIAGRAM_OPS[op], expr[1:]):
                if slot == "expr":
                    operand = self._eval(arg)
                    args.append(operand.out)
                    stats += operand.stats
                else:
                    args.append(self._get(slot, arg))
            row = _OPS[op]
            out = row.apply(*args)
            if row.cut is not None:
                stats.append(NodeStat(op, row.cut(*args), row.counts))
            node = _Node(op, out, tuple(args), tuple(stats))
        self._cache[expr] = node
        return node

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
        node = self._node(diagram)
        d = node.out
        _check_member(d.source, resource, "resource")
        _check_member(d.target, functionality, "functionality")
        payload = d.value_payload(resource, functionality)
        join = _OPS[node.op].join if node.op in _OPS else None
        breakdown = None
        if verbose and join is not None:
            d1, d2 = node.args[:2]
            q, a, b = join(*node.args)
            i, j = d1.source.index(resource), d2.target.index(functionality)
            breakdown = tuple(
                (m, _value_text(q, v), v)
                for m, v in zip(d1.target.objects, _terms(q, a, b, i, j))
            )
        return QueryResult(
            diagram,
            resource,
            functionality,
            QValue(d.quantale.name, payload),
            _value_text(d.quantale, payload),
            breakdown,
        )

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
            try:
                out.append(write_decl(section, name, _FIELDS[section](self, name)))
            except ModelError as exc:
                raise ModelError(exc.message, entity=exc.entity or name) from None
        return "\n".join(out) + "\n"


def _check_member(cat: QCategory, obj: str, what: str):
    if not cat.has_object(obj):
        sample = ", ".join(name_token(o) for o in cat.objects[:6])
        more = ", ..." if len(cat.objects) > 6 else ""
        raise ModelError(
            f"unknown {what} {obj!r}; the composed diagram offers: {sample}{more}"
        )


# ---------------------------------------------------------------------------
# the fields the writer reads, derived from the registries and specs


def _quantale_name(doc: ModelDocument, q, context: str) -> str:
    for n, reg in doc.quantales.items():
        if reg is q:
            return n
    for n, reg in doc.quantales.items():
        if compatible(reg, q):
            return n
    raise ModelError(f"{context}: its quantale is not registered in the document")


def _table_fields(q, row_names, col_names, rows, key: str) -> dict:
    """A hom or values table as its most common value, the default, and
    the entries of the other cells."""
    texts = [[_value_text(q, v) for v in row] for row in rows]
    counts = {}
    for row in texts:
        for t in row:
            counts[t] = counts.get(t, 0) + 1
    default = max(sorted(counts), key=counts.__getitem__)
    entries = [
        (rn, cn, t)
        for rn, row in zip(row_names, texts)
        for cn, t in zip(col_names, row)
        if t != default
    ]
    return {"default": default, key: entries}


def _category_fields(doc: ModelDocument, name: str) -> dict:
    spec = doc._cspec[name]
    if spec[0] in ("tensor", "pushforward"):
        return dict(zip(("form", "first", "second"), spec))
    cat = doc.categories[name]
    fields = {
        "quantale": _quantale_name(doc, cat.quantale, f"category {name!r}"),
        "objects": cat.objects,
    }
    if spec[0] in ("chain", "discrete", "grid"):
        fields["order"] = spec[0]
    else:
        fields.update(_table_fields(cat.quantale, cat.objects, cat.objects, cat.hom, "hom"))
    return fields


def _map_fields(doc: ModelDocument, name: str) -> dict:
    phi = doc.maps[name]
    fields = {
        "kind": phi.kind,
        "source": _quantale_name(doc, phi.source, f"map {name!r}"),
        "target": _quantale_name(doc, phi.target, f"map {name!r}"),
        "params": {k: v for k, v in phi.params.items() if k != "entries"},
    }
    if phi.kind == "table":
        fields["entries"] = [
            (_value_text(phi.source, k), _value_text(phi.target, v))
            for k, v in phi.params["entries"]
        ]
    return fields


def _problem_fields(doc: ModelDocument, name: str) -> dict:
    d = doc.problems[name]
    source, target = doc._psrc[name]
    table = _table_fields(d.quantale, d.source.objects, d.target.objects, d.values, "values")
    return {"source": source, "target": target, **table}


_FIELDS = {
    "quantale": lambda doc, name: {"kind": doc._qspec[name][0], "args": doc._qspec[name][1:]},
    "category": _category_fields,
    "map": _map_fields,
    "catalog": lambda doc, name: {
        "parts": [(p.name, p.requires, p.provides) for p in doc.catalogs[name].parts]
    },
    "problem": _problem_fields,
    "diagram": lambda doc, name: {"expr": doc.diagrams[name]},
    "query": lambda doc, name: vars(doc.queries[name]),
    "sweep": lambda doc, name: vars(doc.sweeps[name]),
}


# ---------------------------------------------------------------------------
# building documents from parsed declarations


_SCALARS = {
    "bool": bool_quantale,
    "cost": cost_quantale,
    "nat": nat_quantale,
    "pace": pace_quantale,
}


def _build_quantale(doc: ModelDocument, decl: Decl):
    kind, args = decl.fields["kind"], decl.fields.get("args", ())
    if kind == "fuzz":
        q = fuzz_quantale(args[0], decl.name)
    elif kind == "powerset":
        q = make_powerset(args, decl.name)
    elif kind == "product":
        factors = [doc._get("quantale", n) for n in args]
        if len(factors) < 2:
            raise ModelError("product needs at least two factors")
        q = make_product(factors, decl.name)
    else:
        q = _SCALARS[kind](decl.name)
    doc.add_quantale(decl.name, q, (kind, *args))


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


def _build_category(doc: ModelDocument, decl: Decl):
    f = decl.fields
    if "form" in f:
        add = doc.add_tensor_category if f["form"] == "tensor" else doc.add_pushforward_category
        add(decl.name, f["first"], f["second"])
        return
    q = doc._get("quantale", f["quantale"])
    objs = f["objects"]
    order = f.get("order")
    if order == "chain":
        cat = chain_category(q, objs)
    elif order == "discrete":
        cat = discrete_category(q, objs)
    elif order == "grid":
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
        hom = _fill_matrix(q, objs, objs, f.get("hom", ()), f.get("default"), True, decl.name)
        cat = build_category(q, objs, hom)
    doc.add_category(decl.name, cat, (order or "table",))


def _build_map(doc: ModelDocument, decl: Decl):
    f = decl.fields
    kind = f["kind"]
    if kind != "table" and "entries" in f:
        raise ModelError(f"map kind {kind!r} takes no table block")
    if kind == "table" and "entries" not in f:
        raise ModelError("table map needs a { from -> to ... } block")
    src = doc._get("quantale", f["source"])
    tgt = doc._get("quantale", f["target"])
    params = dict(f["params"])
    if kind == "table":
        params["entries"] = [
            (
                _payload_from_tree(src, a, decl.name),
                _payload_from_tree(tgt, b, decl.name),
            )
            for a, b, _ in f["entries"]
        ]
    phi = builtin_lax(kind, src, tgt, decl.name, **params)
    if phi.verdict is None:
        check_lax(phi)
    doc.add_map(decl.name, phi)


def _build_catalog(doc: ModelDocument, decl: Decl):
    parts = tuple(CatalogPart(n, req, prov) for n, req, prov, _ in decl.fields["parts"])
    doc.add_catalog(decl.name, Catalog(decl.name, parts))


def _build_problem(doc: ModelDocument, decl: Decl):
    f = decl.fields
    src = doc._get("category", f["source"])
    tgt = doc._get("category", f["target"])
    vals = _fill_matrix(
        src.quantale,
        src.objects,
        tgt.objects,
        f.get("values", ()),
        f.get("default"),
        False,
        decl.name,
    )
    d = build_problem(src, tgt, vals)
    doc.add_problem(decl.name, d, f["source"], f["target"])


_BUILDERS = {
    "quantale": _build_quantale,
    "category": _build_category,
    "map": _build_map,
    "catalog": _build_catalog,
    "problem": _build_problem,
    "diagram": lambda doc, d: doc.add_diagram(d.name, d.fields["expr"]),
    "query": lambda doc, d: doc.add_query(d.name, **d.fields),
    "sweep": lambda doc, d: doc.add_sweep(d.name, **d.fields),
}


def build_document(decls, name: str = "model") -> ModelDocument:
    """Resolve parsed declarations into a validated document.

    Declarations bind strictly in file order; every reference must point
    at an earlier declaration.  A failure without a position of its own
    is reported at its declaration.
    """
    doc = ModelDocument(name)
    for decl in decls:
        build = _BUILDERS.get(decl.kind)
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
