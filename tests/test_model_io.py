"""Model-file parsing, diagnostics, building, rendering, and round-trips."""

import json
import math
import pathlib

import pytest

from qodesign import (
    CodesignError,
    LaxityError,
    ModelError,
    NodeStat,
    load_model,
    loads,
)
from qodesign.lax import (
    catalog_problem,
    hetero_parallel,
    hetero_series,
    hetero_trace,
    implementation_series,
    pushforward_problem,
)
from qodesign.problems import identity_problem, parallel, series, trace
from qodesign.quantales import compatible

MODELS_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "qodesign" / "models"

TRACKING = (MODELS_DIR / "tracking.model").read_text()


# ---------------------------------------------------------------------------
# diagnostics


def _err(text):
    with pytest.raises(ModelError) as info:
        loads(text)
    return info.value


def test_syntax_error_carries_position():
    err = _err("quantale Q = \n")
    assert err.line == 2 and err.column == 1
    assert "quantale kind" in err.message
    assert "line 2" in str(err)


SYNTAX_IN_DECLS = [
    # (declaration, text after TRACKING's first line, message, line, column)
    ("diagram", TRACKING.replace("series(sensor, proc)", "series(sensor)"),
     "expected ',', found ')'", 33, 33),
    ("problem", "quantale C = cost\nproblem p : A -> B { default 1 }\n",
     "expected ':', found '1'", 2, 30),
    ("category", "quantale C = cost\ncategory W over C { objects x }\n",
     "expected ':', found 'x'", 2, 29),
    ("quantale", 'quantale C = cost\nquantale S = powerset(a, "b\n',
     "unterminated string", 2, 26),
]


@pytest.mark.parametrize("case", SYNTAX_IN_DECLS, ids=[c[0] for c in SYNTAX_IN_DECLS])
def test_syntax_errors_name_their_declaration(case):
    kind, text, message, line, col = case
    with pytest.raises(ModelError) as info:
        loads(text, "ops")
    err = info.value
    assert (err.message, err.line, err.column) == (message, line, col)
    decl = next(ln for ln in text.splitlines()[:line][::-1] if ln.startswith(kind))
    assert err.entity == decl.split()[1] != "ops"
    assert str(err).endswith(f"(line {line}, col {col}) [{err.entity}]")


def test_syntax_errors_outside_a_declaration_name_the_model():
    # before the name is read, and between declarations
    for text in ("diagram = series(p, q)\n", "quantale C = cost\n42\n"):
        with pytest.raises(ModelError) as info:
            loads(text, "ops")
        assert info.value.entity == "ops"


def test_duplicate_declaration_names_the_entity():
    err = _err("quantale C = cost\nquantale C = bool\n")
    assert "duplicate" in err.message and "'C'" in err.message
    assert err.entity == "C"
    assert err.line == 2


def test_unknown_reference_lists_known_names():
    err = _err("quantale C = cost\nproblem p : A -> B { default: 0 }\n")
    assert "unknown category 'A'" in err.message
    assert err.entity == "p"


def test_unknown_quantale_kind():
    err = _err("quantale Q = hyperreal\n")
    assert "hyperreal" in err.message


def test_bad_payload_points_at_the_value():
    err = _err(
        "quantale B = bool\n"
        "category X over B { objects: a   order: discrete }\n"
        "problem p : X -> X { default: maybe }\n"
    )
    assert "true or false" in err.message
    assert err.line == 3
    assert err.entity == "p"


def test_unknown_diagram_in_query_caught_at_load():
    err = _err(
        "quantale C = cost\n"
        "category X over C { objects: a   order: discrete }\n"
        "problem p : X -> X { default: 0 }\n"
        "query q { diagram: nope  resource: a  functionality: a }\n"
    )
    assert "unknown diagram 'nope'" in err.message


# ---------------------------------------------------------------------------
# map verification at load time


def test_table_maps_are_checked_when_loaded():
    doc = loads(
        "quantale B = bool\n"
        "map flip = table(B -> B) { true -> false   false -> true }\n"
    )
    assert doc.maps["flip"].verdict == "not-lax"


def test_pushforward_category_refuses_uncertified_map():
    err = _err(
        "quantale B = bool\n"
        "map flip = table(B -> B) { true -> false   false -> true }\n"
        "category X over B { objects: a, b   order: chain }\n"
        "category Y = pushforward(X, flip)\n"
    )
    assert "not certified lax" in err.message
    assert "flip" in err.message

    err = _err(
        "quantale C = cost\n"
        "quantale B = bool\n"
        "map thr = cost_leq_threshold(C -> B, threshold=5)\n"
        "category X over C { objects: a, b   order: chain }\n"
        "category Y = pushforward(X, thr)\n"
    )
    assert "thr" in err.message


def test_hetero_diagram_with_uncertified_map_fails_on_compose():
    # diagrams build lazily, so the gate fires at composition time
    doc = loads(
        "quantale C = cost\n"
        "quantale B = bool\n"
        "map thr = cost_leq_threshold(C -> B, threshold=5)\n"
        "map fin = cost_to_bool_finite(C -> B)\n"
        "category X over C { objects: a, b   order: chain }\n"
        "problem p : X -> X { default: 1 }\n"
        "diagram bad = hetero_series(p, p, thr, fin)\n"
    )
    assert doc.maps["thr"].verdict == "oplax"
    with pytest.raises(LaxityError):
        doc.compose("bad")


def test_certified_map_kinds_load_and_compose():
    doc = loads(
        "quantale C = cost\n"
        "quantale B = bool\n"
        "map fin = cost_to_bool_finite(C -> B)\n"
        "category X over C { objects: a, b   order: chain }\n"
        "category XB = pushforward(X, fin)\n"
        "problem p : X -> X { default: 2 }\n"
        "diagram moved = pushforward(p, fin)\n"
    )
    assert doc.categories["XB"].quantale.kind == "bool"
    moved = doc.compose("moved")
    assert moved.quantale.kind == "bool"
    assert all(v is True for row in moved.values for v in row)


# ---------------------------------------------------------------------------
# structured payloads


def test_product_values_parse_as_tuples():
    doc = loads(
        "quantale B = bool\n"
        "quantale P = pace\n"
        "quantale BP = product(B, P)\n"
        "category X over BP { objects: u, v   order: discrete }\n"
        "problem p : X -> X {\n"
        "  default: (true, P)\n"
        "  values { u -> v : (false, E) }\n"
        "}\n"
    )
    vals = doc.problems["p"].values
    assert vals[0][1] == (False, "E")
    assert vals[0][0] == (True, "P")


def test_explicit_hom_default_skips_the_diagonal():
    # an inf default must not poison hom(x, x); unlisted diagonals get
    # the unit, only an explicit entry can override them
    doc = loads(
        "quantale C = cost\n"
        "category W over C {\n"
        "  objects: x, y, z\n"
        "  default: inf\n"
        "  hom { x -> y : 3  y -> z : 3  x -> z : 6 }\n"
        "}\n"
    )
    assert doc.categories["W"].hom == (
        (0.0, 3.0, 6.0),
        (math.inf, 0.0, 3.0),
        (math.inf, math.inf, 0.0),
    )
    err = _err(
        "quantale C = cost\n"
        "category W over C {\n"
        "  objects: x, y\n"
        "  default: inf\n"
        "  hom { x -> x : inf  x -> y : 3 }\n"
        "}\n"
    )
    assert "identity axiom" in err.message


def test_powerset_values_parse_as_frozensets():
    doc = loads(
        "quantale S = powerset(m1, m2)\n"
        "category X over S { objects: u   order: discrete }\n"
        "problem p : X -> X { default: [m1] }\n"
    )
    assert doc.problems["p"].values == ((frozenset({"m1"}),),)
    err = _err(
        "quantale S = powerset(m1, m2)\n"
        "category X over S { objects: u   order: discrete }\n"
        "problem p : X -> X { default: [m9] }\n"
    )
    assert "not in the base" in err.message


# ---------------------------------------------------------------------------
# queries and sweeps


def test_named_and_ad_hoc_queries_agree():
    doc = loads(TRACKING, name="tracking")
    named = doc.run_query("two_targets_at_10W")
    ad_hoc = doc.run_query(diagram="tracking", resource="10W", functionality="2tgt")
    assert named.value.payload == ad_hoc.value.payload == 80.0
    assert named.rendered == "80"
    assert "value         80" in named.format()


def test_verbose_query_breaks_down_series_interfaces():
    doc = loads(TRACKING, name="tracking")
    res = doc.run_query("two_targets_at_10W", verbose=True)
    assert res.breakdown is not None
    mids = {mid: payload for mid, _, payload in res.breakdown}
    assert mids == {"Low": 90.0, "High": 80.0}
    text = res.format(verbose=True)
    assert "via:" in text and "High: 80" in text


def test_query_with_unknown_object_lists_offerings():
    doc = loads(TRACKING, name="tracking")
    with pytest.raises(ModelError) as info:
        doc.run_query(diagram="tracking", resource="15W", functionality="2tgt")
    assert "unknown resource" in info.value.message
    assert "10W" in info.value.message


def test_sweep_csv_and_json():
    doc = loads(TRACKING, name="tracking")
    table = doc.run_sweep("operating_points")
    assert table.rows == ("5W", "10W", "20W")
    assert table.cols == ("1tgt", "2tgt", "3tgt")
    csv_text = table.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "resource,1tgt,2tgt,3tgt"
    assert lines[1] == "5W,70,100,inf"
    assert lines[3] == "20W,40,60,80"
    blob = json.loads(table.to_json())
    assert blob["rows"] == ["5W", "10W", "20W"]
    assert blob["cells"][2] == ["40", "60", "80"]
    text = table.format_text()
    assert text.startswith("sweep of tracking")
    assert "inf" in text


# ---------------------------------------------------------------------------
# rendering and round-trips


@pytest.mark.parametrize(
    "name", ["tracking", "tracking_bool", "uav_cost", "uav_powerset"]
)
def test_shipped_models_round_trip_exactly(name):
    path = MODELS_DIR / f"{name}.model"
    text = path.read_text()
    doc = load_model(path)
    assert doc.name == name
    assert doc.render() == text
    again = loads(doc.render(), name=name)
    assert again.render() == text


@pytest.mark.parametrize(
    "name", ["tracking", "tracking_bool", "uav_cost", "uav_powerset"]
)
def test_reloaded_models_compose_identically(name):
    path = MODELS_DIR / f"{name}.model"
    doc = load_model(path)
    twin = loads(doc.render(), name=name)
    for diagram in doc.diagrams:
        a = doc.compose(diagram)
        b = twin.compose(diagram)
        assert a.values == b.values
        assert a.source.objects == b.source.objects
        assert a.target.objects == b.target.objects


@pytest.mark.parametrize(
    "name", ["tracking", "tracking_bool", "uav_cost", "uav_powerset"]
)
def test_shipped_queries_decode_no_table(name):
    doc = load_model(MODELS_DIR / f"{name}.model")
    assert doc.queries
    for query in doc.queries:
        doc.run_query(query, verbose=True)
        # the composed problem, its operands, and every problem under them
        built = [*(n.out for n in doc._cache.values()), *doc.problems.values()]
        composed = doc.compose(doc.queries[query].diagram)
        assert composed in built  # == reads the held arrays: nothing is decoded
        assert not [p for p in built if "values" in vars(p)], query


def test_synthesized_document_with_every_construct_round_trips():
    text = (
        "quantale C = cost\n"
        "quantale B = bool\n"
        "quantale S = powerset(u0, u1)\n"
        "map fin = cost_to_bool_finite(C -> B)\n"
        "map into_s = bool_to_unit(B -> S)\n"
        "category R over C {\n"
        "  objects: r0, r1\n"
        "  order: chain\n"
        "}\n"
        "category F over C {\n"
        "  objects: f0, f1\n"
        "  order: discrete\n"
        "}\n"
        "category RB = pushforward(R, fin)\n"
        "category FB = pushforward(F, fin)\n"
        "category Both = tensor(RB, FB)\n"
        "catalog parts {\n"
        "  part u0 requires r0 provides f0\n"
        "  part u1 requires r1 provides f1\n"
        "}\n"
        "problem step : R -> F {\n"
        "  default: 3\n"
        "  values {\n"
        "    r0 -> f1 : inf\n"
        "  }\n"
        "}\n"
        "diagram moved = pushforward(step, fin)\n"
        "diagram chosen = catalog_problem(parts, RB, FB)\n"
        "query q0 {\n"
        "  diagram: moved\n"
        "  resource: r1\n"
        "  functionality: f0\n"
        "}\n"
        "sweep s0 {\n"
        "  diagram: chosen\n"
        "}\n"
    )
    doc = loads(text, name="kitchen_sink")
    rendered = doc.render()
    twin = loads(rendered, name="kitchen_sink")
    assert twin.render() == rendered
    assert doc.compose("chosen").values == twin.compose("chosen").values
    assert doc.run_query("q0").value.payload is True
    # rendering is stable under repetition
    assert doc.render() == rendered


NAT_MODEL = (
    "quantale N = nat\n"
    "category A over N {{\n  objects: a\n  order: discrete\n}}\n"
    "problem p : A -> A {{\n  default: {}\n}}\n"
    "diagram twice = series(p, p)\n"
    "query q {{\n  diagram: twice\n  resource: a\n  functionality: a\n}}\n"
    "sweep s {{\n  diagram: twice\n}}\n"
)


@pytest.mark.parametrize("value", [10**15, 2**53 + 1, 2**63], ids=["1e15", "2^53+1", "2^63"])
def test_large_nats_render_and_query_exactly(value):
    # float text drops digits from 2**53 on, and nat's parser reads no
    # point or exponent
    doc = loads(NAT_MODEL.format(value), name="nats")
    rendered = doc.render()
    assert f"  default: {value}\n" in rendered
    twin = loads(rendered, name="nats")
    assert twin.problems["p"].value_payload("a", "a") == value
    assert twin.render() == rendered
    assert doc.run_query("q").rendered == str(2 * value)
    assert doc.run_sweep("s").to_csv().splitlines()[1] == f"a,{2 * value}"


def test_load_model_missing_file():
    with pytest.raises(FileNotFoundError):
        load_model("/tmp/definitely_not_here.model")


def test_documents_report_diagram_stats():
    doc = loads(TRACKING, name="tracking")
    stats, composed = doc.diagram_stats("tracking")
    assert stats
    assert composed.values == doc.compose("tracking").values
    cuts = [s.cut for s in stats]
    assert max(cuts) >= 2
    ops = {s.op for s in stats}
    assert "series" in ops


# ---------------------------------------------------------------------------
# every diagram operator through a document

OPS_MODEL = (
    "quantale C = cost\n"
    "quantale B = bool\n"
    "map fin = cost_to_bool_finite(C -> B)\n"
    "category R over C { objects: r0, r1  order: chain }\n"
    "category M over C { objects: m0, m1, m2  order: chain }\n"
    "category RM = tensor(R, M)\n"
    "category MM = tensor(M, M)\n"
    "category RB = pushforward(R, fin)\n"
    "category MB = pushforward(M, fin)\n"
    "catalog first { part a0 requires r0 provides m0\n"
    "                part a1 requires r1 provides m1 }\n"
    "catalog second { part b0 requires m0 provides r0\n"
    "                 part b1 requires m2 provides r0 }\n"
    "problem p : R -> M { default: 2  values { r1 -> m0 : 1  r1 -> m1 : 1 } }\n"
    "problem q : M -> R { default: 3  values { m0 -> r0 : inf  m0 -> r1 : inf } }\n"
    "problem l : RM -> MM { default: 1 }\n"
)

# (op, arguments, the direct API call, the diagram_stats entry or None,
#  index of the argument replaced by an unknown name, expected message)
OP_CASES = [
    ("series", ("p", "q"), lambda g: series(g("p"), g("q")),
     (3, "interface objects"), 1, "unknown problem or diagram 'nope'"),
    ("parallel", ("p", "q"), lambda g: parallel(g("p"), g("q")),
     (1, "independent sides"), 0, "unknown problem or diagram 'nope'"),
    ("trace", ("l", "M"), lambda g: trace(g("l"), g("M")),
     (6, "looped source objects"), 1, "unknown category 'nope'"),
    ("hetero_series", ("p", "q", "fin", "fin"),
     lambda g: hetero_series(g("p"), g("q"), g("fin"), g("fin")),
     (3, "interface objects"), 3, "unknown map 'nope'"),
    ("hetero_parallel", ("p", "q", "fin", "fin"),
     lambda g: hetero_parallel(g("p"), g("q"), g("fin"), g("fin")),
     (1, "independent sides"), 2, "unknown map 'nope'"),
    ("hetero_trace", ("l", "M", "fin"),
     lambda g: hetero_trace(g("l"), g("M"), g("fin")),
     (6, "looped source objects"), 1, "unknown category 'nope'"),
    ("pushforward", ("p", "fin"), lambda g: pushforward_problem(g("p"), g("fin")),
     None, 1, "unknown map 'nope'"),
    ("identity", ("R",), lambda g: identity_problem(g("R")),
     None, 0, "unknown category 'nope'"),
    ("catalog_problem", ("first", "RB", "MB"),
     lambda g: catalog_problem(g("first"), g("RB"), g("MB")),
     None, 2, "unknown category 'nope'"),
    ("implementation_series", ("first", "second", "RB", "MB", "RB"),
     lambda g: implementation_series(
         g("first"), g("second"), g("RB"), g("MB"), g("RB")
     ),
     (3, "interface objects"), 3, "unknown category 'nope'"),
]


@pytest.mark.parametrize("case", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_every_diagram_op_through_a_document(case):
    op, args, direct, stat, bad, message = case
    line = f"diagram d = {op}({', '.join(args)})\n"
    doc = loads(OPS_MODEL + line, name="ops")

    def get(name):
        for registry in (doc.problems, doc.categories, doc.maps, doc.catalogs):
            if name in registry:
                return registry[name]
        raise KeyError(name)

    composed, expected = doc.compose("d"), direct(get)
    # catalog operators make a fresh parts powerset on every call
    assert compatible(composed.quantale, expected.quantale)
    for side in ("source", "target"):
        a, b = getattr(composed, side), getattr(expected, side)
        assert (a.objects, a.hom) == (b.objects, b.hom)
    assert composed.values == expected.values

    rendered = doc.render()
    assert rendered.endswith(line)
    assert loads(rendered, name="ops").render() == rendered

    stats, out = doc.diagram_stats("d")
    assert out.values == composed.values
    assert stats == (() if stat is None else (NodeStat(op, *stat),))
    # only a series node has terms to list
    r, f = out.source.objects[0], out.target.objects[0]
    breakdown = doc.run_query(diagram="d", resource=r, functionality=f, verbose=True).breakdown
    assert (breakdown is None) == (op not in ("series", "hetero_series"))

    with pytest.raises(ModelError) as info:
        doc.add_diagram("short", (op,) + args[:-1])
    assert info.value.message == (
        f"diagram 'short': {op} takes {len(args)} arguments"
    )

    wrong = list(args)
    wrong[bad] = "nope"
    err = _err(OPS_MODEL + f"diagram d = {op}({', '.join(wrong)})\n")
    assert message in err.message
    assert err.entity == "d"
    assert (err.line, err.column) == (OPS_MODEL.count("\n") + 1, 1)


# a malformed programmatic expression, and the message naming its diagram
MALFORMED_DIAGRAMS = [
    (("ref",), "diagram 'd': a ref takes exactly one name"),
    (("series", ("ref",), "q"), "diagram 'd': a ref takes exactly one name"),
    (("ref", "p", "q"), "diagram 'd': a ref takes exactly one name"),
    (("ref", ["p"]), "diagram 'd': a ref takes exactly one name"),
    (("trace", "l", ["M"]), "diagram 'd': trace takes a category name, not ['M']"),
    (([], "p"), "diagram 'd': unknown operator []"),
    (("loop", "p"), "diagram 'd': unknown operator 'loop'"),
    (("series", ["p"], "q"), "diagram 'd': malformed expression node"),
    ((), "diagram 'd': malformed expression node"),
]


@pytest.mark.parametrize(
    "expr, message", MALFORMED_DIAGRAMS, ids=[repr(c[0]) for c in MALFORMED_DIAGRAMS]
)
def test_malformed_diagrams_name_their_diagram(expr, message):
    doc = loads(OPS_MODEL, name="ops")
    with pytest.raises(ModelError) as info:
        doc.add_diagram("d", expr)
    assert info.value.message == message
    assert "d" not in doc.diagrams


def test_verbose_query_on_a_bare_problem_has_no_breakdown():
    doc = loads(OPS_MODEL + "diagram bare = p\n", name="ops")
    for diagram in ("bare", "p"):
        result = doc.run_query(diagram=diagram, resource="r0", functionality="m0", verbose=True)
        assert result.breakdown is None, diagram
        assert "via:" not in result.format(verbose=True)


# ---------------------------------------------------------------------------
# build errors come back located at their declaration

DECL_FAILURES = [
    # a ModelError raised without a position
    ("quantale", "quantale C = cost\n", "quantale P = product(C)",
     "at least two factors"),
    # another CodesignError (a category axiom)
    ("category", "quantale C = cost\n",
     "category W over C { objects: x, y  default: 1  hom { x -> x : inf } }",
     "identity axiom"),
    # a ModelError raised at the declaration
    ("grid category", "quantale B = bool\n",
     "category G over B { objects: 1, 2  order: grid }",
     "grid order needs a cost or nat quantale"),
    ("map", "quantale C = cost\n", "map s = scale(C -> C, factor=0)",
     "factor must be positive finite"),
    ("map without a parameter", "quantale C = cost\n", "map s = scale(C -> C)",
     "map kind 'scale' needs parameter 'factor'"),
    ("map with a text parameter", "quantale C = cost\n", "map s = scale(C -> C, factor=two)",
     "map kind 'scale': factor='two' is not a number"),
    ("map with an unknown parameter", "quantale C = cost\n",
     "map s = scale(C -> C, factor=2, bogus=1)", "map kind 'scale' takes no parameter 'bogus'"),
    ("catalog", "",
     "catalog k { part a requires x provides y  part a requires y provides x }",
     "duplicate part name 'a'"),
    ("problem",
     "quantale C = cost\ncategory X over C { objects: a, b  order: chain }\n",
     "problem p : X -> X { default: 1  values { b -> a : inf } }",
     "bimodule"),
    ("table map with a repeated source", "quantale B = bool\n",
     "map t = table(B -> B) { true -> false  true -> true  false -> false }",
     "duplicate entry for true"),
    ("diagram", OPS_MODEL, "diagram d = pushforward(p, nope)", "unknown map 'nope'"),
    ("query", OPS_MODEL, "query d { diagram: nope  resource: r0  functionality: r0 }",
     "unknown diagram 'nope'"),
    ("sweep", OPS_MODEL, "sweep d { diagram: nope }", "unknown diagram 'nope'"),
]


@pytest.mark.parametrize(
    "case", DECL_FAILURES, ids=[c[0] for c in DECL_FAILURES]
)
def test_build_errors_name_their_declaration(case):
    _, prelude, decl, message = case
    err = _err(prelude + decl + "\n")
    assert message in err.message
    assert (err.line, err.column) == (prelude.count("\n") + 1, 1)
    assert err.entity == decl.split()[1]
