"""The model format's diagnostics and round trips: one pinned case per
error site, mutated shipped models that must fail only with located
ModelErrors, and names that render must write so that loads reads them
back."""

import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from qodesign import ModelDocument, ModelError, loads
from qodesign.categories import chain_category
from qodesign.lax import MAP_KINDS, Catalog, CatalogPart, LaxMap
from qodesign.model.parser import DIAGRAM_OPS, SYNTAX, Choice, parse_model
from qodesign.problems import identity_problem
from qodesign.quantales import cost_quantale, make_powerset

MODELS_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "qodesign" / "models"
SHIPPED = ["tracking", "tracking_bool", "uav_cost", "uav_powerset"]

C = "quantale C = cost\n"
X = C + "category X over C { objects: a, b  order: chain }\n"

# (case, text, message, line, column, entity); texts load under the name "m"
ERRORS = [
    # the tokenizer
    ("string-at-newline", 'quantale S = powerset("a\n, b)\n',
     "unterminated string", 1, 23, "S"),
    ("string-at-eof", 'quantale S = powerset("a', "unterminated string", 1, 23, "S"),
    ("stray-minus", C + "category X over C { objects: -a }\n",
     "stray '-' (names may not start with '-')", 2, 30, "X"),
    ("bad-character", C + "category X over C { objects: a $ }\n",
     "unexpected character '$'", 2, 32, "X"),
    ("bad-character-between-declarations", C + "$\n", "unexpected character '$'", 2, 1, "m"),
    ("eof-after-comment", "quantale C = # cost", "expected quantale kind, found ''", 1, 20, "C"),
    # between declarations
    ("declaration-keyword", C + "{ }\n", "expected a declaration keyword, found '{'", 2, 1, "m"),
    ("unknown-declaration", "quant C = cost\n", "unknown declaration 'quant'", 1, 1, "m"),
    ("declaration-name", "quantale = cost\n", "expected quantale name, found '='", 1, 10, "m"),
    # quantale
    ("quantale-equals", "quantale C cost\n", "expected '=', found 'cost'", 1, 12, "C"),
    ("quantale-kind", "quantale C = (\n", "expected quantale kind, found '('", 1, 14, "C"),
    ("unknown-quantale-kind", "quantale C = hyperreal\n",
     "unknown quantale kind 'hyperreal'", 1, 14, "C"),
    ("t-norm", 'quantale F = fuzz("godel")\n', "expected t-norm, found 'godel'", 1, 19, "F"),
    ("fuzz-close", "quantale F = fuzz(godel, goguen)\n", "expected ')', found ','", 1, 24, "F"),
    ("quantale-open", "quantale S = powerset a\n", "expected '(', found 'a'", 1, 23, "S"),
    ("quantale-argument", "quantale S = powerset(a, {)\n",
     "expected an object name, found '{'", 1, 26, "S"),
    # category
    ("over-or-equals", C + "category X of C { }\n",
     "expected 'over' or '=', found 'of'", 2, 12, "X"),
    ("category-constructor", C + "category Y = (A, B)\n",
     "expected 'tensor' or 'pushforward', found '('", 2, 14, "Y"),
    ("tensor-or-pushforward", C + "category Y = product(A, B)\n",
     "expected 'tensor' or 'pushforward', found 'product'", 2, 14, "Y"),
    ("tensor-comma", C + "category Y = tensor(A B)\n", "expected ',', found 'B'", 2, 23, "Y"),
    ("pushforward-map-name", C + 'category Y = pushforward(A, "m")\n',
     "expected map name, found 'm'", 2, 29, "Y"),
    ("category-quantale-name", C + "category X over { }\n",
     "expected quantale name, found '{'", 2, 17, "X"),
    ("category-open", C + "category X over C objects: a }\n",
     "expected '{', found 'objects'", 2, 19, "X"),
    ("category-field", C + "category X over C { : }\n", "expected field, found ':'", 2, 21, "X"),
    ("unknown-category-field", C + "category X over C { things: a }\n",
     "unknown category field 'things'", 2, 21, "X"),
    ("objects-need-commas", C + "category X over C { objects: a b }\n",
     "unknown category field 'b'", 2, 32, "X"),
    ("order-kind", C + 'category X over C { objects: a  order: "chain" }\n',
     "expected order kind, found 'chain'", 2, 40, "X"),
    ("unknown-order-kind", C + "category X over C {\n  objects: a\n  order: total\n}\n",
     "unknown order kind 'total'", 4, 10, "X"),
    ("hom-arrow", C + "category X over C { objects: a  hom { a a : 0 } }\n",
     "expected '->', found 'a'", 2, 41, "X"),
    ("hom-value", C + "category X over C { objects: a  hom { a -> a : } }\n",
     "expected a value, found '}'", 2, 48, "X"),
    ("missing-objects", C + "category X over C { order: chain }\n",
     "category 'X' is missing the objects field", 2, 1, "X"),
    # value trees
    ("value-set-element", X + "problem p : X -> X { default: [a, {] }\n",
     "expected an object name, found '{'", 3, 35, "p"),
    ("value-tuple-at-eof", X + "problem p : X -> X { default: (1, 2\n",
     "expected a value, found ''", 4, 1, "p"),
    # map
    ("map-kind", C + "map m = (C -> C)\n", "expected map kind, found '('", 2, 9, "m"),
    ("map-arrow", C + "map m = identity(C, C)\n", "expected '->', found ','", 2, 19, "m"),
    ("map-quantale-name", C + 'map m = identity(C -> "C")\n',
     "expected quantale name, found 'C'", 2, 23, "m"),
    ("parameter-name", C + "map m = scale(C -> C, =2)\n",
     "expected parameter name, found '='", 2, 23, "m"),
    ("parameter-value", C + 'map m = scale(C -> C, factor="2")\n',
     "expected parameter value, found '2'", 2, 30, "m"),
    ("no-table-block", C + "map m = identity(C -> C) { 1 -> 2 }\n",
     "map kind 'identity' takes no table block", 2, 1, "m"),
    ("table-needs-block", C + "map m = table(C -> C)\nquantale B = bool\n",
     "table map needs a { from -> to ... } block", 2, 1, "m"),
    ("table-arrow", C + "map m = table(C -> C) { 1 2 }\n", "expected '->', found '2'", 2, 27, "m"),
    # catalog
    ("catalog-part", "catalog k { piece a requires x provides y }\n",
     "expected 'part', found 'piece'", 1, 13, "k"),
    ("catalog-provides", "catalog k { part a requires x gives y }\n",
     "expected 'provides', found 'gives'", 1, 31, "k"),
    ("catalog-open", "catalog k part a requires x provides y\n",
     "expected '{', found 'part'", 1, 11, "k"),
    # problem
    ("problem-colon", X + "problem p X -> X { }\n", "expected ':', found 'X'", 3, 11, "p"),
    ("problem-category-name", X + 'problem p : "X" -> X { }\n',
     "expected category name, found 'X'", 3, 13, "p"),
    ("unknown-problem-field", X + "problem p : X -> X { vals { } }\n",
     "unknown problem field 'vals'", 3, 22, "p"),
    ("values-colon", X + "problem p : X -> X { values { a -> b 3 } }\n",
     "expected ':', found '3'", 3, 38, "p"),
    # diagram
    ("diagram-equals", "diagram d series(p, q)\n", "expected '=', found 'series'", 1, 11, "d"),
    ("diagram-expression", "diagram d = (p)\n",
     "expected diagram expression, found '('", 1, 13, "d"),
    ("unknown-diagram-operator", "diagram d = compose(p, q)\n",
     "unknown diagram operator 'compose'", 1, 13, "d"),
    ("diagram-slot-name", 'diagram d = trace(p, "M")\n', "expected name, found 'M'", 1, 22, "d"),
    ("diagram-close", "diagram d = identity(X, Y)\n", "expected ')', found ','", 1, 23, "d"),
    # query and sweep
    ("query-open", "query q diagram: d }\n", "expected '{', found 'diagram'", 1, 9, "q"),
    ("unknown-query-field", "query q { diagram: d  input: a }\n",
     "unknown query field 'input'", 1, 23, "q"),
    ("query-diagram-name", 'query q { diagram: "d" }\n',
     "expected diagram name, found 'd'", 1, 20, "q"),
    ("query-resource", "query q { resource: { }\n",
     "expected an object name, found '{'", 1, 21, "q"),
    ("query-missing-field", "query q {\n  diagram: d\n  resource: a\n}\n",
     "query 'q' is missing the functionality field", 1, 1, "q"),
    ("unknown-sweep-field", "sweep s { table: d }\n", "unknown sweep field 'table'", 1, 11, "s"),
    ("sweep-missing-diagram", "sweep s { }\n", "sweep 's' is missing the diagram field", 1, 1, "s"),
    ("sweep-colon", "sweep s { diagram d }\n", "expected ':', found 'd'", 1, 19, "s"),
    # a field or a map parameter given twice
    ("repeated-objects", C + "category X over C { objects: a, b  objects: c }\n",
     "repeated category field 'objects'", 2, 36, "X"),
    ("repeated-hom", C + "category X over C { objects: a  hom { }  hom { } }\n",
     "repeated category field 'hom'", 2, 42, "X"),
    ("repeated-default", X + "problem p : X -> X {\n  default: 1\n  default: 2\n}\n",
     "repeated problem field 'default'", 5, 3, "p"),
    ("repeated-values", X + "problem p : X -> X { values { }  values { } }\n",
     "repeated problem field 'values'", 3, 34, "p"),
    ("repeated-parameter", C + "map s = scale(C -> C, factor=2, factor=3)\n",
     "repeated map parameter 'factor'", 2, 33, "s"),
    ("repeated-query-field", "query q { diagram: d  diagram: e }\n",
     "repeated query field 'diagram'", 1, 23, "q"),
    ("repeated-sweep-field", "sweep s { diagram: d  diagram: e }\n",
     "repeated sweep field 'diagram'", 1, 23, "s"),
]


@pytest.mark.parametrize("case", ERRORS, ids=[c[0] for c in ERRORS])
def test_every_error_site_reports_message_position_and_entity(case):
    _, text, message, line, column, entity = case
    with pytest.raises(ModelError) as info:
        loads(text, "m")
    err = info.value
    assert (err.message, err.line, err.column, err.entity) == (message, line, column, entity)


# A token, roughly: a string, an arrow, one punctuation mark, or a run of
# anything else.  Mutants splice these, plus pieces the models never hold.
_PIECE = re.compile(r'"(?:[^"\\\n]|\\.)*"|->|[{}\[\]():,=]|[^\s{}\[\]():,="#]+')
_ODD = ["$", "-", '"', "#", "->", "{", "}", "(", ")", ",", ":", "=", "[", "]"]


def _mutants(text, n, seed):
    rng = random.Random(seed)
    spans = [m.span() for m in _PIECE.finditer(text)]
    pool = [text[a:b] for a, b in spans] + _ODD
    for _ in range(n):
        a, b = rng.choice(spans)
        op = rng.randrange(3)
        if op == 0:
            yield text[:a] + text[b:]
        elif op == 1:
            yield text[:a] + rng.choice(pool) + text[b:]
        else:
            yield text[:a] + rng.choice(pool) + " " + text[a:]


@pytest.mark.parametrize("name", SHIPPED)
def test_mutated_shipped_models_fail_only_with_located_model_errors(name):
    text = (MODELS_DIR / f"{name}.model").read_text()
    for mutant in _mutants(text, 200, 7):
        try:
            loads(mutant, name)
        except ModelError as err:
            assert err.line is not None and err.column is not None, (mutant, err)


# ---------------------------------------------------------------------------
# render writes only what loads reads back


def test_declaration_names_must_be_bare_words():
    doc = ModelDocument("names")
    c = doc.add_quantale("C", cost_quantale())
    with pytest.raises(ModelError) as info:
        doc.add_category("my cat", chain_category(c, ("a",)), ("chain",))
    assert (info.value.message, info.value.entity) == (
        "category name 'my cat' is not a bare word", "my cat",
    )
    assert "my cat" not in doc.categories


def test_render_refuses_an_object_name_that_spans_lines():
    doc = ModelDocument("names")
    c = doc.add_quantale("C", cost_quantale())
    doc.add_category("X", chain_category(c, ("a", "b\nc")), ("chain",))
    with pytest.raises(ModelError) as info:
        doc.render()
    assert (info.value.message, info.value.entity) == (
        "object name 'b\\nc' spans lines and cannot be written", "X",
    )


def test_render_refuses_a_map_kind_the_format_has_no_row_for():
    doc = ModelDocument("maps")
    c = doc.add_quantale("C", cost_quantale())
    doc.add_map("half", LaxMap("half", c, c, lambda v: v / 2, verdict="strict"))
    with pytest.raises(ModelError) as info:
        doc.render()
    assert (info.value.message, info.value.entity) == ("unknown map kind 'custom'", "half")


_PIECES = ['"', "\\", "-", "->", "#", " ", "é", "λ", "中", "(", ",", ")", "a", "b", "1"]
_NAMES = st.lists(st.sampled_from(_PIECES), min_size=1, max_size=4).map("".join)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
def test_object_names_survive_render_and_load(names):
    doc = ModelDocument("names")
    c = doc.add_quantale("C", cost_quantale())
    s = doc.add_quantale("S", make_powerset(names, "S"))
    x = doc.add_category("X", chain_category(c, names), ("chain",))
    doc.add_category("Y", chain_category(s, names))  # written as a hom table of sets
    doc.add_problem("p", identity_problem(x), "X", "X")
    doc.add_catalog("k", Catalog("k", tuple(CatalogPart(n, n, n) for n in names)))
    doc.add_query("q", "p", names[0], names[-1])
    text = doc.render()
    twin = loads(text, "names")
    assert twin.render() == text
    assert twin.categories["X"].objects == twin.categories["Y"].objects == tuple(names)
    assert set(twin.quantales["S"].params["base"]) == set(names)
    assert [p.name for p in twin.catalogs["k"].parts] == names
    assert (twin.queries["q"].resource, twin.queries["q"].functionality) == (names[0], names[-1])
    assert twin.categories["Y"].hom == doc.categories["Y"].hom


# ---------------------------------------------------------------------------
# the user documentation states the same format

DOCS = pathlib.Path(__file__).resolve().parents[1] / "docs" / "model_format.md"


def test_the_format_doc_agrees_with_the_syntax():
    text = DOCS.read_text()
    fenced = re.compile(r"^```\n(.*?)^```$", re.M | re.S)
    blocks = fenced.findall(text)
    assert len(blocks) > 10
    for block in blocks:
        parse_model(block)
    complete = fenced.search(text, text.index("\n## A complete file\n")).group(1)
    assert loads(complete, "tracking").render() == (MODELS_DIR / "tracking.model").read_text()
    code = "\n".join(blocks)
    for kind in SYNTAX:
        assert f"`{kind}`" in text, kind
    quantale_kinds = next(i for i in SYNTAX["quantale"] if isinstance(i, Choice)).branches
    for name in (*quantale_kinds, *MAP_KINDS, *DIAGRAM_OPS):
        assert re.search(rf"= {name}\b", code), name
