"""Tokenizer and syntactic parser for the declarative model format.

A model file declares, in dependency order: quantales, categories, lax
maps, catalogs, design problems, diagrams (composition expressions),
queries, and sweeps.  The parser is purely syntactic; name resolution,
payload conversion, and validation happen in build_document.

Grammar sketch (comments run # to end of line):

    quantale NAME = bool | cost | nat | pace | fuzz(TNORM)
                  | powerset(NAME, ...) | product(NAME, NAME, ...)

    category NAME over QUANTALE {
      objects: OBJ, OBJ, ...
      order: chain | discrete | grid          # or an explicit table:
      default: VALUE
      hom { OBJ -> OBJ : VALUE ... }
    }
    category NAME = tensor(CAT, CAT)
    category NAME = pushforward(CAT, MAP)

    map NAME = KIND(QUANTALE -> QUANTALE, key=value, ...)
    map NAME = table(QUANTALE -> QUANTALE) { VALUE -> VALUE ... }

    catalog NAME { part PNAME requires OBJ provides OBJ ... }

    problem NAME : CAT -> CAT {
      default: VALUE
      values { OBJ -> OBJ : VALUE ... }
    }

    diagram NAME = EXPR     # series(a, b), parallel(a, b), trace(a, CAT),
                            # hetero_series(a, b, MAP, MAP), pushforward(a, MAP),
                            # hetero_parallel(a, b, MAP, MAP),
                            # hetero_trace(a, CAT, MAP), identity(CAT),
                            # catalog_problem(CATALOG, CAT, CAT),
                            # implementation_series(CATALOG, CATALOG, CAT, CAT, CAT)

    query NAME { diagram: D  resource: OBJ  functionality: OBJ }
    sweep NAME { diagram: D }

Object names are bare words (letters, digits, ._*+/-) or double-quoted
strings; tensor object names like "(10W,60)" always need quotes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ModelError
from ..lax import MAP_KINDS

_WORD_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.*+/"
)
_PUNCT = set("{}[]():,=")

# Operator -> argument slots: "expr" is a subexpression; any other slot
# is a name looked up in that section of the document.
DIAGRAM_OPS = {
    "series": ("expr", "expr"),
    "parallel": ("expr", "expr"),
    "trace": ("expr", "category"),
    "hetero_series": ("expr", "expr", "map", "map"),
    "hetero_parallel": ("expr", "expr", "map", "map"),
    "hetero_trace": ("expr", "category", "map"),
    "pushforward": ("expr", "map"),
    "identity": ("category",),
    "catalog_problem": ("catalog", "category", "category"),
    "implementation_series": (
        "catalog", "catalog", "category", "category", "category",
    ),
}


@dataclass(frozen=True)
class Token:
    kind: str  # word | string | punct | arrow | eof
    text: str
    line: int
    col: int


def tokenize(text: str, entity: str = None):
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c == '"':
            i += 1
            col += 1
            buf = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    raise ModelError(
                        "unterminated string", start_line, start_col, entity
                    )
                if text[i] == "\\" and i + 1 < n and text[i + 1] in '"\\':
                    buf.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                buf.append(text[i])
                i += 1
                col += 1
            if i >= n:
                raise ModelError("unterminated string", start_line, start_col, entity)
            i += 1
            col += 1
            toks.append(Token("string", "".join(buf), start_line, start_col))
            continue
        if c == "-" :
            if i + 1 < n and text[i + 1] == ">":
                toks.append(Token("arrow", "->", start_line, start_col))
                i += 2
                col += 2
                continue
            # minus inside a numeric word such as 1e-06
            raise ModelError(
                "stray '-' (names may not start with '-')",
                start_line,
                start_col,
                entity,
            )
        if c in _PUNCT:
            toks.append(Token("punct", c, start_line, start_col))
            i += 1
            col += 1
            continue
        if c in _WORD_CHARS:
            buf = []
            while i < n:
                ch = text[i]
                if ch in _WORD_CHARS:
                    buf.append(ch)
                    i += 1
                    col += 1
                    continue
                if (
                    ch == "-"
                    and not (i + 1 < n and text[i + 1] == ">")
                ):
                    buf.append(ch)
                    i += 1
                    col += 1
                    continue
                break
            toks.append(Token("word", "".join(buf), start_line, start_col))
            continue
        raise ModelError(f"unexpected character {c!r}", line, col, entity)
    toks.append(Token("eof", "", line, col))
    return toks


# -- declaration records (purely syntactic) ---------------------------------


@dataclass(frozen=True)
class Loc:
    line: int
    col: int


@dataclass
class QuantaleDecl:
    name: str
    kind: str
    args: tuple
    loc: Loc


@dataclass
class CategoryDecl:
    name: str
    quantale: Optional[str]
    objects: tuple
    order: Optional[str]  # chain | discrete | grid | None (explicit table)
    default: Optional[tuple]
    hom_entries: tuple  # ((from, to, valuetree, loc), ...)
    tensor_of: Optional[tuple]
    pushforward_of: Optional[tuple]  # (category name, map name)
    loc: Loc


@dataclass
class MapDecl:
    name: str
    kind: str
    source: str
    target: str
    params: dict
    table_entries: tuple  # ((fromtree, totree, loc), ...)
    loc: Loc


@dataclass
class CatalogDecl:
    name: str
    parts: tuple  # ((part, requires, provides, loc), ...)
    loc: Loc


@dataclass
class ProblemDecl:
    name: str
    source: str
    target: str
    default: Optional[tuple]
    entries: tuple  # ((from, to, valuetree, loc), ...)
    loc: Loc


@dataclass
class DiagramDecl:
    name: str
    expr: tuple
    loc: Loc


@dataclass
class QueryDecl:
    name: str
    diagram: str
    resource: str
    functionality: str
    loc: Loc


@dataclass
class SweepDecl:
    name: str
    diagram: str
    loc: Loc


class _Parser:
    def __init__(self, toks, entity=None):
        self.toks = toks
        self.pos = 0
        self.entity = entity
        self.decl = None  # name of the declaration being parsed, once read

    # -- token helpers

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, msg: str, tok: Token = None):
        tok = tok or self.peek()
        raise ModelError(msg, tok.line, tok.col, self.decl or self.entity)

    def decl_name(self, what: str) -> str:
        """The declaration's name; later errors in it are tagged with it."""
        self.decl = self.expect_word(what).text
        return self.decl

    def expect_punct(self, ch: str) -> Token:
        t = self.next()
        if t.kind != "punct" or t.text != ch:
            self.fail(f"expected {ch!r}, found {t.text!r}", t)
        return t

    def expect_arrow(self) -> Token:
        t = self.next()
        if t.kind != "arrow":
            self.fail(f"expected '->', found {t.text!r}", t)
        return t

    def expect_word(self, what="name") -> Token:
        t = self.next()
        if t.kind != "word":
            self.fail(f"expected {what}, found {t.text!r}", t)
        return t

    def expect_keyword(self, kw: str) -> Token:
        t = self.next()
        if t.kind != "word" or t.text != kw:
            self.fail(f"expected {kw!r}, found {t.text!r}", t)
        return t

    def at_punct(self, ch: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == ch

    def objref(self) -> str:
        t = self.next()
        if t.kind not in ("word", "string"):
            self.fail(f"expected an object name, found {t.text!r}", t)
        return t.text

    # -- value trees: ('atom', text) | ('set', (names...)) | ('tuple', (trees...))

    def value_tree(self):
        t = self.peek()
        if t.kind == "punct" and t.text == "[":
            self.next()
            names = []
            while not self.at_punct("]"):
                names.append(self.objref())
                if self.at_punct(","):
                    self.next()
            self.expect_punct("]")
            return ("set", tuple(names), Loc(t.line, t.col))
        if t.kind == "punct" and t.text == "(":
            self.next()
            parts = []
            while not self.at_punct(")"):
                parts.append(self.value_tree())
                if self.at_punct(","):
                    self.next()
            self.expect_punct(")")
            return ("tuple", tuple(parts), Loc(t.line, t.col))
        if t.kind in ("word", "string"):
            self.next()
            return ("atom", t.text, Loc(t.line, t.col))
        self.fail(f"expected a value, found {t.text!r}", t)

    # -- statements

    def document(self):
        decls = []
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "word":
                self.fail(f"expected a declaration keyword, found {t.text!r}", t)
            handler = {
                "quantale": self.quantale_stmt,
                "category": self.category_stmt,
                "map": self.map_stmt,
                "catalog": self.catalog_stmt,
                "problem": self.problem_stmt,
                "diagram": self.diagram_stmt,
                "query": self.query_stmt,
                "sweep": self.sweep_stmt,
            }.get(t.text)
            if handler is None:
                self.fail(f"unknown declaration {t.text!r}", t)
            decls.append(handler())
            self.decl = None
        return decls

    def quantale_stmt(self):
        kw = self.next()
        name = self.decl_name("quantale name")
        self.expect_punct("=")
        kind_tok = self.expect_word("quantale kind")
        kind = kind_tok.text
        args = ()
        if kind in ("bool", "cost", "nat", "pace"):
            pass
        elif kind == "fuzz":
            self.expect_punct("(")
            args = (self.expect_word("t-norm").text,)
            self.expect_punct(")")
        elif kind in ("powerset", "product"):
            self.expect_punct("(")
            names = []
            while not self.at_punct(")"):
                names.append(self.objref())
                if self.at_punct(","):
                    self.next()
            self.expect_punct(")")
            args = tuple(names)
        else:
            self.fail(f"unknown quantale kind {kind!r}", kind_tok)
        return QuantaleDecl(name, kind, args, Loc(kw.line, kw.col))

    def category_stmt(self):
        kw = self.next()
        name = self.decl_name("category name")
        t = self.next()
        if t.kind == "punct" and t.text == "=":
            form = self.expect_word("category constructor")
            if form.text not in ("tensor", "pushforward"):
                self.fail(
                    f"expected 'tensor' or 'pushforward', found {form.text!r}", form
                )
            self.expect_punct("(")
            a = self.expect_word("category name").text
            self.expect_punct(",")
            b = self.expect_word("map name" if form.text == "pushforward" else "category name").text
            self.expect_punct(")")
            tensor_of = (a, b) if form.text == "tensor" else None
            push_of = (a, b) if form.text == "pushforward" else None
            return CategoryDecl(
                name, None, (), None, None, (), tensor_of, push_of,
                Loc(kw.line, kw.col),
            )
        if not (t.kind == "word" and t.text == "over"):
            self.fail(f"expected 'over' or '=', found {t.text!r}", t)
        quantale = self.expect_word("quantale name").text
        self.expect_punct("{")
        objects, order, default, entries = None, None, None, []
        while not self.at_punct("}"):
            key = self.expect_word("field")
            if key.text == "objects":
                self.expect_punct(":")
                objs = [self.objref()]
                while self.at_punct(","):
                    self.next()
                    objs.append(self.objref())
                objects = tuple(objs)
            elif key.text == "order":
                self.expect_punct(":")
                order = self.expect_word("order kind").text
                if order not in ("chain", "discrete", "grid"):
                    self.fail(f"unknown order kind {order!r}", key)
            elif key.text == "default":
                self.expect_punct(":")
                default = self.value_tree()
            elif key.text == "hom":
                self.expect_punct("{")
                while not self.at_punct("}"):
                    ft = self.peek()
                    src = self.objref()
                    self.expect_arrow()
                    dst = self.objref()
                    self.expect_punct(":")
                    entries.append((src, dst, self.value_tree(), Loc(ft.line, ft.col)))
                self.expect_punct("}")
            else:
                self.fail(f"unknown category field {key.text!r}", key)
        self.expect_punct("}")
        if objects is None:
            self.fail(f"category {name!r} has no objects field", kw)
        return CategoryDecl(
            name, quantale, objects, order, default, tuple(entries), None, None,
            Loc(kw.line, kw.col),
        )

    def map_stmt(self):
        kw = self.next()
        name = self.decl_name("map name")
        self.expect_punct("=")
        kind_tok = self.expect_word("map kind")
        kind = kind_tok.text
        if kind not in MAP_KINDS:
            self.fail(f"unknown map kind {kind!r}", kind_tok)
        self.expect_punct("(")
        source = self.expect_word("quantale name").text
        self.expect_arrow()
        target = self.expect_word("quantale name").text
        params = {}
        while self.at_punct(","):
            self.next()
            key = self.expect_word("parameter name").text
            self.expect_punct("=")
            val = self.expect_word("parameter value").text
            params[key] = _param_value(val)
        self.expect_punct(")")
        table_entries = []
        if self.at_punct("{"):
            if kind != "table":
                self.fail(f"map kind {kind!r} takes no table block", kind_tok)
            self.next()
            while not self.at_punct("}"):
                ft = self.peek()
                src = self.value_tree()
                self.expect_arrow()
                dst = self.value_tree()
                table_entries.append((src, dst, Loc(ft.line, ft.col)))
            self.expect_punct("}")
        elif kind == "table":
            self.fail("table map needs a { from -> to ... } block", kind_tok)
        return MapDecl(
            name, kind, source, target, params, tuple(table_entries),
            Loc(kw.line, kw.col),
        )

    def catalog_stmt(self):
        kw = self.next()
        name = self.decl_name("catalog name")
        self.expect_punct("{")
        parts = []
        while not self.at_punct("}"):
            pt = self.expect_keyword("part")
            pname = self.objref()
            self.expect_keyword("requires")
            req = self.objref()
            self.expect_keyword("provides")
            prov = self.objref()
            parts.append((pname, req, prov, Loc(pt.line, pt.col)))
        self.expect_punct("}")
        return CatalogDecl(name, tuple(parts), Loc(kw.line, kw.col))

    def problem_stmt(self):
        kw = self.next()
        name = self.decl_name("problem name")
        self.expect_punct(":")
        source = self.expect_word("category name").text
        self.expect_arrow()
        target = self.expect_word("category name").text
        self.expect_punct("{")
        default, entries = None, []
        while not self.at_punct("}"):
            key = self.expect_word("field")
            if key.text == "default":
                self.expect_punct(":")
                default = self.value_tree()
            elif key.text == "values":
                self.expect_punct("{")
                while not self.at_punct("}"):
                    ft = self.peek()
                    src = self.objref()
                    self.expect_arrow()
                    dst = self.objref()
                    self.expect_punct(":")
                    entries.append((src, dst, self.value_tree(), Loc(ft.line, ft.col)))
                self.expect_punct("}")
            else:
                self.fail(f"unknown problem field {key.text!r}", key)
        self.expect_punct("}")
        return ProblemDecl(
            name, source, target, default, tuple(entries), Loc(kw.line, kw.col)
        )

    def diagram_stmt(self):
        kw = self.next()
        name = self.decl_name("diagram name")
        self.expect_punct("=")
        expr = self.dexpr()
        return DiagramDecl(name, expr, Loc(kw.line, kw.col))

    def dexpr(self):
        t = self.expect_word("diagram expression")
        if not self.at_punct("("):
            return ("ref", t.text)
        if t.text not in DIAGRAM_OPS:
            self.fail(f"unknown diagram operator {t.text!r}", t)
        sig = DIAGRAM_OPS[t.text]
        self.expect_punct("(")
        args = []
        for i, slot in enumerate(sig):
            if i:
                self.expect_punct(",")
            if slot == "expr":
                args.append(self.dexpr())
            else:
                args.append(self.expect_word("name").text)
        self.expect_punct(")")
        return (t.text,) + tuple(args)

    def query_stmt(self):
        kw = self.next()
        name = self.decl_name("query name")
        self.expect_punct("{")
        fields = {}
        while not self.at_punct("}"):
            key = self.expect_word("field")
            if key.text not in ("diagram", "resource", "functionality"):
                self.fail(f"unknown query field {key.text!r}", key)
            self.expect_punct(":")
            fields[key.text] = (
                self.expect_word("diagram name").text
                if key.text == "diagram"
                else self.objref()
            )
        self.expect_punct("}")
        for req in ("diagram", "resource", "functionality"):
            if req not in fields:
                self.fail(f"query {name!r} is missing the {req} field", kw)
        return QueryDecl(
            name, fields["diagram"], fields["resource"], fields["functionality"],
            Loc(kw.line, kw.col),
        )

    def sweep_stmt(self):
        kw = self.next()
        name = self.decl_name("sweep name")
        self.expect_punct("{")
        diagram = None
        while not self.at_punct("}"):
            key = self.expect_word("field")
            if key.text != "diagram":
                self.fail(f"unknown sweep field {key.text!r}", key)
            self.expect_punct(":")
            diagram = self.expect_word("diagram name").text
        self.expect_punct("}")
        if diagram is None:
            self.fail(f"sweep {name!r} is missing the diagram field", kw)
        return SweepDecl(name, diagram, Loc(kw.line, kw.col))


def _param_value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_model(text: str, entity: str = None):
    """Parse model text into declaration records (no name resolution)."""
    return _Parser(tokenize(text, entity), entity).document()
