"""The model format: its tokens, its syntax table, a reader and a writer.

A model file declares, in dependency order: quantales, categories, lax
maps, catalogs, design problems, diagrams (composition expressions),
queries, and sweeps.  SYNTAX states each declaration kind once.  The
reader walks it to parse text into Decl records, and the writer walks it
to print canonical text, so the two cannot disagree.  Reading is purely
syntactic; name resolution, payload conversion, and validation happen in
build_document.  docs/model_format.md describes the format for users.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ModelError
from ..lax import MAP_KINDS
from ..quantales import _fmt_number

# A bare word: a name written without quotes.  Any other name is written
# as a double-quoted string.
WORD = re.compile(r"[A-Za-z0-9_.*+/](?:[A-Za-z0-9_.*+/]|-(?!>))*")

# Blanks and comments match no group, and a string's group is its body.
_TOKEN = re.compile(
    r"[ \t\r]+|#[^\n]*|(?P<nl>\n)"
    rf"|(?P<word>{WORD.pattern})"
    r'|"(?P<string>(?:[^"\\\n]|\\["\\]|\\(?!["\\]))*)"'
    r"|(?P<arrow>->)|(?P<punct>[{}\[\]():,=])|(?P<error>.)"
)
_ESCAPE = re.compile(r'\\(["\\])')
_LEXICAL = {
    '"': "unterminated string",
    "-": "stray '-' (names may not start with '-')",
}

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


class Token(NamedTuple):
    kind: str  # word | string | punct | arrow | eof | error
    text: str  # an error token's text is its message
    line: int
    col: int


def tokenize(text: str) -> list:
    """The tokens of text, ending with eof.  A lexical fault ends them with
    an error token instead, which the parser reports when it reaches it."""
    toks = []
    line, bol = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "nl":
            line, bol = line + 1, m.end()
            continue
        body, col = m.group(kind), m.start() - bol + 1
        if kind == "error":
            toks.append(Token(kind, _LEXICAL.get(body, f"unexpected character {body!r}"), line, col))
            break
        if kind == "string" and "\\" in body:
            body = _ESCAPE.sub(r"\1", body)
        toks.append(Token(kind, body, line, col))
    toks.append(Token("eof", "", line, len(text) - bol + 1))
    return toks


def name_token(name: str) -> str:
    """Render a name as a bare word when possible, else quoted."""
    if WORD.fullmatch(name):
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


class Decl(NamedTuple):
    kind: str  # a SYNTAX key
    name: str
    fields: dict
    loc: Token  # the declaration's keyword


class _Parser:
    def __init__(self, toks, entity=None):
        self.toks = toks
        self.pos = 0
        self.entity = entity
        self.kw = self.name = None  # the declaration being read, once named

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, msg: str, tok: Token = None):
        tok = tok or self.peek()
        if tok.kind == "error":
            msg = tok.text
        raise ModelError(msg, tok.line, tok.col, self.name or self.entity)

    def at(self, text: str) -> bool:
        t = self.toks[self.pos]
        return t.text == text and t.kind != "string"

    def expect(self, text: str):
        t = self.next()
        if t.text != text or t.kind == "string":
            self.fail(f"expected {text!r}, found {t.text!r}", t)

    def word(self, what: str) -> Token:
        t = self.next()
        if t.kind != "word":
            self.fail(f"expected {what}, found {t.text!r}", t)
        return t

    def obj(self) -> str:
        t = self.next()
        if t.kind != "word" and t.kind != "string":
            self.fail(f"expected an object name, found {t.text!r}", t)
        return t.text

    def listed(self, read, closer: str) -> tuple:
        """Items up to closer, commas optional; the closer stays unread."""
        out = []
        while not self.at(closer):
            out.append(read())
            if self.at(","):
                self.next()
        return tuple(out)

    def objects(self) -> tuple:
        """One or more object names with commas between."""
        out = [self.obj()]
        while self.at(","):
            self.next()
            out.append(self.obj())
        return tuple(out)

    def value(self):
        """('atom', text, tok) | ('set', names, tok) | ('tuple', trees, tok)"""
        t = self.next()
        if t.kind == "word" or t.kind == "string":
            return ("atom", t.text, t)
        if t.kind == "punct" and t.text == "[":
            tree = ("set", self.listed(self.obj, "]"), t)
        elif t.kind == "punct" and t.text == "(":
            tree = ("tuple", self.listed(self.value, ")"), t)
        else:
            self.fail(f"expected a value, found {t.text!r}", t)
        self.next()
        return tree

    def expr(self):
        t = self.word("diagram expression")
        if not self.at("("):
            return ("ref", t.text)
        sig = DIAGRAM_OPS.get(t.text)
        if sig is None:
            self.fail(f"unknown diagram operator {t.text!r}", t)
        self.next()
        args = []
        for i, slot in enumerate(sig):
            if i:
                self.expect(",")
            args.append(self.expr() if slot == "expr" else self.word("name").text)
        self.expect(")")
        return (t.text, *args)

    def params(self) -> dict:
        params = {}
        while self.at(","):
            self.next()
            key = self.word("parameter name")
            if key.text in params:
                self.fail(f"repeated map parameter {key.text!r}", key)
            self.expect("=")
            params[key.text] = _number(self.word("parameter value").text)
        return params

    def document(self) -> list:
        decls = []
        while self.peek().kind != "eof":
            kw = self.next()
            if kw.kind != "word":
                self.fail(f"expected a declaration keyword, found {kw.text!r}", kw)
            if kw.text not in SYNTAX:
                self.fail(f"unknown declaration {kw.text!r}", kw)
            self.name = self.word(f"{kw.text} name").text
            self.kw = kw
            fields = {}
            _read(self, SYNTAX[kw.text], fields)
            decls.append(Decl(kw.text, self.name, fields, kw))
            self.name = None
        return decls


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


# -- the syntax items ---------------------------------------------------------
#
# A row of SYNTAX is a tuple of items.  A str is a literal token, written
# as given and read without its blanks.  The other items read into a
# declaration's fields and write them back; indent is the indentation of
# the line they are written on.


def _read(p: _Parser, items, fields: dict):
    for item in items:
        if item.__class__ is str:
            p.expect(item.strip())
        else:
            item.read(p, fields)


def _write(items, fields: dict, indent: str) -> str:
    return "".join(
        item if item.__class__ is str else item.write(fields, indent)
        for item in items
    )


class Field:
    """One field: a parser rule reads its value, text writes it back."""

    def __init__(self, name: str, rule, text=str):
        self.name, self.rule, self.text = name, rule, text

    def read(self, p, fields):
        fields[self.name] = self.rule(p)

    def write(self, fields, indent):
        return self.text(fields[self.name])


class Choice:
    """Branches chosen by the next token.  A named choice keeps that token
    in its field; an unnamed one is written as the branch whose first field
    is given.  what names an open set of keywords in errors."""

    def __init__(self, name, what, branches: dict):
        self.name, self.what, self.branches = name, what, branches
        self.by_token = {key.strip(): items for key, items in branches.items()}

    def read(self, p, fields):
        t = p.next()
        items = self.by_token.get(t.text) if t.kind != "string" else None
        if items is None:
            if self.what is None:
                keys = " or ".join(map(repr, self.by_token))
                p.fail(f"expected {keys}, found {t.text!r}", t)
            if t.kind != "word":
                p.fail(f"expected {self.what}, found {t.text!r}", t)
            p.fail(f"unknown {self.what} {t.text!r}", t)
        if self.name:
            fields[self.name] = t.text
        _read(p, items, fields)

    def write(self, fields, indent):
        if self.name is None:
            key = next(
                key for key, items in self.branches.items()
                if next(i for i in items if i.__class__ is not str).name in fields
            )
        else:
            key = fields[self.name]
            if key not in self.branches:
                raise ModelError(f"unknown {self.what} {key!r}")
        return key + _write(self.branches[key], fields, indent)


class Block:
    """A block of keyed fields `{ key ... }`.  Each key is the name of the
    field its items read, and may appear once."""

    def __init__(self, keys: dict, required=()):
        self.keys, self.required = keys, required

    def read(self, p, fields):
        p.expect("{")
        kind = p.kw.text
        while not p.at("}"):
            key = p.word("field")
            if key.text not in self.keys:
                p.fail(f"unknown {kind} field {key.text!r}", key)
            if key.text in fields:
                p.fail(f"repeated {kind} field {key.text!r}", key)
            _read(p, self.keys[key.text], fields)
        p.next()
        for key in self.required:
            if key not in fields:
                p.fail(f"{kind} {p.name!r} is missing the {key} field", p.kw)

    def write(self, fields, indent):
        inner = indent + "  "
        lines = "".join(
            f"\n{inner}{key}{_write(items, fields, inner)}"
            for key, items in self.keys.items()
            if key in fields
        )
        return f" {{{lines}\n{indent}}}"


class Entries:
    """A block of entries `{ entry ... }`.  Each entry is read by the same
    items into a tuple of their values followed by its first token."""

    def __init__(self, name: str, items, optional: bool = False):
        self.name, self.items, self.optional = name, items, optional
        self.names = [i.name for i in items if i.__class__ is not str]

    def read(self, p, fields):
        if self.optional and not p.at("{"):
            return
        p.expect("{")
        entries = []
        while not p.at("}"):
            loc = p.peek()
            entry = {}
            _read(p, self.items, entry)
            entries.append((*entry.values(), loc))
        p.next()
        fields[self.name] = entries

    def write(self, fields, indent):
        if self.name not in fields:
            return ""
        inner = indent + "  "
        lines = "".join(
            f"\n{inner}{_write(self.items, dict(zip(self.names, entry)), inner)}"
            for entry in fields[self.name]
        )
        return f" {{{lines}\n{indent}}}"


def _name_text(name: str) -> str:
    if "\n" in name or "\r" in name:
        raise ModelError(f"object name {name!r} spans lines and cannot be written")
    return name_token(name)


def _names_text(names) -> str:
    return ", ".join(map(_name_text, names))


def _params_text(params: dict) -> str:
    return "".join(
        f", {k}={_fmt_number(v) if isinstance(v, float) else v}"
        for k, v in sorted(params.items())
    )


def _expr_text(expr) -> str:
    op, *args = expr
    if op == "ref":
        return args[0]
    return op + "(" + ", ".join(
        _expr_text(a) if slot == "expr" else a for slot, a in zip(DIAGRAM_OPS[op], args)
    ) + ")"


def _word(name, what):
    return Field(name, lambda p: p.word(what).text)


def _obj(name):
    return Field(name, _Parser.obj, _name_text)


def _value(name):
    return Field(name, _Parser.value)


_NAMES = Field("args", lambda p: p.listed(p.obj, ")"), _names_text)
_CELL = (_obj("from"), " -> ", _obj("to"), " : ", _value("value"))

SYNTAX = {
    "quantale": (" = ", Choice("kind", "quantale kind", {
        "bool": (), "cost": (), "nat": (), "pace": (),
        "fuzz": ("(", Field("args", lambda p: (p.word("t-norm").text,), _names_text), ")"),
        "powerset": ("(", _NAMES, ")"),
        "product": ("(", _NAMES, ")"),
    })),
    "category": (Choice(None, None, {
        " over ": (_word("quantale", "quantale name"), Block({
            "objects": (": ", Field("objects", _Parser.objects, _names_text)),
            "order": (": ", Choice("order", "order kind", {
                "chain": (), "discrete": (), "grid": (),
            })),
            "default": (": ", _value("default")),
            "hom": (Entries("hom", _CELL),),
        }, required=("objects",))),
        " = ": (Choice("form", None, {
            "tensor": (
                "(", _word("first", "category name"),
                ", ", _word("second", "category name"), ")",
            ),
            "pushforward": (
                "(", _word("first", "category name"),
                ", ", _word("second", "map name"), ")",
            ),
        }),),
    }),),
    "map": (" = ", Choice("kind", "map kind", dict.fromkeys(MAP_KINDS, (
        "(", _word("source", "quantale name"), " -> ", _word("target", "quantale name"),
        Field("params", _Parser.params, _params_text), ")",
        Entries("entries", (_value("from"), " -> ", _value("to")), optional=True),
    )))),
    "catalog": (Entries("parts", (
        "part ", _obj("part"), " requires ", _obj("requires"), " provides ", _obj("provides"),
    )),),
    "problem": (
        " : ", _word("source", "category name"), " -> ", _word("target", "category name"),
        Block({
            "default": (": ", _value("default")),
            "values": (Entries("values", _CELL),),
        }),
    ),
    "diagram": (" = ", Field("expr", _Parser.expr, _expr_text)),
    "query": (Block({
        "diagram": (": ", _word("diagram", "diagram name")),
        "resource": (": ", _obj("resource")),
        "functionality": (": ", _obj("functionality")),
    }, required=("diagram", "resource", "functionality")),),
    "sweep": (Block({
        "diagram": (": ", _word("diagram", "diagram name")),
    }, required=("diagram",)),),
}


def parse_model(text: str, entity: str = None):
    """Parse model text into declaration records (no name resolution)."""
    return _Parser(tokenize(text), entity).document()


def write_decl(kind: str, name: str, fields: dict) -> str:
    """The canonical text of one declaration, from the fields a parse of
    it would give (with each value already written as text)."""
    return f"{kind} {name}{_write(SYNTAX[kind], fields, '')}"
