"""The package supports Python 3.10 (pyproject's requires-python), while
the tests run on a newer interpreter: no 3.11-only syntax or regex
construct may slip into src/."""

import ast
import importlib
import pathlib
import pkgutil
import re

import qodesign

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# re's pattern parser moved in 3.11; the two 3.11-only opcodes exist only there
_sre_parse = getattr(re, "_parser", None) or importlib.import_module("sre_parse")
_sre_constants = getattr(re, "_constants", None) or importlib.import_module("sre_constants")
_NEWER = {
    op for op in (
        getattr(_sre_constants, "POSSESSIVE_REPEAT", None),
        getattr(_sre_constants, "ATOMIC_GROUP", None),
    ) if op is not None
}


def test_sources_parse_as_python_3_10():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def _opcodes(sub):
    for op, av in sub:
        yield op
        for part in av if isinstance(av, (tuple, list)) else (av,):
            alternatives = part if isinstance(part, list) else (part,)  # a branch's
            for alt in alternatives:
                if isinstance(alt, _sre_parse.SubPattern):
                    yield from _opcodes(alt)


def _newer_constructs(pattern) -> set:
    return set(_opcodes(_sre_parse.parse(pattern.pattern, pattern.flags))) & _NEWER


def test_no_module_regex_uses_possessive_quantifiers_or_atomic_groups():
    if _NEWER:  # the check itself sees both constructs
        assert len(_newer_constructs(re.compile("(?>a|b)|x(?:c[*+])*+"))) == 2
    patterns = []
    for info in pkgutil.walk_packages(qodesign.__path__, "qodesign."):
        module = importlib.import_module(info.name)
        patterns += [v for v in vars(module).values() if isinstance(v, re.Pattern)]
    assert patterns
    for pattern in patterns:
        assert not _newer_constructs(pattern), pattern.pattern
