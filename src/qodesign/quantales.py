"""Commutative unital quantales: ordered carriers with joins and a monoid.

A quantale here is a complete lattice carrier (we only ever take finite
joins) together with an associative, commutative multiplication that
distributes over joins and has a unit.  The handle is a plain record of
callables in the spirit of a semiring-of-functions: builtins fill in the
fields, and tests may rebuild a handle with a deliberately broken
operation to exercise the law checker.

Builtin carriers:

- bool: {False, True}, or/and, unit True.
- pace: the four-point chain E < C < A < P, join = better of the two,
  multiplication = worst case, unit P.
- cost: [0, inf] with the order reversed (cheaper is higher), join = min,
  multiplication = addition, unit 0.
- nat: naturals with infinity, ordered and composed like cost.
- fuzz: [0, 1] with a t-norm (godel, goguen, or lukasiewicz); there is no
  default t-norm, the tag must be explicit.
- powerset: subsets of a finite name set, union joins, intersection
  multiplication, unit the full set.
- product: component-wise product of factor quantales.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from random import Random
from typing import Any, Callable, Iterable, Mapping

from .errors import QuantaleError
from .values import QValue, float_tol

FUZZ_TNORMS = ("godel", "goguen", "lukasiewicz")
BUILTIN_KINDS = ("bool", "pace", "cost", "nat", "fuzz")

_PACE_RANK = {"E": 0, "C": 1, "A": 2, "P": 3}
_PACE_BY_RANK = ("E", "C", "A", "P")


@dataclass(frozen=True, eq=False, repr=False)
class Quantale:
    """Handle bundling one quantale's carrier description and operations.

    Immutable; safe to share between documents and threads.  Engine code
    uses the method surface (leq/join/mult/hom/...) and never the private
    callables directly.
    """

    name: str
    kind: str
    unit: Any
    bottom: Any
    top: Any
    params: Mapping[str, Any] = field(default_factory=dict)
    _leq: Callable[[Any, Any], bool] = None
    _join2: Callable[[Any, Any], Any] = None
    _mult: Callable[[Any, Any], Any] = None
    _contains: Callable[[Any], bool] = None
    _equal: Callable[[Any, Any], bool] = None
    _normalize: Callable[[Any], Any] = None
    _hom: Callable[[Any, Any], Any] = None
    _elements: tuple = None
    _sample: Callable[[Random], Any] = None
    _format: Callable[[Any], str] = None
    # the kernel layer's memos (_fastpath), set in __init__ so that filling
    # one adds no key to the instance dict: the bit layout (False until
    # read, None for none), the object row and the unit, encoded
    _layout: Any = field(default_factory=lambda: False, init=False)
    _object_row: Any = field(default_factory=lambda: None, init=False)
    _unit: Any = field(default_factory=lambda: None, init=False)

    def __repr__(self):
        return f"Quantale({self.name!r}, kind={self.kind!r})"

    # -- carrier -----------------------------------------------------------

    def contains(self, payload) -> bool:
        return bool(self._contains(payload))

    def normalize(self, payload):
        """Coerce common aliases (sets, ints) into the canonical payload."""
        if self._normalize is not None:
            payload = self._normalize(payload)
        if not self.contains(payload):
            raise QuantaleError(
                f"{self.format_value_safe(payload)} is not in the carrier of {self.name}"
            )
        return payload

    def value(self, payload) -> QValue:
        return QValue(self.name, self.normalize(payload))

    @property
    def is_finite(self) -> bool:
        return self._elements is not None

    def elements(self) -> tuple:
        if self._elements is None:
            raise QuantaleError(f"{self.name} has no finite carrier enumeration")
        return self._elements

    def sample(self, rng: Random):
        if self._sample is not None:
            return self._sample(rng)
        if self._elements is not None:
            return rng.choice(self._elements)
        raise QuantaleError(f"{self.name} has no sampler")

    # -- order and monoid ---------------------------------------------------

    def leq(self, p, q) -> bool:
        return bool(self._leq(p, q))

    def equal(self, p, q) -> bool:
        if self._equal is not None:
            return bool(self._equal(p, q))
        return p == q

    def mult(self, p, q):
        return self._mult(p, q)

    def join(self, values: Iterable):
        """Join of a finite family; the empty family gives bottom.

        Reduction is left to right in iteration order, which pins the
        floating-point result for a given input sequence.
        """
        out = self.bottom
        for v in values:
            out = self._join2(out, v)
        return out

    def join2(self, p, q):
        """Join of two values: join((p, q)) with one binary join, not two."""
        return self._join2(p, q)

    def hom(self, p, q):
        """Internal hom [p, q]: the largest r with p * r below q."""
        if self._hom is not None:
            return self._hom(p, q)
        if self._elements is None:
            raise QuantaleError(
                f"{self.name}: no closed-form hom and carrier is not enumerable"
            )
        return self.join(r for r in self._elements if self.leq(self.mult(p, r), q))

    # -- rendering ----------------------------------------------------------

    def format_value(self, payload) -> str:
        if self._format is not None:
            return self._format(payload)
        return str(payload)

    def format_value_safe(self, payload) -> str:
        try:
            return self.format_value(payload)
        except Exception:
            return repr(payload)

    @property
    def signature(self):
        """Structural identity used for interface compatibility checks."""
        return _signature(self)


def _signature(q: Quantale):
    if q.kind == "fuzz":
        return ("fuzz", q.params["tnorm"])
    if q.kind == "powerset":
        return ("powerset", tuple(q.params["base"]))
    if q.kind == "product":
        return ("product", tuple(f.signature for f in q.params["factors"]))
    return (q.kind,)


def compatible(a: Quantale, b: Quantale) -> bool:
    """Whether two handles denote the same quantale structurally."""
    return _signature(a) == _signature(b)


# ---------------------------------------------------------------------------
# builtin constructors


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def bool_quantale(name: str = "Bool") -> Quantale:
    return Quantale(
        name=name,
        kind="bool",
        unit=True,
        bottom=False,
        top=True,
        _leq=lambda p, q: (not p) or q,
        _join2=lambda p, q: p or q,
        _mult=lambda p, q: p and q,
        _contains=lambda x: isinstance(x, bool),
        _hom=lambda p, q: (not p) or q,
        _elements=(False, True),
        _format=lambda v: "true" if v else "false",
    )


def pace_quantale(name: str = "Pace") -> Quantale:
    rank = _PACE_RANK
    return Quantale(
        name=name,
        kind="pace",
        unit="P",
        bottom="E",
        top="P",
        _leq=lambda p, q: rank[p] <= rank[q],
        _join2=lambda p, q: p if rank[p] >= rank[q] else q,
        _mult=lambda p, q: p if rank[p] <= rank[q] else q,
        _contains=lambda x: isinstance(x, str) and x in rank,
        _elements=_PACE_BY_RANK,
    )


def _fmt_number(v) -> str:
    if v == math.inf:
        return "inf"
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _cost_contains(x) -> bool:
    if not _is_number(x):
        return False
    if isinstance(x, float) and math.isnan(x):
        return False
    return x >= 0


def _cost_hom(p, q):
    # Residual of addition: largest (cheapest-order) r with p + r underneath q.
    if p == math.inf:
        return 0.0
    if q == math.inf:
        return math.inf
    return max(0.0, q - p)


def _cost_sample(rng: Random):
    r = rng.random()
    if r < 0.1:
        return 0.0
    if r < 0.2:
        return math.inf
    return round(rng.uniform(0.0, 40.0), 4)


def cost_quantale(name: str = "Cost") -> Quantale:
    tol = float_tol()
    return Quantale(
        name=name,
        kind="cost",
        unit=0.0,
        bottom=math.inf,
        top=0.0,
        _leq=lambda p, q: p >= q - tol,
        _join2=lambda p, q: p if p <= q else q,
        _mult=lambda p, q: p + q,
        _contains=_cost_contains,
        _equal=lambda p, q: p == q or abs(p - q) <= tol,
        _normalize=lambda x: float(x) if isinstance(x, int) else x,
        _hom=_cost_hom,
        _sample=_cost_sample,
        _format=_fmt_number,
    )


def _nat_contains(x) -> bool:
    if x == math.inf:
        return True
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _nat_hom(p, q):
    if p == math.inf:
        return 0
    if q == math.inf:
        return math.inf
    return max(0, q - p)


def nat_quantale(name: str = "Nat") -> Quantale:
    return Quantale(
        name=name,
        kind="nat",
        unit=0,
        bottom=math.inf,
        top=0,
        _leq=lambda p, q: p >= q,
        _join2=lambda p, q: p if p <= q else q,
        _mult=lambda p, q: p + q,
        _contains=_nat_contains,
        _normalize=lambda x: int(x) if isinstance(x, float) and x.is_integer() else x,
        _hom=_nat_hom,
        _sample=lambda rng: rng.choice([0, 1, 2, 3, 5, 8, 13, 100, math.inf]),
        # ints exactly: float text drops digits from 2**53 on and the parser reads no exponent
        _format=lambda v: str(v) if type(v) is int else _fmt_number(v),
    )


def _fuzz_contains(x) -> bool:
    return _is_number(x) and not math.isnan(float(x)) and 0.0 <= x <= 1.0


def fuzz_quantale(tnorm: str, name: str = None) -> Quantale:
    """The unit interval under a named t-norm.  The tag is mandatory."""
    if tnorm not in FUZZ_TNORMS:
        raise QuantaleError(
            f"unknown t-norm {tnorm!r}; expected one of {', '.join(FUZZ_TNORMS)}"
        )
    tol = float_tol()
    if tnorm == "godel":
        mult = lambda p, q: p if p <= q else q
        # [p, q] = 1 when p <= q, else q.
        hom = lambda p, q: 1.0 if p <= q + tol else q
    elif tnorm == "goguen":
        mult = lambda p, q: p * q
        hom = lambda p, q: 1.0 if p <= q + tol else (q + tol) / p - tol
    else:
        # p - (1 - q), not p + q - 1: it residuates exactly at tiny p, and
        # _fastpath._luk writes it so, bit for bit
        mult = lambda p, q: max(0.0, p - (1.0 - q))
        hom = lambda p, q: min(1.0, 1.0 - p + q)
    return Quantale(
        name=name or f"Fuzz[{tnorm}]",
        kind="fuzz",
        unit=1.0,
        bottom=0.0,
        top=1.0,
        params={"tnorm": tnorm},
        _leq=lambda p, q: p <= q + tol,
        _join2=lambda p, q: p if p >= q else q,
        _mult=mult,
        _contains=_fuzz_contains,
        _equal=lambda p, q: abs(p - q) <= tol,
        _normalize=lambda x: float(x) if isinstance(x, int) else x,
        _hom=hom,
        _sample=lambda rng: rng.choice([0.0, 1.0, rng.random(), round(rng.random(), 2)]),
        _format=_fmt_number,
    )


def _set_format(v: frozenset) -> str:
    return "[" + ",".join(sorted(v)) + "]"


def make_powerset(base: Iterable[str], name: str = None) -> Quantale:
    """Powerset quantale over a finite set of names.

    Join is union, multiplication intersection, unit the full set.  An
    empty base is allowed and gives the one-point quantale.
    """
    base_list = [str(b) for b in base]
    seen = set()
    for b in base_list:
        if b in seen:
            raise QuantaleError(f"duplicate name {b!r} in powerset base")
        seen.add(b)
    full = frozenset(base_list)

    def norm(x):
        if isinstance(x, frozenset) and x <= full:
            return x
        if isinstance(x, (set, frozenset, list, tuple)):
            return frozenset(str(e) for e in x)
        return x

    elements = None
    if len(base_list) <= 12:
        elements = tuple(
            frozenset(c)
            for r in range(len(base_list) + 1)
            for c in itertools.combinations(base_list, r)
        )

    def sample(rng: Random):
        return frozenset(b for b in base_list if rng.random() < 0.5)

    return Quantale(
        name=name or f"P[{','.join(base_list)}]",
        kind="powerset",
        unit=full,
        bottom=frozenset(),
        top=full,
        params={"base": tuple(base_list)},
        _leq=lambda p, q: p <= q,
        _join2=lambda p, q: p | q,
        _mult=lambda p, q: p & q,
        _contains=lambda x: isinstance(x, frozenset) and x <= full,
        _normalize=norm,
        _hom=lambda p, q: (full - p) | q,
        _elements=elements,
        _sample=sample,
        _format=_set_format,
    )


def make_product(factors: Iterable[Quantale], name: str = None) -> Quantale:
    """Component-wise product of factor quantales."""
    fs = tuple(factors)
    if not fs:
        raise QuantaleError("product quantale needs at least one factor")
    n = len(fs)

    def norm(x):
        if isinstance(x, (list, tuple)) and len(x) == n:
            return tuple(f.normalize(v) for f, v in zip(fs, x))
        return x

    def contains(x):
        return (
            isinstance(x, tuple)
            and len(x) == n
            and all(f.contains(v) for f, v in zip(fs, x))
        )

    elements = None
    if all(f._elements is not None for f in fs):
        count = 1
        for f in fs:
            count *= len(f._elements)
        if count <= 4096:
            elements = tuple(itertools.product(*(f._elements for f in fs)))

    hom = None
    if all(f._hom is not None or f._elements is not None for f in fs):
        hom = lambda p, q: tuple(f.hom(a, b) for f, a, b in zip(fs, p, q))

    return Quantale(
        name=name or "x".join(f.name for f in fs),
        kind="product",
        unit=tuple(f.unit for f in fs),
        bottom=tuple(f.bottom for f in fs),
        top=tuple(f.top for f in fs),
        params={"factors": fs},
        _leq=lambda p, q: all(f.leq(a, b) for f, a, b in zip(fs, p, q)),
        _join2=lambda p, q: tuple(f._join2(a, b) for f, a, b in zip(fs, p, q)),
        _mult=lambda p, q: tuple(f.mult(a, b) for f, a, b in zip(fs, p, q)),
        _contains=contains,
        _equal=lambda p, q: all(f.equal(a, b) for f, a, b in zip(fs, p, q)),
        _normalize=norm,
        _hom=hom,
        _elements=elements,
        _sample=lambda rng: tuple(f.sample(rng) for f in fs),
        _format=lambda v: "(" + ", ".join(f.format_value(a) for f, a in zip(fs, v)) + ")",
    )


def make_builtin(kind: str, name: str = None, **params) -> Quantale:
    """Construct one of the scalar builtin quantales by kind tag."""
    if kind == "bool":
        return bool_quantale(name or "Bool")
    if kind == "pace":
        return pace_quantale(name or "Pace")
    if kind == "cost":
        return cost_quantale(name or "Cost")
    if kind == "nat":
        return nat_quantale(name or "Nat")
    if kind == "fuzz":
        tnorm = params.get("tnorm")
        if tnorm is None:
            raise QuantaleError("fuzz quantale requires an explicit tnorm tag")
        return fuzz_quantale(tnorm, name)
    raise QuantaleError(
        f"unknown builtin kind {kind!r}; expected one of {', '.join(BUILTIN_KINDS)}"
    )


def internal_hom(q: Quantale, p, r) -> QValue:
    """Internal hom [p, r] as a tagged value.

    Uses the carrier's closed form when one is installed, otherwise falls
    back to the definitional join over a finite carrier.
    """
    pp = q.normalize(p.payload if isinstance(p, QValue) else p)
    rr = q.normalize(r.payload if isinstance(r, QValue) else r)
    return QValue(q.name, q.hom(pp, rr))


# ---------------------------------------------------------------------------
# law checking


@dataclass(frozen=True)
class LawCheck:
    law: str
    ok: bool
    counterexample: tuple = None


@dataclass(frozen=True)
class LawReport:
    quantale: str
    exhaustive: bool
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed(self):
        return tuple(c for c in self.checks if not c.ok)

    def format(self) -> str:
        lines = [
            f"laws for {self.quantale} "
            f"({'exhaustive' if self.exhaustive else 'sampled'}):"
        ]
        for c in self.checks:
            status = "ok" if c.ok else f"FAIL {c.counterexample}"
            lines.append(f"  {c.law}: {status}")
        return "\n".join(lines)


def _dedup(q: Quantale, pool):
    """The payloads of pool distinct under q.equal, in first-seen order."""
    out = []
    for p in pool:
        if not any(q.equal(p, o) for o in out):
            out.append(p)
    return out


def _law_pool(q: Quantale, samples: int, rng: Random):
    if q._elements is not None and len(q._elements) <= 40:
        return list(q._elements), True
    pool = [q.bottom, q.unit, q.top]
    for _ in range(max(4, samples)):
        pool.append(q.sample(rng))
    return _dedup(q, pool), False


# Each law: its name, its arity, and whether it holds of q at one tuple of
# payloads; check_laws reports the first tuple of the pool where it fails.
_LAWS = (
    ("order reflexive", 1, lambda q, p: q.leq(p, p)),
    ("order antisymmetric", 2,
     lambda q, p, r: not (q.leq(p, r) and q.leq(r, p)) or q.equal(p, r)),
    ("order transitive", 3,
     lambda q, p, r, s: not (q.leq(p, r) and q.leq(r, s)) or q.leq(p, s)),
    ("mult associative", 3,
     lambda q, p, r, s: q.equal(q.mult(q.mult(p, r), s), q.mult(p, q.mult(r, s)))),
    ("mult commutative", 2, lambda q, p, r: q.equal(q.mult(p, r), q.mult(r, p))),
    ("unit law", 1, lambda q, p: q.equal(q.mult(q.unit, p), p)),
    ("mult distributes over join", 3,
     lambda q, p, r, s: q.equal(
         q.mult(p, q.join([r, s])), q.join([q.mult(p, r), q.mult(p, s)])
     )),
    ("bottom absorbing", 1, lambda q, p: q.equal(q.mult(p, q.bottom), q.bottom)),
    ("join is upper bound", 2,
     lambda q, p, r: q.leq(p, j := q.join([p, r])) and q.leq(r, j)),
)


def check_laws(q: Quantale, samples: int = 12, rng: Random = None) -> LawReport:
    """Check the order and quantale laws on a finite sample of the carrier.

    Finite carriers of modest size are checked exhaustively.  Each law
    reports independently with a counterexample tuple on failure.
    """
    rng = rng or Random(20240901)
    pool, exhaustive = _law_pool(q, samples, rng)
    checks = []
    for name, arity, holds in _LAWS:
        w = next((t for t in itertools.product(pool, repeat=arity) if not holds(q, *t)), None)
        checks.append(LawCheck(name, w is None, w))
    return LawReport(q.name, exhaustive, tuple(checks))


def broken_clone(q: Quantale, name: str = None, **op_overrides) -> Quantale:
    """Clone a handle with selected private operations replaced.

    Intended for negative fixtures in tests (for example a cost carrier
    whose multiplication is deliberately wrong for the law checker).
    """
    fields = {f"_{k}" if not k.startswith("_") else k: v for k, v in op_overrides.items()}
    return replace(q, name=name or q.name + "*", **fields)
