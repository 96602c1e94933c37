"""Categories enriched in a quantale: objects plus a hom matrix.

A Q-category is a finite object list with hom(x, y) drawn from the
quantale, satisfying

    e <= hom(x, x)                      (identity)
    hom(x, y) * hom(y, z) <= hom(x, z)  (composition)

Rows index the first argument.  Bool-enriched categories are preorders;
cost-enriched ones are generalized metric spaces.  Instances are immutable
and validated at construction, so they are safe for shared reads.  A
category is held as its hom in its carrier's kernel mode (see _fastpath),
one C-contiguous, read-only array (_hold): payload rows pass one door,
_rows_array; the chain, discrete and grid constructors and from_order
build their arrays directly; a pushforward holds its mapped array and a
tensor its factors.  The hom is decoded on first read, hom_payload decodes
one cell, and == (exact; same_interface is within tol) decodes nothing.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import _fastpath
from .errors import CategoryError, CompositionError, LaxityError, QuantaleError
from .quantales import Quantale, compatible
from .values import float_tol


@dataclass(frozen=True, eq=False)
class QCategory:
    quantale: Quantale
    objects: tuple
    hom: InitVar[object]  # payload rows or an array, held by _hold; None for a tensor
    factors: Optional[tuple] = None

    def __post_init__(self, hom):
        index = {name: i for i, name in enumerate(self.objects)}
        if len(index) != len(self.objects):
            dup = next(o for i, o in enumerate(self.objects) if o in self.objects[:i])
            raise CategoryError(f"duplicate object name {dup!r}")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_tensor", hom is None)  # its hom: the factors' multiplied
        object.__setattr__(self, "_array", None if hom is None else _hold(self.quantale, hom, len(index)))
        object.__setattr__(self, "_presentation", None)  # read through _generators

    def __getattr__(self, name):
        # the hom is decoded from the held array on first read
        if name != "hom":
            raise AttributeError(name)
        object.__setattr__(self, "hom", _decode_rows(self.quantale, _hom_array(self)))
        return self.hom

    def __eq__(self, other):
        """Exact equality of the decoded homs, on equal tensor factors or the held arrays."""
        if not isinstance(other, QCategory):
            return NotImplemented
        if self is other or (self._tensor and other._tensor and self.factors == other.factors):
            return True
        same = self.quantale is other.quantale and self.objects == other.objects
        return same and np.array_equal(_hom_array(self), _hom_array(other))

    def __hash__(self):
        return hash((self.quantale, self.objects))

    def __repr__(self):
        return (
            f"QCategory({len(self.objects)} objects over {self.quantale.name})"
        )

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CategoryError(f"unknown object {name!r}") from None

    def has_object(self, name: str) -> bool:
        return name in self._index

    def hom_payload(self, x: str, y: str):
        """hom(x, y), one cell decoded: a tensor's from its factors' rows."""
        line = _hom_line(self, _fastpath.mode_for(self.quantale), self.index(x))
        return _cell(self.quantale, line, self.index(y))

    def leq_objects(self, x: str, y: str) -> bool:
        """x precedes y: the hom from x to y carries the full unit."""
        q = self.quantale
        return q.leq(q.unit, self.hom_payload(x, y))

    def same_interface(self, other: "QCategory") -> bool:
        return _interface_mismatch(self, other) is None


def _interface_mismatch(a: QCategory, b: QCategory):
    """None when a and b are one interface, else what differs first: quantales,
    objects, or the first hom cell either is above the other at, as q.equal."""
    if a is b:
        return None
    if not compatible(a.quantale, b.quantale):
        return f"quantale mismatch ({a.quantale.name} vs {b.quantale.name})"
    xs, ys = a.objects, b.objects
    if xs != ys:
        i = next((i for i, (x, y) in enumerate(zip(xs, ys)) if x != y), min(len(xs), len(ys)))
        first = (xs if i < len(xs) else ys)[i]
        return f"object mismatch ({len(xs)} vs {len(ys)} objects; first difference {first!r})"
    ha, hb, tol = _hom_array(a), _hom_array(b), float_tol()
    above = _fastpath._ALGEBRA[_fastpath.mode_for(a.quantale)].above
    cell = _fastpath._first_true(above(ha, hb, tol) | above(hb, ha, tol))
    return None if cell is None else f"hom tables differ at ({xs[cell[0]]!r}, {xs[cell[1]]!r})"


def _rows_array(
    q: Quantale, row_names, col_names, rows, error, prefix: str = "", noun: str = "row"
):
    """Payload rows as an array in q's kernel mode, shape checked.  Each
    distinct payload object is normalized, and so checked for membership,
    once (decode_shared's shared payloads cost one call), and coded by
    _fastpath.coder.  Failures raise error naming the entry."""
    if len(rows) != len(row_names):
        raise error(f"{prefix}expected {len(row_names)} {noun}s, got {len(rows)}")
    n, mode = len(col_names), _fastpath.mode_for(q)
    code = _fastpath.coder(q, mode)
    done = {}  # id(payload) -> cell
    alive = []  # the payloads keyed in done, so that no id is reused
    cells = []
    for i, row in enumerate(rows):
        row = list(row)
        if len(row) != n:
            raise error(
                f"{prefix}{noun} for {row_names[i]!r} has {len(row)} entries, expected {n}"
            )
        for j, v in enumerate(row):
            c = done.get(id(v))
            if c is None:
                try:
                    p = q.normalize(v)
                except QuantaleError as exc:
                    raise error(
                        f"{prefix}entry ({row_names[i]!r}, {col_names[j]!r}): {exc}"
                    ) from None
                c = done[id(v)] = p if code is None else code(p)
                alive.append(v)
            cells.append(c)
    return np.fromiter(cells, _fastpath._ALGEBRA[mode].dtype).reshape(len(rows), n)


def _hold(q: Quantale, table, cols: int):
    """table, payload rows (encoded unchecked, cols columns if none) or an array
    in q's mode, held C-contiguous and read-only: no table writes a shared buffer."""
    if not isinstance(table, np.ndarray):
        table = _fastpath.encode(q, _fastpath.mode_for(q), table).reshape(len(table), cols)
    arr = np.ascontiguousarray(table)
    arr.setflags(write=False)
    return arr


def check_category_axioms(q: Quantale, objects, hom):
    """Return None when both axioms hold, else a witness description.

    hom is payload rows, or a category's hom as _hom_array holds it.  The
    witness is ("identity", x), else the first ("composition", x, y, z) in
    (x, z, y) order, which _fastpath.category_violation names.
    """
    if len(objects) == 0:
        return None
    mode, tol = _fastpath.mode_for(q), float_tol()
    h = hom if isinstance(hom, np.ndarray) else _fastpath.encode(q, mode, hom)
    bad = _fastpath._first_true(_fastpath._ALGEBRA[mode].above(_unit(q), h.diagonal(), tol))
    if bad is not None:
        return ("identity", objects[bad[0]])
    cell = _fastpath.category_violation(mode, h, tol)
    if cell is None:
        return None
    x, z, y = cell
    return ("composition", objects[x], objects[y], objects[z])


def _validate(cat: QCategory, context: str = ""):
    """Raise CategoryError naming a witness if cat breaks an axiom."""
    witness = check_category_axioms(cat.quantale, cat.objects, _hom_array(cat))
    if witness is None:
        return
    suffix = f" {context}" if context else ""
    if witness[0] == "identity":
        raise CategoryError(
            f"identity axiom fails at object {witness[1]!r}: "
            f"unit not below hom({witness[1]!r}, {witness[1]!r}){suffix}"
        )
    _, x, y, z = witness
    raise CategoryError(
        f"composition axiom fails on ({x!r}, {y!r}, {z!r}): "
        f"hom({x!r},{y!r}) * hom({y!r},{z!r}) not below hom({x!r},{z!r}){suffix}"
    )


def build_category(
    quantale: Quantale,
    objects: Sequence[str],
    hom: Sequence[Sequence],
    validate: bool = True,
) -> QCategory:
    """Construct and (by default) validate a Q-category.

    Validation is exhaustive over all object triples; a failed axiom
    raises CategoryError naming a concrete witness.
    """
    objs = tuple(str(o) for o in objects)
    arr = _rows_array(quantale, objs, objs, hom, CategoryError, "hom matrix: ")
    return _category(quantale, objs, arr, validate)


def from_order(
    quantale: Quantale, objects: Sequence[str], pairs: Iterable
) -> QCategory:
    """Bool-category from a relation, closed reflexively and transitively.

    pairs contains (low, high) object pairs meaning low precedes high.
    """
    if quantale.kind != "bool":
        raise CategoryError("from_order requires a bool-kind quantale")
    objs = tuple(str(o) for o in objects)
    index = {o: i for i, o in enumerate(objs)}
    if len(index) != len(objs):
        raise CategoryError("duplicate object name in order")
    rel = np.eye(len(objs), dtype=bool)
    for a, b in pairs:
        sa, sb = str(a), str(b)
        if sa not in index:
            raise CategoryError(f"unknown object {sa!r} in order pair")
        if sb not in index:
            raise CategoryError(f"unknown object {sb!r} in order pair")
        rel[index[sa], index[sb]] = True
    return _category(quantale, objs, _fastpath.closure("bool", rel))


def _category(q: Quantale, objs: tuple, arr, validate: bool = True) -> QCategory:
    """The category on objs held as arr, its hom in q's mode, validated."""
    cat = QCategory(q, objs, arr)
    if validate:
        _validate(cat)
    return cat


def _masked(q: Quantale, objects: Sequence[str], mask) -> QCategory:
    """The category with hom the unit where mask(n) is 1, bottom where 0."""
    objs = tuple(str(o) for o in objects)
    cells = _fastpath.encode(q, _fastpath.mode_for(q), [[q.bottom, q.unit]])[0]
    return _category(q, objs, cells[mask(len(objs))])


def chain_category(quantale: Quantale, objects: Sequence[str]) -> QCategory:
    """Chain in listed order: unit hom to every later object, bottom back."""
    return _masked(quantale, objects, lambda n: np.triu(np.ones((n, n), dtype=int)))


def discrete_category(quantale: Quantale, objects: Sequence[str]) -> QCategory:
    """Category with only the mandatory identity structure."""
    return _masked(quantale, objects, lambda n: np.eye(n, dtype=int))


def _grid(q: Quantale, nums):
    """hom(a, b) = max(b - a, 0) over the numbers nums, in q's mode: on
    Python ints in nat's object arrays, on floats in cost's."""
    if q.kind not in ("cost", "nat"):
        raise CategoryError(f"a grid needs a cost or nat quantale, not {q.name}")
    v = np.array(nums, _fastpath._ALGEBRA[_fastpath.mode_for(q)].dtype)
    return np.maximum(v - v[:, None], 0)


def nat_category(
    cap: int, include_inf: bool = False, quantale: Quantale = None
) -> QCategory:
    """Nat-enriched category on 0..cap: hom(n, m) = max(m - n, 0).

    The hom counts the shortfall from n up to m; with include_inf an
    unreachable top object is appended.
    """
    from .quantales import nat_quantale

    if cap < 0:
        raise CategoryError("cap must be nonnegative")
    q = quantale or nat_quantale()
    if q.kind != "nat":
        raise CategoryError("nat_category requires the nat quantale")
    objs = tuple(map(str, range(cap + 1))) + (("inf",) if include_inf else ())
    hom = np.zeros((len(objs), len(objs)), object)  # inf's row: no shortfall to any object
    hom[: cap + 1, : cap + 1] = _grid(q, range(cap + 1))
    hom[: cap + 1, cap + 1 :] = math.inf  # and no object below reaches it
    return _category(q, objs, hom)


def nat_grid_category(grid: Sequence[int], quantale: Quantale = None) -> QCategory:
    """Nat-enriched category on an ascending integer grid."""
    from .quantales import nat_quantale

    q, values = quantale or nat_quantale(), [int(v) for v in grid]
    return _category(q, tuple(map(str, values)), _grid(q, values))


def pair_name(a: str, b: str) -> str:
    return f"({a},{b})"


def _decode_rows(q: Quantale, arr) -> tuple:
    """arr, in q's mode, as payload rows: decode's are normal already.  From
    OUTER_MIN_CELLS cells on, cells of one numeric value share one payload
    object; nat's and an object row's cells are payloads."""
    big, mode = arr.size >= _fastpath.OUTER_MIN_CELLS, _fastpath.mode_for(q)
    return tuple(map(tuple, (_fastpath.decode_shared if big else _fastpath.decode)(q, mode, arr)))


def _cell(q: Quantale, line, j: int):
    """Cell j of line, an array in q's mode, as its payload."""
    return _fastpath.decode(q, _fastpath.mode_for(q), line[None, j : j + 1])[0][0]


def _leaves(cat: QCategory) -> tuple:
    """A tensor's factors, nested tensors flattened, in object order."""
    return sum(map(_leaves, cat.factors), ()) if cat._tensor else (cat,)


def _hom_array(x):
    """x's held table in its carrier's mode.  A tensor's is built on first
    read, the outer product of its factors' arrays, so its hom is not
    built.  Compatible handles share the mode's name, or hold payloads on
    object rows, so an array made under one serves the other."""
    if x._array is None:
        a, b = x.factors
        arr = _fastpath.outer_product(_fastpath.mode_for(x.quantale), _hom_array(a), _hom_array(b))
        object.__setattr__(x, "_array", _hold(x.quantale, arr, 0))
    return x._array


def _push(x, phi):
    """x's table, a category's hom or a problem's values, mapped through
    phi, as an array in phi.target's mode.  Each distinct value is mapped
    once, in the order of its first cell, so a failing map raises where a
    walk over the cells would; an object row, whose payloads need not be
    hashable or ordered, maps each cell.  An identity keeps x's array."""
    q, mode, arr = x.quantale, _fastpath.mode_for(x.quantale), _hom_array(x)
    if phi.kind == "identity":
        return arr
    if mode in _fastpath._ALGEBRA:
        values, inverse = _fastpath.distinct(arr)
        payloads = _fastpath.decode(q, mode, values[None, :])[0]
    else:
        payloads, inverse = arr.ravel().tolist(), np.arange(arr.size).reshape(arr.shape)
    images = [list(map(phi, payloads))]
    return _fastpath.encode(phi.target, _fastpath.mode_for(phi.target), images)[0][inverse]


def _hom_line(cat: QCategory, mode, i, column=False):
    """Row i of cat's hom, or column i, encoded for mode.  A tensor's is
    the outer product of its factors' lines, nested as _hom_array nests
    them, so the same values come out and the tensor's hom is not built."""
    if not cat._tensor:
        h = _hom_array(cat)
        return h[:, i] if column else h[i]
    a, b = cat.factors
    ia, ib = divmod(i, len(b.objects))
    outer = _fastpath._ALGEBRA[mode].mult(
        _hom_line(a, mode, ia, column)[:, None], _hom_line(b, mode, ib, column)[None, :]
    )
    return outer.ravel()


def _unit(q: Quantale):
    """q's unit encoded in its mode, one cell, kept on q."""
    if q._unit is None:
        object.__setattr__(q, "_unit", _fastpath.encode(q, _fastpath.mode_for(q), [[q.unit]])[0])
    return q._unit


def _leaf_holds(c: QCategory, tol) -> bool:
    """c has a unit diagonal and passes the composition kernel within tol."""
    mode = _fastpath.mode_for(c.quantale)
    # an object row tests the handle's own leq, which cannot split tol
    if mode not in _fastpath._ALGEBRA:
        return False
    h = _hom_array(c)
    return (h.diagonal() == _unit(c.quantale)).all() and _fastpath.category_violation(mode, h, tol) is None


def _generators(c: QCategory, mode, cells: int):
    """_fastpath.generators of c's hom in mode, c's carrier's, searched
    and memoized on c where the search, ceil(log2 n) + 1 products of n x n
    homs, costs less than n passes over a table of cells cells, and so
    less than the dense check it replaces; elsewhere c's trivial
    presentation, not kept."""
    n = len(c.objects)
    if c._presentation is None and n * n * ((n - 1).bit_length() + 1) < cells:
        object.__setattr__(c, "_presentation", _fastpath.generators(mode, _hom_array(c)))
    return c._presentation or _fastpath.generators(mode, _hom_array(c), False)


def tensor(c: QCategory, d: QCategory, validate: bool = True) -> QCategory:
    """Product category: paired objects, homs multiplied pointwise.

    The hom is built when first read.  Validation accepts when each leaf
    has a unit diagonal and composes within tol over the number of leaves
    (multiplication is monotone and 1-Lipschitz on every float carrier);
    otherwise the dense check runs and names the witness.
    """
    if not compatible(c.quantale, d.quantale):
        raise CompositionError(
            f"tensor over different quantales: {c.quantale.name} vs {d.quantale.name}"
        )
    objs = tuple(pair_name(a, b) for a in c.objects for b in d.objects)
    cat = QCategory(c.quantale, objs, None, (c, d))
    leaves = _leaves(cat)
    if validate and not all(_leaf_holds(f, float_tol() / len(leaves)) for f in leaves):
        _validate(cat)
    return cat


def _gate(phi, force: bool):
    """Raise LaxityError unless phi is certified lax or strict, or forced."""
    if not phi.is_certified_lax and not force:
        raise LaxityError(
            f"map {phi.name} has verdict {phi.verdict!r}; verify it with "
            f"check_lax or pass force=True"
        )


def pushforward(
    c: QCategory, phi, force: bool = False, validate: bool = True
) -> QCategory:
    """Change of base: map every hom entry through a verified lax map.

    The result is held as _push's array, with c's factors pushed.  phi must be
    certified lax or strict unless force is given.  In exact arithmetic a
    lax map yields a valid category.  Float carriers validate within
    float_tol(), and a certified map that stretches small values, or
    thresholds at tol, can break a category that holds only within tol
    (ROADMAP.md, item 3).  A failure names the map, and under force says
    it was forced.
    """
    if not compatible(phi.source, c.quantale):
        raise CompositionError(
            f"map {phi.name} expects {phi.source.name}, category is over "
            f"{c.quantale.name}"
        )
    if phi.kind == "identity":
        return c
    _gate(phi, force)
    factors = c.factors and tuple(pushforward(f, phi, force, False) for f in c.factors)
    cat = QCategory(phi.target, c.objects, _push(c, phi), factors)
    if validate:
        forced = "forced unverified map " if force else ""
        _validate(cat, f"(pushforward through {forced}{phi.name})")
    return cat
