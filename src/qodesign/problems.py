"""Design problems: quantale-valued profunctors between Q-categories.

A design problem d from resources R to functionalities F assigns each
pair (r, f) a value d(r, f) in the shared quantale, monotone in the sense
of the bimodule condition

    hom_F(f*, f) * d(r, f) * hom_R(r, r*)  <=  d(r*, f*)        (direct)

equivalently, through the internal hom,

    hom_F(f*, f) * hom_R(r, r*)  <=  [d(r, f), d(r*, f*)]       (hom form)

Over bool this is a monotone feasibility relation; over cost a monotone
price table.  Rows index resources.

Composition operators: series joins over a shared interface category,
parallel tensors independent problems, trace closes a feedback loop over
a shared source/target factor.  Outputs of the operators on validated
inputs are validated by construction (closure); validation can be
switched off on hot paths and is always exercised by the property tests.

A problem is held as an array in its carrier's kernel encoding (see
_fastpath).  build_problem takes payload rows, which the row door
(categories._rows_array) normalizes into that array once, or an array,
which is checked for membership; the operators keep the kernel's output
array.  Payload values are decoded on first read, so a chain of
operators decodes nothing but what is read: value_payload and the series
breakdown decode one cell each, and pareto_front and upward_closure read
the bool arrays.  A table under OUTER_MIN_CELLS cells is checked in one
broadcast of all its moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _fastpath
from .categories import QCategory, _interface_mismatch, tensor
from .categories import _cell, _decode_rows, _generators, _held, _hom_array, _hom_line, _leaves
from .categories import _rows_array
from .errors import CompositionError, ProblemError
from .quantales import Quantale, compatible
from .values import QValue, float_tol


@dataclass(frozen=True)
class DesignProblem:
    source: QCategory
    target: QCategory
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "_array", None)  # the values encoded, read through _hom_array

    def __getattr__(self, name):
        # only an array-backed problem lacks its values, until the first read
        if name != "values":
            raise AttributeError(name)
        object.__setattr__(self, "values", _decode_rows(self.quantale, self._array))
        return self.values

    @property
    def quantale(self) -> Quantale:
        return self.source.quantale

    def __repr__(self):
        return (
            f"DesignProblem({len(self.source.objects)}x"
            f"{len(self.target.objects)} over {self.quantale.name})"
        )

    def value_payload(self, r: str, f: str):
        """d(r, f): one cell of the held array decoded."""
        return _cell(self.quantale, _hom_array(self)[self.source.index(r)], self.target.index(f))


def check_bimodule(d: DesignProblem):
    """First witness (r, r*, f, f*) violating the direct condition, or None.

    The witness is the first term hom_F(f*, f) * d(r, f) * hom_R(r, r*),
    multiplied in that order, above d(r*, f*) in (r*, f*, r, f) order.
    Below OUTER_MIN_CELLS cells one broadcast forms every term
    (_fastpath.bimodule_violation).  From there on a move of a cell is a
    move along each leaf category (categories._leaves) in turn.  On a
    numeric mode the moves along the generating edges of each leaf
    (_generators) are tested first, each within tol over the sum of the
    leaves' longest paths, where that is fewer passes than the nr + nf of
    the full homs.  Otherwise _fastpath.moved joins the moves along each
    leaf's full hom (object rows: the whole source and target), and one
    vector pass over the terms of each cell it flags names the first
    (r, f), or none, where only moved's order of rounding flagged it.
    """
    rn, fn = d.source.objects, d.target.objects
    mode, v, tol = _fastpath.mode_for(d.quantale), _hom_array(d), float_tol()
    if v.size < _fastpath.OUTER_MIN_CELLS:
        hit = _fastpath.bimodule_violation(mode, _hom_array(d.source), _hom_array(d.target), v, tol)
        return None if hit is None else (rn[hit[2]], rn[hit[0]], fn[hit[3]], fn[hit[1]])
    # an object row's own leq can neither split tol over the edges nor
    # allow for the moved table's rounding
    factored = mode in _fastpath._ALGEBRA
    src, tgt = (_leaves(d.source), _leaves(d.target)) if factored else ((d.source,), (d.target,))
    if factored:
        g, longest, passes = zip(*(_generators(c, mode, v.size) for c in src + tgt))
        # a source leaf moves a to a* by hom(a, a*), a target leaf by hom(a*, a)
        steps = [x.T for x in g[: len(src)]] + list(g[len(src) :])
        tol_edge = tol / max(1, sum(longest))
        if sum(passes) < len(rn) + len(fn) and _fastpath.edges_hold(mode, v, steps, tol_edge):
            return None
    steps = [_hom_array(c).T for c in src] + [_hom_array(c) for c in tgt]
    alg, flag_tol = _fastpath._ALGEBRA[mode], tol
    if v.dtype == float and (len(steps) > 2 or mode == "luk"):
        # moved multiplies a tensor's leaves in another order than the terms
        # below, and luk rounds by the order of its operands: flag the cells
        # that rounding, len(steps) products a term, could break too
        slack = 2 * len(steps) * math.ulp(1.0) * np.maximum(1.0, np.abs(v))
        flag_tol = tol - np.minimum(slack, tol / 2)
    flagged = alg.above(_fastpath.moved(mode, v, steps), v, flag_tol)
    for cell in flagged.ravel().nonzero()[0].tolist():
        rs, fs = divmod(cell, len(fn))
        f_row = _hom_line(d.target, mode, fs)[None, :]
        r_col = _hom_line(d.source, mode, rs, column=True)[:, None]
        terms = alg.mult(alg.mult(f_row, v), r_col)
        hit = _fastpath._first_true(alg.above(terms, v[rs, fs : fs + 1], tol))
        if hit is not None:
            return (rn[hit[0]], rn[rs], fn[hit[1]], fn[fs])
    return None


def _array_problem(q, source, target, table, what, validate=True):
    """A problem held as table in q's kernel mode, checked as a bimodule if
    validate is set.  Payload rows pass the door, categories._rows_array;
    an array is checked here for shape and membership."""
    rs, fs = source.objects, target.objects
    if not isinstance(table, np.ndarray):
        table = _rows_array(q, rs, fs, table, ProblemError, noun="value row")
    elif table.shape != (len(rs), len(fs)):
        raise ProblemError(f"expected a {len(rs)}x{len(fs)} value array, got {table.shape}")
    else:
        bad = _fastpath._first_true(_fastpath.outside(q, _fastpath.mode_for(q), table))
        if bad is not None:  # the payload path's error for the first bad cell
            i, j = bad
            cell = table[i : i + 1, j : j + 1].tolist()
            _rows_array(q, rs[i : i + 1], fs[j : j + 1], cell, ProblemError, noun="value row")
    d = _held(DesignProblem(source, target, None), table)
    witness = check_bimodule(d) if validate else None
    if witness is not None:
        r, rs, f, fs = witness
        raise ProblemError(
            f"{what} fails the bimodule condition: moving ({r!r}, {f!r}) "
            f"to ({rs!r}, {fs!r}) is not monotone"
        )
    return d


def build_problem(
    source: QCategory,
    target: QCategory,
    values: Sequence[Sequence],
    validate: bool = True,
) -> DesignProblem:
    """Construct a design problem, checking the bimodule condition.

    source and target must be enriched in the same quantale.  values are
    payload rows, or a numpy array in the carrier's kernel encoding: floats
    for cost and fuzz, pace ranks 0-3, bools, or uint64 bitsets whose bit i
    is the powerset's i-th base name.  Any other array, such as a nat one,
    is read as the payload rows of its tolist().  check_bimodule tests every
    move of every cell and names a witness on failure.
    """
    if not compatible(source.quantale, target.quantale):
        raise ProblemError(
            f"source over {source.quantale.name} but target over "
            f"{target.quantale.name}"
        )
    table = _fastpath.as_array(source.quantale, values)
    if table is None:
        table = values.tolist() if isinstance(values, np.ndarray) else values
    return _array_problem(source.quantale, source, target, table, "problem", validate)


def evaluate(d: DesignProblem, r: str, f: str) -> QValue:
    """The problem's value at one (resource, functionality) pair."""
    if not d.source.has_object(r):
        raise ProblemError(f"unknown resource {r!r}")
    if not d.target.has_object(f):
        raise ProblemError(f"unknown functionality {f!r}")
    return QValue(d.quantale.name, d.value_payload(r, f))


def identity_problem(c: QCategory, validate: bool = True) -> DesignProblem:
    """The identity profunctor: r provides f at the hom from f up to r.

    This transpose orientation is the series unit; composing with it on
    either side leaves any problem unchanged.
    """
    return _array_problem(c.quantale, c, c, _hom_array(c).T, "identity problem", validate)


def _require_same_interface(a: QCategory, b: QCategory, what: str):
    mismatch = _interface_mismatch(a, b)
    if mismatch is not None:
        raise CompositionError(f"{what}: {mismatch}")


def series(d1: DesignProblem, d2: DesignProblem, validate: bool = True) -> DesignProblem:
    """Sequential composition: join over the shared interface category.

    d1's target and d2's source must be the same category (same objects
    and hom table).  An empty interface yields the all-bottom problem.
    """
    _require_same_interface(d1.target, d2.source, "series interface")
    q = d1.quantale
    if not compatible(q, d2.quantale):
        raise CompositionError("series: problems over different quantales")
    table = _fastpath.series_product(_fastpath.mode_for(q), _hom_array(d1), _hom_array(d2))
    return _array_problem(q, d1.source, d2.target, table, "series output", validate)


def series_breakdown(d1: DesignProblem, d2: DesignProblem, r: str, f: str):
    """Per-interface-object contributions to a series value.

    Returns ([(mid_object, payload)], joined_payload); the join of the
    listed payloads is the composite's value at (r, f).
    """
    _require_same_interface(d1.target, d2.source, "series interface")
    q = d1.quantale
    i, j = d1.source.index(r), d2.target.index(f)
    terms = list(zip(d1.target.objects, _terms(q, _hom_array(d1), _hom_array(d2), i, j)))
    return terms, q.join(t for _, t in terms)


def _terms(q: Quantale, a, b, i: int, j: int) -> list:
    """The payloads a[i, m] * b[m, j], one per interface object m, that a
    series of tables a and b, in q's mode, joins at (i, j)."""
    mode = _fastpath.mode_for(q)
    return _fastpath.decode(q, mode, _fastpath._ALGEBRA[mode].mult(a[i], b[:, j])[None])[0]


def parallel(d1: DesignProblem, d2: DesignProblem, validate: bool = True) -> DesignProblem:
    """Independent pairing: tensor categories, multiply values pointwise."""
    q = d1.quantale
    if not compatible(q, d2.quantale):
        raise CompositionError("parallel: problems over different quantales")
    src = tensor(d1.source, d2.source, validate=False)
    tgt = tensor(d1.target, d2.target, validate=False)
    table = _fastpath.outer_product(_fastpath.mode_for(q), _hom_array(d1), _hom_array(d2))
    return _array_problem(q, src, tgt, table, "parallel output", validate)


def _trace_factors(d: DesignProblem, loop: QCategory):
    if d.source.factors is None or d.target.factors is None:
        raise CompositionError(
            "trace needs tensor-built source and target categories"
        )
    r_cat, m_src = d.source.factors
    f_cat, m_tgt = d.target.factors
    _require_same_interface(m_src, loop, "trace loop (source side)")
    _require_same_interface(m_tgt, loop, "trace loop (target side)")
    return r_cat, f_cat


def trace(d: DesignProblem, loop: QCategory, validate: bool = True) -> DesignProblem:
    """Feedback: close the loop factor shared by source and target.

    For each outer pair the loop's provided value m' is fed back as the
    required value m, weighted by hom_M(m, m'); the result joins over all
    loop pairs.  An empty loop yields the all-bottom problem.
    """
    r_cat, f_cat = _trace_factors(d, loop)
    q = d.quantale
    nr, nm, nf = len(r_cat.objects), len(loop.objects), len(f_cat.objects)
    d4 = _hom_array(d).reshape(nr, nm, nf, nm)
    table = _fastpath.trace_values(_fastpath.mode_for(q), d4, _hom_array(loop))
    return _array_problem(q, r_cat, f_cat, table, "trace output", validate)


def pareto_front(d: DesignProblem, f: str):
    """Minimal feasible resources of a bool problem at functionality f.

    The source category's order ranks resources; the result is the
    minimal antichain of feasible ones, listed in object order, one
    representative per equivalence class (earliest wins).
    """
    if d.quantale.kind != "bool":
        raise ProblemError("pareto_front is defined for bool-enriched problems")
    h, feasible = _hom_array(d.source), _hom_array(d)[:, d.target.index(f)]
    # i is kept where no feasible k is strictly below it, nor an earlier one equivalent
    below = (h & ~h.T)[feasible].any(axis=0)
    twin = np.tril(h & h.T, -1)[:, feasible].any(axis=1)
    return tuple(d.source.objects[i] for i in np.flatnonzero(feasible & ~below & ~twin))


def upward_closure(c: QCategory, names: Sequence[str]):
    """All objects above any of names in a bool category's order."""
    if c.quantale.kind != "bool":
        raise ProblemError("upward_closure is defined for bool-enriched categories")
    above = _hom_array(c)[[c.index(n) for n in names]].any(axis=0)
    return tuple(o for o, up in zip(c.objects, above) if up)
