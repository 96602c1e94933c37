"""Vectorized kernels for matrix-shaped checks and compositions.

Each carrier maps onto a scalar algebra numpy can drive, its kernel mode,
which follows from the carrier alone.  Eight modes are numeric:

- minplus: cost (order reversed, multiplication is addition)
- nat:     minplus on Python ints and inf, as object arrays, exact
- godel:   fuzz with the minimum t-norm, and pace via ranks
- goguen:  fuzz with the product t-norm
- luk:     fuzz with the Lukasiewicz t-norm
- bool:    boolean matrices
- bits:    carriers with a bit layout of up to 63 bits, as uint64
- wide:    carriers with a wider layout, as Python ints on object arrays

A bit layout codes a finite distributive lattice whose multiplication is
its meet as a powerset (Birkhoff): a powerset has one bit per base name,
bool and pace are chains of 1 and 3 bits where rank r sets the r low
bits, and a product puts its factors' layouts side by side, nested
products flattened.  Join is then OR, multiplication AND, the order the
subset order and bottom 0, all exact.  Each handle keeps its layout.

Every other carrier is its own mode: its handle, whose row applies the
handle's own mult, join2 and leq to object arrays of payloads.  Products
with a cost, nat or fuzz factor and handwritten handles run there,
through the same kernels as the numeric modes.

coder gives a payload's cell in the mode's array, for encode and for
categories._rows_array, the door of payload rows; decode's payloads are
in normal form.  nat's arrays and an object row's hold the payloads.
Every table the package builds is held as its array and decoded when
read.  as_array and outside take an array given as values: its cast to
the numeric mode's dtype, and the cells that encode no carrier payload.

Everything else reads one row of _ALGEBRA per mode: the elementwise
multiplication, the join as a ufunc whose reduce folds an axis, the
bottom (the join of no values, so an empty interface needs no special
case), the dtype, and the elementwise test "x is not below y within
tol".  One matrix product, a broadcast per block of rows, serves every
mode; series, both checks, the closure and trace are a few lines over
that row.

Below OUTER_MIN_CELLS cells a check is one broadcast of its terms, the
first violating one in row-major order the witness: category_violation
over (x, z, y), bimodule_violation over (r*, f*, r, f).  Larger homs
flag by a product, and moved joins every move of a table one axis at a
time, with a leaf category's hom per axis; the caller names the witness
at a flagged cell in one vector pass.
outer_product gives the values of a tensor category or a parallel
composite.  Arrays of OUTER_MIN_CELLS or more are decoded with
decode_shared, one payload object per distinct value; distinct gives
those values, which a change of base also maps once each.

A hom presented by a weighted graph is the join of the products along
its paths, so a table monotone along every edge is monotone along every
hom.  generators finds such a set of edges, or falls back to every
pair, and edges_hold tests a table along the edges of each of its axes:
(edges / objects) passes over the table per axis, where moved on the
leaves' full homs takes one per object.  Both split tol over a path, so
they run on numeric modes only: an object row's test is the handle's
own leq.
closure is also from_order's transitive closure.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

_PACE_RANK = {"E": 0.0, "C": 1.0, "A": 2.0, "P": 3.0}
_PACE_BY_RANK = ("E", "C", "A", "P")

# From this many cells on decode_shared decodes each distinct value once,
# and the checks flag by products (see above); below, each is one broadcast.
OUTER_MIN_CELLS = 64

# The largest temporary of one block of _product and edges_hold.
_BLOCK_BYTES = 2**18


class _Algebra(NamedTuple):
    mult: Callable  # elementwise multiplication
    join: np.ufunc  # join.reduce joins along an axis
    bottom: object  # the join of no values
    dtype: type
    above: Callable  # above(x, y, tol): elementwise, x not below y


class _Layout(NamedTuple):
    width: int  # bits used
    chains: tuple  # (offset, width) of each chain field
    code: Callable  # payload -> int
    payload: Callable  # int -> payload, in normal form


def _layout(q):
    """q's bit layout, kept on the handle as its object row is, or None: a
    carrier that is not bool, pace, a powerset or a product of those has
    none.  A product's layout puts its factors' fields side by side."""
    if q._layout is not False:
        return q._layout
    if q.kind in ("bool", "pace"):  # a chain: rank r sets the r low bits
        ranks = (False, True) if q.kind == "bool" else _PACE_BY_RANK
        codes = {v: (1 << r) - 1 for r, v in enumerate(ranks)}
        payloads = {c: v for v, c in codes.items()}
        chains = ((0, 3),) if q.kind == "pace" else ()  # one bit is always a prefix
        layout = _Layout(len(ranks) - 1, chains, codes.__getitem__, payloads.__getitem__)
    elif q.kind == "powerset":
        base = q.params["base"]
        index = {b: 1 << i for i, b in enumerate(base)}
        payload = lambda c: frozenset(b for i, b in enumerate(base) if c >> i & 1)
        layout = _Layout(len(base), (), lambda v: sum(map(index.__getitem__, v)), payload)
    elif q.kind == "product" and None not in (parts := [_layout(f) for f in q.params["factors"]]):
        offsets = (0, *itertools.accumulate(p.width for p in parts))
        fields = [(p, o, (1 << p.width) - 1) for p, o in zip(parts, offsets)]
        chains = tuple((o + co, cw) for p, o, _ in fields for co, cw in p.chains)
        code = lambda v: sum(p.code(x) << o for (p, o, _), x in zip(fields, v))
        payload = lambda c: tuple(p.payload(c >> o & m) for p, o, m in fields)
        layout = _Layout(offsets[-1], chains, code, payload)
    else:
        layout = None
    object.__setattr__(q, "_layout", layout)
    return layout


def _luk(x, y):  # as quantales.fuzz_quantale writes it, bit for bit
    return np.maximum(x - (1.0 - y), 0.0)


def _exceeds(x, y, tol):
    return x > y + tol


class _Rows(dict):
    """The numeric rows by mode name.  Any other mode is a Quantale handle,
    whose object row is built from its own methods on first use and kept
    on the handle, not here: `mode in _ALGEBRA` tells the numeric modes."""

    def __missing__(self, q):
        if q._object_row is None:
            not_leq = np.frompyfunc(lambda x, y: not q.leq(x, y), 2, 1)
            object.__setattr__(q, "_object_row", _Algebra(
                np.frompyfunc(q.mult, 2, 1),
                np.frompyfunc(q.join2, 2, 1),
                q.bottom,
                object,
                lambda x, y, tol: not_leq(x, y),  # the handle's leq has its own tol
            ))
        return q._object_row


_ALGEBRA = _Rows({
    "minplus": _Algebra(np.add, np.minimum, np.inf, float, lambda x, y, tol: x < y - tol),
    "godel": _Algebra(np.minimum, np.maximum, 0.0, float, _exceeds),
    "goguen": _Algebra(np.multiply, np.maximum, 0.0, float, _exceeds),
    "luk": _Algebra(_luk, np.maximum, 0.0, float, _exceeds),
    "bool": _Algebra(np.logical_and, np.logical_or, False, bool, lambda x, y, tol: x & ~y),
    "bits": _Algebra(
        np.bitwise_and, np.bitwise_or, 0, np.uint64, lambda x, y, tol: (x & ~y) != 0
    ),
})
# the same ufuncs on Python ints: wide's bitsets, and nat's exact min-plus
_ALGEBRA["wide"] = _ALGEBRA["bits"]._replace(dtype=object)
_ALGEBRA["nat"] = _ALGEBRA["minplus"]._replace(dtype=object, above=lambda x, y, tol: x < y)
_KIND_MODES = {"cost": "minplus", "nat": "nat", "bool": "bool", "pace": "godel"}
_TNORM_MODES = {"godel": "godel", "goguen": "goguen", "lukasiewicz": "luk"}


def mode_for(q):
    """Kernel mode for q: the name of its numeric row, or else the handle
    q, whose object row runs the same kernels.

    The mode follows the carrier alone: bool, pace, cost, nat and fuzz
    have one each; a powerset or a product with a bit layout (see
    _layout) runs bits up to 63 bits and wide past that; a product
    without one, and any other kind, runs its object row.
    """
    kind = q.kind
    if kind in _KIND_MODES:
        return _KIND_MODES[kind]
    if kind == "fuzz":
        return _TNORM_MODES[q.params["tnorm"]]
    layout = _layout(q)  # a powerset's or a product's, if it has one
    return q if layout is None else "bits" if layout.width <= 63 else "wide"


def _holds_payloads(mode):
    """mode's arrays hold the payloads themselves: nat's and an object row's."""
    return mode == "nat" or mode not in _ALGEBRA


def coder(q, mode):
    """payload -> its cell in mode's array (a bool, pace rank, float or bit
    code), or None where the cell is the payload: nat's, an object row's."""
    if _holds_payloads(mode):
        return None
    if mode == "bool":
        return bool
    if mode in ("bits", "wide"):
        return _layout(q).code
    return _PACE_RANK.__getitem__ if q.kind == "pace" else float


def encode(q, mode, rows):
    n, m = len(rows), len(rows[0]) if rows else 0
    code, cells = coder(q, mode), list(itertools.chain.from_iterable(rows))
    if mode in ("bits", "wide"):
        # one code per distinct payload (frozenset() of a frozenset is itself)
        cells = list(map(frozenset, cells)) if q.kind == "powerset" else cells
        codes = {v: code(v) for v in set(cells)}
        cells = map(codes.__getitem__, cells)
    elif code is not None:
        cells = map(code, cells)
    return np.fromiter(cells, _ALGEBRA[mode].dtype, n * m).reshape(n, m)


def decode(q, mode, arr):
    if mode in ("bits", "wide"):
        payload = _layout(q).payload
        payloads = {c: payload(c) for c in set(arr.ravel().tolist())}  # one per distinct code
        return [[payloads[c] for c in row] for row in arr.tolist()]
    if q.kind == "pace":
        return [[_PACE_BY_RANK[int(v)] for v in row] for row in arr.tolist()]
    return arr.tolist()  # payloads, bool, or float: inf and -0.0 kept


def decode_shared(q, mode, arr):
    """decode(q, mode, arr), with every cell of one value holding one
    shared payload object: each distinct value is decoded once.  Floats
    are told apart by their bits, so -0.0 keeps its sign.  nat's and an
    object row's cells are payloads already."""
    if _holds_payloads(mode):
        return decode(q, mode, arr)
    values, inverse = distinct(arr)
    payloads = np.empty(len(values), object)  # np.array would split product tuples
    payloads[:] = decode(q, mode, values[None, :])[0]
    return payloads[inverse].tolist()


def distinct(arr):
    """(values, inverse): the distinct values of arr, a numeric mode's
    array, in the order of their first cell, and arr's shape of indices
    into them.  Floats are told apart by their bits: -0.0 keeps its sign."""
    key = arr.ravel().view(np.uint64) if arr.dtype == float else arr.ravel()
    keys, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)  # and argsort(order) its inverse permutation
    return keys[order].view(arr.dtype), np.argsort(order)[inverse].reshape(arr.shape)


def outside(q, mode, arr):
    """Elementwise: the cell encodes no payload of q in mode.  cost is
    >= 0 or inf, fuzz in [0, 1], pace a rank 0-3; a bit layout's code has
    no bit past the layout and each chain field a prefix of bits.  NaN is
    outside every carrier.  nat's and an object row's cell is outside
    when q does not contain it."""
    if _holds_payloads(mode):
        return np.frompyfunc(lambda v: not q.contains(v), 1, 1)(arr)
    if mode == "bool":
        return np.zeros(arr.shape, dtype=bool)
    if mode in ("bits", "wide"):
        bad = (arr >> _layout(q).width) != 0
        for offset, width in _layout(q).chains:
            f = arr >> offset & (1 << width) - 1
            bad |= (f & f + 1) != 0
        return bad
    inside = arr >= 0
    if q.kind in ("fuzz", "pace"):
        inside &= arr <= (1.0 if q.kind == "fuzz" else 3.0)
    if q.kind == "pace":
        inside &= np.floor(arr) == arr
    return ~inside


def as_array(q, table):
    """table cast to the dtype of q's mode when it is an ndarray and that
    mode has a numeric dtype and is no product's; else None, for payload
    rows."""
    mode = mode_for(q)
    numeric = mode in _ALGEBRA and _ALGEBRA[mode].dtype is not object
    if isinstance(table, np.ndarray) and numeric and q.kind != "product":
        return table.astype(_ALGEBRA[mode].dtype, copy=False)
    return None


def outer_product(mode, a, b):
    """out[(i,k),(j,l)] = a[i,j] * b[k,l]: rows (i,k), columns (j,l)."""
    out = _ALGEBRA[mode].mult(a[:, None, :, None], b[None, :, None, :])
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _product(mode, a, b):
    """join over k of a[i, k] * b[k, j], one broadcast per block of rows
    whose temporary stays within _BLOCK_BYTES.  On 2 CPUs with numpy 2.4
    that is 2.7x faster than a row at a time at 30x30x30 and as fast at
    400x400x400.  On bool it cannot wrap, and it is 19x faster than an
    int64 matmul at 512x512x512, 1.4-1.6x slower below 30x30x30."""
    alg = _ALGEBRA[mode]
    rows = max(1, _BLOCK_BYTES // max(1, b.size * np.dtype(alg.dtype).itemsize))
    if rows >= len(a):  # one block: no output to fill
        return alg.join.reduce(alg.mult(a[:, :, None], b), axis=1, initial=alg.bottom)
    out = np.empty((a.shape[0], b.shape[1]), dtype=alg.dtype)
    for i in range(0, len(a), rows):
        block = alg.mult(a[i : i + rows, :, None], b)
        out[i : i + rows] = alg.join.reduce(block, axis=1, initial=alg.bottom)
    return out


def _first_true(mask):
    if not np.count_nonzero(mask):  # the common case; a third of mask.any()'s time on few cells
        return None
    return tuple(int(v) for v in np.argwhere(mask)[0])


def series_product(mode, a, b):
    """values of the composite: join over mid of a[r, m] * b[m, f]."""
    return _product(mode, a, b)


def category_violation(mode, h, tol):
    """First (x, z, y) in row-major order where hom[x,y] * hom[y,z] is not
    below hom[x,z] within tol, or None: one broadcast below OUTER_MIN_CELLS
    cells, else one product flags (x, z) and a vector pass names y."""
    alg = _ALGEBRA[mode]
    if h.size < OUTER_MIN_CELLS:
        return _first_true(alg.above(alg.mult(h[:, None, :], h.T[None]), h[:, :, None], tol))
    cell = _first_true(alg.above(_product(mode, h, h), h, tol))
    if cell is None:
        return None
    x, z = cell
    # the bound as a slice, so that an object row keeps a tuple payload whole
    (y,) = _first_true(alg.above(alg.mult(h[x], h[:, z]), h[x, z : z + 1], tol))
    return x, z, y


def bimodule_violation(mode, r, f, v, tol):
    """First (r*, f*, r, f) in row-major order where f[f*, f] * v[r, f] *
    r[r, r*], multiplied in that order, is not below v[r*, f*] within tol,
    or None: all (nr * nf)**2 moves of v in one broadcast."""
    alg = _ALGEBRA[mode]
    terms = alg.mult(alg.mult(f[None, :, None, :], v[None, None]), r.T[:, None, :, None])
    return _first_true(alg.above(terms, v[:, :, None, None], tol))


def moved(mode, v, steps):
    """out[c*] = join over cells c of v[c] moved to c* by every step:
    the product of steps[k][c*_k, c_k] over the axes k, times v[c].

    v has one axis per step matrix, flattened in row-major order.  The
    join folds one axis at a time, with one _product each, from the last
    axis to the first: the others as v * step, the first as step * v.
    Each product's output is transposed, which leaves the next axis last
    and, after the first axis, all of them in order.  On two axes, a
    source's and a target's, that is R^T (v F^T).
    """
    out = v
    for step in steps[:0:-1]:  # the last to the second
        out = _product(mode, out.reshape(-1, len(step)), step.T).T
    # _product runs 1.5-3.5x faster on a contiguous copy than on the strided view
    first = np.ascontiguousarray(out.reshape(-1, len(steps[0])).T)
    return _product(mode, steps[0], first).reshape(v.shape)


def closure(mode, g):
    """g squared ceil(log2 n) times.  With a unit diagonal that is the
    join of the products along all paths of n - 1 edges or fewer, the
    reflexive transitive closure: every carrier here has its unit at the
    top, so simple paths dominate."""
    for _ in range(max(0, len(g) - 1).bit_length()):
        g = _product(mode, g, g)
    return g


def generators(mode, h, search=True):
    """(g, longest, passes): hom h on a set of generating edges and bottom
    elsewhere; the longest path of edges a hom needs; and the edges per
    object, the passes over a table that testing them in edges_hold takes.

    The search keeps the edges (s, a) whose hom is not below the join of
    the two-step paths through a third object, and accepts them when the
    closure of h's diagonal plus those edges is h exactly: then h is
    presented by that weighted graph, and its paths are simple, so no
    longer than n - 1 edges nor than the edges there are.  Otherwise, or
    without search, it returns the trivial presentation: every pair an
    edge, of path length 1, n passes, as a full product with h would take.
    """
    alg, n = _ALGEBRA[mode], len(h)
    if search:
        eye = np.eye(n, dtype=bool)
        g = np.where(eye, alg.bottom, h)
        edges = np.where(alg.above(h, _product(mode, g, g), 0.0), g, alg.bottom)
        if np.array_equal(closure(mode, np.where(eye, h, edges)), h):
            k = np.count_nonzero(edges != alg.bottom)
            return edges, min(n - 1, k), k / n
    return h, 1, n


def edges_hold(mode, v, steps, tol):
    """True when no generating move of v breaks monotonicity within tol.

    v has one axis per step matrix (flattened in row-major order), and
    steps[k][a*, a] weighs the edge moving a to a* along axis k, bottom
    where there is none.  The edges of one offset a* - a are tested in
    one pass, on two strided views of v, one block of _BLOCK_BYTES at a
    time: 3.5x faster than views of the whole 7182 x 855 bitset table of
    the full UAV grid.  The offsets are counted with bincount:
    np.unique would import numpy.ma, 30 ms, on first use.
    """
    alg, cells = _ALGEBRA[mode], _BLOCK_BYTES // v.itemsize
    for axis, step in enumerate(steps):
        n, (rows, cols) = len(step), np.nonzero(step != alg.bottom)
        offsets = (np.flatnonzero(np.bincount(rows - cols + n)) - n).tolist()
        vk = v.reshape(math.prod(len(s) for s in steps[:axis]), n, -1)
        wide = max(1, min(vk.shape[2], cells // n))
        tall = max(1, cells // (n * wide))
        for i, j in itertools.product(range(0, len(vk), tall), range(0, vk.shape[2], wide)):
            block = vk[i : i + tall, :, j : j + wide]
            for o in offsets:
                lo, hi = max(0, -o), n - max(0, o)
                moved = alg.mult(np.diagonal(step, -o)[:, None], block[:, lo:hi])
                if alg.above(moved, block[:, lo + o : hi + o], tol).any():
                    return False
    return True


def trace_values(mode, d4, m):
    """Feedback closure: join over (m, m') of d[(r,m),(f,m')] * M[m,m'].

    d4 has axes (r, m, f, m'); M has axes (m, m').  The join runs along
    one axis, (m, m') in loop order, since an object row's join reduces
    one axis at a time.
    """
    alg = _ALGEBRA[mode]
    nr, nm, nf, _ = d4.shape
    terms = alg.mult(d4, m[None, :, None, :]).transpose(0, 2, 1, 3)
    return alg.join.reduce(terms.reshape(nr, nf, nm * nm), axis=2, initial=alg.bottom)
