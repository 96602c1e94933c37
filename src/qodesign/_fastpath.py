"""Vectorized kernels for matrix-shaped checks and compositions.

Each supported carrier maps onto a scalar algebra numpy can drive:

- minplus: cost and nat (order reversed, multiplication is addition)
- godel:   fuzz with the minimum t-norm, and pace via ranks
- goguen:  fuzz with the product t-norm
- luk:     fuzz with the Lukasiewicz t-norm
- bool:    boolean matrices
- bits:    powersets up to 63 names, one bit per name

mode_for returns None, and callers fall back to generic element loops,
for other carriers and for nat tables holding a finite value of
NAT_EXACT_BELOW or more.  The check kernels return the first violating
output cell; callers reconstruct the full witness with exact carrier
operations.  outer_product gives the values of a tensor category or a
parallel composite; callers take it for outputs of OUTER_MIN_CELLS or
more and decode it with decode_shared, one payload object per distinct
value.  hom_array reads a hom through its category's memo of encoded
arrays, which tensor fills with the array it computed.
"""

from __future__ import annotations

import math

import numpy as np

_PACE_RANK = {"E": 0.0, "C": 1.0, "A": 2.0, "P": 3.0}
_PACE_BY_RANK = ("E", "C", "A", "P")

# Tensor and parallel outputs with fewer cells than this take the element
# loop, which measured faster there: 10-20 us ahead at 2x2 factors (16
# cells), while the array path is ~2x ahead at 3x3 (81 cells) and 7-9x
# ahead at 5x5.
OUTER_MIN_CELLS = 64

# nat runs on float64, exact for integers below 2**53.  The bimodule check
# adds three values, and 3 * 2**51 < 2**53.
NAT_EXACT_BELOW = 2**51


def mode_for(q, *tables):
    """Kernel mode for q, or None for the element loop.

    tables are the payload rows the caller is about to encode; only nat
    looks at them.
    """
    kind = q.kind
    if kind == "cost":
        return "minplus"
    if kind == "nat":
        values = (v for t in tables for row in t for v in row)
        return "minplus" if all(v < NAT_EXACT_BELOW or v == math.inf for v in values) else None
    if kind == "bool":
        return "bool"
    if kind == "pace":
        return "godel"
    if kind == "fuzz":
        return {"godel": "godel", "goguen": "goguen", "lukasiewicz": "luk"}[
            q.params["tnorm"]
        ]
    if kind == "powerset" and len(q.params["base"]) <= 63:
        return "bits"
    return None


def encode(q, mode, rows):
    if mode == "bool":
        return np.array([[bool(v) for v in row] for row in rows], dtype=bool)
    if mode == "bits":
        index = {name: i for i, name in enumerate(q.params["base"])}
        # one mask per distinct payload; frozenset() of a frozenset is the
        # object itself, whose hash is cached
        flat = [frozenset(v) for row in rows for v in row]
        masks = {v: sum(1 << index[e] for e in v) for v in set(flat)}
        out = np.array([masks[v] for v in flat], dtype=np.uint64)
        return out.reshape(len(rows), len(rows[0]) if rows else 0)
    if q.kind == "pace":
        return np.array([[_PACE_RANK[v] for v in row] for row in rows], dtype=float)
    return np.array([[float(v) for v in row] for row in rows], dtype=float)


def decode(q, mode, arr):
    if mode == "bool":
        return [[bool(v) for v in row] for row in arr]
    if mode == "bits":
        base = q.params["base"]
        out = []
        for row in arr:
            out.append(
                [
                    frozenset(base[i] for i in range(len(base)) if int(v) >> i & 1)
                    for v in row
                ]
            )
        return out
    if q.kind == "pace":
        return [[_PACE_BY_RANK[int(v)] for v in row] for row in arr]
    if q.kind == "nat":
        return [
            [math.inf if math.isinf(v) else int(round(v)) for v in row] for row in arr
        ]
    return [[float(v) for v in row] for row in arr]


def decode_shared(q, mode, arr):
    """decode(q, mode, arr), with every cell of one value holding one
    shared payload object: each distinct value is decoded once."""
    values, inverse = np.unique(arr, return_inverse=True)
    payloads = np.array(decode(q, mode, values[None, :])[0], dtype=object)
    return payloads[inverse.reshape(arr.shape)].tolist()


def hom_array(q, mode, hom, arrays=None):
    """encode(q, mode, hom), read from and kept in arrays, the per-mode memo
    of the category hom belongs to (QCategory._arrays)."""
    if arrays is None:
        return encode(q, mode, hom)
    if mode not in arrays:
        arrays[mode] = encode(q, mode, hom)
    return arrays[mode]


def outer_product(mode, a, b):
    """out[(i,k),(j,l)] = a[i,j] * b[k,l]: rows (i,k), columns (j,l)."""
    x, y = a[:, None, :, None], b[None, :, None, :]
    if mode == "minplus":
        out = x + y
    elif mode == "godel":
        out = np.minimum(x, y)
    elif mode == "goguen":
        out = x * y
    elif mode == "luk":
        out = np.maximum(x + y - 1.0, 0.0)
    else:  # bool, bits
        out = x & y
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


# -- scalar-algebra matrix products ----------------------------------------
# product(A, B)[i, j] = join over k of A[i, k] * B[k, j]


def _product_minplus(a, b):
    n, k = a.shape
    m = b.shape[1]
    if k == 0:
        return np.full((n, m), np.inf)
    out = np.empty((n, m))
    for i in range(n):
        out[i] = np.min(a[i][:, None] + b, axis=0)
    return out


def _product_godel(a, b):
    n, k = a.shape
    m = b.shape[1]
    if k == 0:
        return np.zeros((n, m))
    out = np.empty((n, m))
    for i in range(n):
        out[i] = np.max(np.minimum(a[i][:, None], b), axis=0)
    return out


def _product_goguen(a, b):
    n, k = a.shape
    m = b.shape[1]
    if k == 0:
        return np.zeros((n, m))
    out = np.empty((n, m))
    for i in range(n):
        out[i] = np.max(a[i][:, None] * b, axis=0)
    return out


def _product_plus_raw(a, b):
    # Raw max-plus; the Lukasiewicz clamp happens once per chain in callers.
    n, k = a.shape
    m = b.shape[1]
    if k == 0:
        return np.full((n, m), -np.inf)
    out = np.empty((n, m))
    for i in range(n):
        out[i] = np.max(a[i][:, None] + b, axis=0)
    return out


def _product_bool(a, b):
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=bool)
    return (a.astype(np.uint8) @ b.astype(np.uint8)) > 0


def _product_bits(a, b):
    n, k = a.shape
    m = b.shape[1]
    out = np.zeros((n, m), dtype=np.uint64)
    if k == 0:
        return out
    for i in range(n):
        out[i] = np.bitwise_or.reduce(a[i][:, None] & b, axis=0)
    return out


def series_product(mode, a, b):
    """values of the composite: join over mid of a[r, m] * b[m, f]."""
    if mode == "minplus":
        return _product_minplus(a, b)
    if mode == "godel":
        return _product_godel(a, b)
    if mode == "goguen":
        return _product_goguen(a, b)
    if mode == "luk":
        raw = _product_plus_raw(a, b) - 1.0
        return np.maximum(raw, 0.0)
    if mode == "bool":
        return _product_bool(a, b)
    if mode == "bits":
        return _product_bits(a, b)
    raise ValueError(f"unsupported mode {mode}")


def _first_true(mask):
    idx = np.argwhere(mask)
    if len(idx) == 0:
        return None
    return tuple(int(v) for v in idx[0])


def category_violation(mode, h, tol):
    """First (x, z) where some y breaks hom[x,y] * hom[y,z] <= hom[x,z]."""
    if h.shape[0] == 0:
        return None
    if mode == "minplus":
        best = _product_minplus(h, h)
        return _first_true(best < h - tol)
    if mode == "bool":
        reach = _product_bool(h, h)
        return _first_true(reach & ~h)
    if mode == "bits":
        reach = _product_bits(h, h)
        return _first_true((reach & ~h) != 0)
    if mode == "godel":
        best = _product_godel(h, h)
    elif mode == "goguen":
        best = _product_goguen(h, h)
    else:
        best = np.maximum(_product_plus_raw(h, h) - 1.0, 0.0)
    return _first_true(best > h + tol)


def bimodule_violation(mode, r, f, d, tol):
    """First (r*, f*) cell violating hom(F) * d * hom(R) <= d(r*, f*).

    The quantifier over (r, f) folds into two matrix products:
    t[r, f*] = join_f d[r, f] * F[f*, f], then l[r*, f*] = join_r
    R[r, r*] * t[r, f*].
    """
    if d.shape[0] == 0 or d.shape[1] == 0:
        return None
    if mode == "minplus":
        t = _product_minplus(d, f.T)
        l = _product_minplus(r.T, t)
        return _first_true(l < d - tol)
    if mode == "bool":
        t = _product_bool(d, f.T)
        l = _product_bool(r.T, t)
        return _first_true(l & ~d)
    if mode == "bits":
        t = _product_bits(d, f.T)
        l = _product_bits(r.T, t)
        return _first_true((l & ~d) != 0)
    if mode == "godel":
        l = _product_godel(r.T, _product_godel(d, f.T))
    elif mode == "goguen":
        l = _product_goguen(r.T, _product_goguen(d, f.T))
    else:
        raw = _product_plus_raw(r.T, _product_plus_raw(d, f.T))
        l = np.maximum(raw - 2.0, 0.0)
    return _first_true(l > d + tol)


def trace_values(mode, d4, m, tol_unused=None):
    """Feedback closure: join over (m, m') of d[(r,m),(f,m')] * M[m,m'].

    d4 has axes (r, m, f, m'); M has axes (m, m').
    """
    if d4.shape[1] == 0:
        nr, _, nf, _ = d4.shape
        if mode == "minplus":
            return np.full((nr, nf), np.inf)
        if mode == "bool":
            return np.zeros((nr, nf), dtype=bool)
        if mode == "bits":
            return np.zeros((nr, nf), dtype=np.uint64)
        return np.zeros((nr, nf))
    mm = m[None, :, None, :]
    if mode == "minplus":
        return np.min(d4 + mm, axis=(1, 3))
    if mode == "bool":
        return np.any(d4 & mm, axis=(1, 3))
    if mode == "bits":
        return np.bitwise_or.reduce(
            np.bitwise_or.reduce(d4 & mm, axis=3), axis=1
        )
    if mode == "godel":
        return np.max(np.minimum(d4, mm), axis=(1, 3))
    if mode == "goguen":
        return np.max(d4 * mm, axis=(1, 3))
    return np.max(np.maximum(d4 + mm - 1.0, 0.0), axis=(1, 3))
