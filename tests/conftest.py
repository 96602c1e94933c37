"""Shared generators: random categories and problems valid by construction.

Random homs are closed with Floyd-Warshall style joins; every builtin
quantale has its unit at the top, so paths through repeated objects are
dominated by simple paths and one pass reaches the closure.  Random problem
tables are closed by joining each entry over all hom-weighted relaxations,
which is exactly the condition the validators check.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from qodesign import (
    DesignProblem,
    QCategory,
    bool_quantale,
    build_category,
    build_problem,
    cost_quantale,
    fuzz_quantale,
    make_powerset,
    make_product,
    nat_quantale,
    pace_quantale,
    pair_name,
    tensor,
)
from qodesign.casestudies.uav import (
    GRAVITY_M_S2,
    PERCEPTION_BASE_W,
    PERCEPTION_PER_MPS_W,
    _penalty_map,
    _tensor_rows,
)
from qodesign.errors import QuantaleError
from qodesign.lax import pair_elt


def quantale_families():
    """Name -> zero-argument constructor, one per distinct behavior."""
    return {
        "bool": bool_quantale,
        "pace": pace_quantale,
        "cost": cost_quantale,
        "nat": nat_quantale,
        "fuzz_godel": lambda: fuzz_quantale("godel"),
        "fuzz_goguen": lambda: fuzz_quantale("goguen"),
        "fuzz_lukasiewicz": lambda: fuzz_quantale("lukasiewicz"),
        "powerset": lambda: make_powerset(("a", "b", "c")),
        "product": lambda: make_product(
            (bool_quantale(), pace_quantale()), name="BxP"
        ),
    }


def wide_families():
    """quantale_families() plus carriers past the uint64 and float64
    encodings: a 64-name powerset, one bit past the bits mode, which runs
    the wide mode's Python ints; and, on object arrays with the handle's
    own operations, a bool x cost product, which has no bit layout, and
    nat sampling values at 2**53 and 2**63, past float64's exact
    integers."""
    fams = quantale_families()
    fams["powerset64"] = lambda: make_powerset([f"n{i}" for i in range(64)])
    fams["product_cost"] = lambda: make_product((bool_quantale(), cost_quantale()), name="BxC")
    huge = (0, 1, 2, 5, 2**53, 2**53 + 1, 2**63, math.inf)
    fams["nat_huge"] = lambda: replace(
        nat_quantale("NatHuge"), _sample=lambda rng: rng.choice(huge)
    )
    return fams


def finite_families():
    names = ("bool", "pace", "powerset", "product")
    fams = quantale_families()
    return {n: fams[n] for n in names}


def random_category(q, rng: random.Random, n_min=2, n_max=5) -> QCategory:
    n = rng.randint(n_min, n_max)
    objs = [f"x{i}" for i in range(n)]
    hom = [[q.sample(rng) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        hom[i][i] = q.unit
    for k in range(n):
        for i in range(n):
            for j in range(n):
                hom[i][j] = q.join(
                    [hom[i][j], q.mult(hom[i][k], hom[k][j])]
                )
    return build_category(q, objs, hom, validate=True)


def close_values(cr: QCategory, cf: QCategory, raw) -> list:
    """Smallest valid table above raw: join over hom-weighted relaxations."""
    q = cr.quantale
    nr, nf = len(cr.objects), len(cf.objects)
    out = []
    for rs in range(nr):
        row = []
        for fs in range(nf):
            terms = [
                q.mult(q.mult(cf.hom[fs][f], raw[r][f]), cr.hom[r][rs])
                for r in range(nr)
                for f in range(nf)
            ]
            row.append(q.join(terms))
        out.append(row)
    return out


def random_problem(cr: QCategory, cf: QCategory, rng: random.Random) -> DesignProblem:
    q = cr.quantale
    raw = [
        [q.sample(rng) for _ in cf.objects] for _ in cr.objects
    ]
    return build_problem(cr, cf, close_values(cr, cf, raw), validate=True)


def random_raw_problem(cr: QCategory, cf: QCategory, rng: random.Random):
    """Uncurated table: may or may not satisfy the compatibility condition."""
    q = cr.quantale
    raw = [[q.sample(rng) for _ in cf.objects] for _ in cr.objects]
    return DesignProblem(cr, cf, tuple(tuple(r) for r in raw))


def normalize_table(q, row_names, col_names, rows, error, prefix="", noun="row"):
    """The row door's oracle (categories._rows_array): rows as a tuple of
    tuples of normalized payloads, shape checked.  Each distinct payload
    object is normalized once; failures raise error naming the entry."""
    if len(rows) != len(row_names):
        raise error(f"{prefix}expected {len(row_names)} {noun}s, got {len(rows)}")
    n = len(col_names)
    done = {}  # id(payload) -> normalized payload
    alive = []  # the payloads keyed in done, so that no id is reused
    out = []
    for i, row in enumerate(rows):
        row = list(row)
        if len(row) != n:
            raise error(
                f"{prefix}{noun} for {row_names[i]!r} has {len(row)} entries, expected {n}"
            )
        normalized = []
        for j, v in enumerate(row):
            p = done.get(id(v))
            if p is None:
                try:
                    p = done[id(v)] = q.normalize(v)
                except QuantaleError as exc:
                    raise error(
                        f"{prefix}entry ({row_names[i]!r}, {col_names[j]!r}): {exc}"
                    ) from None
                alive.append(v)
            normalized.append(p)
        out.append(tuple(normalized))
    return tuple(out)


def chain_rows(q, n):
    """chain_category's oracle: the unit from each object to every later
    one, bottom back."""
    return [[q.unit if i <= j else q.bottom for j in range(n)] for i in range(n)]


def discrete_rows(q, n):
    """discrete_category's oracle: the unit on the diagonal, bottom off it."""
    return [[q.unit if i == j else q.bottom for j in range(n)] for i in range(n)]


def grid_rows(values):
    """The grid constructors' oracle: hom(a, b) = max(b - a, 0); an inf
    object (nat_category's) reaches every object and none reaches it."""

    def h(a, b):
        if a == math.inf:
            return 0
        if b == math.inf:
            return math.inf
        return max(b - a, 0)

    return [[h(a, b) for b in values] for a in values]


def loop_bimodule(d: DesignProblem):
    """check_bimodule's oracle: the first witness (r, r*, f, f*) in
    (r*, f*, r, f) order, one carrier operation per quadruple."""
    q = d.quantale
    nr, nf = len(d.source.objects), len(d.target.objects)
    R, F, V = d.source.hom, d.target.hom, d.values
    mult, leq = q.mult, q.leq
    for rs in range(nr):
        for fs in range(nf):
            bound, f_row = V[rs][fs], F[fs]
            for r in range(nr):
                rr, v_row = R[r][rs], V[r]
                for f in range(nf):
                    if not leq(mult(mult(f_row[f], v_row[f]), rr), bound):
                        return (
                            d.source.objects[r],
                            d.source.objects[rs],
                            d.target.objects[f],
                            d.target.objects[fs],
                        )
    return None


def loop_axioms(q, objects, hom):
    """check_category_axioms' oracle: ("identity", x), else the first
    ("composition", x, y, z) in (x, z, y) order, or None."""
    n = len(objects)
    for i in range(n):
        if not q.leq(q.unit, hom[i][i]):
            return ("identity", objects[i])
    mult, leq = q.mult, q.leq
    cols = tuple(zip(*hom))
    for x in range(n):
        row = hom[x]
        for z in range(n):
            bound, col = row[z], cols[z]
            for y in range(n):
                if not leq(mult(row[y], col[y]), bound):
                    return ("composition", objects[x], objects[y], objects[z])
    return None


def oracle_series(d1, d2):
    """series' oracle: the join over the interface of d1's and d2's
    values multiplied, one carrier operation per term."""
    q = d1.quantale
    return [[q.join(q.mult(a, d2.values[k][f]) for k, a in enumerate(row))
             for f in range(len(d2.target.objects))] for row in d1.values]


def oracle_parallel(d1, d2):
    """parallel's oracle: every pair of values multiplied, in tensor order."""
    q = d1.quantale
    return [[q.mult(a, b) for a in r1 for b in r2] for r1 in d1.values for r2 in d2.values]


def oracle_trace(d, loop):
    """trace's oracle: the join over loop pairs (m, m') of d's value at
    ((r, m), (f, m')) times loop's hom(m, m')."""
    q, nm = d.quantale, len(loop.objects)
    nr, nf = len(d.source.factors[0].objects), len(d.target.factors[0].objects)
    return [[q.join(q.mult(d.values[r * nm + m][f * nm + m2], loop.hom[m][m2])
                    for m in range(nm) for m2 in range(nm))
             for f in range(nf)] for r in range(nr)]


def pushforward_cells(x, phi):
    """pushforward's oracle: phi applied to each cell of x's hom, one call
    per cell, factors pushed the same way.  A problem's values map the
    same way, to payload rows."""
    if isinstance(x, DesignProblem):
        return tuple(tuple(phi(v) for v in row) for row in x.values)
    factors = x.factors and tuple(pushforward_cells(f, phi) for f in x.factors)
    hom = tuple(tuple(phi(v) for v in row) for row in x.hom)
    return QCategory(phi.target, x.objects, hom, factors)


def relabel_problem(x: QCategory, y: QCategory, name_map) -> DesignProblem:
    """The identity along an object bijection: a problem from x to y, where
    name_map sends each object of x to the object of y it stands for, with
    hom_y(m(a), m(b)) = hom_x(a, b).  Its value at (a, b) is hom_y(b, m(a)),
    the identity problem's value read through the bijection."""
    return build_problem(x, y, [[y.hom_payload(b, name_map[a]) for b in y.objects] for a in x.objects])


def symmetry_problem(a: QCategory, b: QCategory) -> DesignProblem:
    """The symmetry a (x) b -> b (x) a, which swaps the two factors."""
    swap = {pair_name(x, y): pair_name(y, x) for x in a.objects for y in b.objects}
    return relabel_problem(tensor(a, b), tensor(b, a), swap)


def check_bimodule_via_hom(d: DesignProblem):
    """Hom-form check: hom_F * hom_R below [d(r,f), d(r*,f*)] everywhere.

    Exercises the internal hom; always the element-wise loop.
    """
    q = d.quantale
    R, F, V = d.source.hom, d.target.hom, d.values
    nr, nf = len(d.source.objects), len(d.target.objects)
    for rs in range(nr):
        for fs in range(nf):
            for r in range(nr):
                for f in range(nf):
                    lhs = q.mult(F[fs][f], R[r][rs])
                    if not q.leq(lhs, q.hom(V[r][f], V[rs][fs])):
                        return (
                            d.source.objects[r],
                            d.source.objects[rs],
                            d.target.objects[f],
                            d.target.objects[fs],
                        )
    return None


def validate_via_hom(d: DesignProblem) -> bool:
    """Verdict of the hom-form bimodule check."""
    return check_bimodule_via_hom(d) is None


# Between UavTaskSpec.coarse() and the full grids: LoopIn 870 x LoopOut 116.
MID_GRID = dict(
    velocity_grid=(1.5, 2.0, 2.5, 3.0),
    weight_grid=tuple(range(200, 3001, 100)),
    served_grid=(0, 250, 500, 750, 1000),
    payload_grid=(100, 900, 1700, 2500),
)


def _pair_tables(task, actuators, batteries, penalty, keep_pairs):
    """The UAV physics as full-size tables, one per pair and speed.

    Returns (stage, totals): stage[k, w, p, w2] is the least hardware cost
    over all pairs and cruise speeds given assumed total weight w and claimed
    weight w2 (inf where nothing fits); totals maps each pair name to its own
    table with the unserved-mission penalty added in.

    Axes: k ascending served grid, w and w2 ascending weight grid, p
    ascending payload grid.
    """
    served = np.array(task.served_grid, dtype=float)
    weights = np.array(task.weight_grid, dtype=float)
    payloads = np.array(task.payload_grid, dtype=float)
    pen = np.array(
        [penalty(task.missions_demanded - int(k)) for k in task.served_grid]
    )
    nk, nw, npay = len(served), len(weights), len(payloads)
    shape = (nk, nw, npay, nw)
    stage = np.full(shape, np.inf)
    totals = {}
    for act in actuators:
        for bat in batteries:
            best = np.full(shape, np.inf)
            for v in task.velocity_grid:
                if v < task.v_req_mps or v > act.vmax_mps:
                    continue
                lift = weights / 1000.0 * GRAVITY_M_S2
                power = (
                    act.p0_w
                    + act.p1_w_per_n2 * lift * lift
                    + PERCEPTION_BASE_W
                    + PERCEPTION_PER_MPS_W * v
                )
                flight_s = 2.0 * task.distance_m / v
                energy = power * flight_s / 3600.0
                battery_g = energy / bat.wh_per_kg * 1000.0
                unit = energy / bat.wh_per_dollar
                maint = np.ceil(served / bat.cycles)
                cost_kw = act.cost + unit[None, :] * maint[:, None]
                achieved = (
                    task.frame_g + act.weight_g + battery_g[:, None] + payloads[None, :]
                )
                fits = achieved[:, :, None] <= weights[None, None, :]
                entry = np.where(
                    fits[None, :, :, :], cost_kw[:, :, None, None], np.inf
                )
                np.minimum(best, entry, out=best)
            np.minimum(stage, best, out=stage)
            if keep_pairs:
                totals[pair_elt(act.name, bat.name)] = best + pen[:, None, None, None]
    return stage, totals


def oracle_uav_stages(task, actuators, batteries):
    """The `stage` arrays of the UAV cost and powerset models, built per
    (pair, speed) with full-size masks: the construction the per-pair
    thresholds replace."""
    penalty = _penalty_map(task)
    stage, totals = _pair_tables(task, actuators, batteries, penalty, keep_pairs=True)
    pairs = tuple(pair_elt(a.name, b.name) for a in actuators for b in batteries)
    nb, nk = len(task.budget_grid), len(task.served_grid)
    nw, npay = len(task.weight_grid), len(task.payload_grid)
    budgets = np.array(task.budget_grid, dtype=float)[:, None, None, None, None]
    packed = np.zeros((nb, nk, nw, npay, nw), dtype=np.uint64)
    for i, name in enumerate(pairs):
        fits = totals[name][None, :, ::-1, :, ::-1] <= budgets
        np.bitwise_or(packed, np.uint64(1 << i), out=packed, where=fits)
    return _tensor_rows(stage), packed.reshape(nb * nk * nw, npay * nw)


@pytest.fixture
def rng():
    return random.Random(20260819)
