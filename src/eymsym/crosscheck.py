"""Independent numeric recomputation of the pipeline over plain numbers.

This is a deliberately separate code path: structure constants, isotropy
matrices, curvature, Ricci, the energy-momentum tensor, and both
field-equation residuals are recomputed with ints, Fractions and index
loops (no Poly/RatFunc, no FieldMatrix), at concrete rational parameter
values.  Comparing it with the symbolic pipeline evaluated at the same point
gives an end-to-end exactness check.

Only symmetric pairs are read, as `run_case` analyses no other: where a
bracket [u_i, u_j] has a component in m the numeric reading raises
NotSymmetric.  The Levi-Civita maps of a symmetric pair are zero (Kobayashi
and Nomizu II, ch. XI), so the Levi-Civita curvature, and with it the
canonical member's, is R(u_i, u_j) = -ad([u_i, u_j]) on m, read off the
brackets alone.

The zero of the numeric path is the int 0, whose truth test runs in C, and
the index loops skip zero factors and zero terms: the metrics, brackets and
curvatures here are sparse.  `_eliminate` solves over ints without
division, once for all right-hand sides: [g | I] for g^-1 and the six
curvature components in the holonomy basis.  What a point computes, g,
g^-1, T and the first-equation residual, is computed over ints with one
denominator per matrix; the energy-momentum tensor is read off
F = sum_a w_a R_a g^-1 R_a^T, kept as a linear form in g^-1.

A case's plan is built the first time it is sampled or cross-checked and
reused for every later point.  Per entry (`_EntryPlan`): the sorted sample
names, the metric's nonzero entries and the bracket coefficients.  Per
report (`_Plan`): the zero and nonzero entries of Ricci, the six canonical
curvature components, the holonomy basis and `T`; the scalar, the holonomy
weights, lambda and kappa.  Each stage runs at the point; where nothing it
reads has a variable (`fixed`), the first point's result is kept for the
later ones: the brackets, `rho`, the Levi-Civita curvature and Ricci per
entry, and the Ricci and curvature comparisons and the stress form per
report.  A point then draws the sample, evaluating g and inverting it once
(the inversion is the draw's singularity test, and the plan keeps the last
accepted draw's g and g^-1 for its NumericCase), and computes the scalar, T
and the first-equation residual.

A plan reads each symbolic RatFunc once, off `Poly.terms`: a constant as a
number, anything else as the int terms of its numerator and denominator,
which the plan evaluates itself; it calls no arithmetic of `exact`.  Only
nonzero symbolic entries are evaluated, and where a symbolic entry is
identically zero the numeric one must be 0.  Plans live in weak
dictionaries keyed on the entry and on the report, and rely on both being
read-only: a report edited through a copy is another key.  `star` and
`second_residual` are the references of `hodge_star_2form` and
`second_eym_residual` at members where the second equation can fail.
"""

from __future__ import annotations

import math
import random
import weakref
from fractions import Fraction
from functools import cached_property
from itertools import permutations

from .exact import PoleAtPoint
from .geom import MetricFamily
from .liecat import CatalogEntry, NotSymmetric, U_LABELS

_EPS = {}
for _p in permutations(range(4)):
    _s = 1
    for _i in range(4):
        for _j in range(_i + 1, 4):
            if _p[_i] > _p[_j]:
                _s = -_s
    _EPS[_p] = _s


# 0 == Fraction(0), so dense lists with int zeros compare equal to evaluated
# FieldMatrices
_ZERO = 0


def _zeros(n: int, m: int) -> list:
    return [[_ZERO] * m for _ in range(n)]


# -- what a plan reads from the symbolic side ---------------------------------


def _planned(x):
    """A RatFunc as a plan keeps it: a constant as an int (0 when it is
    identically zero) or a Fraction, and otherwise the int terms
    ((coefficient, ((name, exponent), ...)), ...) of its numerator and
    denominator, read off `Poly.terms`."""
    num, den = x.num.terms, x.den.terms
    if not num:
        return _ZERO
    if len(num) == len(den) == 1 and () in num and () in den:
        n, d = num[()], den[()]  # coprime, d > 0
        return n if d == 1 else Fraction(n, d)
    return tuple(num.items()), tuple(den.items())


_CELLS = [(i, j) for i in range(4) for j in range(4)]  # shared by all plans


def _planned_matrix(m) -> tuple:
    """A 4x4 FieldMatrix as a plan keeps it: the (i, j) of its identically
    zero entries, and its other entries as (i, j, planned value)."""
    flat = [x for row in m.entries for x in row]
    return ([c for c, x in zip(_CELLS, flat) if not x.num.terms],
            [(*c, _planned(x)) for c, x in zip(_CELLS, flat) if x.num.terms])


def _varies(planned_matrix: tuple) -> bool:
    return any(type(x) is tuple for _, _, x in planned_matrix[1])


def _point(sample: dict) -> dict:
    """The sample as name -> (numerator, denominator)."""
    return {n: (x.numerator, x.denominator) for n, x in sample.items()}


def _poly_ratio(terms: tuple, point: dict) -> tuple:
    """(n, d) ints, d > 0, with n/d the value of a polynomial's terms at the
    point; no Fraction is built."""
    n, d = 0, 1
    for mono, c in terms:
        tn, td = c, 1
        for name, e in mono:
            p, q = point[name]
            if e == 1:
                tn, td = tn * p, td * q
            else:
                tn, td = tn * p ** e, td * q ** e
        if td == d:
            n += tn
        else:
            n, d = n * td + tn * d, d * td
    return n, d


def _ratio(x, point: dict) -> tuple:
    """(n, d) ints, d != 0, with n/d a planned value at the point;
    PoleAtPoint where its denominator vanishes."""
    if type(x) is not tuple:
        return x.numerator, x.denominator
    num, den = x
    dn, dd = _poly_ratio(den, point)
    if not dn:
        raise PoleAtPoint("a denominator vanishes at the sample point")
    nn, nd = _poly_ratio(num, point)
    return nn * dd, nd * dn


def _value(x, point: dict):
    """A planned value at the point: a number as it is, terms evaluated."""
    return Fraction(*_ratio(x, point)) if type(x) is tuple else x


def _same(x, y, point: dict) -> bool:
    """Whether the planned value x equals the number y at the point."""
    n, d = _ratio(x, point)
    return n * y.denominator == d * y.numerator


def _mismatch(planned_matrix: tuple, num: tuple, point: dict) -> bool:
    """Whether a planned symbolic matrix and a numeric one, (rows, d) for
    rows / d, differ at the point.  Every nonzero symbolic entry is
    evaluated (so a pole raises); where the symbolic entry is zero the
    numeric one must be 0."""
    zeros, nonzero = planned_matrix
    rows, d = num
    differs = any(rows[i][j] for i, j in zeros)
    for i, j, x in nonzero:
        n, q = _ratio(x, point)
        if n * d != rows[i][j] * q:
            differs = True
    return differs


def _dense(planned_matrix: tuple, point: dict) -> list:
    out = _zeros(4, 4)
    for i, j, x in planned_matrix[1]:
        out[i][j] = _value(x, point)
    return out


# -- Fraction and int linear algebra --------------------------------------------


def _add(x: Fraction, y: Fraction) -> Fraction:
    """x + y for a nonzero y; y itself when x is 0."""
    return x + y if x else y


def _mat_mul(a: list, b: list) -> list:
    out = _zeros(len(a), len(b[0]))
    for row, out_row in zip(a, out):
        for x, b_row in zip(row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        out_row[j] = _add(out_row[j], x * y)
    return out


def _mat_sub(a: list, b: list) -> list:
    return [[x - y if y else x for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def _mat_scale(a: list, c: Fraction) -> list:
    return [[c * x if x else x for x in r] for r in a]


def _mat_add_scaled_into(acc: list, a: list, c: Fraction) -> None:
    """acc += c * a, touching only the nonzero entries of a."""
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x:
                acc[i][j] = _add(acc[i][j], c * x)


def _eliminate(aug: list, m: int) -> list | None:
    """Gauss-Jordan elimination of int rows [a | b_1 ... b_r], a with m
    columns, without division (row_i <- p row_i - f row_r, then divided by
    its content).  Returns the m rows whose a part is diagonal, or None when
    a has dependent columns or some b is inconsistent."""
    n = len(aug)
    for r in range(m):
        pr = next((i for i in range(r, n) if aug[i][r]), None)
        if pr is None:
            return None  # a has dependent columns
        aug[r], aug[pr] = aug[pr], aug[r]
        prow = aug[r]
        p = prow[r]
        for i in range(n):
            f = aug[i][r]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(aug[i], prow)]
                g = math.gcd(*row)
                aug[i] = [x // g for x in row] if g > 1 else row
    if any(any(row[m:]) for row in aug[m:]):
        return None
    return aug[:m]


def _gauss_solve(a: list, rhss: list) -> list | None:
    """Solve a x = b over Fractions for each b in `rhss`, with one
    elimination of [a | b_1 ... b_r]; None when any b is inconsistent or a
    has dependent columns.  Each row is scaled to ints, so the only
    Fractions built are the nonzero entries of the solutions."""
    m = len(a[0])
    aug = []
    for i, row in enumerate(a):
        row = list(row) + [b[i] for b in rhss]
        if not any(row):
            continue  # a zero row of [a | b] says nothing
        d = math.lcm(*(x.denominator for x in row if x))
        aug.append([x.numerator * (d // x.denominator) if x else 0
                    for x in row])
    aug = _eliminate(aug, m)
    if aug is None:
        return None
    return [[Fraction(row[m + s], row[k]) if row[m + s] else _ZERO
             for k, row in enumerate(aug)] for s in range(len(rhss))]


# A matrix with a denominator is a pair (rows, d), d > 0, standing for
# rows / d; "over ints" when the rows hold ints.


def _scaled(mat: list) -> tuple:
    """A dense list of Fractions and ints over ints, d the lcm of its
    denominators."""
    d = math.lcm(*(x.denominator for row in mat for x in row if x))
    return [[x.numerator * (d // x.denominator) if x else 0 for x in row]
            for row in mat], d


def _unscaled(ints: list, d: int) -> list:
    return [[Fraction(x, d) if x else _ZERO for x in row] for row in ints]


def _inverse_scaled(gs: list, d: int) -> tuple | None:
    """The inverse of gs / d over ints, or None when it is singular: one
    elimination of [gs | I], and (gs / d)^-1 = d gs^-1."""
    n = len(gs)
    aug = _eliminate([row + [int(i == j) for j in range(n)]
                      for i, row in enumerate(gs)], n)
    if aug is None:
        return None
    den = math.lcm(*(row[k] for k, row in enumerate(aug)))
    return [[d * x * (den // row[k]) for x in row[n:]]
            for k, row in enumerate(aug)], den


def _stress_form(structure: dict, weights: list) -> tuple:
    """F = sum_a w_a R_a g^-1 R_a^T as a linear form in g^-1: (terms, d)
    with F_ij = sum of c g^kh / d over the terms (i, j, k, h, c), c and d
    ints.  R_a is antisymmetric, R_a[i][j] the a-th coefficient of
    structure[(i, j)]."""
    dr = math.lcm(*(c.denominator for cs in structure.values() for c in cs
                    if c))
    dw = math.lcm(*(w.denominator for w in weights if w))
    # the nonzero entries (i, k, int) of each R_a, scaled by dr
    entries = [[] for _ in weights]
    for (i, j), coeffs in structure.items():
        for a, c in enumerate(coeffs):
            if c:
                c = c.numerator * (dr // c.denominator)
                entries[a] += [(i, j, c), (j, i, -c)]
    acc = {}
    for w, nonzero in zip(weights, entries):
        if not w:
            continue
        w = w.numerator * (dw // w.denominator)
        for i, k, x in nonzero:
            for j, h, y in nonzero:
                key = (i, j, k, h)
                acc[key] = acc.get(key, 0) + w * x * y
    return [key + (c,) for key, c in acc.items() if c], dw * dr * dr


_U_INDEX = {u: k for k, u in enumerate(U_LABELS)}


def _bracket_parts(brackets: dict, e_labels: tuple) -> tuple:
    """(h_parts, rho) of numeric brackets: h_parts[i][j] holds the
    e-coefficients of [u_i, u_j], rho[a] the matrix of ad(e_a) on m.
    NotSymmetric where some [u_i, u_j] has a u-coefficient."""
    e_index = {e: a for a, e in enumerate(e_labels)}
    h_parts = [[[_ZERO] * len(e_labels) for _ in range(4)] for _ in range(4)]
    rho = [_zeros(4, 4) for _ in e_labels]
    for (x, y), vals in brackets.items():
        j = _U_INDEX.get(y)
        if j is None:
            continue
        i = _U_INDEX.get(x)
        for lbl, v in vals.items():
            if i is None:
                rho[e_index[x]][_U_INDEX[lbl]][j] = v
            elif lbl in _U_INDEX:
                raise NotSymmetric(f"bracket [{x}, {y}] has a component "
                                   f"in m ({lbl})")
            else:
                h_parts[i][j][e_index[lbl]] = v
    return h_parts, rho


def _ricci_of(ops: dict) -> list:
    # ricci[i][j] = sum over k != i of entry (k, j) of R(u_k, u_i); each op
    # R(u_k, u_i), k < i, adds its row k to ricci row i and, as
    # R(u_i, u_k) = -R(u_k, u_i), subtracts its row i from row k
    ricci = _zeros(4, 4)
    for (k, i), op in ops.items():
        for j, (x, y) in enumerate(zip(op[k], op[i])):
            if x:
                ricci[i][j] = _add(ricci[i][j], x)
            if y:
                ricci[k][j] = ricci[k][j] - y if ricci[k][j] else -y
    return ricci


class _EntryPlan:
    """What every point of one entry shares, read once: the sample names,
    the metric's nonzero entries and the brackets as planned values.  When
    no bracket coefficient has a variable (`fixed`), `kept` holds the first
    point's (h_parts, rho, Levi-Civita curvature, Ricci).  `last` holds the
    last accepted draw's (point, g over ints, g^-1 over ints), so that the
    NumericCase at that point neither evaluates nor inverts g again."""

    def __init__(self, entry: CatalogEntry, metric):
        self.metric = metric
        self.g = [(i, j, _planned(x)) for i, row in enumerate(metric.entries)
                  for j, x in enumerate(row) if x.num.terms]
        names = sorted({name for _, _, x in self.g if type(x) is tuple
                        for terms in x for mono, _ in terms
                        for name, _ in mono})
        names += [p.name for p in entry.pair.params if p.name not in names]
        self.names = names
        self.e_labels = entry.pair.e_labels
        self.brackets = {(x, y): {lbl: _planned(v) for lbl, v in coeffs.items()
                                  if v.num.terms}
                         for (x, y), coeffs in entry.pair.brackets.items()
                         if x != y}
        self.fixed = not any(type(v) is tuple for coeffs
                             in self.brackets.values() for v in coeffs.values())
        self.kept = None
        self.last = None

    def metric_at(self, point: dict) -> tuple:
        """g at the point, over ints."""
        vals = [(i, j, _ratio(x, point)) for i, j, x in self.g]
        d = math.lcm(*(q for _, _, (_, q) in vals))
        gs = _zeros(4, 4)
        for i, j, (n, q) in vals:
            gs[i][j] = n * (d // q)
        return gs, d

    def parts_at(self, point: dict) -> tuple:
        """(h_parts, rho) at the point; each recorded bracket is evaluated
        once, and [y, x] = -[x, y]."""
        brackets = {}
        for (x, y), coeffs in self.brackets.items():
            vals = {lbl: _value(v, point) for lbl, v in coeffs.items()}
            brackets[(x, y)] = vals
            if (y, x) not in self.brackets:
                brackets[(y, x)] = {lbl: -v for lbl, v in vals.items()}
        return _bracket_parts(brackets, self.e_labels)


# CatalogEntry -> _EntryPlan; entries are read-only
_ENTRY_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _entry_plan(entry: CatalogEntry, family: MetricFamily | None):
    """The plan of the metric the cross-check samples: the entry's `golden
    metric`, or for an entry without one the metric of `family`, which
    `run_case` solved for it (`report.family`)."""
    metric = entry.golden.metric
    if metric is None:
        if family is None:
            raise ValueError(f"{entry.pair.case_id} has no golden metric; "
                             "pass the solved metric family")
        metric = family.g
    plan = _ENTRY_PLANS.get(entry)
    if plan is None or plan.metric is not metric:
        plan = _ENTRY_PLANS[entry] = _EntryPlan(entry, metric)
    return plan


class NumericCase:
    """All pipeline quantities recomputed numerically from the brackets.

    g and g^-1 over ints (`g_scaled`, `ginv_scaled`) are taken from the
    entry's plan when the point is the last one `sample_point` accepted, and
    computed otherwise; both are read-only.  `g` and `ginv`, their dense
    lists of Fractions, are built on first use; `point` is the sample as
    name -> (numerator, denominator).  With constant brackets, `h_parts`,
    `rho`, `lc_ops` and `ricci` are the first point's, kept by the entry's
    plan, shared by every later NumericCase of the entry and read-only."""

    def __init__(self, entry: CatalogEntry, sample: dict,
                 family: MetricFamily | None = None):
        """`family` is read only when the entry has no `golden metric`."""
        plan = _entry_plan(entry, family)
        self.point = point = _point(sample)
        if plan.last is not None and plan.last[0] == point:
            _, self.g_scaled, self.ginv_scaled = plan.last
        else:
            self.g_scaled = plan.metric_at(point)
            self.ginv_scaled = _inverse_scaled(*self.g_scaled)
            if self.ginv_scaled is None:
                raise ZeroDivisionError("degenerate metric sample")

        if plan.kept is None:
            self.h_parts, self.rho = plan.parts_at(point)
            # the Levi-Civita maps of a symmetric pair are zero
            self.lc_ops = self.curvature_ops([_zeros(4, 4)] * 4)
            self.ricci = _ricci_of(self.lc_ops)
            if plan.fixed:
                plan.kept = self.h_parts, self.rho, self.lc_ops, self.ricci
        else:
            self.h_parts, self.rho, self.lc_ops, self.ricci = plan.kept
        gi, d = self.ginv_scaled
        n = sum(x * y for gi_row, r_row in zip(gi, self.ricci)
                for x, y in zip(gi_row, r_row) if y)
        self.scalar = Fraction(n, d) if n else _ZERO

    @cached_property
    def g(self) -> list:
        return _unscaled(*self.g_scaled)

    @cached_property
    def ginv(self) -> list:
        return _unscaled(*self.ginv_scaled)

    def curvature_ops(self, maps: list) -> dict:
        """R(u_i,u_j), i < j, for the connection given by numeric maps:
        [L_i, L_j] - ad([u_i, u_j]) on m, the bracket lying in h."""
        live = [any(map(any, m)) for m in maps]
        ops = {}
        for i in range(4):
            for j in range(i + 1, 4):
                op = (_mat_sub(_mat_mul(maps[i], maps[j]),
                               _mat_mul(maps[j], maps[i]))
                      if live[i] and live[j] else _zeros(4, 4))
                for k, c in enumerate(self.h_parts[i][j]):
                    if c:
                        _mat_add_scaled_into(op, self.rho[k], -c)
                ops[(i, j)] = op
        return ops

    # -- energy-momentum ----------------------------------------------------

    @staticmethod
    def structure(ops: dict, basis: list) -> dict | None:
        """Expand numeric curvature components in a numeric holonomy basis."""
        if not basis:
            return {} if all(
                all(x == 0 for row in m for x in row) for m in ops.values()) \
                else None
        a = [[basis[b][i][j] for b in range(len(basis))]
             for i in range(4) for j in range(4)]
        sols = _gauss_solve(a, [[m[i][j] for i in range(4) for j in range(4)]
                                for m in ops.values()])
        return None if sols is None else dict(zip(ops, sols))

    def stress(self, form: tuple) -> tuple:
        """T_ij = F_ij / 2 - g_ij (sum_kh g^kh F_kh) / 8 over ints, with F
        given as a linear form in g^-1 (`_stress_form`)."""
        terms, d = form
        gi, dgi = self.ginv_scaled
        f = _zeros(4, 4)
        for i, j, k, h, c in terms:
            if gi[k][h]:
                f[i][j] += c * gi[k][h]
        # F = f / (d dgi), sum_kh g^kh F_kh = tr / (d dgi^2), g = gs / dg
        tr = sum(x * y for gi_row, f_row in zip(gi, f)
                 for x, y in zip(gi_row, f_row))
        gs, dg = self.g_scaled
        scale = 4 * dg * dgi
        return ([[scale * x - y * tr for x, y in zip(f_row, g_row)]
                 for f_row, g_row in zip(f, gs)], 8 * dg * d * dgi * dgi)

    def first_residual(self, lam: Fraction, kap: Fraction, t: tuple) -> tuple:
        """Ricci + (lam - scalar / 2) g - kap T over ints, for T over ints."""
        shift = lam - self.scalar / 2 if self.scalar else lam
        (rs, dr), (gs, dg), (ts, dt) = _scaled(self.ricci), self.g_scaled, t
        sn, sd = shift.numerator, shift.denominator
        kn, kd = kap.numerator, kap.denominator
        # rs / dr + (sn / sd) gs / dg - (kn / kd) ts / dt
        a, b, c = sd * dg * kd * dt, sn * dr * kd * dt, kn * dr * sd * dg
        return ([[a * x + b * y - c * z for x, y, z in zip(r_row, g_row, t_row)]
                 for r_row, g_row, t_row in zip(rs, gs, ts)],
                dr * sd * dg * kd * dt)

    def star(self, ops: dict) -> dict:
        def comp(i: int, j: int) -> list:
            if i == j:
                return _zeros(4, 4)
            return ops[(i, j)] if i < j else _mat_scale(ops[(j, i)], Fraction(-1))

        ginv = self.ginv
        out = {}
        for k in range(4):
            for l in range(k + 1, 4):
                acc = _zeros(4, 4)
                for i in range(4):
                    for j in range(4):
                        sign = _EPS.get((i, j, k, l), 0)
                        if not sign:
                            continue
                        for ip in range(4):
                            if not ginv[i][ip]:
                                continue
                            for jp in range(4):
                                if ip == jp or not ginv[j][jp]:
                                    continue
                                f = Fraction(sign, 2) * ginv[i][ip] * ginv[j][jp]
                                _mat_add_scaled_into(acc, comp(ip, jp), f)
                out[(k, l)] = acc
        return out

    def second_residual(self, maps: list, star: dict) -> dict:
        def s_comp(p: int, q: int) -> list:
            if p == q:
                return _zeros(4, 4)
            return star[(p, q)] if p < q else _mat_scale(star[(q, p)],
                                                         Fraction(-1))

        def s_vec(vec: list, q: int) -> list:
            acc = _zeros(4, 4)
            for p, c in enumerate(vec):
                if c:
                    _mat_add_scaled_into(acc, s_comp(p, q), c)
            return acc

        def term(x: int, y: int, z: int) -> list:
            syz = s_comp(y, z)
            out = _mat_sub(_mat_mul(maps[x], syz), _mat_mul(syz, maps[x]))
            col_y = [maps[x][r][y] for r in range(4)]
            col_z = [maps[x][r][z] for r in range(4)]
            out = _mat_sub(out, s_vec(col_y, z))
            _mat_add_scaled_into(out, s_vec(col_z, y), 1)
            return out

        # the [m, m]_m terms vanish on a symmetric pair
        res = {}
        for i in range(4):
            for j in range(i + 1, 4):
                for k in range(j + 1, 4):
                    acc = _mat_sub(term(i, j, k), term(j, i, k))
                    _mat_add_scaled_into(acc, term(k, i, j), 1)
                    res[(i, j, k)] = acc
        return res


_NUMERATORS = [x for x in range(-9, 10) if x]


def sample_point(entry: CatalogEntry, rng: random.Random,
                 avoid: list | None = None,
                 family: MetricFamily | None = None) -> dict:
    """Random rational parameter values keeping g invertible and `avoid`
    nonzero.

    The parameters are those of the metric (see `_entry_plan`; `family` is
    read only when the entry has no `golden metric`) and of the pair.  g at
    the sample must have an inverse; a recorded `golden det` is not trusted
    for that.  The test is the inversion itself, and the accepted draw's g
    and g^-1 are kept in the entry's plan (`_EntryPlan.last`) for the
    NumericCase at that point.
    """
    plan = _entry_plan(entry, family)
    for _ in range(200):
        sample = {n: Fraction(rng.choice(_NUMERATORS), rng.randint(1, 4))
                  for n in plan.names}
        point = _point(sample)
        try:
            gs = plan.metric_at(point)
            ginv = _inverse_scaled(*gs)
            if ginv is None:
                continue
            if any(x.evaluate(sample) == 0 for x in (avoid or [])):
                continue
        except PoleAtPoint:
            continue
        plan.last = point, gs, ginv
        return sample
    raise RuntimeError("could not draw a nondegenerate sample")


class _Plan:
    """What every point of one report's cross-check shares, read once: the
    compared report matrices as planned zero and nonzero entries, and the
    scalar, holonomy basis and weights, lambda and kappa as planned values.
    When neither the entry's brackets nor the compared Ricci, curvature and
    basis entries nor the weights have a variable (`fixed`), `kept` holds
    the first point's (Ricci differs, curvature differs, stress form), the
    form None where the holonomy expansion degenerates."""

    def __init__(self, report, base: _EntryPlan):
        self.base = base
        self.ricci = _planned_matrix(report.lc.ricci)
        self.scalar = _planned(report.lc.scalar)
        self.curvature = [(key, _planned_matrix(c))
                          for key, c in report.form.components.items()]
        self.basis = [_planned_matrix(b) for b in report.hol_basis]
        self.weights = [_planned(report.hm.value(a))
                        for a in range(len(self.basis))]
        self.T = _planned_matrix(report.T)
        self.solution = report.verdict.is_solution
        if self.solution:
            self.lam = _planned(report.verdict.lambda_)
            self.kap = _planned(report.verdict.kappa)
        self.fixed = base.fixed and not (
            any(map(_varies, [self.ricci, *self.basis]))
            or any(_varies(c) for _, c in self.curvature)
            or any(type(w) is tuple for w in self.weights))
        self.kept = None


# CaseReport -> _Plan; reports are read-only.  A report edited by copying
# is a new key, so it never meets the plan of the report it was copied from.
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _report_plan(entry: CatalogEntry, report) -> _Plan:
    base = _entry_plan(entry, report.family)
    plan = _PLANS.get(report)
    if plan is None or plan.base is not base:
        plan = _PLANS[report] = _Plan(report, base)
    return plan


def crosscheck_case(entry: CatalogEntry, report, sample: dict) -> list:
    """Compare the symbolic CaseReport with the numeric path at a sample.

    The symbolic side is read from the report as `run_case` left it (Ricci,
    scalar, canonical curvature, holonomy basis, T, verdict) and evaluated
    at the sample; the numeric `T` uses the report's holonomy metric `hm`,
    evaluated there too.  Returns a list of mismatch descriptions
    (empty = everything agrees).
    """
    plan = _report_plan(entry, report)
    num = NumericCase(entry, sample, report.family)
    point = num.point
    if plan.kept is None:
        ricci_differs = _mismatch(plan.ricci, (num.ricci, 1), point)
        # the canonical member's maps are zero, so its curvature is lc_ops
        curvature_differs = any(_mismatch(c, (num.lc_ops[key], 1), point)
                                for key, c in plan.curvature)
        structure = num.structure(num.lc_ops,
                                  [_dense(b, point) for b in plan.basis])
        form = None if structure is None else _stress_form(
            structure, [_value(w, point) for w in plan.weights])
        if plan.fixed:
            plan.kept = ricci_differs, curvature_differs, form
    else:
        ricci_differs, curvature_differs, form = plan.kept

    problems = []
    if ricci_differs:
        problems.append("ricci")
    if not _same(plan.scalar, num.scalar, point):
        problems.append("scalar")
    if curvature_differs:
        problems.append("curvature")
    if form is None:
        problems.append("holonomy expansion degenerates at sample")
        return problems
    t_num = num.stress(form)
    if _mismatch(plan.T, t_num, point):
        problems.append("stress tensor")

    if plan.solution:
        res, _ = num.first_residual(_value(plan.lam, point),
                                    _value(plan.kap, point), t_num)
        if any(map(any, res)):
            problems.append("first-equation residual")
    return problems
