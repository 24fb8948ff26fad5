"""Constructors and checks that only the tests use."""

from __future__ import annotations

from fractions import Fraction

from eymsym.conn import CurvatureForm, _curvature_coefficients, curvature
from eymsym.crosscheck import _inverse_scaled, _scaled, _unscaled
from eymsym.exact import RF_ONE, RF_ZERO, RatFunc, rf
from eymsym.eym import EymOutcome, EymVerdict, HolonomyMetric
from eymsym.geom import MetricFamily
from eymsym.linalg import FieldMatrix, contract, rref


def from_rows(rows) -> FieldMatrix:
    """A FieldMatrix from nested rows of ints, Fractions or RatFuncs."""
    data = [[rf(x) for x in row] for row in rows]
    return FieldMatrix(len(data), len(data[0]), data)


def identity(n: int) -> FieldMatrix:
    return FieldMatrix(n, n, [[RF_ONE if i == j else RF_ZERO for j in range(n)]
                              for i in range(n)])


def uniform_holonomy_metric(weight: RatFunc) -> HolonomyMetric:
    """g_aa = weight on every holonomy index the catalog reaches (5..10)."""
    return HolonomyMetric(overrides=dict.fromkeys(range(5, 11), weight))


def residual_is_zero(residual: dict) -> bool:
    """Whether every component of eym.second_eym_residual vanishes."""
    return all(m.is_zero() for m in residual.values())


def reference_det(m: FieldMatrix) -> RatFunc:
    """Exact determinant of a square matrix via Bareiss fraction-free
    elimination: each step divides by the previous pivot, which divides
    exactly over the rational-function field."""
    n = m.rows
    a = [list(r) for r in m.entries]
    sign = 1
    prev = RF_ONE
    for k in range(n - 1):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, n)
                         if not a[i][k].is_zero()), None)
            if swap is None:
                return RF_ZERO
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) / prev
            a[i][k] = RF_ZERO
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


def inverse_fractions(mat: list) -> list | None:
    """The inverse of a dense Fraction matrix through the numeric
    cross-check's integer elimination, or None when it is singular."""
    inv = _inverse_scaled(*_scaled(mat))
    return None if inv is None else _unscaled(*inv)


def member_curvature(pair, rhos: list, maps: list) -> CurvatureForm:
    """R(u_i, u_j) = [L_i, L_j] - rho([u_i, u_j]) of the connection with maps
    L_i = maps[i] on a symmetric pair: the canonical curvature plus the
    commutators of the maps."""
    canonical = curvature(pair, rhos, _curvature_coefficients(pair)).components
    return CurvatureForm(components={
        (i, j): maps[i].commutator(maps[j]) + r
        for (i, j), r in canonical.items()})


def evaluate_matrix(m: FieldMatrix, assignment: dict) -> list:
    """Every entry of `m` evaluated to a Fraction, as a list of rows."""
    return [[x.evaluate(assignment) for x in row] for row in m.entries]


def form_variables(form: CurvatureForm) -> set:
    """The parameter names in the entries of the form's components."""
    return {v for c in form.components.values() for row in c.entries
            for x in row for v in x.variables()}


class NonClosing(RuntimeError):
    """A curvature component lies outside the span of a candidate basis."""


def _vec(m: FieldMatrix) -> list:
    """The 16 entries of a 4x4 matrix, row by row."""
    return [m.entries[i][j] for i in range(4) for j in range(4)]


def reference_holonomy(form: CurvatureForm, isotropy_mats: list) -> list:
    """Holonomy basis through three eliminations: the components' echelon
    rows and in-span test, then a second elimination that picks the first
    independent candidates (isotropy matrices in the span, then the echelon
    rows); reference_expand_in_basis is the third."""
    gens = [_vec(c) for c in form.components.values() if not c.is_zero()]
    if not gens:
        return []
    red, pivots = rref(FieldMatrix(len(gens), 16, gens))
    rows = red.entries[:len(pivots)]

    def in_span(v: list) -> bool:
        return all(x == sum((v[p] * row[c] for p, row in zip(pivots, rows)),
                            RF_ZERO) for c, x in enumerate(v))

    cands = [rho for rho in isotropy_mats
             if not rho.is_zero() and in_span(_vec(rho))]
    cands += [FieldMatrix(4, 4, [row[4 * i:4 * i + 4] for i in range(4)])
              for row in rows]
    _, chosen = rref(FieldMatrix(len(cands), 16,
                                 list(map(_vec, cands))).transpose())
    return [cands[c] for c in chosen]


def reference_expand_in_basis(form: CurvatureForm, basis: list) -> dict:
    """Coefficients of each component in the independent `basis`, read off
    one reduced echelon form of [basis | components]; NonClosing when a
    component lies outside the span or the basis is dependent."""
    keys = list(form.components)
    cols = [_vec(b) for b in basis] + [_vec(form.components[k]) for k in keys]
    n = len(basis)
    red, pivots = rref(FieldMatrix(len(cols), 16, cols).transpose())
    if pivots != list(range(n)):
        raise NonClosing("curvature component outside the holonomy span")
    return {key: [red.entries[k][n + t] for k in range(n)]
            for t, key in enumerate(keys)}


def reference_stress_tensor(structure: dict, family: MetricFamily,
                             hm: HolonomyMetric) -> FieldMatrix:
    """T = F/2 - (s/8) g with F = sum_a w_a R_a g^-1 R_a^T taken as 4x4
    matrix products, and s = sum_kh g^kh F_kh."""
    ginv = family.g_inverse()
    f = FieldMatrix.zeros(4, 4)
    for a, coeffs in enumerate(zip(*structure.values())):
        r = FieldMatrix.zeros(4, 4)
        for (i, j), c in zip(structure, coeffs):
            r.entries[i][j], r.entries[j][i] = c, -c
        f = f + (r * ginv * r.transpose()).scale(hm.value(a))
    return (f.scale(rf(Fraction(1, 2)))
            - family.g.scale(contract(ginv, f) * rf(Fraction(1, 8))))


def reference_first_eym(lc, family, T: FieldMatrix) -> EymVerdict:
    """The first equation  r_ij + (lambda - s/2) g_ij = kappa T_ij  solved
    as a linear system in (lambda, kappa): one row per component i <= j,
    eliminated over the rational-function field and classified by its
    pivots."""
    if lc.form.is_zero():
        return EymVerdict(EymOutcome.FLAT_CURVATURE,
                          detail="all curvature components vanish")
    if T.is_zero():
        return EymVerdict(EymOutcome.TRIVIAL_STRESS_ENERGY,
                          detail="energy-momentum tensor vanishes identically")
    g = family.g
    half_s = rf(Fraction(1, 2)) * lc.scalar
    rows = []
    for i in range(4):
        for j in range(i, 4):
            coeff_l = g.entries[i][j]
            coeff_k = -T.entries[i][j]
            rhs = half_s * g.entries[i][j] - lc.ricci.entries[i][j]
            if coeff_l.is_zero() and coeff_k.is_zero() and rhs.is_zero():
                continue
            rows.append([coeff_l, coeff_k, rhs])
    red, pivots = rref(FieldMatrix(len(rows), 3, rows))
    if 2 in pivots:
        return EymVerdict(EymOutcome.INCONSISTENT,
                          detail="component equations have no common solution")
    if pivots != [0, 1]:
        # T is traceless and g nondegenerate, so a nonzero T is never a
        # multiple of g and columns 0 and 1 are independent
        raise AssertionError("first-equation system is rank deficient")
    lam = red.entries[0][2]
    kap = red.entries[1][2]
    if kap.is_zero():
        return EymVerdict(
            EymOutcome.INCONSISTENT, lambda_=lam, kappa=kap,
            detail="unique solution has kappa = 0 (field decouples)")
    conditions = []
    for p in (lam.den, kap.den, kap.num):
        q = p.primitive()
        if not q.is_constant() and all(q != c.num for c in conditions):
            conditions.append(RatFunc(q))
    return EymVerdict(EymOutcome.SOLUTION, lambda_=lam, kappa=kap,
                      conditions=conditions)
