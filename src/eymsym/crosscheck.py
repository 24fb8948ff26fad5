"""Independent numeric recomputation of the pipeline over plain Fractions.

This is a deliberately separate code path: structure constants, isotropy
matrices, the Koszul construction, curvature, Ricci, the energy-momentum
tensor, and both field-equation residuals are recomputed with ordinary
Fraction arithmetic and index loops (no Poly/RatFunc, no FieldMatrix), at
concrete rational parameter values.  Comparing it with the symbolic pipeline
evaluated at the same point gives an end-to-end exactness check.

The zero of the numeric path is the int 0, whose truth test runs in C, and
the index loops test each factor for zero before they multiply, and each term
for zero before they add it: the metrics, brackets and curvatures here are
sparse, and a term that is 0 leaves a sum unchanged, so it costs no new
Fraction.  `_gauss_solve` eliminates a matrix once for all its right-hand
sides (once for g^-1, [g | I], and once for the six curvature components in
the holonomy basis), over ints, without division.  The energy-momentum tensor
is read off F = sum_a w_a R_a g^-1 R_a^T.

The symbolic side of the comparison is read from the `CaseReport` that
`run_case` built and compared entry by entry: only its nonzero entries are
evaluated at the sample, and where a symbolic entry is identically zero the
numeric entry must be 0.  No identically zero RatFunc is evaluated here.  The
canonical member's curvature (zero connection maps) is the Levi-Civita one
whenever the Koszul maps are all zero, as they are on a symmetric pair, and is
then not built twice.  `star` and `second_residual` are the references of
`hodge_star_2form` and `second_eym_residual` at members where the second
equation can fail.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations

from .exact import PoleAtPoint
from .geom import MetricFamily
from .liecat import CatalogEntry, U_LABELS

_NONE: dict = {}  # the bracket of a pair with no recorded bracket
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


def _value(x, sample: dict):
    """x evaluated at the sample; the int 0 for an identically zero x, which
    is never evaluated."""
    return x.evaluate(sample) if not x.is_zero() else _ZERO


def _values(m, sample: dict) -> list:
    """A FieldMatrix as a dense list at the sample, zero entries as 0."""
    return [[x.evaluate(sample) if not x.is_zero() else _ZERO for x in row]
            for row in m.entries]


def _differs(sym, num: list, sample: dict) -> bool:
    """Whether a symbolic FieldMatrix and a numeric dense list differ at the
    sample.  Only the nonzero symbolic entries are evaluated (all of them);
    where the symbolic entry is zero the numeric one must be 0."""
    differs = False
    for sym_row, num_row in zip(sym.entries, num):
        for x, y in zip(sym_row, num_row):
            if x.is_zero():
                if y:
                    differs = True
            elif x.evaluate(sample) != y:
                differs = True
    return differs


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


def _mat_add_into(acc: list, a: list) -> None:
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x:
                acc[i][j] = _add(acc[i][j], x)


def _mat_add_scaled_into(acc: list, a: list, c: Fraction) -> None:
    """acc += c * a, touching only the nonzero entries of a."""
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x:
                acc[i][j] = _add(acc[i][j], c * x)


def _sum(terms) -> Fraction:
    """Sum of the nonzero terms; no Fraction is built for a zero term."""
    total = _ZERO
    for x in terms:
        if x:
            total = _add(total, x)
    return total


def _gauss_solve(a: list, rhss: list) -> list | None:
    """Solve a x = b over Fractions for each b in `rhss`, with one
    elimination of [a | b_1 ... b_r]; None when any b is inconsistent or a
    has dependent columns.

    Each row is scaled to ints and eliminated without division
    (row_i <- p row_i - f row_r, then divided by its content), so the only
    Fractions built are the nonzero entries of the solutions."""
    n, m = len(a), len(a[0])
    aug = []
    for i, row in enumerate(a):
        row = list(row) + [b[i] for b in rhss]
        d = math.lcm(*(x.denominator for x in row if x))
        aug.append([x.numerator * (d // x.denominator) if x else 0
                    for x in row])
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if aug[i][c]), None)
        if pr is None:
            return None  # a has dependent columns
        aug[r], aug[pr] = aug[pr], aug[r]
        prow = aug[r]
        p = prow[c]
        for i in range(n):
            f = aug[i][c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(aug[i], prow)]
                g = math.gcd(*row)
                aug[i] = [x // g for x in row] if g > 1 else row
        r += 1
    if any(any(row[m:]) for row in aug[m:]):
        return None
    return [[Fraction(aug[k][m + s], aug[k][k]) if aug[k][m + s] else _ZERO
             for k in range(m)] for s in range(len(rhss))]


def _inverse(mat: list) -> list | None:
    n = len(mat)
    cols = _gauss_solve(mat, [[1 if i == j else _ZERO
                               for i in range(n)] for j in range(n)])
    if cols is None:
        return None
    return [[cols[j][i] for j in range(n)] for i in range(n)]


class NumericCase:
    """All pipeline quantities recomputed numerically from the brackets."""

    def __init__(self, entry: CatalogEntry, sample: dict,
                 family: MetricFamily | None = None):
        """`family` is read only when the entry has no `golden metric`."""
        self.entry = entry
        self.sample = sample
        pair = entry.pair
        self.e_labels = pair.e_labels

        # each recorded bracket is evaluated once; [y, x] = -[x, y]
        self.brackets = {}
        for (x, y), coeffs in pair.brackets.items():
            if x == y:
                continue
            vals = {lbl: v.evaluate(sample) for lbl, v in coeffs.items()
                    if not v.is_zero()}
            self.brackets[(x, y)] = vals
            if (y, x) not in pair.brackets:
                self.brackets[(y, x)] = {lbl: -v for lbl, v in vals.items()}
        self.m_parts = [[self.m_part(x, y) for y in U_LABELS] for x in U_LABELS]

        self.rho = []
        for e in self.e_labels:
            mat = _zeros(4, 4)
            for j, u in enumerate(U_LABELS):
                for lbl, v in self.brackets.get((e, u), _NONE).items():
                    mat[U_LABELS.index(lbl)][j] = v
            self.rho.append(mat)

        self.g = _values(_metric_and_det(entry, family)[0], sample)
        self.ginv = _inverse(self.g)
        if self.ginv is None:
            raise ZeroDivisionError("degenerate metric sample")

        self._koszul()
        self._ricci()

    def m_part(self, x: str, y: str) -> list:
        br = self.brackets.get((x, y), _NONE)
        return [br.get(lbl, _ZERO) for lbl in U_LABELS]

    def h_part(self, x: str, y: str) -> list:
        br = self.brackets.get((x, y), _NONE)
        return [br.get(lbl, _ZERO) for lbl in self.e_labels]

    def _koszul(self) -> None:
        g, ginv, mps = self.g, self.ginv, self.m_parts
        # gb[i][j][k] = g([u_i, u_j]_m, u_k)
        gb = [[[_sum(x * g[p][k] for p, x in enumerate(vec) if x and g[p][k])
                for k in range(4)] if any(vec) else [_ZERO] * 4
               for vec in row] for row in mps]

        self.alpha = [_zeros(4, 4) for _ in range(4)]
        if not any(x for row in gb for vec in row for x in vec):
            return  # no [m, m] part: every Koszul term is 0
        for i, mat in enumerate(self.alpha):
            for j in range(4):
                # g(alpha(u_i) u_j, u_k) = (gb[i][j][k] - gb[j][k][i]
                # + gb[k][i][j]) / 2
                rhs = [_sum((gb[i][j][k], gb[k][i][j])) for k in range(4)]
                for k in range(4):
                    if gb[j][k][i]:
                        rhs[k] = rhs[k] - gb[j][k][i]
                nonzero = [k for k in range(4) if rhs[k]]
                if not nonzero:
                    continue
                for r in range(4):
                    x = _sum(ginv[r][k] * rhs[k] for k in nonzero if ginv[r][k])
                    if x:
                        mat[r][j] = x / 2

    def curvature_ops(self, maps: list) -> dict:
        """R(u_i,u_j) for the connection given by numeric maps."""
        live = [any(x for row in m for x in row) for m in maps]
        ops = {}
        for i in range(4):
            for j in range(i + 1, 4):
                op = (_mat_sub(_mat_mul(maps[i], maps[j]),
                               _mat_mul(maps[j], maps[i]))
                      if live[i] and live[j] else _zeros(4, 4))
                for k, c in enumerate(self.m_parts[i][j]):
                    if c:
                        _mat_add_scaled_into(op, maps[k], -c)
                hp = self.h_part(U_LABELS[i], U_LABELS[j])
                for k, c in enumerate(hp):
                    if c:
                        _mat_add_scaled_into(op, self.rho[k], -c)
                ops[(i, j)] = op
        return ops

    def _ricci(self) -> None:
        ops = self.curvature_ops(self.alpha)
        self.lc_ops = ops
        # ricci[i][j] = sum over k != i of entry (k, j) of R(u_k, u_i);
        # each op R(u_k, u_i), k < i, adds its row k to ricci row i and,
        # as R(u_i, u_k) = -R(u_k, u_i), subtracts its row i from row k
        ricci = self.ricci = _zeros(4, 4)
        for (k, i), op in ops.items():
            for j, (x, y) in enumerate(zip(op[k], op[i])):
                if x:
                    ricci[i][j] = _add(ricci[i][j], x)
                if y:
                    ricci[k][j] = ricci[k][j] - y if ricci[k][j] else -y
        self.scalar = _sum(
            self.ginv[i][j] * self.ricci[i][j]
            for i in range(4) for j in range(4)
            if self.ginv[i][j] and self.ricci[i][j])

    # -- energy-momentum ----------------------------------------------------

    def structure(self, ops: dict, basis: list) -> dict | None:
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

    def stress(self, structure: dict, weights: list) -> list:
        dim = len(weights)
        rc = [[[_ZERO] * 4 for _ in range(4)] for _ in range(dim)]
        for (i, j), coeffs in structure.items():
            for a, c in enumerate(coeffs):
                rc[a][i][j] = c
                rc[a][j][i] = -c if c else c
        # F = sum_a w_a R_a g^-1 R_a^T gives both terms: T_ij = F_ij / 2
        # - g_ij (sum_kh g^kh F_kh) / 8
        ginv = self.ginv
        f = _zeros(4, 4)
        for w, r in zip(weights, rc):
            if w and any(any(row) for row in r):
                r_t = [list(col) for col in zip(*r)]
                _mat_add_scaled_into(f, _mat_mul(_mat_mul(r, ginv), r_t), w)
        s_total = _sum(ginv[k][h] * f[k][h] for k in range(4) for h in range(4)
                       if ginv[k][h] and f[k][h])
        s_eighth = s_total / 8 if s_total else _ZERO
        t = _zeros(4, 4)
        for i in range(4):
            for j in range(4):
                f_ij, g_ij = f[i][j], self.g[i][j]
                t[i][j] = _sum((f_ij / 2 if f_ij else f_ij,
                                -g_ij * s_eighth if g_ij and s_eighth
                                else _ZERO))
        return t

    def first_residual(self, lam: Fraction, kap: Fraction, t: list) -> list:
        shift = lam - self.scalar / 2 if self.scalar else lam
        out = _zeros(4, 4)
        for i in range(4):
            for j in range(4):
                g_ij, t_ij = self.g[i][j], t[i][j]
                out[i][j] = _sum((self.ricci[i][j],
                                  shift * g_ij if g_ij else g_ij,
                                  -kap * t_ij if t_ij else t_ij))
        return out

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
            _mat_add_into(out, s_vec(col_z, y))
            return out

        mps = self.m_parts
        res = {}
        for i in range(4):
            for j in range(i + 1, 4):
                for k in range(j + 1, 4):
                    acc = _mat_sub(term(i, j, k), term(j, i, k))
                    _mat_add_into(acc, term(k, i, j))
                    acc = _mat_sub(acc, s_vec(mps[i][j], k))
                    _mat_add_into(acc, s_vec(mps[i][k], j))
                    acc = _mat_sub(acc, s_vec(mps[j][k], i))
                    res[(i, j, k)] = acc
        return res


def _metric_and_det(entry: CatalogEntry, family: MetricFamily | None) -> tuple:
    """The metric the cross-check samples, with its determinant (or None).

    These are the entry's `golden metric` and `golden det`.  An entry without
    a `golden metric` falls back to `family`, the metric family that
    `run_case` solved for it (`report.family`).
    """
    if entry.golden.metric is not None:
        return entry.golden.metric, entry.golden.det
    if family is None:
        raise ValueError(f"{entry.pair.case_id} has no golden metric; "
                         "pass the solved metric family")
    return family.g, family.det_g


_NUMERATORS = [x for x in range(-9, 10) if x]


def sample_point(entry: CatalogEntry, rng: random.Random,
                 avoid: list | None = None,
                 family: MetricFamily | None = None) -> dict:
    """Random rational parameter values keeping det g and `avoid` nonzero.

    The parameters are those of the metric (see `_metric_and_det`; `family`
    is read only when the entry has no `golden metric`) and of the pair.
    """
    metric, det = _metric_and_det(entry, family)
    names = sorted({v for row in metric.entries for x in row
                    for v in x.variables()})
    names += [p.name for p in entry.pair.params if p.name not in names]
    for _ in range(200):
        sample = {n: Fraction(rng.choice(_NUMERATORS), rng.randint(1, 4))
                  for n in names}
        try:
            if det is not None and det.evaluate(sample) == 0:
                continue
            if any(x.evaluate(sample) == 0 for x in (avoid or [])):
                continue
        except PoleAtPoint:
            continue
        return sample
    raise RuntimeError("could not draw a nondegenerate sample")


def crosscheck_case(entry: CatalogEntry, report, sample: dict) -> list:
    """Compare the symbolic CaseReport with the numeric path at a sample.

    The symbolic side is read from the report as `run_case` left it (Ricci,
    scalar, canonical curvature, holonomy basis, T, verdict) and evaluated
    at the sample; the numeric `T` uses the report's holonomy metric `hm`,
    evaluated there too.  Returns a list of mismatch descriptions
    (empty = everything agrees).
    """
    problems = []
    num = NumericCase(entry, sample, report.family)

    if _differs(report.lc.ricci, num.ricci, sample):
        problems.append("ricci")
    if _value(report.lc.scalar, sample) != num.scalar:
        problems.append("scalar")

    # canonical member: maps are zero, curvature comes from the brackets
    # alone; with zero Koszul maps that is the Levi-Civita curvature again
    if any(x for m in num.alpha for row in m for x in row):
        ops = num.curvature_ops([_zeros(4, 4) for _ in range(4)])
    else:
        ops = num.lc_ops
    if any(_differs(c, ops[key], sample)
           for key, c in report.form.components.items()):
        problems.append("curvature")
    basis_num = [_values(b, sample) for b in report.hol_basis]
    structure = num.structure(ops, basis_num)
    if structure is None:
        problems.append("holonomy expansion degenerates at sample")
        return problems
    weights = [_value(report.hm.value(a), sample)
               for a in range(len(basis_num))]
    t_num = num.stress(structure, weights)
    if _differs(report.T, t_num, sample):
        problems.append("stress tensor")

    if report.verdict.is_solution:
        lam = _value(report.verdict.lambda_, sample)
        kap = _value(report.verdict.kappa, sample)
        res = num.first_residual(lam, kap, t_num)
        if any(x for row in res for x in row):
            problems.append("first-equation residual")
    return problems
