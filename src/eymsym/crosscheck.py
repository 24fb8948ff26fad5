"""Independent numeric recomputation of the pipeline over plain Fractions.

This is a deliberately separate code path: structure constants, isotropy
matrices, the Koszul construction, curvature, Ricci, the energy-momentum
tensor, and both field-equation residuals are recomputed with ordinary
Fraction arithmetic and index loops (no Poly/RatFunc, no FieldMatrix), at
concrete rational parameter values.  Comparing it with the symbolic pipeline
evaluated at the same point gives an end-to-end exactness check.

The index loops test each factor for zero before they multiply, and each term
for zero before they add it: the metrics, brackets and curvatures here are
sparse, and a term that is 0 leaves a Fraction sum unchanged, so it costs no
new Fraction.  `_gauss_solve` eliminates a matrix once for all its right-hand
sides: once for g^-1 ([g | I]) and once for the six curvature components in
the holonomy basis.  The symbolic side of the comparison is read from the
`CaseReport` that `run_case` built and only evaluated at the sample.  `star`
and `second_residual` are the references of `hodge_star_2form` and
`second_eym_residual` at members where the second equation can fail.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from .exact import PoleAtPoint
from .geom import MetricFamily
from .liecat import CatalogEntry, U_LABELS

_EPS = {}
for _p in permutations(range(4)):
    _s = 1
    for _i in range(4):
        for _j in range(_i + 1, 4):
            if _p[_i] > _p[_j]:
                _s = -_s
    _EPS[_p] = _s


_ZERO = Fraction(0)


def _zeros(n: int, m: int) -> list:
    return [[_ZERO] * m for _ in range(n)]


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
    has dependent columns."""
    n, m = len(a), len(a[0])
    aug = [list(row) + [b[i] for b in rhss] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        piv = aug[r][c]
        aug[r] = [x / piv if x else x for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y if y else x for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if len(pivots) != m or any(any(row[m:]) for row in aug[r:]):
        return None
    return [[aug[k][m + s] for k in range(m)] for s in range(len(rhss))]


def _inverse(mat: list) -> list | None:
    n = len(mat)
    cols = _gauss_solve(mat, [[Fraction(1) if i == j else _ZERO
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

        self.brackets = {}
        for x in pair.basis:
            for y in pair.basis:
                coeffs = pair.bracket(x, y)
                self.brackets[(x, y)] = {
                    lbl: v.evaluate(sample) for lbl, v in coeffs.items()}
        self.m_parts = [[self.m_part(x, y) for y in U_LABELS] for x in U_LABELS]

        self.rho = []
        for e in self.e_labels:
            mat = _zeros(4, 4)
            for j, u in enumerate(U_LABELS):
                for lbl, v in self.brackets[(e, u)].items():
                    mat[U_LABELS.index(lbl)][j] = v
            self.rho.append(mat)

        self.g = _metric_and_det(entry, family)[0].evaluate(sample)
        self.ginv = _inverse(self.g)
        if self.ginv is None:
            raise ZeroDivisionError("degenerate metric sample")

        self._koszul()
        self._ricci()

    def m_part(self, x: str, y: str) -> list:
        br = self.brackets[(x, y)]
        return [br.get(lbl, _ZERO) for lbl in U_LABELS]

    def h_part(self, x: str, y: str) -> list:
        br = self.brackets[(x, y)]
        return [br.get(lbl, _ZERO) for lbl in self.e_labels]

    def _koszul(self) -> None:
        g, ginv, mps = self.g, self.ginv, self.m_parts
        # gb[i][j][k] = g([u_i, u_j]_m, u_k)
        gb = [[[_sum(x * g[p][k] for p, x in enumerate(vec) if x and g[p][k])
                for k in range(4)] if any(vec) else [_ZERO] * 4
               for vec in row] for row in mps]

        self.alpha = []
        for i in range(4):
            mat = _zeros(4, 4)
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
            self.alpha.append(mat)

    def curvature_ops(self, maps: list) -> dict:
        """R(u_i,u_j) for the connection given by numeric maps."""
        ops = {}
        for i in range(4):
            for j in range(i + 1, 4):
                op = _mat_sub(_mat_mul(maps[i], maps[j]),
                              _mat_mul(maps[j], maps[i]))
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

        def op_entry(k: int, i: int, j: int) -> Fraction:
            """Entry (k, j) of R(u_k, u_i), k != i."""
            if k < i:
                return ops[(k, i)][k][j]
            x = ops[(i, k)][k][j]
            return -x if x else x

        self.lc_ops = ops
        self.ricci = _zeros(4, 4)
        for i in range(4):
            for j in range(4):
                self.ricci[i][j] = _sum(
                    op_entry(k, i, j) for k in range(4) if k != i)
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
        ginv = self.ginv
        s_total = _ZERO
        for a in range(dim):
            w, r = weights[a], rc[a]
            for k in range(4):
                for l in range(4):
                    if not r[k][l]:
                        continue
                    for h in range(4):
                        if not ginv[k][h]:
                            continue
                        for m in range(4):
                            if r[h][m] and ginv[l][m]:
                                s_total = _add(s_total, w * r[k][l] * r[h][m]
                                               * ginv[k][h] * ginv[l][m])
        t = _zeros(4, 4)
        for i in range(4):
            for j in range(4):
                first = _ZERO
                for a in range(dim):
                    w, r = weights[a], rc[a]
                    for k in range(4):
                        if not r[i][k]:
                            continue
                        for l in range(4):
                            if r[j][l] and ginv[k][l]:
                                first = _add(first, w * r[i][k] * r[j][l]
                                             * ginv[k][l])
                g_ij = self.g[i][j]
                t[i][j] = _sum((first / 2 if first else first,
                                -g_ij * s_total / 8 if g_ij and s_total
                                else _ZERO))
        return t

    def first_residual(self, lam: Fraction, kap: Fraction, t: list) -> list:
        shift, out = lam - self.scalar / 2, _zeros(4, 4)
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
        sample = {n: Fraction(rng.choice([x for x in range(-9, 10) if x]),
                              rng.randint(1, 4)) for n in names}
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

    if report.lc.ricci.evaluate(sample) != num.ricci:
        problems.append("ricci")
    if report.lc.scalar.evaluate(sample) != num.scalar:
        problems.append("scalar")

    # canonical member: maps are zero, curvature comes from the brackets alone
    ops = num.curvature_ops([_zeros(4, 4) for _ in range(4)])
    if any(c.evaluate(sample) != ops[key]
           for key, c in report.form.components.items()):
        problems.append("curvature")
    basis_num = [b.evaluate(sample) for b in report.hol_basis]
    structure = num.structure(ops, basis_num)
    if structure is None:
        problems.append("holonomy expansion degenerates at sample")
        return problems
    weights = [report.hm.value(a).evaluate(sample) for a in range(len(basis_num))]
    t_num = num.stress(structure, weights)
    if report.T.evaluate(sample) != t_num:
        problems.append("stress tensor")

    if report.verdict.is_solution:
        lam = report.verdict.lambda_.evaluate(sample)
        kap = report.verdict.kappa.evaluate(sample)
        res = num.first_residual(lam, kap, t_num)
        if any(x != 0 for row in res for x in row):
            problems.append("first-equation residual")
    return problems
