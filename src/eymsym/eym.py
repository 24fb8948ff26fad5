"""Energy-momentum tensor, the two field equations, and the case pipeline.

The Yang-Mills energy-momentum tensor is read off the curvature's
coefficients in the holonomy basis.  With R_a the antisymmetric array of
the a-th coefficients and w_a the diagonal holonomy metric,

  F_ij = sum_a w_a sum_kl R_a[i][k] R_a[j][l] g^kl,   s = sum_kh g^kh F_kh,
  T = F/2 - (s/8) g,

so g^ij T_ij = s/2 - 4 s/8 = 0: T is traceless.  F is symmetric, so
stress_tensor sums the coefficients of each g^kl over the nonzero entries
of the R_a for the upper triangle only, then multiplies by the nonzero
g^kl; it forms no matrix product.

The first equation,  r + (lambda - s/2) g = kappa T,  needs no linear
solve.  Its g-trace is  s + 4 (lambda - s/2) = kappa g^ij T_ij = 0,  as
g^ij g_ij = 4 and T is traceless by construction; so lambda = s/4, and what
is left,  r - (s/4) g = kappa T,  asks only whether one symmetric matrix is
a multiple of another.  Over the rational-function field it is classified:

  * all curvature components zero            ->  no solution (flat curvature)
  * T identically zero                       ->  no solution (trivial stress-energy)
  * r - (s/4) g not a multiple of T          ->  no solution (inconsistent)
  * unique solution but kappa identically 0  ->  no solution (inconsistent):
    a vanishing coupling decouples the field and reduces the system to a
    plain Einstein condition, which does not count as a solution here
  * otherwise                                ->  (lambda, kappa) with the
    denominators and the kappa numerator reported as genericity conditions.

The second equation  *D*R = 0  is checked through the covariant exterior
derivative of the dualized curvature: slot corrections and the value action
of the connection, alternated over the three arguments.  The plain exterior
derivative of an invariant form adds only [.,.]_m-terms, and a symmetric
pair has none; run_case rejects any other pair up front (NotSymmetric).
The Hodge star is densitized (the volume factor sqrt|det g| is a nonzero
constant on a homogeneous space and cannot affect whether the residual
vanishes, so it is omitted to stay inside rational-function arithmetic).
Each residual term carries a connection map, so run_case does not evaluate
the residual at the canonical member (CaseReport.second_residual_zero).

When the curvature of the general connection family depends on the family's
free parameters, the pipeline evaluates the energy-momentum stage at the
canonical member (all parameters zero), which always belongs to the family;
reports carry a flag saying so.  The canonical member is the Levi-Civita
connection, so the pipeline reads its curvature off the Levi-Civita report
(CurvatureReport.form) instead of building it again.  run_case builds the
[m, m] coefficient array once per case (conn._curvature_coefficients), and
both the Levi-Civita curvature and conn.holonomy read it; holonomy reads
the holonomy basis and the curvature's coefficients in it off that array,
by value.  run_case passes the coefficients to stress_tensor and both to
the CaseReport, and writes nothing to the form.

run_case keeps the metric solve in one dict per process, keyed on what the
metric solve reads (_solve_key; 14 keys over the 35 catalog cases): the
[e_a, u_j] bracket coefficients that the isotropy matrices are built from,
not the matrices, so a hit builds none.  The entry keeps the isotropy
matrices, built and checked on the miss, beside the metric family.  The
general connection family and whether the curvature depends on its
parameters are printed only by the report renderer, so run_case solves
neither: CaseReport.conn and CaseReport.curvature_param_dependent solve
both on first read, into the same dict entry, as the connection solve reads
only the isotropy matrices and that metric.  Cases with equal keys share the
isotropy matrices and the families, so callers treat them as read-only.  A
failed solve is not stored, so its error always names the case that raised
it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from .exact import RF_ZERO, RatFunc, rf
from .linalg import FieldMatrix, contract, matrices_key, nonzero_entries
from .liecat import (U_LABELS, CaseGolden, CatalogEntry, LiePair,
                     NotSymmetric, TrivialIsotropy, isotropy_rep,
                     rep_is_faithful, symmetric_witness)
from .geom import (CurvatureReport, MetricFamily, levi_civita,
                   solve_invariant_metric)
from .conn import (ConnectionFamily, CurvatureForm, _curvature_coefficients,
                   depends_on_connection_params, holonomy, solve_connections)


# g_aa where no override is given: the weight the paper's solutions need
_WEIGHT = rf(2)
# 1/2 and 1/8 in T = F/2 - (s/8) g (stress_tensor); 1/2 also in the star
_HALF, _EIGHTH = rf(Fraction(1, 2)), rf(Fraction(1, 8))


class HolonomyMetric:
    """Diagonal metric g_aa on the holonomy algebra, alpha = 5 .. 4 + dim."""

    def __init__(self, overrides: dict | None = None):
        # alpha index -> RatFunc
        self.overrides = {} if overrides is None else overrides

    def value(self, basis_index: int) -> RatFunc:
        v = self.overrides.get(basis_index + 5, _WEIGHT)
        if v.is_zero():
            raise ValueError("holonomy metric entries must be nonzero")
        return v

    def describe(self, dim: int) -> str:
        """The entries used on a holonomy algebra of dimension `dim`, e.g.
        `g_aa = 2`, or `g_55 = 4, g_aa = 2 otherwise` under an override."""
        used = [a for a in sorted(self.overrides) if 5 <= a < 5 + dim]
        parts = [f"g_{a}{a} = {self.overrides[a]}" if a < 10
                 else f"g_({a},{a}) = {self.overrides[a]}" for a in used]
        if not parts:
            return f"g_aa = {_WEIGHT}"
        if len(used) < dim:
            parts.append(f"g_aa = {_WEIGHT} otherwise")
        return ", ".join(parts)


class EymOutcome(Enum):
    SOLUTION = "solution"
    TRIVIAL_STRESS_ENERGY = "no_solution:trivial_stress_energy"
    INCONSISTENT = "no_solution:inconsistent"
    FLAT_CURVATURE = "no_solution:flat_curvature"


class EymVerdict:
    def __init__(self, outcome: EymOutcome, lambda_: RatFunc | None = None,
                 kappa: RatFunc | None = None, conditions: list | None = None,
                 detail: str = ""):
        self.outcome = outcome
        self.lambda_ = lambda_
        self.kappa = kappa
        self.conditions = [] if conditions is None else conditions
        self.detail = detail

    @property
    def is_solution(self) -> bool:
        return self.outcome is EymOutcome.SOLUTION


def stress_tensor(structure: dict, family: MetricFamily,
                  hm: HolonomyMetric) -> FieldMatrix:
    """Exact Yang-Mills energy-momentum tensor T = F/2 - (s/8) g, where
    F_ij = sum_a w_a sum_kl R_a[i][k] R_a[j][l] g^kl and s = sum_kh g^kh F_kh;
    R_a is the antisymmetric matrix of the a-th holonomy coefficients of the
    curvature, R_a[i][j] = structure[(i, j)][a] (conn.holonomy), and
    w_a = hm.value(a)."""
    ginv = family.g_inverse()
    g_kl = {(k, l): x for k, l, x in nonzero_entries(ginv)}
    # (i, j, k, l) with i <= j and g^kl != 0  ->  sum_a w_a R_a[i][k] R_a[j][l]
    terms: dict = {}
    for a, column in enumerate(zip(*structure.values())):
        w = hm.value(a)
        # (i, k, R_a[i][k]) for the nonzero entries of R_a
        nonzero = [t for (i, k), c in zip(structure, column) if not c.is_zero()
                   for t in ((i, k, c), (k, i, -c))]
        for (i, k, x), (j, l, y) in product(nonzero, repeat=2):
            if i <= j and (k, l) in g_kl:
                terms[i, j, k, l] = terms.get((i, j, k, l), RF_ZERO) + w * x * y
    t = FieldMatrix.zeros(4, 4)
    e, g = t.entries, family.g.entries  # F, then T, mirrored as written
    for (i, j, k, l), c in terms.items():
        e[i][j] = e[j][i] = e[i][j] + c * g_kl[k, l]
    s8 = contract(ginv, t) * _EIGHTH
    for i, j in combinations_with_replacement(range(4), 2):
        e[i][j] = e[j][i] = _HALF * e[i][j] - s8 * g[i][j]
    return t


def solve_first_eym(lc: CurvatureReport, family: MetricFamily,
                    T: FieldMatrix) -> EymVerdict:
    """Solve  r_ij + (lambda - s/2) g_ij = kappa T_ij  for the two constants:
    lambda = s/4 by the trace (module docstring), and kappa exists when
    r - lambda g is a multiple of T.  T is built from the holonomy
    coefficients of lc.form, the curvature of the canonical member."""
    if lc.form.is_zero():
        return EymVerdict(EymOutcome.FLAT_CURVATURE,
                          detail="all curvature components vanish")
    if T.is_zero():
        return EymVerdict(EymOutcome.TRIVIAL_STRESS_ENERGY,
                          detail="energy-momentum tensor vanishes identically")
    lam = rf(Fraction(1, 4)) * lc.scalar
    g = family.g.entries
    # (r_ij - lambda g_ij, T_ij) per component equation i <= j
    pairs = [(lc.ricci.entries[i][j] - lam * g[i][j], T.entries[i][j])
             for i in range(4) for j in range(i, 4)]
    e, t = next(p for p in pairs if not p[1].is_zero())
    # x = (e/t) y for every pair, cross-multiplied: Poly products, no gcd
    left, right = e.den * t.num, e.num * t.den
    if any(x.num * y.den * left != right * x.den * y.num for x, y in pairs):
        return EymVerdict(EymOutcome.INCONSISTENT,
                          detail="component equations have no common solution")
    kap = e / t
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


# -- second equation ------------------------------------------------------------


_EPS = {}
for _p in permutations(range(4)):
    _sign = 1
    for _i in range(4):
        for _j in range(_i + 1, 4):
            if _p[_i] > _p[_j]:
                _sign = -_sign
    _EPS[_p] = _sign


def hodge_star_2form(form: CurvatureForm, family: MetricFamily) -> CurvatureForm:
    """Densitized star: (*R)_{kl} = 1/2 eps_{ijkl} g^{ii'} g^{jj'} R_{i'j'}."""
    ginv = family.g_inverse()
    comps = {}
    for k in range(4):
        for l in range(k + 1, 4):
            acc = FieldMatrix.zeros(4, 4)
            for i in range(4):
                for j in range(4):
                    sign = _EPS.get((i, j, k, l), 0)
                    if not sign:
                        continue
                    for ip in range(4):
                        gi = ginv.entries[i][ip]
                        if gi.is_zero():
                            continue
                        for jp in range(4):
                            if ip == jp:
                                continue
                            gj = ginv.entries[j][jp]
                            if gj.is_zero():
                                continue
                            factor = _HALF * rf(sign) * gi * gj
                            acc = acc + form.component(ip, jp).scale(factor)
            comps[(k, l)] = acc
    return CurvatureForm(components=comps)


def second_eym_residual(maps: list, star: CurvatureForm) -> dict:
    """Covariant exterior derivative of *R per basis triple i<j<k."""

    def s_vec_right(vec: list, q: int) -> FieldMatrix:
        out = FieldMatrix.zeros(4, 4)
        for p, c in enumerate(vec):
            if not c.is_zero():
                out = out + star.component(p, q).scale(c)
        return out

    def lam_column(x: int, y: int) -> list:
        return [maps[x].entries[r][y] for r in range(4)]

    def slot_term(x: int, y: int, z: int) -> FieldMatrix:
        # [Lambda(x), S(y,z)] - S(Lambda(x) y, z) - S(y, Lambda(x) z)
        syz = star.component(y, z)
        out = maps[x] * syz - syz * maps[x]
        out = out - s_vec_right(lam_column(x, y), z)
        out = out + s_vec_right(lam_column(x, z), y)  # S(y, v) = -S(v, y)
        return out

    residual = {}
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                residual[(i, j, k)] = (slot_term(i, j, k) - slot_term(j, i, k)
                                       + slot_term(k, i, j))
    return residual


# -- per-case pipeline ---------------------------------------------------------------


class CaseReport:
    def __init__(self, case_id: str, pair: LiePair, golden: CaseGolden,
                 solved: list, lc: CurvatureReport, form: CurvatureForm,
                 hol_basis: list, structure: dict, T: FieldMatrix,
                 verdict: EymVerdict, compared: dict, hm: HolonomyMetric):
        self.case_id = case_id
        self.pair = pair
        self.golden = golden
        self._solved = solved     # the case's _SOLVED entry
        self.rhos = solved[0]     # isotropy_rep(pair), built once per key
        self.family = solved[1]
        self.lc = lc
        self.form = form          # canonical-member curvature
        self.hol_basis = hol_basis
        self.structure = structure  # (i, j) -> coefficients in hol_basis
        self.T = T
        self.verdict = verdict
        self.compared = compared  # golden field -> (golden, computed)
        self.hm = hm              # the holonomy metric `T` was built with
        # golden comparison results, name -> bool
        self.flags = {name: expected == computed
                      for name, (expected, computed) in compared.items()}
        if verdict.is_solution:
            self.flags["second_eym"] = self.second_residual_zero

    @property
    def golden_ok(self) -> bool:
        return all(self.flags.values())

    @property
    def hol_dim(self) -> int:
        return len(self.hol_basis)

    @property
    def second_residual_zero(self) -> bool:
        """Always True: at Lambda = 0 every term of second_eym_residual
        vanishes, as the pair is symmetric (run_case raises NotSymmetric)."""
        return True

    def _connections(self) -> tuple:
        """(ConnectionFamily, curvature_param_dependent), solved on the
        first read of either and kept in the _SOLVED entry."""
        solved = self._solved
        if solved[2] is None:
            conn = solve_connections(self.rhos, self.family)
            solved[2] = (conn, depends_on_connection_params(conn))
        return solved[2]

    @property
    def conn(self) -> ConnectionFamily:
        return self._connections()[0]

    @property
    def curvature_param_dependent(self) -> bool:
        return self._connections()[1]


# _solve_key -> [isotropy_rep(pair), MetricFamily, (ConnectionFamily,
# curvature_param_dependent) once a report reads either, None until then]
_SOLVED: dict = {}


def _solve_key(pair: LiePair, shape: FieldMatrix | None,
               lorentz: str | None) -> tuple:
    """The values solve_invariant_metric reads (geom module docstring): the
    [e_a, u_j] bracket coefficients that isotropy_rep builds its matrices
    from, as sorted (label, RatFunc) items, and the shape as tuples of
    canonical RatFuncs, all of which hash and compare by value."""
    params = {p.name for p in pair.params}
    if shape is not None:
        params &= {v for row in shape.entries for x in row
                   for v in x.variables()}
        shape = matrices_key([shape])
    isotropy = tuple(tuple(sorted(pair.bracket(e, u).items()))
                     for e in pair.e_labels for u in U_LABELS)
    return (isotropy, shape, lorentz, tuple(sorted(params)))


def run_case(entry: CatalogEntry, hm: HolonomyMetric | None = None) -> CaseReport:
    """Pipeline: metric -> curvature -> holonomy -> T -> verdicts; the
    connection family waits for its first read (CaseReport.conn)."""
    hm = hm if hm is not None else HolonomyMetric()
    pair = entry.pair
    golden = entry.golden

    witness = symmetric_witness(pair)
    if witness:
        raise NotSymmetric(
            f"{pair.case_id}: bracket of {witness} has a component in m")
    key = _solve_key(pair, golden.metric, golden.lorentz)
    solved = _SOLVED.get(key)
    if solved is None:
        rhos = isotropy_rep(pair)
        # every form would be invariant; the paper's spaces have none of these
        if all(m.is_zero() for m in rhos):
            raise TrivialIsotropy(f"{pair.case_id}: h acts trivially on m")
        # rho must be faithful for conn.holonomy's basis to be independent
        if not rep_is_faithful(pair, rhos):
            raise TrivialIsotropy(f"{pair.case_id}: h acts unfaithfully on m")
        solved = _SOLVED[key] = [
            rhos, solve_invariant_metric(pair, rhos, shape=golden.metric,
                                         lorentz=golden.lorentz), None]
    rhos, family = solved[:2]
    coeffs = _curvature_coefficients(pair)
    lc = levi_civita(pair, rhos, family, coeffs)
    # the curvature of the canonical member, and of the whole family when it
    # does not depend on the parameters
    form = lc.form
    basis, structure = holonomy(pair, rhos, coeffs)
    T = stress_tensor(structure, family, hm)
    verdict = solve_first_eym(lc, family, T)

    compared = {}
    if golden.det is not None:
        compared["det"] = (golden.det, family.det_g)
    if golden.ricci is not None:
        compared["ricci"] = (golden.ricci, lc.ricci)
    if golden.scalar is not None:
        compared["scalar"] = (golden.scalar, lc.scalar)
    if golden.hol_dim is not None:
        compared["hol_dim"] = (golden.hol_dim, len(basis))
    if golden.verdict is not None:
        compared["verdict"] = (golden.verdict, verdict.outcome.value)
        if golden.verdict == "solution" and verdict.is_solution:
            compared["lambda"] = (golden.lambda_, verdict.lambda_)
            compared["kappa"] = (golden.kappa, verdict.kappa)

    return CaseReport(
        case_id=pair.case_id, pair=pair, golden=golden, solved=solved, lc=lc,
        form=form, hol_basis=basis, structure=structure, T=T, verdict=verdict,
        compared=compared, hm=hm)
