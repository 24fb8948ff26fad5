"""Energy-momentum tensor, the two field equations, and the case pipeline.

The first equation,  r + (lambda - s/2) g = kappa T,  is linear in the two
constants once everything else is fixed; it is solved exactly over the
rational-function field and classified:

  * all curvature components zero            ->  no solution (flat curvature)
  * T identically zero                       ->  no solution (trivial stress-energy)
  * the ten component equations inconsistent ->  no solution (inconsistent)
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
reports carry a flag saying so.  The canonical member's curvature is the
Levi-Civita curvature, so the pipeline reuses it instead of building it
again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import permutations

from .exact import RF_ZERO, RatFunc, rf
from .linalg import FieldMatrix, rref
from .liecat import (CaseGolden, CatalogEntry, LiePair, NotSymmetric,
                     isotropy_rep, symmetric_witness)
from .geom import (CurvatureReport, MetricFamily, levi_civita,
                   solve_invariant_metric)
from .conn import (ConnectionFamily, CurvatureForm,
                   depends_on_connection_params, expand_in_basis, holonomy,
                   solve_connections)


@dataclass
class HolonomyMetric:
    """Diagonal metric g_aa on the holonomy algebra, alpha = 5 .. 4 + dim."""

    default: RatFunc = field(default_factory=lambda: rf(2))
    overrides: dict = field(default_factory=dict)  # alpha index -> RatFunc

    def value(self, basis_index: int) -> RatFunc:
        v = self.overrides.get(basis_index + 5, self.default)
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
            return f"g_aa = {self.default}"
        if len(used) < dim:
            parts.append(f"g_aa = {self.default} otherwise")
        return ", ".join(parts)


class EymOutcome(Enum):
    SOLUTION = "solution"
    TRIVIAL_STRESS_ENERGY = "no_solution:trivial_stress_energy"
    INCONSISTENT = "no_solution:inconsistent"
    FLAT_CURVATURE = "no_solution:flat_curvature"


@dataclass
class EymVerdict:
    outcome: EymOutcome
    lambda_: RatFunc | None = None
    kappa: RatFunc | None = None
    conditions: list = field(default_factory=list)
    detail: str = ""

    @property
    def is_solution(self) -> bool:
        return self.outcome is EymOutcome.SOLUTION

    def verdict_string(self) -> str:
        return self.outcome.value


def _structure_array(form: CurvatureForm) -> list:
    """Full antisymmetric coefficient arrays Rc[alpha][i][j]."""
    dim = len(form.holonomy_basis or [])
    arrays = [[[RF_ZERO] * 4 for _ in range(4)] for _ in range(dim)]
    for (i, j), coeffs in (form.structure or {}).items():
        for a, c in enumerate(coeffs):
            arrays[a][i][j] = c
            arrays[a][j][i] = -c
    return arrays


def stress_tensor(form: CurvatureForm, family: MetricFamily,
                  hm: HolonomyMetric) -> FieldMatrix:
    """Exact Yang-Mills energy-momentum tensor (beta = alpha contraction)."""
    if form.structure is None:
        raise ValueError("curvature form lacks holonomy structure coefficients")
    arrays = _structure_array(form)
    g = family.g
    ginv = family.g_inverse()
    half = rf(Fraction(1, 2))
    eighth = rf(Fraction(1, 8))

    s_total = RF_ZERO
    for a, rc in enumerate(arrays):
        w = hm.value(a)
        acc = RF_ZERO
        for k in range(4):
            for l in range(4):
                if rc[k][l].is_zero():
                    continue
                for h in range(4):
                    gkh = ginv.entries[k][h]
                    if gkh.is_zero():
                        continue
                    for m in range(4):
                        if rc[h][m].is_zero():
                            continue
                        glm = ginv.entries[l][m]
                        if not glm.is_zero():
                            acc = acc + rc[k][l] * rc[h][m] * gkh * glm
        s_total = s_total + w * acc

    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            first = RF_ZERO
            for a, rc in enumerate(arrays):
                w = hm.value(a)
                acc = RF_ZERO
                for k in range(4):
                    if rc[i][k].is_zero():
                        continue
                    for l in range(4):
                        gkl = ginv.entries[k][l]
                        if not gkl.is_zero() and not rc[j][l].is_zero():
                            acc = acc + rc[i][k] * rc[j][l] * gkl
                first = first + w * acc
            row.append(half * first - eighth * g.entries[i][j] * s_total)
        rows.append(row)
    return FieldMatrix(4, 4, rows)


def solve_first_eym(lc: CurvatureReport, family: MetricFamily,
                    T: FieldMatrix,
                    form: CurvatureForm | None = None) -> EymVerdict:
    """Solve  r_ij + (lambda - s/2) g_ij = kappa T_ij  for the two constants."""
    if form is not None and form.is_zero():
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
        # T is traceless by construction (stress_tensor: g^ij T_ij =
        # s_total/2 - 4 s_total/8 = 0) and g is nondegenerate (g^ij g_ij = 4),
        # so a nonzero T is never a multiple of g and columns 0 and 1 are
        # independent
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
    half = rf(Fraction(1, 2))
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
                            factor = half * rf(sign) * gi * gj
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


def residual_is_zero(residual: dict) -> bool:
    return all(m.is_zero() for m in residual.values())


# -- per-case pipeline ---------------------------------------------------------------


@dataclass
class CaseReport:
    case_id: str
    pair: LiePair
    rhos: list                # isotropy_rep(pair), built once per case
    golden: CaseGolden
    family: MetricFamily
    lc: CurvatureReport
    conn: ConnectionFamily
    curvature_param_dependent: bool
    form: CurvatureForm       # canonical-member curvature with structure filled
    hol_basis: list
    T: FieldMatrix
    verdict: EymVerdict
    flags: dict               # golden comparison results, name -> bool
    hm: HolonomyMetric        # the holonomy metric `T` was built with

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


def run_case(entry: CatalogEntry, hm: HolonomyMetric | None = None) -> CaseReport:
    """Full pipeline: metric -> curvature -> connections -> T -> verdicts."""
    hm = hm if hm is not None else HolonomyMetric()
    pair = entry.pair
    golden = entry.golden

    witness = symmetric_witness(pair)
    if witness:
        raise NotSymmetric(
            f"{pair.case_id}: bracket of {witness} has a component in m")
    rhos = isotropy_rep(pair)
    family = solve_invariant_metric(pair, rhos, shape=golden.metric,
                                    lorentz=golden.lorentz)
    lc = levi_civita(pair, rhos, family)
    conn = solve_connections(rhos, family)
    param_dep = depends_on_connection_params(conn)
    # the curvature of the canonical member, and of the whole family when it
    # does not depend on the parameters
    form = CurvatureForm(components=lc.operators)

    basis = holonomy(form, rhos)
    form.holonomy_basis = basis
    form.structure = expand_in_basis(form, basis)

    T = stress_tensor(form, family, hm)
    verdict = solve_first_eym(lc, family, T, form=form)

    flags = {}
    if golden.det is not None:
        flags["det"] = family.det_g == golden.det
    if golden.ricci is not None:
        flags["ricci"] = lc.ricci == golden.ricci
    if golden.scalar is not None:
        flags["scalar"] = lc.scalar == golden.scalar
    if golden.hol_dim is not None:
        flags["hol_dim"] = len(basis) == golden.hol_dim
    if golden.verdict is not None:
        flags["verdict"] = verdict.verdict_string() == golden.verdict
        if golden.verdict == "solution" and verdict.is_solution:
            flags["lambda"] = verdict.lambda_ == golden.lambda_
            flags["kappa"] = verdict.kappa == golden.kappa

    report = CaseReport(
        case_id=pair.case_id, pair=pair, rhos=rhos, golden=golden,
        family=family, lc=lc, conn=conn, curvature_param_dependent=param_dep,
        form=form, hol_basis=basis, T=T, verdict=verdict, flags=flags, hm=hm)
    if verdict.is_solution:
        flags["second_eym"] = report.second_residual_zero
    return report
