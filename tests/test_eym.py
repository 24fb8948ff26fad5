"""Energy-momentum tensor, both field equations, and the case pipeline."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from eymsym.exact import RF_ZERO, RatFunc, rf
from eymsym.conn import CurvatureForm
from eymsym.crosscheck import NumericCase, crosscheck_case, sample_point
from eymsym.eym import (EymOutcome, HolonomyMetric, hodge_star_2form,
                        run_case, second_eym_residual, solve_first_eym,
                        stress_tensor)
from eymsym.geom import CurvatureReport
from eymsym.liecat import isotropy_rep
from eymsym.linalg import FieldMatrix, inverse
from helpers import (evaluate_matrix, from_rows, member_curvature,
                     reference_first_eym, reference_stress_tensor,
                     residual_is_zero, uniform_holonomy_metric)

A, B, C, D, W = (RatFunc.var(x) for x in "abcdw")


def _structure_array(structure: dict, dim: int) -> list:
    """Full antisymmetric coefficient arrays Rc[alpha][i][j] of the
    coefficients in a holonomy basis of dimension `dim`."""
    arrays = [[[RF_ZERO] * 4 for _ in range(4)] for _ in range(dim)]
    for (i, j), coeffs in structure.items():
        for a, c in enumerate(coeffs):
            arrays[a][i][j] = c
            arrays[a][j][i] = -c
    return arrays


def _stress_by_contraction(structure: dict, dim: int, family,
                            hm: HolonomyMetric) -> FieldMatrix:
    """Reference: the energy-momentum tensor as two index contractions,
    T_ij = 1/2 sum_a w_a R_a[i][k] R_a[j][l] g^kl - 1/8 g_ij s_total with
    s_total = sum_a w_a R_a[k][l] R_a[h][m] g^kh g^lm."""
    arrays = _structure_array(structure, dim)
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


_WEIGHTS = pytest.mark.parametrize("hm", [
    HolonomyMetric(), HolonomyMetric(overrides={5: rf(4)}),
    uniform_holonomy_metric(W)], ids=["default", "override_5=4", "symbolic"])


@_WEIGHTS
def test_stress_tensor_equals_the_index_contraction(reports, hm):
    """T read off F_ij = sum_a w_a sum_kl R_a[i][k] R_a[j][l] g^kl equals the
    index-loop contraction exactly on every case."""
    for r in reports.values():
        assert stress_tensor(r.structure, r.family, hm) \
            == _stress_by_contraction(r.structure, r.hol_dim, r.family, hm), \
            r.case_id


@_WEIGHTS
def test_stress_tensor_equals_the_matrix_products(reports, hm):
    """The accumulated upper triangle of F equals sum_a w_a R_a g^-1 R_a^T
    taken as 4x4 matrix products, on every case."""
    for r in reports.values():
        assert stress_tensor(r.structure, r.family, hm) \
            == reference_stress_tensor(r.structure, r.family, hm), r.case_id


def test_stress_tensor_makes_no_matrix_product(reports, monkeypatch):
    """stress_tensor reads F off the nonzero coefficients and entries of
    g^-1: it multiplies no two matrices."""
    calls = []
    real_mul = FieldMatrix.__mul__

    def mul(a, b):
        calls.append((a, b))
        return real_mul(a, b)

    monkeypatch.setattr(FieldMatrix, "__mul__", mul)
    for r in reports.values():
        stress_tensor(r.structure, r.family, r.hm)
    assert not calls


def test_holonomy_weight_two_is_forced(catalog, reports):
    """With a symbolic weight w the (1,3) entry of T for 1.1^1(7) comes out
    -w/(4a); matching the reference value -1/(2a) forces w = 2."""
    r = reports["1.1^1(7)"]
    hm = uniform_holonomy_metric(W)
    T = stress_tensor(r.structure, r.family, hm)
    assert T.entries[0][2] == -W / (rf(4) * A)
    T2 = stress_tensor(r.structure, r.family, HolonomyMetric())
    assert T2.entries[0][2] == -rf(1) / (rf(2) * A)


def test_stress_tensor_entries_1_1_1(reports):
    T = reports["1.1^1(7)"].T
    two_a2 = rf(2) * A * A
    assert T.entries[0][2] == -rf(1) / (rf(2) * A)
    assert T.entries[1][1] == B / two_a2
    assert T.entries[1][3] == C / two_a2
    assert T.entries[3][3] == D / two_a2
    for i, j in ((0, 0), (0, 1), (0, 3), (1, 2), (2, 2), (2, 3)):
        assert T.entries[i][j].is_zero()


def test_stress_tensor_zero_for_flat_case(reports):
    assert reports["1.1^1(10)(t=0)"].T.is_zero()


def test_stress_tensor_diag_3_5_2(reports):
    T = reports["3.5^2(2)"].T
    half_a = rf(1) / (rf(2) * A)
    assert all(T.entries[i][i] == half_a for i in range(3))
    assert T.entries[3][3] == -rf(3) * B / (rf(2) * A * A)
    assert T.entries[0][1].is_zero() and T.entries[2][3].is_zero()


def test_stress_tensor_traceless_and_symmetric_all_cases(reports):
    for r in reports.values():
        assert r.T.is_symmetric(), r.case_id
        ginv = inverse(r.family.g)
        trace = rf(0)
        for i in range(4):
            for j in range(4):
                trace = trace + ginv.entries[i][j] * r.T.entries[i][j]
        assert trace.is_zero(), r.case_id


def test_stress_tensor_traceless_synthetic():
    """Tracelessness is structural: random antisymmetric coefficient data
    over a random invertible metric still gives a traceless tensor."""
    rng = random.Random(404)
    from eymsym.geom import MetricFamily
    from eymsym.linalg import det
    rounds = 0
    while rounds < 10:
        g = from_rows(
            [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        g = g + g.transpose()
        if det(g).is_zero():
            continue
        rounds += 1
        dim = rng.randint(1, 3)
        structure = {(i, j): [rf(rng.randint(-2, 2)) for _ in range(dim)]
                     for i in range(4) for j in range(i + 1, 4)}
        family = MetricFamily(g=g, free_params=[], det_g=det(g))
        T = stress_tensor(structure, family, HolonomyMetric())
        ginv = inverse(g)
        trace = rf(0)
        for i in range(4):
            for j in range(4):
                trace = trace + ginv.entries[i][j] * T.entries[i][j]
        assert trace.is_zero()


def test_verdicts_match_reference_for_all_cases(catalog, reports):
    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        assert r.verdict.outcome.value == entry.golden.verdict, r.case_id
        if entry.golden.verdict == "solution":
            assert r.verdict.lambda_ == entry.golden.lambda_, r.case_id
            assert r.verdict.kappa == entry.golden.kappa, r.case_id
            assert r.verdict.conditions == entry.golden.conditions, r.case_id


@pytest.mark.parametrize("hm", [
    None, uniform_holonomy_metric(rf(4)), uniform_holonomy_metric(W)],
    ids=["default", "uniform_4", "symbolic"])
def test_first_equation_matches_the_elimination_reference(catalog, reports,
                                                          hm):
    """lambda = s/4 and kappa by proportionality give what eliminating the
    ten component equations in (lambda, kappa) gives, on every case."""
    outcomes = Counter()
    for entry in catalog.entries:
        cid = entry.pair.case_id
        r = reports[cid] if hm is None else run_case(entry, hm)
        v, ref = r.verdict, reference_first_eym(r.lc, r.family, r.T)
        assert (v.outcome, v.lambda_, v.kappa, v.conditions, v.detail) \
            == (ref.outcome, ref.lambda_, ref.kappa, ref.conditions,
                ref.detail), cid
        outcomes[v.outcome.value, v.kappa is not None] += 1
    assert outcomes == {("solution", True): 16,
                        ("no_solution:flat_curvature", False): 14,
                        ("no_solution:inconsistent", True): 3,
                        ("no_solution:inconsistent", False): 2}


def test_solution_example_1_1_2_9(reports):
    v = reports["1.1^2(9)"].verdict
    assert v.is_solution
    assert v.lambda_ == rf(1) / (rf(2) * A)
    assert v.kappa == A
    assert v.conditions == [A]


def test_solution_example_2_1_2_1(reports):
    v = reports["2.1^2(1)"].verdict
    assert v.lambda_ == (A - B) / (rf(2) * A * B)
    assert v.kappa == A * B * (A + B) / (A * A + B * B)


def test_lambda_equals_quarter_scalar_on_solutions(reports):
    for r in reports.values():
        if r.verdict.is_solution:
            assert r.verdict.lambda_ * rf(4) == r.lc.scalar, r.case_id


def test_kappa_zero_detected(reports):
    for cid in ("6.1^3(1)", "6.1^3(2)", "2.5^2(6)"):
        v = reports[cid].verdict
        assert v.outcome is EymOutcome.INCONSISTENT
        assert v.kappa is not None and v.kappa.is_zero()
        assert "kappa = 0" in v.detail
    # 6.1^3 is Einstein: the would-be lambda is scalar/4
    assert reports["6.1^3(1)"].verdict.lambda_ == rf(3) / A


def test_genuinely_inconsistent_case(reports):
    v = reports["3.5^1(2)"].verdict
    assert v.outcome is EymOutcome.INCONSISTENT
    assert v.kappa is None


def test_flat_beats_trivial_ordering(reports):
    r = reports["1.1^1(7)"]
    zero_T = FieldMatrix.zeros(4, 4)
    v = solve_first_eym(r.lc, r.family, zero_T)
    assert v.outcome is EymOutcome.TRIVIAL_STRESS_ENERGY
    flat = CurvatureForm(components={(i, j): FieldMatrix.zeros(4, 4)
                                    for i in range(4) for j in range(i + 1, 4)})
    lc = CurvatureReport(form=flat, ricci=r.lc.ricci, scalar=r.lc.scalar)
    v = solve_first_eym(lc, r.family, zero_T)
    assert v.outcome is EymOutcome.FLAT_CURVATURE


def test_holonomy_metric_override_scales_kappa(catalog):
    entry = catalog.get("1.1^1(7)")
    hm = HolonomyMetric()
    hm.overrides[5] = rf(4)
    r = run_case(entry, hm)
    assert r.verdict.lambda_ == -rf(1) / (rf(2) * A)
    assert r.verdict.kappa == A / rf(2)


def test_kappa_absorbs_symbolic_holonomy_weight(catalog):
    """With g_55 symbolic, kappa appears only through the product kappa*g_55."""
    entry = catalog.get("1.1^1(7)")
    r = run_case(entry, uniform_holonomy_metric(W))
    assert r.verdict.kappa == rf(2) * A / W
    assert r.verdict.kappa * W == rf(2) * A
    assert r.verdict.lambda_ == -rf(1) / (rf(2) * A)


def test_hodge_star_support_1_1_1(reports):
    r = reports["1.1^1(7)"]
    star = hodge_star_2form(r.form, r.family)
    rho1 = isotropy_rep(r.pair)[0]
    expected = rho1.scale(-rf(1) / (A * A))
    for key, comp in star.components.items():
        if key == (1, 3):
            assert comp == expected
        else:
            assert comp.is_zero()


def test_hodge_star_support_2_1_2(reports):
    r = reports["2.1^2(1)"]
    star = hodge_star_2form(r.form, r.family)
    nonzero = {key for key, comp in star.components.items()
               if not comp.is_zero()}
    assert nonzero == {(0, 2), (1, 3)}


def test_hodge_star_zero(reports):
    r = reports["2.4^1(3)"]
    star = hodge_star_2form(r.form, r.family)
    assert all(c.is_zero() for c in star.components.values())


def test_star_involution_symbolic(reports):
    """Densitized star applied twice multiplies by 1/det g (all signatures)."""
    for r in reports.values():
        if r.form.is_zero():
            continue
        twice = hodge_star_2form(hodge_star_2form(r.form, r.family), r.family)
        inv_det = rf(1) / r.family.det_g
        for key, comp in twice.components.items():
            assert comp == r.form.components[key].scale(inv_det), r.case_id


def test_star_matches_independent_numeric_star(catalog, reports):
    rng = random.Random(505)
    for cid in ("1.1^1(7)", "3.5^2(2)", "2.5^2(4)", "6.1^3(1)"):
        entry = catalog.get(cid)
        r = reports[cid]
        sample = sample_point(entry, rng)
        num = NumericCase(entry, sample)
        ops = num.curvature_ops([[[Fraction(0)] * 4 for _ in range(4)]
                                 for _ in range(4)])
        star_num = num.star(ops)
        star_sym = hodge_star_2form(r.form, r.family)
        for key, comp in star_sym.components.items():
            assert evaluate_matrix(comp, sample) == star_num[key], (cid, key)


def test_second_equation_symbolic_u2_u4_family(catalog, reports):
    """The u2/u4-supported subfamily keeps the residual identically zero,
    with its connection parameters left symbolic."""
    from test_conn import u2_u4_subfamily
    for cid in ("1.1^1(7)", "1.1^2(9)", "1.1^2(10)"):
        r = reports[cid]
        maps, keep = u2_u4_subfamily(r)
        assert keep, cid
        form = member_curvature(r.pair, r.rhos, maps)
        star = hodge_star_2form(form, r.family)
        residual = second_eym_residual(maps, star)
        assert residual_is_zero(residual), cid


def test_second_equation_first_slot_reduction(catalog, reports):
    """On symmetric pairs the first-slot corrections alone already vanish
    for the members that solve the first equation."""
    from test_conn import u2_u4_subfamily

    def first_slot_only(pair, maps, star):
        out = {}
        for i in range(4):
            for j in range(i + 1, 4):
                for k in range(j + 1, 4):
                    syz = star.component(j, k)
                    acc = FieldMatrix.zeros(4, 4)
                    col_j = [maps[i].entries[r][j] for r in range(4)]
                    col_k = [maps[i].entries[r][k] for r in range(4)]
                    for p in range(4):
                        if not col_j[p].is_zero():
                            acc = acc - star.component(p, k).scale(col_j[p])
                        if not col_k[p].is_zero():
                            acc = acc + star.component(p, j).scale(col_k[p])
                    out[(i, j, k)] = acc
        return out

    for cid in ("1.1^1(7)", "1.1^2(9)"):
        r = reports[cid]
        maps, keep = u2_u4_subfamily(r)
        form = member_curvature(r.pair, r.rhos, maps)
        star = hodge_star_2form(form, r.family)
        assert residual_is_zero(first_slot_only(r.pair, maps, star)), cid


def test_run_case_examples(catalog, reports):
    r = reports["2.1^2(4)"]
    assert r.verdict.lambda_ == rf(1) / (rf(2) * B)
    assert r.verdict.kappa == B
    assert reports["3.3^2(2)"].verdict.is_solution
    assert reports["6.1^3(1)"].verdict.outcome is EymOutcome.INCONSISTENT
    for r in reports.values():
        assert r.golden_ok, (r.case_id, r.flags)


def test_numeric_crosscheck_sampled(catalog, reports):
    rng = random.Random(606)
    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        avoid = [c for c in r.verdict.conditions]
        sample = sample_point(entry, rng, avoid=avoid)
        assert crosscheck_case(entry, r, sample) == [], entry.pair.case_id
