"""Invariant metric families, signature checks, Levi-Civita curvature."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from eymsym.crosscheck import NumericCase, sample_point
from eymsym.exact import MissingParam, PoleAtPoint, Poly, RatFunc, rf
from eymsym.geom import (BadMetricShape, MetricFamily, SignatureVerdict,
                         _charpoly_coefficients, lorentz_check,
                         lorentz_condition_holds, signature_at,
                         solve_invariant_metric)
from eymsym.liecat import LiePair, isotropy_rep, parse_condition
from eymsym.linalg import FieldMatrix, det, inverse
from helpers import evaluate_matrix, from_rows, identity

A, B = RatFunc.var("a"), RatFunc.var("b")


def family_of(catalog, case_id):
    entry = catalog.get(case_id)
    return solve_invariant_metric(entry.pair, isotropy_rep(entry.pair),
                                  shape=entry.golden.metric,
                                  lorentz=entry.golden.lorentz)


def test_metric_shapes_adopted_and_dets(catalog):
    for entry in catalog.entries:
        fam = family_of(catalog, entry.pair.case_id)
        assert fam.g == entry.golden.metric
        assert fam.det_g == entry.golden.det, entry.pair.case_id


def test_invariance_system_rank_1_1_1(catalog):
    # ten unknowns, four free entries -> the constraint system has rank six
    entry = catalog.get("1.1^1(7)")
    fam = family_of(catalog, "1.1^1(7)")
    assert len(fam.free_params) == 4
    assert fam.free_params == ["a", "b", "c", "d"]


def test_solution_is_invariant_for_all_cases(catalog):
    for entry in catalog.entries:
        fam = family_of(catalog, entry.pair.case_id)
        for rho in isotropy_rep(entry.pair):
            assert (rho.transpose() * fam.g + fam.g * rho).is_zero(), \
                entry.pair.case_id


def test_fallback_parameter_naming(catalog):
    pair = catalog.get("1.1^1(7)").pair
    fam = solve_invariant_metric(pair, isotropy_rep(pair))
    assert fam.free_params == ["a", "b", "c", "d"]
    assert fam.g == catalog.get("1.1^1(7)").golden.metric


def test_trivial_pair_full_family():
    # no isotropy at all: every symmetric bilinear form is invariant
    pair = LiePair(case_id="free", dim_h=0, brackets={})
    fam = solve_invariant_metric(pair, isotropy_rep(pair))
    assert len(fam.free_params) == 10
    # same with an isotropy generator that acts trivially
    pair = LiePair(case_id="abelian", dim_h=1, brackets={})
    assert len(solve_invariant_metric(
        pair, isotropy_rep(pair)).free_params) == 10


def test_shape_rejected_when_not_general():
    pair = LiePair(case_id="free", dim_h=1, brackets={})
    too_small = from_rows(
        [[A, 0, 0, 0], [0, A, 0, 0], [0, 0, A, 0], [0, 0, 0, A]])
    with pytest.raises(BadMetricShape):
        solve_invariant_metric(pair, isotropy_rep(pair), shape=too_small)


def test_lorentz_check_examples(catalog):
    fam = family_of(catalog, "1.1^1(7)")
    assert lorentz_check(fam, {"a": 1, "b": 1, "c": 0, "d": 1}) \
        is SignatureVerdict.LORENTZIAN
    fam35 = family_of(catalog, "3.5^2(2)")
    assert lorentz_check(fam35, {"a": 1, "b": 1}) is SignatureVerdict.RIEMANNIAN
    assert lorentz_check(fam35, {"a": 1, "b": -1}) is SignatureVerdict.LORENTZIAN
    euclid = identity(4)
    from eymsym.geom import MetricFamily
    from eymsym.linalg import det
    flat = MetricFamily(g=euclid, free_params=[], det_g=det(euclid))
    assert lorentz_check(flat, {}) is SignatureVerdict.RIEMANNIAN


def test_degenerate_sample_detected(catalog):
    fam = family_of(catalog, "1.1^1(7)")
    assert lorentz_check(fam, {"a": 0, "b": 1, "c": 0, "d": 1}) \
        is SignatureVerdict.DEGENERATE


def test_lorentz_check_evaluates_no_ratfunc(catalog, reports, monkeypatch):
    """lorentz_check reads g's nonzero entries as int ratios: no
    RatFunc.evaluate call on any catalog case, and the verdict is the one
    read off the Fraction matrix g(sample)."""
    rng = random.Random(29)
    samples = {cid: sample_point(catalog.get(cid), rng, family=r.family)
               for cid, r in reports.items()}
    calls = []
    evaluate = RatFunc.evaluate

    def counted(self, assignment):
        calls.append(self)
        return evaluate(self, assignment)

    with monkeypatch.context() as m:
        m.setattr(RatFunc, "evaluate", counted)
        verdicts = {cid: lorentz_check(r.family, samples[cid])
                    for cid, r in reports.items()}
    assert calls == []
    for cid, r in reports.items():
        values = evaluate_matrix(r.family.g, samples[cid])
        assert verdicts[cid] is _verdict_of(
            signature_at(from_rows(values), {})), cid


def test_lorentz_check_pole_and_missing_name():
    """diag(1/(a - 1), b, 1, -1): PoleAtPoint at a = 1, with the text of
    RatFunc.evaluate, MissingParam without b, and at a = 0 an entry whose
    denominator is negative at the point."""
    g = from_rows([[rf(1) / (A - rf(1)), 0, 0, 0], [0, B, 0, 0],
                   [0, 0, 1, 0], [0, 0, 0, -1]])
    family = MetricFamily(g=g, free_params=["a", "b"], det_g=det(g))
    with pytest.raises(PoleAtPoint) as exc:
        lorentz_check(family, {"a": Fraction(1), "b": Fraction(2)})
    assert str(exc.value) == "denominator a - 1 vanishes at a=1,b=2"
    with pytest.raises(MissingParam) as exc:
        lorentz_check(family, {"a": Fraction(3)})
    assert exc.value.args == ("b",)
    # diag(1/2, 2, 1, -1), then diag(-1, 2, 1, -1)
    assert lorentz_check(family, {"a": Fraction(3), "b": Fraction(2)}) \
        is SignatureVerdict.LORENTZIAN
    assert lorentz_check(family, {"a": Fraction(0), "b": Fraction(2)}) \
        is SignatureVerdict.NEUTRAL


def test_det_negative_iff_lorentzian(catalog):
    """det g < 0 exactly characterizes the Lorentzian samples."""
    rng = random.Random(101)
    for entry in catalog.entries:
        fam = family_of(catalog, entry.pair.case_id)
        names = sorted({v for row in fam.g.entries for x in row
                        for v in x.variables()})
        hits = 0
        while hits < 20:
            sample = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for n in names}
            d = fam.det_g.evaluate(sample)
            if d == 0:
                continue
            hits += 1
            verdict = lorentz_check(fam, sample)
            assert (d < 0) == (verdict is SignatureVerdict.LORENTZIAN), \
                (entry.pair.case_id, sample)


def test_recorded_lorentz_condition_matches_signature(catalog):
    """The catalog condition text agrees with the exact signature verdict
    at >= 20 nondegenerate samples per case, on both sides where possible."""
    rng = random.Random(202)
    for entry in catalog.entries:
        fam = family_of(catalog, entry.pair.case_id)
        cond = entry.golden.lorentz
        names = sorted({v for row in fam.g.entries for x in row
                        for v in x.variables()})
        hits = true_side = 0
        while hits < 20:
            sample = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for n in names}
            if fam.det_g.evaluate(sample) == 0:
                continue
            hits += 1
            expect = lorentz_condition_holds(cond, sample)
            true_side += expect
            got = lorentz_check(fam, sample) is SignatureVerdict.LORENTZIAN
            assert got == expect, (entry.pair.case_id, sample)


def _charpoly_by_determinant(g: FieldMatrix, sample: dict) -> list:
    """Reference: coefficients of det(x - g(sample)), constant term first,
    from the symbolic determinant of x I - g(sample) in a variable x."""
    x = RatFunc.var("x")
    values = evaluate_matrix(g, sample)
    n = len(values)
    xm = FieldMatrix(n, n, [[(x if i == j else rf(0)) - rf(values[i][j])
                             for j in range(n)] for i in range(n)])
    p = det(xm)
    den = p.den.constant_value()
    coeffs = [Fraction(0)] * (n + 1)
    for mono, c in p.num.terms.items():
        coeffs[mono[0][1] if mono else 0] = Fraction(c) / den
    return coeffs


def test_charpoly_matches_the_determinant_on_every_case(catalog, reports):
    """The integer Faddeev-LeVerrier coefficients equal those of the symbolic
    determinant at 4 seeded points of every case."""
    rng = random.Random(303)
    for entry in catalog.entries:
        family = reports[entry.pair.case_id].family
        for _ in range(4):
            sample = sample_point(entry, rng, family=family)
            coeffs = _charpoly_coefficients(family.g, sample)
            assert coeffs == _charpoly_by_determinant(family.g, sample), \
                (entry.pair.case_id, sample)
            assert all(type(c) is Fraction for c in coeffs)


def _constant_family(rows: list) -> MetricFamily:
    g = from_rows(rows)
    return MetricFamily(g=g, free_params=[], det_g=det(g))


@pytest.mark.parametrize("rows, signature, verdict", [
    # mixed denominators: two 2x2 blocks of negative determinant
    ([[Fraction(1, 3), Fraction(-5, 4), 0, 0],
      [Fraction(-5, 4), 2, 0, 0],
      [0, 0, Fraction(-7, 6), Fraction(1, 2)],
      [0, 0, Fraction(1, 2), Fraction(3, 5)]],
     (2, 2, 0), SignatureVerdict.NEUTRAL),
    # singular: the first block has rank 1
    ([[Fraction(1, 3), Fraction(2, 3), 0, 0],
      [Fraction(2, 3), Fraction(4, 3), 0, 0],
      [0, 0, Fraction(-5, 4), 0],
      [0, 0, 0, 1]],
     (2, 1, 1), SignatureVerdict.DEGENERATE),
    # negative definite: both blocks have negative trace, positive det
    ([[Fraction(-1, 3), Fraction(1, 5), 0, 0],
      [Fraction(1, 5), Fraction(-5, 4), 0, 0],
      [0, 0, -2, 1],
      [0, 0, 1, -7]],
     (0, 4, 0), SignatureVerdict.RIEMANNIAN),
    # one negative direction against a positive definite 3x3 block
    ([[Fraction(-5, 4), 0, 0, 0],
      [0, Fraction(1, 3), Fraction(1, 7), 0],
      [0, Fraction(1, 7), 2, 0],
      [0, 0, 0, 3]],
     (3, 1, 0), SignatureVerdict.LORENTZIAN),
    ([[Fraction(5, 4), 0, 0, 0],
      [0, Fraction(-1, 3), Fraction(-1, 7), 0],
      [0, Fraction(-1, 7), -2, 0],
      [0, 0, 0, -3]],
     (1, 3, 0), SignatureVerdict.LORENTZIAN),
    # leading minors that vanish, so lorentz_check swaps rows: a [[0,1],[1,0]]
    # block first, twice, then beside a negative definite block
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
     (2, 2, 0), SignatureVerdict.NEUTRAL),
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -2]],
     (1, 3, 0), SignatureVerdict.LORENTZIAN),
    # the block in the middle, so the second leading minor vanishes
    ([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]],
     (2, 2, 0), SignatureVerdict.NEUTRAL),
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
     (2, 1, 1), SignatureVerdict.DEGENERATE),
    # the 1.1^1(7) metric at a = 1, b = 1, c = 0, d = 1
    ([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
     (3, 1, 0), SignatureVerdict.LORENTZIAN),
])
def test_charpoly_and_signature_of_built_matrices(rows, signature, verdict):
    family = _constant_family(rows)
    assert _charpoly_coefficients(family.g, {}) \
        == _charpoly_by_determinant(family.g, {})
    assert signature_at(family.g, {}) == signature
    assert lorentz_check(family, {}) is verdict


def _verdict_of(signature: tuple) -> SignatureVerdict:
    """Reference: the verdict read off (n_plus, n_minus, n_zero)."""
    n_pos, n_neg, n_zero = signature
    if n_zero:
        return SignatureVerdict.DEGENERATE
    if {n_pos, n_neg} == {1, 3}:
        return SignatureVerdict.LORENTZIAN
    if 4 in (n_pos, n_neg):
        return SignatureVerdict.RIEMANNIAN
    return SignatureVerdict.NEUTRAL


def test_lorentz_check_agrees_with_the_signature(reports):
    """The det-sign verdict equals the one read off signature_at at 60
    seeded points of every case; numerators in -3..3 make all four verdicts
    occur."""
    rng = random.Random(707)
    seen = Counter()
    for r in reports.values():
        names = sorted({v for row in r.family.g.entries for x in row
                        for v in x.variables()})
        for _ in range(60):
            sample = {n: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for n in names}
            verdict = lorentz_check(r.family, sample)
            assert verdict is _verdict_of(signature_at(r.family.g, sample)), \
                (r.case_id, sample)
            seen[verdict] += 1
    assert set(seen) == set(SignatureVerdict), seen


def _even_monomial(p: Poly) -> int | None:
    """c when p = c m^2 for a monomial m, else None."""
    if len(p.terms) != 1:
        return None
    ((mono, c),) = p.terms.items()
    return None if any(e % 2 for _, e in mono) else c


def test_det_is_a_square_times_the_lorentz_condition(catalog):
    """Exactly, with no sampling: `golden det` = c m^2 (lhs - rhs) for the
    case's `golden lorentz`, m a monomial, with c < 0 for `>` and c > 0 for
    `<`; for `!=` it is c m^2 with c < 0, where m vanishes exactly where
    lhs - rhs, a monomial in the same variables, does.  So off m = 0, where
    g is degenerate, det g < 0 holds exactly where the condition does."""
    for entry in catalog.entries:
        cid = entry.pair.case_id
        det_g = entry.golden.det
        lhs, op, rhs = parse_condition(entry.golden.lorentz)
        diff = lhs - rhs
        assert det_g.den == diff.den == rf(1).den, cid
        if op == "!=":
            c = _even_monomial(det_g.num)
            assert c is not None and c < 0, cid
            assert len(diff.num.terms) == 1, cid
            assert diff.num.variables() == det_g.num.variables(), cid
        else:
            q = det_g.num.divexact(diff.num)
            assert q * diff.num == det_g.num, cid
            c = _even_monomial(q)
            assert c is not None and (c < 0 if op == ">" else c > 0), cid


def test_charpoly_of_a_diagonal_matrix_is_the_product_of_its_factors():
    diagonal = [Fraction(1, 3), Fraction(-5, 4), Fraction(2), Fraction(1, 6)]
    expected = [Fraction(1)]    # prod (x - d_i), constant term first
    for d_i in diagonal:
        expected = [(expected[k - 1] if k else 0)
                    - d_i * (expected[k] if k < len(expected) else 0)
                    for k in range(len(expected) + 1)]
    family = _constant_family([[d_i if i == j else 0 for j in range(4)]
                               for i, d_i in enumerate(diagonal)])
    assert _charpoly_coefficients(family.g, {}) == expected


def test_ricci_and_scalar_goldens(catalog, reports):
    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        assert r.lc.ricci == entry.golden.ricci, entry.pair.case_id
        assert r.lc.scalar == entry.golden.scalar, entry.pair.case_id


def test_sign_convention_pinned(reports):
    r = reports["1.1^1(7)"]
    assert r.lc.ricci.entries[0][2] == rf(-1)
    assert r.lc.scalar == rf(-2) / A


def test_ricci_example_1_4_1(reports):
    r = reports["1.4^1(24)"]
    expected = from_rows(
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]])
    assert r.lc.ricci == expected and r.lc.scalar.is_zero()


def test_ricci_symmetric_everywhere(reports):
    for r in reports.values():
        assert r.lc.ricci.is_symmetric(), r.case_id


def test_scalar_equals_trace_of_g_inverse_ricci(reports):
    for r in reports.values():
        g_inv = inverse(r.family.g)
        trace = rf(0)
        for i in range(4):
            for j in range(4):
                trace = trace + g_inv.entries[i][j] * r.lc.ricci.entries[i][j]
        assert trace == r.lc.scalar, r.case_id


def test_nomizu_vanishes_on_symmetric_pairs(catalog):
    """NumericCase builds in every case, so its own reading of the brackets
    finds no [u_i, u_j] with a component in m (it raises NotSymmetric on
    one): every pair is symmetric, its Nomizu maps are zero, and levi_civita
    may take its curvature from the zero connection maps."""
    rng = random.Random(707)
    for entry in catalog.entries:
        num = NumericCase(entry, sample_point(entry, rng))
        assert len(num.lc_ops) == 6, entry.pair.case_id


def test_ricci_proportional_to_metric_under_full_isotropy(reports):
    # irreducible isotropy forces an Einstein family
    r = reports["6.1^3(1)"]
    three_over_a = rf(3) / A
    assert r.lc.ricci == r.family.g.scale(three_over_a)
    assert r.lc.scalar == rf(12) / A
