"""Acceptance criteria, one test per criterion item, exact tolerances.

Every assertion is exact symbolic equality after canonicalization.  Items
whose reference expectation is contradicted by the bracket data itself are
marked xfail(strict=True): the expected value is asserted faithfully, the
test records why it cannot pass, and a change in engine behavior would
surface as an unexpected pass.  Each test prints its own PASS/FAIL line
(visible with pytest -rA or -s).
"""

from __future__ import annotations

import random

import pytest

from eymsym.crosscheck import crosscheck_case, sample_point
from eymsym.exact import parse_ratfunc, rf
from eymsym.eym import EymOutcome, hodge_star_2form, second_eym_residual
from eymsym.liecat import (U_LABELS, isotropy_rep, rep_is_faithful,
                           rep_is_homomorphism, validate_pair)
from eymsym.linalg import inverse
from eymsym.report import tables_data
from helpers import member_curvature, residual_is_zero


def note(line: str) -> None:
    print(line)


# Published constants for the ten solution cases (lambda, kappa), exact.
TABLE3 = {
    "1.1^1(7)": ("-1/(2*a)", "a"),
    "1.1^2(9)": ("1/(2*a)", "a"),
    "1.1^2(10)": ("-1/(2*a)", "-a"),
    "2.1^2(1)": ("(a - b)/(2*a*b)", "a*b*(a + b)/(a^2 + b^2)"),
    "2.1^2(2)": ("-(a + b)/(2*a*b)", "-a*b*(a - b)/(a^2 + b^2)"),
    "2.1^2(3)": ("-1/(2*a)", "a"),
    "2.1^2(4)": ("1/(2*b)", "b"),
    "2.1^2(5)": ("-1/(2*b)", "-b"),
    "3.5^2(2)": ("-3/(2*a)", "-a"),
    "3.5^2(3)": ("3/(2*a)", "a"),
}

TABLE4 = {
    "1.1^1(7)": "~H^2_1 x R^2",
    "1.1^2(9)": "S^2 x R^2",
    "1.1^2(10)": "H^2 x R^2",
    "2.1^2(1)": "S^2 x ~H^2_1",
    "2.1^2(2)": "H^2 x ~H^2_1",
    "2.1^2(3)": "~E(2) x ~H^2_1",
    "2.1^2(4)": "S^2 x E(1,1)",
    "2.1^2(5)": "H^2 x E(1,1)",
    "3.5^2(2)": "H^3 x R",
    "3.5^2(3)": "S^3 x R",
}


# -- criterion 1: published solution constants ---------------------------------


def test_c1_published_constants_reproduced(reports):
    for cid, (lam, kap) in TABLE3.items():
        r = reports[cid]
        assert r.verdict.is_solution, cid
        assert r.verdict.lambda_ == parse_ratfunc(lam), cid
        assert r.verdict.kappa == parse_ratfunc(kap), cid
    note("criterion 1 [ten published (lambda, kappa) pairs, g_aa = 2]: PASS")


@pytest.mark.xfail(
    strict=True,
    reason="the exact pipeline finds sixteen solution cases, not ten: the "
           "null-curvature families 1.4^1(24,25), 2.5^2(4,5), 3.3^2(2,3) "
           "also solve the first equation, with lambda = 0")
def test_c1_exactly_ten_solutions(catalog, reports):
    data = tables_data(catalog, list(reports.values()))
    if len(data["table3"]) != 10:
        note("criterion 1 [exactly ten solution rows]: FAIL "
             f"(engine computes {len(data['table3'])})")
    assert len(data["table3"]) == 10


# -- criterion 2: counts ----------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="the symmetric-case tables enumerate 35 rows; no row list adds up "
           "to the stated total of 38")
def test_c2_case_count(catalog):
    if len(catalog.entries) != 38:
        note(f"criterion 2 [38 catalog cases]: FAIL (catalog has "
             f"{len(catalog.entries)})")
    assert len(catalog.entries) == 38


@pytest.mark.xfail(
    strict=True,
    reason="sixteen cases solve the first equation (see criterion 1)")
def test_c2_solution_count(reports):
    n = sum(1 for r in reports.values() if r.verdict.is_solution)
    if n != 10:
        note(f"criterion 2 [ten solution cases]: FAIL (engine computes {n})")
    assert n == 10


def test_c2_table4_names_verbatim(catalog, reports):
    data = tables_data(catalog, list(reports.values()))
    got = {row["case"]: row["space"] for row in data["table4"]}
    assert got == TABLE4
    note("criterion 2 [ten global space names verbatim]: PASS")


# -- criterion 3: geometry goldens ---------------------------------------------------


def test_c3_ricci_scalar_reference(catalog, reports):
    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        assert r.lc.ricci == entry.golden.ricci, entry.pair.case_id
        assert r.lc.scalar == entry.golden.scalar, entry.pair.case_id
    assert reports["1.1^1(7)"].lc.scalar == parse_ratfunc("-2/a")
    assert reports["3.5^1(2)"].lc.scalar == parse_ratfunc("-6/a")
    assert reports["3.5^1(3)"].lc.scalar == parse_ratfunc("6/a")
    note("criterion 3 [Ricci and scalar curvature reference values]: PASS")


@pytest.mark.xfail(
    strict=True,
    reason="the full Lorentz isotropy acts irreducibly, forcing ricci "
           "proportional to g; the scalar is 12/a, not 10/a")
def test_c3_scalar_6_1_3_quoted_value(reports):
    expected = parse_ratfunc("10/a")
    if reports["6.1^3(1)"].lc.scalar != expected:
        note("criterion 3 [6.1^3 scalar = 10/a]: FAIL (exact value "
             f"{reports['6.1^3(1)'].lc.scalar})")
    assert reports["6.1^3(1)"].lc.scalar == expected


@pytest.mark.xfail(
    strict=True,
    reason="the 2.5^2 brackets force r33 = 2*eps exactly as in the "
           "isomorphic family 3.3^2; the quoted vanishing Ricci is wrong")
def test_c3_ricci_2_5_2_quoted_value(reports):
    got = reports["2.5^2(4)"].lc.ricci
    if not got.is_zero():
        note("criterion 3 [2.5^2(4) Ricci = 0]: FAIL (r33 = "
             f"{got.entries[2][2]})")
    assert got.is_zero()


# -- criterion 4: connection families --------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="the full equivariance + skewness system has an 8-parameter "
           "solution space for 1.1^1(7) and 1.1^2(9,10), and only the zero "
           "solution for 2.1^2(1-5) (the e2-equivariance couples "
           "Lambda(u2) and Lambda(u4) and kills both)")
def test_c4_two_parameter_families(reports):
    dims = {cid: reports[cid].conn.dim
            for cid in ("1.1^1(7)", "1.1^2(9)", "1.1^2(10)",
                        "2.1^2(1)", "2.1^2(2)", "2.1^2(3)",
                        "2.1^2(4)", "2.1^2(5)")}
    if any(d != 2 for d in dims.values()):
        note(f"criterion 4 [(v24,z24) families of dimension 2]: FAIL ({dims})")
    assert all(d == 2 for d in dims.values())


@pytest.mark.xfail(
    strict=True,
    reason="these cases admit nonzero invariant metric connections (for "
           "instance the kernel of ad(rho) inside so(g) for the nilpotent "
           "isotropy of 1.4^1, and the rotation/boost equivariant maps for "
           "3.5^1 and 3.5^2)")
def test_c4_zero_families(reports):
    cids = (["1.4^1(24)", "1.4^1(25)", "1.4^1(26)", "2.4^1(3)"]
            + [f"2.5^2({k})" for k in range(4, 8)]
            + [f"3.3^2({k})" for k in (2, 3, 4)]
            + [f"3.5^1({k})" for k in (2, 3, 4)]
            + [f"3.5^2({k})" for k in (2, 3, 4)])
    dims = {cid: reports[cid].conn.dim for cid in cids}
    bad = {cid: d for cid, d in dims.items() if d != 0}
    if bad:
        note(f"criterion 4 [zero connection families]: FAIL ({bad})")
    assert not bad


def test_c4_zero_families_irreducible_isotropy(reports):
    for k in (1, 2, 3):
        assert reports[f"6.1^3({k})"].conn.dim == 0
    note("criterion 4 [6.1^3(1-3) zero connection family]: PASS")


# -- criterion 5: no-solution verdicts ---------------------------------------------------


def test_c5_inconsistent_verdicts(reports):
    for cid in ("3.5^1(2)", "3.5^1(3)", "6.1^3(1)", "6.1^3(2)", "2.5^2(6)"):
        assert reports[cid].verdict.outcome is EymOutcome.INCONSISTENT, cid
    note("criterion 5 [inconsistent-system verdicts]: PASS")


def test_c5_trivial_or_flat_bucket(reports):
    bucket = ("1.1^1(10)(t=0)", "1.1^2(12)(t=0)", "1.1^3(1)", "1.1^4(1)",
              "1.4^1(26)", "2.1^2(6)", "3.2^2(2)", "3.5^2(4)", "4.1^2(1)",
              "6.1^3(3)")
    allowed = {EymOutcome.TRIVIAL_STRESS_ENERGY, EymOutcome.FLAT_CURVATURE}
    for cid in bucket:
        assert reports[cid].verdict.outcome in allowed, cid
    for cid in ("2.4^1(3)", "3.3^2(4)"):
        assert reports[cid].verdict.outcome is EymOutcome.FLAT_CURVATURE, cid
    note("criterion 5 [trivial-stress-energy / flat-curvature verdicts]: PASS")


@pytest.mark.xfail(
    strict=True,
    reason="1.4^1(24,25) are null-curvature solutions: T sits in the (3,3) "
           "slot only, so lambda = 0, kappa = -eps*a solves every component")
def test_c5_1_4_1_expected_inconsistent(reports):
    outcomes = {cid: reports[cid].verdict.outcome
                for cid in ("1.4^1(24)", "1.4^1(25)")}
    if any(v is not EymOutcome.INCONSISTENT for v in outcomes.values()):
        note(f"criterion 5 [1.4^1(24,25) inconsistent]: FAIL ({outcomes})")
    assert all(v is EymOutcome.INCONSISTENT for v in outcomes.values())


@pytest.mark.xfail(
    strict=True,
    reason="3.3^2(2,3) are null-curvature solutions with lambda = 0, "
           "kappa = eps*a")
def test_c5_3_3_2_expected_inconsistent(reports):
    outcomes = {cid: reports[cid].verdict.outcome
                for cid in ("3.3^2(2)", "3.3^2(3)")}
    if any(v is not EymOutcome.INCONSISTENT for v in outcomes.values()):
        note(f"criterion 5 [3.3^2(2,3) inconsistent]: FAIL ({outcomes})")
    assert all(v is EymOutcome.INCONSISTENT for v in outcomes.values())


@pytest.mark.xfail(
    strict=True,
    reason="2.5^2(4,5) are null-curvature solutions with lambda = 0, "
           "kappa = eps*a/(1 + t^2); case (7) has no u-u brackets at all, "
           "so its curvature vanishes (flat), which is not inconsistency")
def test_c5_2_5_2_expected_inconsistent(reports):
    outcomes = {cid: reports[cid].verdict.outcome
                for cid in ("2.5^2(4)", "2.5^2(5)", "2.5^2(7)")}
    if any(v is not EymOutcome.INCONSISTENT for v in outcomes.values()):
        note(f"criterion 5 [2.5^2(4,5,7) inconsistent]: FAIL ({outcomes})")
    assert all(v is EymOutcome.INCONSISTENT for v in outcomes.values())


# -- criterion 6: second field equation ---------------------------------------------------


def test_c6_second_equation_on_all_solutions(reports):
    from test_conn import u2_u4_subfamily
    for cid in TABLE3:
        r = reports[cid]
        maps, keep = u2_u4_subfamily(r)
        if keep:  # symbolic connection parameters where the family allows it
            form = member_curvature(r.pair, r.rhos, maps)
            star = hodge_star_2form(form, r.family)
            assert residual_is_zero(second_eym_residual(maps, star)), cid
    note("criterion 6 [second equation residual identically zero]: PASS")


# -- criterion 7: property suite -----------------------------------------------------------


def test_c7_property_suite(catalog, reports):
    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        cid = entry.pair.case_id

        ginv = inverse(r.family.g)
        trace = rf(0)
        for i in range(4):
            for j in range(4):
                trace = trace + ginv.entries[i][j] * r.T.entries[i][j]
        assert trace.is_zero(), f"{cid}: T trace"

        if r.verdict.is_solution:
            assert r.verdict.lambda_ * rf(4) == r.lc.scalar, f"{cid}: s/4"

        rhos = isotropy_rep(entry.pair)
        g = r.family.g
        for rho in rhos:
            assert (rho.transpose() * g + g * rho).is_zero(), \
                f"{cid}: metric invariance"
        for a, e in enumerate(entry.pair.e_labels):
            for s, u in enumerate(U_LABELS):
                res = rhos[a] * r.conn.maps[s] - r.conn.maps[s] * rhos[a]
                for lbl, c in entry.pair.bracket(e, u).items():
                    res = res - r.conn.maps[U_LABELS.index(lbl)].scale(c)
                assert res.is_zero(), f"{cid}: connection equivariance"
        for s in range(4):
            skew = (r.conn.maps[s].transpose() * r.family.g
                    + r.family.g * r.conn.maps[s])
            assert skew.is_zero(), f"{cid}: connection skewness"

        from test_conn import is_closed_basis
        assert is_closed_basis(r.hol_basis), f"{cid}: holonomy closure"

        assert rep_is_homomorphism(entry.pair, rhos), f"{cid}: homomorphism"
        assert rep_is_faithful(entry.pair, rhos), f"{cid}: faithfulness"
        assert validate_pair(entry.pair) == [], f"{cid}: pair validation"
    note("criterion 7 [property suite on all 35 cases]: PASS")


# -- criterion 8: independent numeric cross-check ---------------------------------------------


def test_c8_numeric_crosscheck_five_points(catalog, reports):
    rng = random.Random(808)
    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        avoid = list(r.verdict.conditions)
        for _ in range(5):
            sample = sample_point(entry, rng, avoid=avoid)
            problems = crosscheck_case(entry, r, sample)
            assert problems == [], (entry.pair.case_id, sample, problems)
    note("criterion 8 [symbolic pipeline equals independent numeric "
         "recomputation at 5 random points per case]: PASS")
