"""The numeric cross-check: what it reads from a CaseReport, and that it bites."""

from __future__ import annotations

import ast
import copy
import random
import zlib
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import eymsym.crosscheck
from eymsym import geom
from eymsym.conn import CurvatureForm, curvature
from eymsym.crosscheck import (NumericCase, _gauss_solve, crosscheck_case,
                               sample_point)
from eymsym.eym import (HolonomyMetric, hodge_star_2form, run_case,
                        second_eym_residual)
from eymsym.exact import RF_ZERO, Poly, RatFunc, rf
from eymsym.liecat import NotSymmetric, parse_catalog
from eymsym.linalg import FieldMatrix, det
from helpers import (evaluate_matrix, from_rows, inverse_fractions,
                     member_curvature, residual_is_zero,
                     uniform_holonomy_metric)


def _replace(obj, **changes):
    """A shallow copy of obj with the given attributes set."""
    out = copy.copy(obj)
    for name, value in changes.items():
        setattr(out, name, value)
    return out


def _bumped(m: FieldMatrix, i: int, j: int) -> FieldMatrix:
    """A copy of m with 1 added to entry (i, j): off by one at every point."""
    rows = [list(r) for r in m.entries]
    rows[i][j] = rows[i][j] + rf(1)
    return FieldMatrix(m.rows, m.cols, rows)


def _clean_sample(entry, report, seed: int, avoid: list = ()) -> dict:
    """A sample where the report cross-checks clean and no holonomy structure
    coefficient vanishes, so a dropped basis element shows; the RatFuncs in
    `avoid` are nonzero there too."""
    avoid = list(avoid) + list(report.verdict.conditions) + [
        c for coeffs in report.structure.values() for c in coeffs
        if not c.is_zero()]
    sample = sample_point(entry, random.Random(seed), avoid=avoid)
    assert crosscheck_case(entry, report, sample) == []
    return sample


def test_second_residual_at_canonical_member_is_zero(reports):
    """The identity run_case relies on: at Lambda = 0 on a symmetric pair the
    second-equation residual vanishes whatever star it is given."""
    fixed = FieldMatrix(4, 4, [[rf(4 * i + j + 1) for j in range(4)]
                               for i in range(4)])
    for r in reports.values():
        star = hodge_star_2form(r.form, r.family)
        zero = [FieldMatrix.zeros(4, 4)] * 4
        assert residual_is_zero(second_eym_residual(zero, star)), r.case_id
        junk = CurvatureForm(components={key: fixed for key in star.components})
        assert residual_is_zero(second_eym_residual(zero, junk)), r.case_id


@pytest.mark.parametrize("cid", ["1.1^1(7)", "3.5^2(2)", "6.1^3(1)"])
def test_corrupted_curvature_is_caught(catalog, reports, cid):
    entry, r = catalog.get(cid), reports[cid]
    sample = _clean_sample(entry, r, 11)
    comps = dict(r.form.components)
    comps[(0, 1)] = _bumped(comps[(0, 1)], 2, 3)
    bad = _replace(r, form=_replace(r.form, components=comps))
    assert crosscheck_case(entry, bad, sample) == ["curvature"]


@pytest.mark.parametrize("cid", ["3.5^2(2)", "1.4^1(25)"])
def test_second_residual_oracle_at_a_nonzero_member(catalog, reports, cid):
    """At the member v2 = 1 the second equation fails, symbolically and in
    the numeric reference, and the two agree at a seeded sample."""
    entry, r = catalog.get(cid), reports[cid]
    maps = r.conn.basis[r.conn.free_params.index("v2")]  # sum_k v_k B^k at v2 = 1
    residual = second_eym_residual(
        maps,
        hodge_star_2form(member_curvature(r.pair, r.rhos, maps), r.family))
    assert not residual_is_zero(residual)

    sample = sample_point(entry, random.Random(5))
    num = NumericCase(entry, sample)
    maps_num = [evaluate_matrix(m, sample) for m in maps]
    res_num = num.second_residual(
        maps_num, num.star(num.curvature_ops(maps_num)))
    assert {key: evaluate_matrix(m, sample)
            for key, m in residual.items()} == res_num
    assert any(x for m in res_num.values() for row in m for x in row)


@pytest.mark.parametrize("cid", ["2.1^2(1)", "1.1^1(7)", "2.5^2(4)", "2.5^2(5)"])
def test_corrupted_holonomy_basis_is_caught(catalog, reports, cid):
    entry, r = catalog.get(cid), reports[cid]
    sample = _clean_sample(entry, r, 14)
    short = _replace(r, hol_basis=r.hol_basis[:-1])
    assert crosscheck_case(entry, short, sample) == [
        "holonomy expansion degenerates at sample"]
    doubled = [r.hol_basis[0].scale(rf(2))] + r.hol_basis[1:]
    bad = _replace(r, hol_basis=doubled)
    assert "stress tensor" in crosscheck_case(entry, bad, sample)


@pytest.mark.parametrize("cid", ["1.1^1(7)", "2.5^2(4)", "6.1^3(1)"])
def test_corrupted_stress_tensor_is_caught(catalog, reports, cid):
    entry, r = catalog.get(cid), reports[cid]
    sample = _clean_sample(entry, r, 13)
    bad = _replace(r, T=_bumped(r.T, 1, 3))
    assert "stress tensor" in crosscheck_case(entry, bad, sample)


def _set(m: FieldMatrix, i: int, j: int, value) -> FieldMatrix:
    rows = [list(r) for r in m.entries]
    rows[i][j] = value
    return FieldMatrix(m.rows, m.cols, rows)


def _first_entry(m: FieldMatrix, zero: bool) -> tuple:
    """(i, j) of the first entry of m that is (or is not) identically 0."""
    return next((i, j) for i, row in enumerate(m.entries)
                for j, x in enumerate(row) if x.is_zero() == zero)


def _mixed(m: FieldMatrix) -> bool:
    """m has both identically zero and nonzero entries."""
    zeros = {x.is_zero() for row in m.entries for x in row}
    return zeros == {True, False}


def _edited(report, target: str, edit):
    """A copy of the report with `edit` applied to the compared matrix that
    `target` names: Ricci, one curvature component, or T."""
    if target == "ricci":
        return _replace(report, lc=_replace(report.lc,
                                            ricci=edit(report.lc.ricci)))
    if target == "stress tensor":
        return _replace(report, T=edit(report.T))
    comps = dict(report.form.components)
    key = next(k for k, m in comps.items() if _mixed(m))
    comps[key] = edit(comps[key])
    return _replace(report, form=_replace(report.form, components=comps))


@pytest.mark.parametrize("cid", ["1.1^1(7)", "2.5^2(4)", "3.5^2(2)",
                                 "6.1^3(1)"])
@pytest.mark.parametrize("target", ["ricci", "curvature", "stress tensor"])
@pytest.mark.parametrize("to_zero", [False, True],
                         ids=["zero-to-nonzero", "nonzero-to-zero"])
def test_zero_skipping_comparison_is_checked_both_ways(catalog, reports, cid,
                                                       target, to_zero):
    """The comparison evaluates only the nonzero symbolic entries; a symbolic
    0 must still meet a numeric 0, so both corruptions are flagged."""
    entry, r = catalog.get(cid), reports[cid]
    # every nonzero entry is nonzero at the sample, so zeroing one shows
    mats = [r.lc.ricci, r.T, *r.form.components.values()]
    sample = _clean_sample(entry, r, 17, avoid=[
        x for m in mats for row in m.entries for x in row if not x.is_zero()])

    def edit(m: FieldMatrix) -> FieldMatrix:
        i, j = _first_entry(m, zero=not to_zero)
        return _set(m, i, j, RF_ZERO if to_zero else rf(1))

    assert crosscheck_case(entry, _edited(r, target, edit), sample) == [target]


def test_crosscheck_reads_the_report_once(catalog, reports, monkeypatch):
    """A count guard: crosscheck_case never evaluates an identically zero
    RatFunc, and from a case's second point on it calls no RatFunc.is_zero,
    RatFunc.evaluate or Poly._ratio at all; what it reads from the entry
    and the report is planned at the first point."""
    calls = []

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args):
            calls.append((name, self))
            return original(self, *args)
        return wrapper

    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        # fresh copies, so that the first point here builds the plans
        entry, r = _replace(entry), _replace(r)
        rng = random.Random(19)
        samples = [sample_point(entry, rng, avoid=list(r.verdict.conditions))
                   for _ in range(3)]
        for k, sample in enumerate(samples):
            calls.clear()
            with monkeypatch.context() as m:
                for cls, name in ((RatFunc, "is_zero"), (RatFunc, "evaluate"),
                                  (Poly, "_ratio")):
                    m.setattr(cls, name, counted(cls, name))
                assert crosscheck_case(entry, r, sample) == [], \
                    entry.pair.case_id
            assert not [x for name, x in calls
                        if name == "evaluate" and x.is_zero()]
            if k:
                assert calls == [], (entry.pair.case_id, k)


def test_an_edited_copy_is_checked_against_its_own_plan(catalog, reports):
    """The plan of a report is built at its first point and kept for later
    points; a `_replace`d copy with one part edited is flagged even after
    the original was checked clean, and so is a different holonomy metric.
    An entry other than the plan's (here without `golden metric`) gets a
    plan of its own."""
    cid = "2.1^2(1)"
    entry, r = catalog.get(cid), reports[cid]
    avoid = [c for coeffs in r.structure.values() for c in coeffs
             if not c.is_zero()]
    rng = random.Random(23)
    samples = [sample_point(entry, rng, avoid=avoid + list(r.verdict.conditions))
               for _ in range(3)]
    for sample in samples:
        assert crosscheck_case(entry, r, sample) == []

    def bump(m: FieldMatrix) -> FieldMatrix:
        return _bumped(m, *_first_entry(m, zero=False))

    doubled = [r.hol_basis[0].scale(rf(2))] + r.hol_basis[1:]
    edited = [(_edited(r, "ricci", bump), "ricci"),
              (_edited(r, "curvature", bump), "curvature"),
              (_edited(r, "stress tensor", bump), "stress tensor"),
              (_replace(r, hol_basis=doubled), "stress tensor"),
              (_replace(r, hm=uniform_holonomy_metric(rf(4))),
               "stress tensor")]
    for sample in samples:
        for bad, problem in edited:
            assert problem in crosscheck_case(entry, bad, sample), problem

    bare = _replace(entry, golden=_replace(entry.golden, metric=None))
    for sample in samples:
        assert crosscheck_case(bare, r, sample) == []
        assert crosscheck_case(entry, r, sample) == []


# the first four points of each case as perfbench/worker.py draws them:
# random.Random(seed * 2**32 + crc32(case id)) at seed 911, with the
# verdict conditions avoided
_PINNED_POINTS = {
    "1.1^1(7)": [
        {"a": "3", "b": "-3", "c": "-2", "d": "-3"},
        {"a": "-3/2", "b": "7/2", "c": "9/2", "d": "-4"},
        {"a": "1", "b": "2", "c": "9", "d": "4"},
        {"a": "9/4", "b": "-9/4", "c": "9", "d": "-3"}],
    "2.5^2(4)": [
        {"a": "-6", "b": "1", "t": "7/3"},
        {"a": "7/4", "b": "7", "t": "1"},
        {"a": "-1/4", "b": "3/2", "t": "9/4"},
        {"a": "7/3", "b": "2/3", "t": "9"}],
    "3.2^2(2)": [
        {"a": "-2", "lam": "-1/2"},
        {"a": "-9/2", "lam": "9/2"},
        {"a": "-9/4", "lam": "7"},
        {"a": "1", "lam": "1"}],
}


@pytest.mark.parametrize("cid", sorted(_PINNED_POINTS))
def test_sample_stream_is_pinned(catalog, reports, cid):
    entry, r = catalog.get(cid), reports[cid]
    rng = random.Random(911 * 2**32 + zlib.crc32(cid.encode()))
    points = [sample_point(entry, rng, avoid=list(r.verdict.conditions))
              for _ in range(4)]
    assert [{name: str(v) for name, v in p.items()} for p in points] \
        == _PINNED_POINTS[cid]


# validate's stream at seed 4242: the cross-check sample first, with the
# verdict conditions and the nonzero structure coefficients avoided, then
# two Lorentz samples
_VALIDATE_STREAM = {
    "1.1^1(7)": [
        {"a": "5/2", "b": "-9/4", "c": "4/3", "d": "-1/2"},
        {"a": "2", "b": "-9/4", "c": "-2", "d": "7"},
        {"a": "-9/2", "b": "4", "c": "-4/3", "d": "-3"}],
    "2.5^2(4)": [
        {"a": "5/2", "b": "-9/4", "t": "4/3"},
        {"a": "-1/2", "b": "2", "t": "-9/4"},
        {"a": "-2", "b": "7", "t": "-9/2"}],
    "3.5^2(2)": [
        {"a": "5/2", "b": "-9/4"},
        {"a": "4/3", "b": "-1/2"},
        {"a": "2", "b": "-9/4"}],
}


@pytest.mark.parametrize("cid", sorted(_VALIDATE_STREAM))
def test_validate_stream_is_pinned(catalog, reports, cid):
    entry, r = catalog.get(cid), reports[cid]
    rng = random.Random(4242)
    avoid = list(r.verdict.conditions) + [
        c for coeffs in r.structure.values() for c in coeffs
        if not c.is_zero()]
    points = [sample_point(entry, rng, avoid=avoid, family=r.family)]
    points += [sample_point(entry, rng, family=r.family) for _ in range(2)]
    assert [{name: str(v) for name, v in p.items()} for p in points] \
        == _VALIDATE_STREAM[cid]


@pytest.mark.parametrize("cid", ["1.1^1(7)", "2.5^2(4)", "3.5^2(2)"])
def test_an_accepted_draw_evaluates_and_inverts_g_once(catalog, reports,
                                                       monkeypatch, cid):
    """A draw accepted at the first try and its cross-check evaluate g once
    and invert it once: the NumericCase takes both from the entry's plan."""
    # fresh copies, so that the plans are built here
    entry, r = _replace(catalog.get(cid)), _replace(reports[cid])
    calls = []
    metric_at = eymsym.crosscheck._EntryPlan.metric_at
    inverse = eymsym.crosscheck._inverse_scaled

    def counted_metric_at(self, point):
        calls.append("metric_at")
        return metric_at(self, point)

    def counted_inverse(gs, d):
        calls.append("inverse")
        return inverse(gs, d)

    monkeypatch.setattr(eymsym.crosscheck._EntryPlan, "metric_at",
                        counted_metric_at)
    monkeypatch.setattr(eymsym.crosscheck, "_inverse_scaled", counted_inverse)
    sample = sample_point(entry, random.Random(4242),
                          avoid=list(r.verdict.conditions))
    assert crosscheck_case(entry, r, sample) == []
    assert calls == ["metric_at", "inverse"]
    # away from the last draw, the NumericCase evaluates and inverts g itself
    calls.clear()
    other = {name: v + 1 for name, v in sample.items()}
    NumericCase(entry, other, r.family)
    assert calls == ["metric_at", "inverse"]


def test_the_kept_draw_is_used_only_at_its_own_point(catalog, reports):
    """Draw s1, then s2, then cross-check at s1: the problems and the
    NumericCase's g and g^-1 over ints are those of a fresh plan."""
    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        rng = random.Random(61)
        s1 = sample_point(entry, rng, avoid=list(r.verdict.conditions))
        s2 = sample_point(entry, rng, avoid=list(r.verdict.conditions))
        problems = crosscheck_case(entry, r, s1)
        num = NumericCase(entry, s1, r.family)
        # a copy of the entry is another key, so it gets a plan of its own
        fresh_entry = _replace(entry)
        fresh = NumericCase(fresh_entry, s1, r.family)
        assert eymsym.crosscheck._ENTRY_PLANS[fresh_entry].last is None
        assert (num.g_scaled, num.ginv_scaled) \
            == (fresh.g_scaled, fresh.ginv_scaled), entry.pair.case_id
        assert problems == crosscheck_case(fresh_entry, _replace(r), s1) == [], \
            entry.pair.case_id
        assert s1 != s2


def test_flipped_levi_civita_curvature_is_caught(catalog, reports, monkeypatch):
    """levi_civita reads its curvature from conn.curvature; with the sign of
    rho flipped there, the numeric cross-check, which builds -rho([u_i, u_j])
    from the brackets at the sample point, flags Ricci and scalar."""
    def flipped(pair, rhos):
        form = curvature(pair, rhos)
        return CurvatureForm({k: -m for k, m in form.components.items()})

    monkeypatch.setattr(geom, "curvature", flipped)
    flagged = []
    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        lc = geom.levi_civita(r.pair, r.rhos, r.family)
        assert lc.ricci == -r.lc.ricci and lc.scalar == -r.lc.scalar
        # a sample where every nonzero Ricci entry and the scalar stay nonzero
        avoid = [x for row in r.lc.ricci.entries for x in row if not x.is_zero()]
        avoid += [r.lc.scalar] if not r.lc.scalar.is_zero() else []
        sample = sample_point(entry, random.Random(31),
                              avoid=avoid + list(r.verdict.conditions))
        problems = crosscheck_case(entry, _replace(r, lc=lc), sample)
        expected = (["ricci"] if not r.lc.ricci.is_zero() else []) + \
            (["scalar"] if not r.lc.scalar.is_zero() else [])
        assert problems == expected, entry.pair.case_id
        flagged += expected
    assert flagged.count("ricci") == 20 and flagged.count("scalar") == 14


def test_sample_point_without_golden_metric(catalog, reports):
    """An entry without `golden metric` samples the family run_case solved."""
    entry, r = catalog.get("2.1^2(1)"), reports["2.1^2(1)"]
    bare = _replace(entry, golden=_replace(entry.golden, metric=None))
    with pytest.raises(ValueError, match="no golden metric"):
        sample_point(bare, random.Random(3))
    expected = sample_point(entry, random.Random(3))
    assert sample_point(bare, random.Random(3), family=r.family) == expected
    assert crosscheck_case(bare, r, expected) == []


@pytest.mark.parametrize("cid", ["1.1^1(7)", "3.5^2(2)", "6.1^3(1)"])
@pytest.mark.parametrize("hm", [
    uniform_holonomy_metric(rf(4)),
    HolonomyMetric(overrides={5: rf(3), 6: rf(-1)}),
], ids=["default-4", "override-5-6"])
def test_crosscheck_uses_the_report_holonomy_metric(catalog, reports, cid, hm):
    """A report built with a non-default holonomy metric cross-checks clean."""
    entry = catalog.get(cid)
    r = run_case(entry, hm)
    assert r.T != reports[cid].T
    sample = sample_point(entry, random.Random(21),
                          avoid=list(r.verdict.conditions))
    assert crosscheck_case(entry, r, sample) == []


def test_holonomy_metric_describe():
    assert HolonomyMetric().describe(3) == "g_aa = 2"
    hm = HolonomyMetric(overrides={5: rf(3), 7: rf(-1), 12: rf(5)})
    assert hm.describe(1) == "g_55 = 3"
    assert hm.describe(3) == "g_55 = 3, g_77 = -1, g_aa = 2 otherwise"
    assert hm.describe(8) == ("g_55 = 3, g_77 = -1, g_(12,12) = 5, "
                              "g_aa = 2 otherwise")


# -- the one-elimination solve ----------------------------------------------


def _random_matrix(rng: random.Random, n: int, m: int) -> list:
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
            for _ in range(n)]


def _product(a: list, b: list) -> list:
    return [[sum((a[i][p] * b[p][j] for p in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


_IDENTITY = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]


def test_inverse_of_seeded_random_matrices():
    rng = random.Random(41)
    for _ in range(30):
        g = _random_matrix(rng, 4, 4)
        inv = inverse_fractions(g)
        if det(from_rows(g)).is_zero():
            assert inv is None
            continue
        assert _product(inv, g) == _IDENTITY
        assert _product(g, inv) == _IDENTITY


def test_inverse_of_a_singular_matrix_is_none():
    rng = random.Random(42)
    for _ in range(10):
        g = _random_matrix(rng, 4, 4)
        g[3] = [x + 2 * y for x, y in zip(g[0], g[1])]
        assert inverse_fractions(g) is None


def _components(rng: random.Random, basis: list) -> tuple:
    """Six components in the span of `basis`, with their coefficients."""
    coeffs = {(i, j): [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                       for _ in basis]
              for i in range(4) for j in range(i + 1, 4)}
    ops = {key: [[sum((c * b[i][j] for c, b in zip(cs, basis)), Fraction(0))
                  for j in range(4)] for i in range(4)]
           for key, cs in coeffs.items()}
    return ops, coeffs


def _supported_basis(rng: random.Random, k: int) -> list:
    """k random independent 4x4 matrices supported on the first k entries."""
    while True:
        square = _random_matrix(rng, k, k)
        if not det(from_rows(square)).is_zero():
            break
    return [[[row[4 * i + j] if 4 * i + j < k else Fraction(0)
              for j in range(4)] for i in range(4)] for row in square]


def _one_solve_per_component(ops: dict, basis: list) -> dict | None:
    a = [[b[i][j] for b in basis] for i in range(4) for j in range(4)]
    out = {}
    for key, m in ops.items():
        sol = _gauss_solve(a, [[m[i][j] for i in range(4) for j in range(4)]])
        if sol is None:
            return None
        out[key] = sol[0]
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_structure_is_one_solve_per_component(catalog, k):
    rng = random.Random(50 + k)
    num = NumericCase(catalog.get("1.1^1(7)"), {n: Fraction(i + 1) for i, n
                                                in enumerate("abcd")})
    basis = _supported_basis(rng, k)
    ops, coeffs = _components(rng, basis)
    structure = num.structure(ops, basis)
    assert structure == coeffs
    assert structure == _one_solve_per_component(ops, basis)

    # one component outside the span (an entry no basis matrix touches)
    outside = dict(ops)
    outside[(1, 2)] = [row[:] for row in ops[(1, 2)]]
    outside[(1, 2)][3][3] += 1
    assert num.structure(outside, basis) is None
    assert _one_solve_per_component(outside, basis) is None

    # a dependent basis, with every component still in its span
    dependent = basis + [[[x + y for x, y in zip(r0, r1)] for r0, r1
                          in zip(basis[0], basis[-1])]]
    assert num.structure(ops, dependent) is None
    assert _one_solve_per_component(ops, dependent) is None


def test_structure_at_catalog_samples_is_one_solve_per_component(catalog,
                                                                 reports):
    rng = random.Random(60)
    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        if not r.hol_basis:
            continue
        sample = sample_point(entry, rng, avoid=list(r.verdict.conditions))
        num = NumericCase(entry, sample, r.family)
        ops = num.curvature_ops([[[0] * 4 for _ in range(4)]] * 4)
        basis = [evaluate_matrix(b, sample) for b in r.hol_basis]
        assert num.structure(ops, basis) \
            == _one_solve_per_component(ops, basis), entry.pair.case_id


def test_a_non_symmetric_pair_is_refused():
    """With `bracket u1 u2 = u3` added, [m, m] of 1.1^1(7) has a part in m.
    A sample is still drawn, but the numeric reading of the brackets refuses
    the pair, naming the bracket, as run_case does."""
    text = (resources.files("eymsym") / "data" / "catalog.txt").read_text()
    start = text.index('case "1.1^1(7)"')
    broken = text[:start] + text[start:].replace(
        "bracket u1 u3 = e1\n", "bracket u1 u3 = e1\nbracket u1 u2 = u3\n", 1)
    assert broken != text
    entry = parse_catalog(broken).get("1.1^1(7)")
    sample = sample_point(entry, random.Random(3))
    with pytest.raises(NotSymmetric, match=r"\[u1, u2\]"):
        NumericCase(entry, sample)


# what the cross-check may import from the package it checks: exceptions,
# types and labels, no computation
_ALLOWED_IMPORTS = {("exact", "PoleAtPoint"), ("geom", "MetricFamily"),
                    ("liecat", "CatalogEntry"), ("liecat", "NotSymmetric"),
                    ("liecat", "U_LABELS")}


def _package_imports(source: str) -> set:
    """(module, name) of every import from eymsym in the source, at module
    and at function level, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "eymsym" and not module.startswith("eymsym."):
                    continue
                module = module.removeprefix("eymsym").lstrip(".")
            found |= {(module, a.name) for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {(a.name, "*") for a in node.names
                      if a.name.split(".")[0] == "eymsym"}
    return found


def test_crosscheck_imports_no_code_it_checks():
    source = Path(eymsym.crosscheck.__file__).read_text()
    found = _package_imports(source)
    assert found and found <= _ALLOWED_IMPORTS, sorted(found - _ALLOWED_IMPORTS)
    # the guard bites at either level
    for extra in ("from .linalg import rref\n",
                  "def f():\n    from .linalg import rref\n"):
        assert ("linalg", "rref") in _package_imports(source + extra)
