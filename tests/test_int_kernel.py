"""The exact kernel keeps integer coefficients and never produces a float.

Inside the kernel every Poly coefficient is an int; Fraction appears only at
the boundaries (evaluate, rational constants and samples).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from eymsym.crosscheck import sample_point
from eymsym.exact import Poly, RatFunc, poly_gcd, rf
from eymsym.geom import _charpoly_coefficients
from eymsym.linalg import FieldMatrix


def _ratfuncs(obj):
    """Every RatFunc inside nested matrices, lists, tuples and dicts."""
    if isinstance(obj, RatFunc):
        yield obj
    elif isinstance(obj, FieldMatrix):
        for row in obj.entries:
            yield from row
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _ratfuncs(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _ratfuncs(value)


def _report_parts(report) -> dict:
    return {
        "metric": report.family.g,
        "det": report.family.det_g,
        "ricci": report.lc.ricci,
        "scalar": report.lc.scalar,
        "levi-civita curvature": report.lc.form.components,
        "connection maps": report.conn.maps,
        "curvature": report.form.components,
        "curvature structure": report.structure,
        "holonomy basis": report.hol_basis,
        "T": report.T,
        "lambda": report.verdict.lambda_,
        "kappa": report.verdict.kappa,
        "conditions": report.verdict.conditions,
    }


def _non_int_coefficients(x: RatFunc) -> list:
    return [c for p in (x.num, x.den) for c in p.terms.values()
            if type(c) is not int]


def test_report_coefficients_are_ints(reports):
    seen = {}
    for case_id, report in reports.items():
        for part, value in _report_parts(report).items():
            for x in _ratfuncs(value):
                seen[part] = seen.get(part, 0) + 1
                bad = _non_int_coefficients(x)
                assert not bad, f"{case_id} {part}: {x!r} has {bad}"
    assert len(reports) == 35
    # every named part was actually visited somewhere in the catalog
    assert set(seen) == set(_report_parts(next(iter(reports.values()))))


def test_arithmetic_on_rational_constants_stays_integral():
    a, b = RatFunc.var("a"), RatFunc.var("b")
    x = (rf(Fraction(3, 4)) * a - rf(Fraction(1, 6)) * b) / (rf(Fraction(5, 2)) * b)
    assert str(x) == "(9*a - 2*b)/(30*b)"
    assert not _non_int_coefficients(x)


def test_gcd_by_a_polynomial_with_content_stays_integral(monkeypatch):
    """poly_gcd(a^3, 2a) is a, and the subresultant sequence that finds it
    builds no non-int coefficient on the way, though 2a carries content."""
    built = []
    init = Poly.__init__

    def checked_init(self, terms):
        built.extend(c for c in terms.values() if type(c) is not int)
        init(self, terms)

    monkeypatch.setattr(Poly, "__init__", checked_init)
    a = Poly.var("a")
    assert poly_gcd(a * a * a, Poly({(): 2}) * a) == a
    assert not built


def test_divexact_is_exact_over_the_integers():
    a, two = Poly.var("a"), Poly({(): 2})
    with pytest.raises(ValueError):
        a.divexact(two)
    assert (two * a * a * a).divexact(two * a) == a * a


def test_boundaries_return_fractions(reports, catalog):
    assert type(rf(Fraction(3, 4)).evaluate({})) is Fraction
    assert type(rf(6).evaluate({})) is Fraction
    assert type(RatFunc(Poly({(): 6})).evaluate({})) is Fraction
    assert type(rf(0).evaluate({})) is Fraction
    rng = random.Random(5)
    for entry in catalog.entries:
        report = reports[entry.pair.case_id]
        sample = sample_point(entry, rng)
        assert type(report.lc.scalar.evaluate(sample)) is Fraction
        for x in _ratfuncs(report.family.g):
            assert type(x.evaluate(sample)) is Fraction
            if x.is_constant():
                assert type(x.evaluate({})) is Fraction
        coeffs = _charpoly_coefficients(report.family.g, sample)
        assert all(type(c) is Fraction for c in coeffs), coeffs
