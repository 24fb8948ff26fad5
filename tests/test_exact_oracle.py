"""sympy as an independent oracle for the canonical form of the exact kernel.

sympy is in the `test` extra and never a runtime dependency of eymsym; this
module is skipped when it is not installed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from eymsym.exact import (Poly, RatFunc, RF_ONE, RF_ZERO, _monomial_gcd,
                          poly_gcd, rf)

sympy = pytest.importorskip("sympy")

NAMES = "abc"
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES}


def to_sympy(x):
    """A Poly or a RatFunc as a sympy expression."""
    if isinstance(x, RatFunc):
        return to_sympy(x.num) / to_sympy(x.den)
    out = sympy.Integer(0)
    for mono, c in x.terms.items():
        term = sympy.Integer(c)
        for name, e in mono:
            term *= SYMBOLS[name] ** e
        out += term
    return out


def rand_coeff(rng: random.Random) -> Fraction:
    c = Fraction(rng.choice([x for x in range(-7, 8) if x]), rng.randint(1, 5))
    return c if rng.random() < 0.5 else Fraction(c.numerator)


def rand_mono(rng: random.Random, max_deg=2) -> tuple:
    return tuple((name, e) for name in NAMES
                 if (e := rng.randint(0, max_deg)))


def rand_poly(rng: random.Random, max_terms=3) -> RatFunc:
    """A nonzero polynomial in a, b, c, some coefficients rational."""
    out = RF_ZERO
    while out.is_zero():
        for _ in range(rng.randint(1, max_terms)):
            term = RF_ONE
            for name, e in rand_mono(rng):
                for _ in range(e):
                    term = term * RatFunc.var(name)
            out = out + rf(rand_coeff(rng)) * term
    return out


def rand_pair(rng: random.Random) -> tuple:
    """num, den with a random common factor, some coefficients rational."""
    common = rand_poly(rng, max_terms=2)
    return rand_poly(rng) * common, rand_poly(rng, max_terms=2) * common


def canonical_form_problems(x: RatFunc, num, den) -> list:
    """How x fails to be the canonical form of num/den (Polys or RatFuncs),
    judged by sympy."""
    problems = []
    xn, xd = to_sympy(x.num), to_sympy(x.den)
    if sympy.expand(xn * to_sympy(den) - xd * to_sympy(num)) != 0:
        problems.append("value differs from num/den")
    cn, cd = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
    if sympy.expand(xn * cd - xd * cn) != 0:
        problems.append("value differs from sympy.cancel")
    if sympy.gcd(xn, xd).free_symbols:
        problems.append("num and den share a factor")
    coeffs = list(x.num.terms.values()) + list(x.den.terms.values())
    if any(type(c) is not int for c in coeffs):
        problems.append("non-integer coefficient")
    elif math.gcd(*coeffs) != 1:
        problems.append("common integer content")
    if x.den.leading()[1] <= 0:
        problems.append("denominator leading coefficient not positive")
    return problems


def test_ratfunc_matches_sympy_cancel():
    rng = random.Random(101)
    for _ in range(60):
        num, den = rand_pair(rng)
        x = num / den
        assert canonical_form_problems(x, num, den) == [], (num, den, x)


def test_arithmetic_results_are_canonical():
    rng = random.Random(103)
    for _ in range(15):
        x, y = (num / den for num, den in (rand_pair(rng), rand_pair(rng)))
        for z in (x + y, x - y, x * y):
            assert canonical_form_problems(z, z.num, z.den) == []
        if not y.is_zero():
            q = x / y
            assert canonical_form_problems(q, x.num * y.den, x.den * y.num) == []


def test_oracle_flags_non_reduced_pairs():
    a, b = Poly.var("a"), Poly.var("b")
    two = Poly({(): 2})
    # a common polynomial factor left in place
    num, den = (a + b) * (a - b), a + b
    bad = RatFunc(num, den, _canonical=True)
    assert "num and den share a factor" in canonical_form_problems(bad, num, den)
    # a common integer content left in place
    num, den = two * a, two * b
    bad = RatFunc(num, den, _canonical=True)
    assert canonical_form_problems(bad, num, den) == ["common integer content"]
    # a wrong value
    bad = RatFunc(a, b + Poly({(): 1}), _canonical=True)
    assert "value differs from num/den" in canonical_form_problems(bad, a, b)


def test_monomial_gcd_agrees_with_poly_gcd():
    rng = random.Random(107)
    checked = 0
    while checked < 120:
        f = Poly({rand_mono(rng, max_deg=3): rand_coeff(rng).numerator})
        g = rand_poly(rng, max_terms=4).num
        if rng.random() < 0.5:
            f, g = g, f
        expected = poly_gcd(f, g)
        assert _monomial_gcd(f, g) == expected, (f, g)
        assert len(expected.terms) == 1 and next(iter(expected.terms.values())) == 1
        ratio = sympy.cancel(sympy.gcd(to_sympy(f), to_sympy(g)) / to_sympy(expected))
        assert not ratio.free_symbols, (f, g, expected)
        checked += 1


def test_monomial_gcd_oracle_can_fail():
    a, b = Poly.var("a"), Poly.var("b")
    f = a * a * b
    g = a * b + a * a
    # the true gcd is a; a*b would not divide g
    wrong = a * b
    ratio = sympy.cancel(sympy.gcd(to_sympy(f), to_sympy(g)) / to_sympy(wrong))
    assert ratio.free_symbols
    assert _monomial_gcd(f, g) == a
