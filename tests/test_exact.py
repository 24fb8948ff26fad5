"""Exact arithmetic: canonical forms, field axioms, evaluation, the grammar."""

from __future__ import annotations

import operator
import random
from functools import cmp_to_key
from fractions import Fraction

import pytest

from eymsym.exact import (DivisionByZero, MissingParam, ParseError,
                          PoleAtPoint, Poly, RatFunc, RF_ONE, RF_ZERO,
                          _mono_key, parse_ratfunc, poly_gcd, rf)

A, B, C, D = (RatFunc.var(x) for x in "abcd")


def rand_poly(rng: random.Random, names="ab", max_terms=3, max_deg=2) -> RatFunc:
    """A random polynomial with rational coefficients."""
    out = RF_ZERO
    for _ in range(rng.randint(0, max_terms)):
        term = RF_ONE
        for name in names:
            for _ in range(rng.randint(0, max_deg)):
                term = term * RatFunc.var(name)
        out = out + rf(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) * term
    return out


def rand_ratfunc(rng: random.Random) -> RatFunc:
    num = rand_poly(rng)
    den = RF_ZERO
    while den.is_zero():
        den = rand_poly(rng, max_terms=2, max_deg=1)
    return num / den


def test_gcd_cancellation():
    assert (A * A - B * B) / (A + B) == A - B


def test_add_common_denominator():
    assert RF_ONE / A + RF_ONE / A == rf(2) / A


def test_mul_expands():
    got = (B * D - C * C) * (A * A)
    assert got == parse_ratfunc("a^2*b*d - a^2*c^2")


def test_div_by_zero():
    with pytest.raises(DivisionByZero):
        A / RF_ZERO


def test_eval_simple_zero():
    x = (A - B) / (rf(2) * A * B)
    assert x.evaluate({"a": 1, "b": 1}) == 0
    assert x.evaluate({"a": 1, "b": -1}) == Fraction(2, -2)


def test_eval_lambda_value():
    assert (-RF_ONE / (rf(2) * A)).evaluate({"a": 3}) == Fraction(-1, 6)


def test_eval_pole():
    with pytest.raises(PoleAtPoint):
        (RF_ONE / A).evaluate({"a": 0})


def test_eval_missing_param():
    with pytest.raises(MissingParam):
        (A + B).evaluate({"a": 1})


def test_eval_zero_and_constant_return_fractions():
    for x, value in [(RF_ZERO, 0), (A - A, 0), (rf(5), 5),
                     (rf(Fraction(-3, 4)), Fraction(-3, 4)),
                     ((rf(2) * A) / (rf(4) * A), Fraction(1, 2))]:
        got = x.evaluate({})
        assert type(got) is Fraction and got == value, x


def test_eval_nonconstant_still_reads_its_names():
    with pytest.raises(MissingParam):
        (rf(2) * A).evaluate({})
    with pytest.raises(MissingParam):
        (rf(3) / (A + B)).evaluate({"a": 1})
    with pytest.raises(PoleAtPoint):
        (rf(3) / (A - rf(1))).evaluate({"a": 1})


def test_is_zero_exact():
    assert ((A + B) - (B + A)).is_zero()
    assert not (RF_ONE / A).is_zero()


def test_canonical_rendering():
    assert str((A - B) / (rf(2) * A * B)) == "(a - b)/(2*a*b)"
    assert str(-RF_ONE / (rf(2) * A)) == "-1/(2*a)"
    assert str(rf(Fraction(3, 4))) == "3/4"
    assert str(A / (-B)) == "-a/b"


def _graded_lex_cmp(m1, m2) -> int:
    """The order the exact docstring defines: total degree first, then the
    larger exponent on the lexicographically earliest name that differs."""
    d1, d2 = sum(e for _, e in m1), sum(e for _, e in m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    e1, e2 = dict(m1), dict(m2)
    for name in sorted(set(e1) | set(e2)):
        if e1.get(name, 0) != e2.get(name, 0):
            return 1 if e1.get(name, 0) > e2.get(name, 0) else -1
    return 0


def test_monomial_sort_key_is_graded_lex():
    """Sort order and leading term against the comparator, on seeded
    monomial sets whose names include prefixes of each other (v1, v10)."""
    rng = random.Random(61)
    names = ["a", "b", "c", "t", "v1", "v10", "v2"]
    for _ in range(3000):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            picked = rng.sample(names, rng.randint(0, 3))
            mono = tuple(sorted((n, rng.randint(1, 3)) for n in picked))
            terms[mono] = rng.choice((-2, -1, 1, 3))
        expected = sorted(terms, key=cmp_to_key(_graded_lex_cmp),
                          reverse=True)
        assert sorted(terms, key=_mono_key) == expected
        assert Poly(terms).leading() == (expected[0], terms[expected[0]])
    assert str(A * A + B * B * B + A * B * C) == "a*b*c + b^3 + a^2"


def test_denominator_leading_coefficient_positive():
    rng = random.Random(7)
    for _ in range(300):
        x = rand_ratfunc(rng)
        assert x.den.leading()[1] > 0
        assert poly_gcd(x.num, x.den).is_constant()


def test_canonical_idempotence():
    rng = random.Random(11)
    for _ in range(300):
        x = rand_ratfunc(rng)
        again = RatFunc(x.num, x.den)
        assert again.num == x.num and again.den == x.den


def test_field_axioms_randomized():
    rng = random.Random(23)
    for _ in range(1000):
        x, y, z = (rand_ratfunc(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
    for _ in range(200):
        x = rand_ratfunc(rng)
        if not x.is_zero():
            assert x / x == RF_ONE
            assert x * (RF_ONE / x) == RF_ONE


# the general path each operator takes for non-constant operands
_GENERAL = {
    operator.add: lambda x, y: RatFunc(x.num * y.den + y.num * x.den,
                                       x.den * y.den),
    operator.sub: lambda x, y: RatFunc(x.num * y.den - y.num * x.den,
                                       x.den * y.den),
    operator.mul: lambda x, y: RatFunc(x.num * y.num, x.den * y.den),
    operator.truediv: lambda x, y: RatFunc(x.num * y.den, x.den * y.num),
}


def test_constant_fast_path_matches_general_path():
    rng = random.Random(37)
    values = [Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6, -4, -6)))
              for _ in range(60)]
    # a zero result, a reducible product, a quotient with negative denominator
    pairs = [(Fraction(3, 4), Fraction(-3, 4)), (Fraction(3, 2), Fraction(2, 3)),
             (Fraction(1, 2), Fraction(-3))]
    pairs += [(rng.choice(values), rng.choice(values)) for _ in range(400)]
    zeros = 0
    for p, q in pairs:
        for op, general in _GENERAL.items():
            if op is operator.truediv and q == 0:
                continue
            x, y = rf(p), rf(q)
            got, want = op(x, y), general(x, y)
            assert got.num.terms == want.num.terms, (op, p, q)
            assert got.den.terms == want.den.terms, (op, p, q)
            assert got == want and hash(got) == hash(want)
            assert got.evaluate({}) == op(p, q)
            assert all(type(c) is int for c in (*got.num.terms.values(),
                                                *got.den.terms.values()))
            zeros += got.is_zero()
    assert zeros


def _int_poly(rng: random.Random, max_terms: int) -> Poly:
    out = Poly({})
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple((name, e) for name in "ab" if (e := rng.randint(0, 2)))
        out = out + Poly({mono: rng.choice((-1, 1)) * rng.randint(1, 6)})
    return out


def test_coprime_fast_path_matches_general_path():
    """Sums with a constant denominator on one side, and products and
    quotients with a constant operand, skip the polynomial gcd; they must
    still be canonical."""
    rng = random.Random(41)
    consts = [rf(Fraction(rng.choice((-1, 1)) * rng.randint(1, 12),
                          rng.randint(1, 6))) for _ in range(20)]
    consts += [rf(-3), rf(Fraction(-2, 3))]
    polys = []          # constant denominator, leading sign either way
    while len(polys) < 30:
        num = _int_poly(rng, 3)
        if not num.is_constant():
            polys.append(RatFunc(num, Poly(
                {(): rng.choice((-1, 1)) * rng.randint(1, 6)})))
    polys += [RF_ONE - A, (B * B - A) / rf(4), rf(-6) * A * B]
    fractions = []      # non-constant denominator
    while len(fractions) < 30:
        num, den = _int_poly(rng, 2), _int_poly(rng, 2)
        if not den.is_constant():
            fractions.append(RatFunc(num, den))
    fractions += [RF_ONE / (RF_ONE - A), (A + B) / (rf(-2) * A * A + B)]
    operands = consts + polys + fractions
    for x in operands:
        assert all(type(c) is int for c in (*x.num.terms.values(),
                                            *x.den.terms.values()))
    cases = [(rng.choice(consts + polys), rng.choice(operands))
             for _ in range(400)]
    cases += [(y, x) for x, y in cases]
    cases += [(rng.choice(fractions), rng.choice(fractions)) for _ in range(100)]
    for x, y in cases:
        for op, general in _GENERAL.items():
            if op is operator.truediv and y.is_zero():
                continue
            got, want = op(x, y), general(x, y)
            assert got.num.terms == want.num.terms, (op, x, y)
            assert got.den.terms == want.den.terms, (op, x, y)
            assert got == want and hash(got) == hash(want)
    # a negative constant divisor, and a divisor with negative leading coefficient
    assert (A + RF_ONE) / rf(-2) == RatFunc(-A.num - RF_ONE.num, Poly({(): 2}))
    got = rf(3) / (RF_ONE - A)
    assert str(got) == "-3/(a - 1)" and got.den.leading()[1] > 0


def test_eval_is_homomorphism():
    rng = random.Random(31)
    checked = 0
    while checked < 200:
        x, y = rand_ratfunc(rng), rand_ratfunc(rng)
        point = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                 for n in "abc"}
        try:
            vx, vy = x.evaluate(point), y.evaluate(point)
            assert (x * y).evaluate(point) == vx * vy
            assert (x + y).evaluate(point) == vx + vy
        except PoleAtPoint:
            continue
        checked += 1


def test_poly_gcd_divides_products():
    rng = random.Random(47)
    for _ in range(60):
        f, g, h = (rand_poly(rng, max_terms=3, max_deg=2).num for _ in range(3))
        if h.is_zero():
            continue
        gcd = poly_gcd(f * h, g * h)
        if not (f * h).is_zero() and not (g * h).is_zero():
            # h divides the gcd
            gcd.divexact(h.primitive())


def test_parse_round_trip():
    rng = random.Random(59)
    for _ in range(200):
        x = rand_ratfunc(rng)
        assert parse_ratfunc(str(x)) == x


def test_parse_grammar_forms():
    assert parse_ratfunc("(a - b)/(2*a*b)") == (A - B) / (rf(2) * A * B)
    assert parse_ratfunc("a^2*b*d - a^2*c^2") == A * A * (B * D - C * C)
    assert parse_ratfunc("-1/(2*a)") == -RF_ONE / (rf(2) * A)
    assert parse_ratfunc("2*(a - b)/(a*b)") == rf(2) * (A - B) / (A * B)


def test_parse_errors():
    for bad in ("", "a +", "(a", "a^b", "a $ b"):
        with pytest.raises(ParseError):
            parse_ratfunc(bad)


def test_parse_division_by_zero_is_a_parse_error():
    for bad in ("1/0", "a/(b - b)", "2*a/0*b"):
        with pytest.raises(ParseError, match="division by zero"):
            parse_ratfunc(bad)
