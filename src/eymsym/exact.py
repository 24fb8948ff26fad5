"""Exact arithmetic: sparse multivariate polynomials over Z, rational functions.

Every symbolic quantity in the engine is a RatFunc: a reduced fraction of
multivariate polynomials in named parameters (a, b, c, d, t, v1, ...).
All arithmetic is exact; there is no floating point anywhere.

Every Poly coefficient is a plain int: a value of Q(params) is a ratio of two
polynomials in Z[params]. Rational numbers appear only as Fractions at the
boundaries: the argument of RatFunc.const, and what evaluate() returns (a
constant's value is evaluate({})). By Gauss's lemma (a primitive integer
polynomial that divides an integer polynomial over Q leaves an integer
quotient), every exact division in the reduction and in poly_gcd stays in Z.

Canonical form (unique representation per mathematical value):
  * polynomials store no zero coefficients; monomials are compared in graded
    lexicographic order over lexicographically sorted parameter names;
  * a RatFunc has gcd(num, den) = 1 with common content removed (all
    coefficients are integers with overall content 1) and the denominator's
    leading coefficient positive.

The text grammar (str() / parse_ratfunc) is infix with `*`, `^` and a
parenthesized denominator, e.g. ``(a - b)/(2*a*b)``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# A monomial is a tuple of (name, exponent) pairs, sorted by name, exponents > 0.
Monomial = tuple

_ONE_MONO: Monomial = ()


class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial / rational function."""


class MissingParam(KeyError):
    """An evaluation point does not assign every parameter that occurs."""


class PoleAtPoint(ZeroDivisionError):
    """The denominator vanishes at the requested evaluation point."""


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _mono_key(m: Monomial) -> tuple:
    """Graded lex as a sort key, greatest monomial first: higher total degree
    first, then the larger exponent on the lexicographically earliest name
    where two monomials differ, that is, the smaller tuple of names each
    repeated by its exponent."""
    return (-sum(e for _, e in m), tuple(n for n, e in m for _ in range(e)))


def _quo(a: int, b: int) -> int:
    """a / b; raises ValueError when b does not divide a in Z."""
    q, r = divmod(a, b)
    if r:
        raise ValueError("not an exact polynomial division")
    return q


class Poly:
    """Immutable sparse multivariate polynomial over Z: {monomial: int}."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict):
        self.terms = terms
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({((name, 1),): 1})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE_MONO in self.terms)

    def variables(self) -> set:
        out: set = set()
        for mono in self.terms:
            for name, _ in mono:
                out.add(name)
        return out

    def leading(self) -> tuple:
        """(monomial, coefficient) of the graded-lex leading term."""
        if not self.terms:
            return (_ONE_MONO, 0)
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        mono = min(self.terms, key=_mono_key)
        return (mono, self.terms[mono])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = c
            else:
                s = s + c
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        if not other.terms:
            return self
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = -c
            else:
                s = s - c
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({mono: -c for mono, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return _P_ZERO
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                s = out.get(mono)
                if s is None:
                    out[mono] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        out[mono] = s
                    else:
                        del out[mono]
        return Poly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- evaluation ---------------------------------------------------------

    def _ratio(self, assignment: dict) -> tuple:
        """(n, d) ints with n/d the value at `assignment`, d > 0, unreduced.

        Each term is an int ratio and the terms add over a common
        denominator, so no Fraction (and no gcd) is built along the way;
        RatFunc.evaluate builds the one Fraction of the result.
        """
        n, d = 0, 1
        for mono, c in self.terms.items():
            tn, td = c, 1
            for name, e in mono:
                try:
                    x = assignment[name]
                except KeyError:
                    raise MissingParam(name) from None
                try:
                    p, q = x.numerator, x.denominator
                except AttributeError:
                    x = Fraction(x)
                    p, q = x.numerator, x.denominator
                if e == 1:
                    tn, td = tn * p, td * q
                else:
                    tn, td = tn * p ** e, td * q ** e
            if td == d:
                n += tn
            else:
                n, d = n * td + tn * d, d * td
        return n, d

    # -- content / division ---------------------------------------------------

    def primitive(self) -> "Poly":
        """Integer-primitive part with positive leading coefficient."""
        if not self.terms:
            return self
        g = math.gcd(*self.terms.values())
        if self.leading()[1] < 0:
            g = -g
        if g == 1:
            return self
        return Poly({m: c // g for m, c in self.terms.items()})

    def divexact(self, divisor: "Poly") -> "Poly":
        """Exact division over Z; raises ValueError unless the quotient
        is a polynomial with integer coefficients."""
        if divisor.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if len(divisor.terms) == 1:
            ((dmono, dcoef),) = divisor.terms.items()
            return Poly({_mono_div(m, dmono): _quo(c, dcoef)
                         for m, c in self.terms.items()})
        rem = self
        quot = _P_ZERO
        dmono, dcoef = divisor.leading()
        while not rem.is_zero():
            rmono, rcoef = rem.leading()
            qpoly = Poly({_mono_div(rmono, dmono): _quo(rcoef, dcoef)})
            quot = quot + qpoly
            rem = rem - qpoly * divisor
        return quot

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_mono_key):
            c = self.terms[mono]
            factors = []
            for name, e in mono:
                factors.append(name if e == 1 else f"{name}^{e}")
            coef_txt = str(abs(c)) if not factors or abs(c) != 1 else ""
            body = "*".join(([coef_txt] if coef_txt else []) + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        first = parts[0]
        out = ("-" + first[2:]) if first.startswith("- ") else first[2:]
        for p in parts[1:]:
            out += " " + p
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


_P_ZERO = Poly({})
_P_ONE = Poly({_ONE_MONO: 1})


def _mono_div(m: Monomial, d: Monomial) -> Monomial:
    """m / d; raises ValueError when d does not divide m."""
    if not d:
        return m
    exps = dict(m)
    for name, e in d:
        r = exps.get(name, 0) - e
        if r < 0:
            raise ValueError("not an exact polynomial division")
        if r:
            exps[name] = r
        else:
            del exps[name]
    return tuple(exps.items())


# -- polynomial gcd ----------------------------------------------------------


def _split_by_var(p: Poly, x: str) -> dict:
    """View p as univariate in x: {exp: Poly in the remaining variables}."""
    out: dict = {}
    for mono, c in p.terms.items():
        e = 0
        rest = []
        for name, exp in mono:
            if name == x:
                e = exp
            else:
                rest.append((name, exp))
        part = out.setdefault(e, {})
        key = tuple(rest)
        part[key] = part.get(key, 0) + c
    return {e: Poly({m: c for m, c in terms.items() if c}) for e, terms in out.items()}


def _join_by_var(parts: dict, x: str) -> Poly:
    out = _P_ZERO
    for e, coeff in parts.items():
        if coeff.is_zero():
            continue
        xmono = Poly({((x, e),): 1}) if e else _P_ONE
        out = out + coeff * xmono
    return out


def _pseudo_rem(a: dict, b: dict, x: str) -> dict:
    """Canonical pseudo-remainder lc(b)^(delta+1) a mod b (views in x)."""
    db = max(b)
    lb = b[db]
    steps_needed = max(a) - db + 1
    k = 0
    while a and max(a) >= db:
        da = max(a)
        la = a[da]
        k += 1
        # a := lb*a - la*x^(da-db)*b
        new: dict = {}
        for e, c in a.items():
            new[e] = c * lb
        for e, c in b.items():
            t = new.get(e + da - db, _P_ZERO) - la * c
            new[e + da - db] = t
        a = {e: c for e, c in new.items() if not c.is_zero()}
    for _ in range(steps_needed - k):
        a = {e: c * lb for e, c in a.items()}
    return a


def _pow(p: Poly, n: int) -> Poly:
    out = _P_ONE
    for _ in range(n):
        out = out * p
    return out


def _view_content(parts: dict) -> Poly:
    c = _P_ZERO
    for coeff in parts.values():
        c = poly_gcd(c, coeff)
    return c


def _monomial_gcd(f: Poly, g: Poly) -> Poly:
    """poly_gcd(f, g) when f or g is a single term: their common power product.

    Each shared variable gets its least exponent over the single term and
    every term of the other side; the coefficient is 1, as poly_gcd returns.
    """
    if len(f.terms) != 1:
        f, g = g, f
    (mono,) = f.terms
    exps = dict(mono)
    for m in g.terms:
        if not exps:
            break
        other = dict(m)
        exps = {name: min(e, other[name])
                for name, e in exps.items() if name in other}
    return Poly({tuple(exps.items()): 1}) if exps else _P_ONE


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Gcd over Q[params], normalized integer-primitive with positive lead.

    Subresultant pseudo-remainder sequence (controlled coefficient growth,
    no per-step content extraction); inputs in this engine stay small.
    Every division below is exact in Z.
    """
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    if f.is_constant() or g.is_constant():
        return _P_ONE
    if f.terms == g.terms:
        return f.primitive()
    fvars = f.variables()
    gvars = g.variables()
    common = fvars & gvars
    if not common:
        return _P_ONE
    x = sorted(common)[-1]
    fu = _split_by_var(f, x)
    gu = _split_by_var(g, x)

    cf = _view_content(fu)
    cg = _view_content(gu)
    c = poly_gcd(cf, cg)
    a = {e: v.divexact(cf) for e, v in fu.items()}
    b = {e: v.divexact(cg) for e, v in gu.items()}
    if max(a) < max(b):
        a, b = b, a
    gg, hh = _P_ONE, _P_ONE
    while True:
        delta = max(a) - max(b)
        r = _pseudo_rem(a, b, x)
        if not r:
            g_in_x = _join_by_var(b, x)
            break
        if max(r) == 0:
            g_in_x = _P_ONE  # nonzero x-free remainder: primitive parts coprime
            break
        divisor = gg * _pow(hh, delta)
        a, b = b, {e: v.divexact(divisor) for e, v in r.items()}
        gg = a[max(a)]
        if delta == 1:
            hh = gg
        elif delta > 1:
            hh = _pow(gg, delta).divexact(_pow(hh, delta - 1))
    if not g_in_x.is_constant():
        rc = _view_content(_split_by_var(g_in_x, x))
        if not rc.is_constant():
            g_in_x = g_in_x.divexact(rc)
    return (c * g_in_x.primitive()).primitive()


# -- rational functions -------------------------------------------------------


class RatFunc:
    """Reduced fraction of two Polys; the universal scalar of the engine.

    RatFunc(num, den) reduces num/den to the canonical form; both are
    polynomials over Z, so every RatFunc holds only integer coefficients.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly = _P_ONE, _canonical: bool = False):
        if not _canonical:
            num, den = _reduce(num, den)
        self.num, self.den = num, den
        self._hash = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(value) -> "RatFunc":
        c = Fraction(value)
        if c == 0:
            return RF_ZERO
        return RatFunc(Poly({_ONE_MONO: c.numerator}),
                       Poly({_ONE_MONO: c.denominator}), _canonical=True)

    @staticmethod
    def var(name: str) -> "RatFunc":
        return RatFunc(Poly.var(name), _P_ONE, _canonical=True)

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num.terms

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def variables(self) -> set:
        return self.num.variables() | self.den.variables()

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if not self.num.terms:
            return other
        if not other.num.terms:
            return self
        a, b = _const_parts(self), _const_parts(other)
        if a and b:
            return _const(a[0] * b[1] + b[0] * a[1], a[1] * b[1])
        if self.den.terms == other.den.terms:
            num, den = self.num + other.num, self.den
        else:
            num = self.num * other.den + other.num * self.den
            den = self.den * other.den
        if self.den.is_constant() or other.den.is_constant():
            return _from_coprime(num, den)
        return RatFunc(num, den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        if not other.num.terms:
            return self
        a, b = _const_parts(self), _const_parts(other)
        if a and b:
            return _const(a[0] * b[1] - b[0] * a[1], a[1] * b[1])
        if self.den.terms == other.den.terms:
            num, den = self.num - other.num, self.den
        else:
            num = self.num * other.den - other.num * self.den
            den = self.den * other.den
        if self.den.is_constant() or other.den.is_constant():
            return _from_coprime(num, den)
        return RatFunc(num, den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _canonical=True)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if not self.num.terms or not other.num.terms:
            return RF_ZERO
        a, b = _const_parts(self), _const_parts(other)
        if a and b:
            return _const(a[0] * b[0], a[1] * b[1])
        num, den = self.num * other.num, self.den * other.den
        if a or b:
            return _from_coprime(num, den)
        return RatFunc(num, den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        if not self.num.terms:
            return RF_ZERO
        a, b = _const_parts(self), _const_parts(other)
        if a and b:
            return _const(a[0] * b[1], a[1] * b[0])
        num, den = self.num * other.den, self.den * other.num
        if a or b:
            return _from_coprime(num, den)
        return RatFunc(num, den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatFunc)
                and self.num.terms == other.num.terms
                and self.den.terms == other.den.terms)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self, assignment: dict) -> Fraction:
        """The value at `assignment`: numerator and denominator are evaluated
        as int ratios and one Fraction is built from them."""
        return Fraction(*self._ratio(assignment))

    def _ratio(self, assignment: dict) -> tuple:
        """(n, d) ints, d != 0 of either sign, with n/d the value at
        `assignment`, unreduced; PoleAtPoint where the denominator vanishes,
        MissingParam where a name is not assigned.  No Fraction is built."""
        dn, dd = self.den._ratio(assignment)
        if not dn:
            raise PoleAtPoint(f"denominator {self.den} vanishes at "
                              f"{format_point(assignment)}")
        nn, nd = self.num._ratio(assignment)
        return nn * dd, nd * dn

    # -- rendering ------------------------------------------------------------------

    def __str__(self) -> str:
        if self.den == _P_ONE:
            return str(self.num)
        num_txt = str(self.num)
        if len(self.num.terms) > 1:
            num_txt = f"({num_txt})"
        den_txt = str(self.den)
        if not _simple_denominator(self.den):
            den_txt = f"({den_txt})"
        return f"{num_txt}/{den_txt}"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def format_point(assignment: dict) -> str:
    """A point as `a=3,b=-5/2` (the `solve --sample` syntax), sorted by name."""
    return ",".join(f"{name}={value}" for name, value in sorted(assignment.items()))


def _simple_denominator(p: Poly) -> bool:
    """True when the denominator renders unambiguously without parentheses."""
    if len(p.terms) != 1:
        return False
    mono, c = next(iter(p.terms.items()))
    if not mono:
        return c >= 0
    return c == 1 and len(mono) == 1


def _reduce(num: Poly, den: Poly) -> tuple:
    """Canonical (num, den) of num/den, both with integer coefficients."""
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    if num.is_zero():
        return (_P_ZERO, _P_ONE)
    if len(num.terms) == 1 or len(den.terms) == 1:
        g = _monomial_gcd(num, den)
    else:
        g = poly_gcd(num, den)
    if not g.is_constant():
        num = num.divexact(g)
        den = den.divexact(g)
    return _unit_normal(num, den)


def _unit_normal(num: Poly, den: Poly) -> tuple:
    """num/den over their joint integer content, with the leading coefficient
    of den positive; num nonzero."""
    c = math.gcd(*num.terms.values(), *den.terms.values())
    if den.leading()[1] < 0:
        c = -c
    if c == 1:
        return (num, den)
    return (Poly({m: v // c for m, v in num.terms.items()}),
            Poly({m: v // c for m, v in den.terms.items()}))


def _from_coprime(num: Poly, den: Poly) -> RatFunc:
    """What RatFunc(num, den) gives when gcd(num, den) over Q[params] is a
    constant: only the integer content and the sign of den's leading
    coefficient are fixed, with no polynomial gcd.

    For canonical operands (each numerator coprime to its denominator) that
    holds when
      * a sum or difference has a constant denominator beta on one side:
        gcd(a*d + beta*c, beta*d) = gcd(beta*c, d) = 1;
      * a product or a quotient has a constant operand: each numerator meets
        only its own denominator and nonzero constants, which are units of
        Q[params].
    """
    if not num.terms:
        return RF_ZERO
    return RatFunc(*_unit_normal(num, den), _canonical=True)


def _const_parts(x: RatFunc) -> tuple | None:
    """(numerator, denominator) ints of a nonzero constant, else None."""
    num, den = x.num.terms, x.den.terms
    if len(num) == 1 and len(den) == 1 and _ONE_MONO in num and _ONE_MONO in den:
        return (num[_ONE_MONO], den[_ONE_MONO])
    return None


def _const(n: int, d: int) -> RatFunc:
    """Canonical n/d of two ints, d nonzero: what RatFunc gives, without
    its polynomial gcd."""
    if not n:
        return RF_ZERO
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    if g != 1:
        n, d = n // g, d // g
    den = _P_ONE if d == 1 else Poly({_ONE_MONO: d})
    return RatFunc(Poly({_ONE_MONO: n}), den, _canonical=True)


RF_ZERO = RatFunc(_P_ZERO, _P_ONE, _canonical=True)
RF_ONE = RatFunc(_P_ONE, _P_ONE, _canonical=True)


def rf(value) -> RatFunc:
    """Coerce an int/Fraction/str/RatFunc to RatFunc."""
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, str):
        return parse_ratfunc(value)
    return RatFunc.const(value)


# -- parsing ---------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*/^()]))")


class ParseError(ValueError):
    """Malformed rational-function expression."""


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at {text[pos:]!r}")
            break
        num, name, op = m.groups()
        if num is not None:
            out.append(("num", int(num)))
        elif name is not None:
            out.append(("name", name))
        else:
            out.append(("op", "^" if op == "**" else op))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> RatFunc:
        value = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RatFunc:
        value = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.unary()
            if op == "/" and rhs.is_zero():
                raise ParseError("division by zero")
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self) -> RatFunc:
        if self.peek() == ("op", "-"):
            self.take()
            return -self.unary()
        if self.peek() == ("op", "+"):
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> RatFunc:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, value = self.take()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer")
            out = RF_ONE
            for _ in range(value):
                out = out * base
            return out
        return base

    def atom(self) -> RatFunc:
        kind, value = self.take()
        if kind == "num":
            return RatFunc.const(value)
        if kind == "name":
            return RatFunc.var(value)
        if (kind, value) == ("op", "("):
            inner = self.expr()
            if self.take() != ("op", ")"):
                raise ParseError("expected ')'")
            return inner
        raise ParseError(f"unexpected token {value!r}")


def parse_ratfunc(text: str) -> RatFunc:
    """Parse the canonical text grammar back into a RatFunc."""
    parser = _Parser(_tokenize(text))
    if not parser.tokens:
        raise ParseError("empty expression")
    value = parser.expr()
    if parser.pos != len(parser.tokens):
        raise ParseError(f"trailing tokens in {text!r}")
    return value


def linear_parts(x: RatFunc, unknowns: set) -> dict:
    """Coefficients of each unknown in an expression linear in `unknowns`.

    The constant part, if any, is returned under the key None; raises
    ValueError when an unknown occurs in the denominator or the expression is
    not linear in the unknowns.
    """
    bad = x.den.variables() & unknowns
    if bad:
        raise ValueError(f"{min(bad)} in a denominator")
    groups: dict = {}
    for mono, coeff in x.num.terms.items():
        hit = None
        rest = []
        for name, exp in mono:
            if name in unknowns:
                if hit is not None or exp != 1:
                    raise ValueError(f"term {Poly({mono: coeff})} is not linear")
                hit = name
            else:
                rest.append((name, exp))
        groups.setdefault(hit, {})[tuple(rest)] = coeff
    return {key: RatFunc(Poly(terms), x.den) for key, terms in groups.items()}
