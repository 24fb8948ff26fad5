"""Invariant metrics, Lorentz signature checks, and Levi-Civita curvature.

The invariant-metric equations for a pair are rho.g = 0, that is
t(rho) G + G rho = 0, for each isotropy matrix rho.  This module declares
only the index symmetry of g, a symmetric linalg.TensorLayout of rank 2 with
unknowns G_ij (i <= j) in _UPPER order; linalg.kernel_linear_in builds the
rows and solves them exactly, and the kernel vectors are read back into G
through the same layout.  When the catalog records the family in its
conventional parameter letters, that parameterization is verified to span
the same solution space and is then used for all downstream output, so the
engine's formulas come out in the familiar letters (a, b, c, d).

The solve reads the isotropy matrices, the shape, the Lorentz condition it
carries and the case-parameter names (all of them without a shape, where
the default letters skip them; those in the shape otherwise, where they are
not metric parameters), never the [m, m] brackets, which is what lets
eym.run_case share one MetricFamily, its det_g and its lazily computed
inverse among cases with equal inputs.  A family whose det g vanishes
identically is refused here (SingularMetric), so every family returned has
an inverse.

Curvature conventions, pinned once and checked by the golden tests.  The
pair is symmetric ([m, m] in h), so the Levi-Civita connection is the
canonical member and its curvature is conn.curvature:
  R(X, Y) = -ad([X,Y])   restricted to m
  ricci(X, Y) = trace(Z -> R(Z, X) Y)
  scalar = g^{ij} ricci_{ij}
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .conn import CurvatureForm, curvature
from .exact import RF_ZERO, RatFunc, linear_parts
from .linalg import (FieldMatrix, TensorLayout, contract, det, inverse,
                     kernel_linear_in, rref)
from .liecat import LiePair, parse_condition


class NoInvariantMetric(ValueError):
    """Only the zero bilinear form is invariant."""


class SingularMetric(ValueError):
    """det g vanishes identically on the family."""


class BadMetricShape(ValueError):
    """A supplied metric shape is not the general invariant solution."""


class SignatureVerdict(Enum):
    LORENTZIAN = "lorentzian"
    RIEMANNIAN = "riemannian"
    NEUTRAL = "neutral"
    DEGENERATE = "degenerate"


class MetricFamily:
    def __init__(self, g: FieldMatrix, free_params: list, det_g: RatFunc,
                 lorentz: str | None = None):
        self.g = g
        self.free_params = free_params
        self.det_g = det_g
        self.lorentz = lorentz
        self._g_inv: FieldMatrix | None = None

    def g_inverse(self) -> FieldMatrix:
        """Inverse of g, computed on the first call and kept."""
        if self.det_g.is_zero():
            raise SingularMetric("metric family is identically degenerate")
        if self._g_inv is None:
            self._g_inv = inverse(self.g)
        return self._g_inv


class CurvatureReport:
    def __init__(self, form: CurvatureForm, ricci: FieldMatrix,
                 scalar: RatFunc):
        self.form = form    # R(u_i, u_j), i < j
        self.ricci = ricci
        self.scalar = scalar


_METRIC = TensorLayout(rank=2, sign=1)
_UPPER = _METRIC.keys


def solve_invariant_metric(pair: LiePair, rhos: list,
                           shape: FieldMatrix | None = None,
                           lorentz: str | None = None) -> MetricFamily:
    """General invariant symmetric bilinear form on the complement, with
    `rhos` the isotropy matrices of the pair (liecat.isotropy_rep).

    When `shape` is given (the family written in its conventional letters) it
    is verified against the computed solution space and then adopted, so
    parameter names match the published tables.  Without a shape, free
    parameters are named a, b, c, ... in unknown order.
    """
    case_params = {p.name for p in pair.params}
    kernel = kernel_linear_in(rhos, _METRIC)
    if not kernel:
        raise NoInvariantMetric(
            f"{pair.case_id}: only the zero bilinear form is invariant")

    if shape is not None:
        params = _verify_shape(pair, shape, kernel, case_params)
        g = shape
    else:
        letters = [c for c in "abcdefghij" if c not in case_params]
        params = letters[:len(kernel)]
        acc = {}
        for name, vec in zip(params, kernel):
            p = RatFunc.var(name)
            for col, x in vec.items():
                acc[col] = acc[col] + p * x if col in acc else p * x
        g = FieldMatrix(4, 4, _METRIC.unpack(acc))
    det_g = det(g)
    if det_g.is_zero():
        raise SingularMetric(
            f"{pair.case_id}: det g vanishes identically on the metric family")
    return MetricFamily(g=g, free_params=list(params), det_g=det_g,
                        lorentz=lorentz)


def _verify_shape(pair: LiePair, shape: FieldMatrix, kernel: list,
                  case_params: set) -> list:
    if not shape.is_symmetric():
        raise BadMetricShape(f"{pair.case_id}: shape is not symmetric")
    params = sorted(v for m in shape.entries for x in m for v in x.variables()
                    if v not in case_params)
    params = sorted(set(params))
    # the shape must be linear in its parameters with independent coefficients
    entries = []
    for i, j in _UPPER:
        try:
            parts = linear_parts(shape.entries[i][j], set(params))
        except ValueError as exc:
            raise BadMetricShape(f"{pair.case_id}: {exc}") from exc
        if None in parts:
            raise BadMetricShape(f"{pair.case_id}: shape has a constant part")
        entries.append(parts)
    coeffs = [[e.get(p, RF_ZERO) for e in entries] for p in params]
    # one reduced echelon form of the columns [coefficient rows | kernel]
    cols = coeffs + [[vec.get(c, RF_ZERO) for c in range(_METRIC.cols)]
                     for vec in kernel]
    _, pivots = rref(FieldMatrix(len(cols), len(_UPPER), cols).transpose())
    # invariant iff every coefficient row lies in the solution space, which
    # the independent kernel vectors span
    if len(pivots) != len(kernel):
        raise BadMetricShape(f"{pair.case_id}: shape is not invariant")
    if len(params) != len(kernel):
        raise BadMetricShape(
            f"{pair.case_id}: shape has {len(params)} parameters, "
            f"solution space has dimension {len(kernel)}")
    # the coefficient rows are independent iff each is a pivot column
    if pivots[:len(params)] != list(range(len(params))):
        raise BadMetricShape(f"{pair.case_id}: shape parameters are dependent")
    return params


# -- signature ---------------------------------------------------------------------


def _scaled_at(g: FieldMatrix, sample: dict) -> tuple:
    """(B, d): the int rows of B = d * g(sample), d > 0 the lcm of the
    unreduced entry denominators (of either sign; each divides d).  Only the
    nonzero entries are read, each as an int ratio (RatFunc._ratio, what
    RatFunc.evaluate reads), so no Fraction is built; PoleAtPoint and
    MissingParam as from evaluate."""
    ratios = [(i, j, x._ratio(sample)) for i, row in enumerate(g.entries)
              for j, x in enumerate(row) if x.num.terms]
    d = math.lcm(*(q for _, _, (_, q) in ratios))
    b = [[0] * g.cols for _ in range(g.rows)]
    for i, j, (n, q) in ratios:
        b[i][j] = n * (d // q)
    return b, d


def _charpoly_coefficients(g: FieldMatrix, sample: dict) -> list:
    """Fraction coefficients of det(x - g(sample)), constant term first.

    Faddeev-LeVerrier over the integers.  With B = d * g(sample) from
    _scaled_at, the characteristic polynomial sum_k c_k x^k of B has integer
    coefficients; the recurrence M_k = B M_(k-1) + c_(n-k+1) I,
    c_(n-k) = -tr(B M_k) / k then stays in the integers and each division by
    k is exact.  As det(x - B/d) = det(d x - B) / d^n, the coefficient of x^k
    of g(sample) is c_k / d^(n-k).
    """
    rows, d = _scaled_at(g, sample)
    n = len(rows)
    # the nonzero entries of each row of B, as (column, int value)
    b = [[(p, x) for p, x in enumerate(row) if x] for row in rows]
    coeffs = [0] * n + [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        c = coeffs[n - k + 1]
        new = []
        for i, row in enumerate(b):
            acc = [0] * n
            for p, x in row:
                for j, y in enumerate(m[p]):
                    if y:
                        acc[j] += x * y
            acc[i] += c
            new.append(acc)
        m = new
        trace = sum(x * m[p][i] for i, row in enumerate(b) for p, x in row)
        coeffs[n - k] = -(trace // k)
    return [Fraction(c, d ** (n - k)) for k, c in enumerate(coeffs)]


def signature_at(g: FieldMatrix, sample: dict) -> tuple:
    """Exact (n_plus, n_minus, n_zero) of the symmetric matrix at a sample.

    Uses Descartes' rule on the characteristic polynomial; exact because a
    real symmetric matrix has only real eigenvalues.
    """
    # only signs matter, and a Fraction has the sign of its numerator
    coeffs = [c.numerator for c in _charpoly_coefficients(g, sample)]
    n_zero = 0
    for c in coeffs:
        if c == 0:
            n_zero += 1
        else:
            break
    nonzero = [c for c in coeffs if c != 0]
    n_pos = sum(1 for p, q in zip(nonzero, nonzero[1:]) if (p < 0) != (q < 0))
    # p(-x): flip signs of odd-degree coefficients
    flipped = [(-c if deg % 2 else c) for deg, c in enumerate(coeffs) if c != 0]
    n_neg = sum(1 for p, q in zip(flipped, flipped[1:]) if (p < 0) != (q < 0))
    return (n_pos, n_neg, n_zero)


def lorentz_check(family: MetricFamily, sample: dict) -> SignatureVerdict:
    """Signature class of the 4x4 metric at a sample, from the sign of its
    determinant: one fraction-free (Bareiss) elimination of B = d * g(sample)
    over ints, whose pivots are the leading principal minors of B until a
    zero pivot forces a row swap.  B is read off g's nonzero entries as int
    ratios (_scaled_at); no Fraction is built.

    det B < 0 (one or three negative eigenvalues) is Lorentzian and det B = 0
    degenerate.  For det B > 0, B is definite, so Riemannian, exactly when
    its leading minors are all positive or alternate in sign starting
    negative (Sylvester's criterion); otherwise it is neutral.  signature_at
    is the reference this is tested against.
    """
    b, _ = _scaled_at(family.g, sample)
    n = len(b)
    minors = []     # the leading minors; None once a row swap was needed
    sign = prev = 1
    for k in range(n):
        if not b[k][k]:
            swap = next((i for i in range(k + 1, n) if b[i][k]), None)
            if swap is None:
                return SignatureVerdict.DEGENERATE
            b[k], b[swap] = b[swap], b[k]
            sign, minors = -sign, None
        if minors is not None:
            minors.append(b[k][k])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                b[i][j] = (b[k][k] * b[i][j] - b[i][k] * b[k][j]) // prev
        prev = b[k][k]
    if sign * prev < 0:
        return SignatureVerdict.LORENTZIAN
    if minors and (all(m > 0 for m in minors)
                   or all((m < 0) == (k % 2 == 0)
                          for k, m in enumerate(minors))):
        return SignatureVerdict.RIEMANNIAN
    return SignatureVerdict.NEUTRAL


_CONDITIONS: dict = {}  # condition text -> parse_condition(text)


def lorentz_condition_holds(condition: str, sample: dict) -> bool:
    """Evaluate a recorded condition like 'b*d > c^2' at a rational sample.
    Each distinct text is parsed once per process."""
    parsed = _CONDITIONS.get(condition)
    if parsed is None:
        parsed = _CONDITIONS[condition] = parse_condition(condition)
    lhs, op, rhs = parsed
    lhs, rhs = lhs.evaluate(sample), rhs.evaluate(sample)
    if op == "!=":
        return lhs != rhs
    return lhs < rhs if op == "<" else lhs > rhs


# -- Levi-Civita curvature --------------------------------------------------------------


def levi_civita(pair: LiePair, rhos: list,
                family: MetricFamily) -> CurvatureReport:
    """Curvature, Ricci and scalar of the Levi-Civita connection; `rhos`
    are the isotropy matrices of the pair (liecat.isotropy_rep)."""
    form = curvature(pair, rhos)
    ricci_rows = []
    for i in range(4):
        row = []
        for j in range(4):
            s = RF_ZERO
            # R(u_k, u_i) = -R(u_i, u_k): read one entry, negate no matrix
            for k in range(i):
                s = s + form.components[(k, i)].entries[k][j]
            for k in range(i + 1, 4):
                s = s - form.components[(i, k)].entries[k][j]
            row.append(s)
        ricci_rows.append(row)
    ricci = FieldMatrix(4, 4, ricci_rows)
    return CurvatureReport(form=form, ricci=ricci,
                           scalar=contract(family.g_inverse(), ricci))
