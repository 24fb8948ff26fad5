"""Exact linear algebra over the rational-function field, and over Z.

Everything here is deterministic: pivoting always takes the first row with a
nonzero entry in column order (arithmetic is exact, so there is no numerical
reason to prefer large pivots), and nullspace bases set free variables to one
in column order.  Matrices in this engine stay small (at most 64 columns), so
FieldMatrix stores them dense; elimination walks only the nonzero entries of
the pivot row.  det is a cofactor expansion over the nonzero entries, with
products and sums only: at most n! terms, and on the sparse 4 x 4 metrics
it measured cheaper than Bareiss elimination, which divides.  inverse is
one rref of [m | I].

Both systems linear in the isotropy matrices, metric invariance and
connection equivariance, are rho.T = 0 for a covariant tensor T on m; a
TensorLayout builds their rows from the index symmetry of T.
kernel_linear_in returns the nullspace() basis of those rows over a list of
matrices, by one of two solves.  When every entry is constant (all catalog
cases but the three whose isotropy carries `lam`), each matrix's values are
scaled to integers and all rows are solved by int_nullspace: sparse
{col: int} rows, Gauss-Jordan over Z with each row divided by its content,
and Fractions only where the basis is read off.  Its rows are kept fully
reduced (zero at every pivot column but their own) and each starts at its
own pivot, so they are the rows of the reduced echelon form up to scaling.
That form is unique for the row space, so the pivot columns, and the basis
that is the identity on the other columns, are exactly those of nullspace().
Otherwise the rows of all matrices are stacked and solved by one nullspace()
over RatFunc.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import mul

from .exact import RF_ONE, RF_ZERO, RatFunc, rf


class NonSquare(ValueError):
    """Operation requires a square matrix."""


class Singular(ValueError):
    """Matrix is singular as a matrix over the rational-function field."""


class FieldMatrix:
    """Row-major dense matrix with RatFunc entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: list):
        if rows < 1 or cols < 1 or len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("inconsistent matrix dimensions")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "FieldMatrix":
        return cls(rows, cols, [[RF_ZERO] * cols for _ in range(rows)])

    # -- structure ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows) for j in range(i + 1, self.cols))

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    # -- arithmetic ------------------------------------------------------------------

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        return FieldMatrix(self.rows, self.cols, [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        return FieldMatrix(self.rows, self.cols, [
            [a - b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self) -> "FieldMatrix":
        return FieldMatrix(self.rows, self.cols,
                           [[-a for a in r] for r in self.entries])

    def __mul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return FieldMatrix(self.rows, other.cols, [
            [sum(map(mul, row, col), RF_ZERO) for col in zip(*other.entries)]
            for row in self.entries])

    def scale(self, c: RatFunc) -> "FieldMatrix":
        c = rf(c)
        return FieldMatrix(self.rows, self.cols,
                           [[c * a for a in r] for r in self.entries])

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.cols, self.rows,
                           [[self.entries[i][j] for i in range(self.rows)]
                            for j in range(self.cols)])

    def commutator(self, other: "FieldMatrix") -> "FieldMatrix":
        return self * other - other * self

    def render(self) -> str:
        """Aligned text grid."""
        cells = [[str(a) for a in r] for r in self.entries]
        widths = [max(len(cells[i][j]) for i in range(self.rows))
                  for j in range(self.cols)]
        lines = []
        for r in cells:
            lines.append("[ " + "  ".join(c.rjust(w) for c, w in zip(r, widths)) + " ]")
        return "\n".join(lines)

    def __repr__(self):
        return f"FieldMatrix({self.rows}x{self.cols})"


def matrices_key(mats: list) -> tuple:
    """The entries of `mats` as nested tuples of canonical RatFuncs, which
    hash and compare by value: a dictionary key for the matrices' values."""
    return tuple(tuple(map(tuple, m.entries)) for m in mats)


def contract(a: FieldMatrix, b: FieldMatrix) -> RatFunc:
    """sum_ij a_ij b_ij, e.g. the trace g^ij T_ij with a = g^-1, b = T."""
    s = RF_ZERO
    for a_row, b_row in zip(a.entries, b.entries):
        for x, y in zip(a_row, b_row):
            if not x.is_zero() and not y.is_zero():
                s = s + x * y
    return s


def _nonzero_tail(row: list, c: int) -> list:
    """(j, row[j]) for the nonzero entries right of column c."""
    return [(j, row[j]) for j in range(c + 1, len(row)) if not row[j].is_zero()]


def rref(m: FieldMatrix) -> tuple:
    """Reduced row echelon form and the list of pivot columns.

    Forward pass eliminates below each pivot without normalizing, then a
    backward pass divides through and clears above, so all divisions happen
    against settled pivots.
    """
    a = [list(r) for r in m.entries]
    rows, cols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if not a[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
        piv = a[r][c]
        rest = _nonzero_tail(a[r], c)
        for i in range(r + 1, rows):
            x = a[i][c]
            if x.is_zero():
                continue
            f = x / piv
            a[i][c] = RF_ZERO
            for j, y in rest:
                a[i][j] = a[i][j] - f * y
        pivots.append(c)
        r += 1
        if r == rows:
            break
    # backward pass: normalize pivots to 1 and clear above
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        piv = a[k][c]
        if piv != RF_ONE:
            a[k] = [x if x.is_zero() else x / piv for x in a[k]]
        rest = _nonzero_tail(a[k], c)
        for i in range(k):
            x = a[i][c]
            if x.is_zero():
                continue
            a[i][c] = RF_ZERO
            for j, y in rest:
                a[i][j] = a[i][j] - x * y
    return FieldMatrix(rows, cols, a), pivots


def rank(m: FieldMatrix) -> int:
    return len(rref(m)[1])


def nullspace(m: FieldMatrix) -> list:
    """Basis of the right kernel; free variables set to 1 in column order."""
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [RF_ZERO] * m.cols
        v[fc] = RF_ONE
        for k, pc in enumerate(pivots):
            x = r.entries[k][fc]
            if not x.is_zero():
                v[pc] = -x
        basis.append(v)
    return basis


def det(m: FieldMatrix) -> RatFunc:
    """Exact determinant by cofactor expansion along the first row, each
    minor expanded along its own first row.  Zero entries and zero minors
    are skipped, and only products and sums of entries are formed: no
    RatFunc division, so polynomial entries reach no poly_gcd."""
    if m.rows != m.cols:
        raise NonSquare(f"determinant of {m.rows}x{m.cols} matrix")
    n, a = m.rows, m.entries

    def minor(cols: tuple) -> RatFunc:
        """det of the last len(cols) rows on the columns cols."""
        row, d = a[n - len(cols)], RF_ZERO
        if len(cols) == 1:
            return row[cols[0]]
        for k, c in enumerate(cols):
            if row[c].is_zero():
                continue
            sub = minor(cols[:k] + cols[k + 1:])
            if not sub.is_zero():
                d = d - row[c] * sub if k % 2 else d + row[c] * sub
        return d

    return minor(tuple(range(n)))


def inverse(m: FieldMatrix) -> FieldMatrix:
    """Exact inverse; raises Singular when det vanishes identically."""
    if m.rows != m.cols:
        raise NonSquare(f"inverse of {m.rows}x{m.cols} matrix")
    n = m.rows
    aug = FieldMatrix(n, 2 * n, [
        list(m.entries[i]) + [RF_ONE if i == j else RF_ZERO for j in range(n)]
        for i in range(n)])
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise Singular("matrix is singular over the rational-function field")
    return FieldMatrix(n, n, [row[n:] for row in red.entries])


# -- systems linear in a list of matrices -------------------------------------


def nonzero_entries(m: FieldMatrix) -> list:
    """The nonzero entries (i, j, m[i][j])."""
    return [(i, j, x) for i, row in enumerate(m.entries)
            for j, x in enumerate(row) if not x.is_zero()]


def _eliminate(r: dict, p: dict, c: int) -> dict:
    """r with column c cleared by the pivot row p, divided by its content."""
    a, b = p[c], r[c]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    out = {k: a * x for k, x in r.items()}
    for k, y in p.items():
        v = out.get(k, 0) - b * y
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    g = math.gcd(*out.values())
    if g > 1:
        out = {k: x // g for k, x in out.items()}
    return out


def int_nullspace(rows: list, cols: int) -> list:
    """nullspace() of the integer system with sparse rows {col: int}, as
    sparse vectors {col: int or Fraction} in column order."""
    piv: dict = {}      # pivot column -> its row, 0 at every other pivot column
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        # every pivot column the row touches, not only its leftmost one:
        # clearing one never refills another, as pivot rows are reduced
        for c in [c for c in r if c in piv]:
            r = _eliminate(r, piv[c], c)
        if not r:
            continue
        c = min(r)
        for pc, prow in piv.items():
            if c in prow:
                piv[pc] = _eliminate(prow, r, c)
        piv[c] = r
    basis = []
    for fc in range(cols):
        if fc in piv:
            continue
        vec = {pc: Fraction(-prow[fc], prow[pc])
               for pc, prow in sorted(piv.items()) if fc in prow}
        vec[fc] = 1
        basis.append(vec)
    return basis


class TensorLayout:
    """A covariant tensor T on m of the given rank, symmetric (sign 1) or
    skew (sign -1) in its last two indices, and the rows of rho.T = 0.

    keys are the canonical index tuples (last two ascending, strictly when
    skew), one unknown each, in lexicographic column order.  read[t] maps a
    full tuple to (column, sign), or to None where T(t) is forced to 0.
    With rho u_c = sum_k rho[k][c] u_k, row t of sum_p T(.., rho u_(t_p), ..)
    holds rho[i][j] T(t with t_p = i) for each slot p with t_p = j; _enters
    lists those (row, column, sign) per (i, j).
    """

    def __init__(self, rank: int, sign: int):
        full = list(product(range(4), repeat=rank))
        self.keys = [t for t in full if t[-2] < t[-1] or
                     (t[-2] == t[-1] and sign > 0)]
        self.cols = len(self.keys)
        col = {t: k for k, t in enumerate(self.keys)}
        self.read = {t: (col[t], 1) if t in col
                      else None if t[-2] == t[-1]
                      else (col[t[:-2] + (t[-1], t[-2])], sign) for t in full}
        self._enters = {(i, j): [] for i in range(4) for j in range(4)}
        for r, t in enumerate(self.keys):
            for p, j in enumerate(t):
                for i in range(4):
                    hit = self.read[t[:p] + (i,) + t[p + 1:]]
                    if hit is not None:
                        self._enters[i, j].append((r, *hit))

    def rows(self, entries: list) -> list:
        """The nonempty rows {column: coeff} of rho.T = 0, from the nonzero
        entries (i, j, rho[i][j]) of rho, ints or RatFuncs."""
        rows = [{} for _ in self.keys]
        for i, j, x in entries:
            for r, c, sign in self._enters[i, j]:
                row = rows[r]
                y = x if sign > 0 else -x
                row[c] = row[c] + y if c in row else y
        return [row for row in rows if row]

    def unpack(self, vec: dict) -> list:
        """T as nested lists of RatFuncs, indexed T[t_1][t_2]..., from the
        sparse vector {column: RatFunc}."""
        flat = []
        for hit in self.read.values():     # full tuples, lexicographic
            if hit is None or hit[0] not in vec:
                flat.append(RF_ZERO)
            else:
                flat.append(vec[hit[0]] if hit[1] > 0 else -vec[hit[0]])
        # the last index runs fastest: group by 4 until one list of 4 is left
        while len(flat) > 4:
            flat = [flat[k:k + 4] for k in range(0, len(flat), 4)]
        return flat


def kernel_linear_in(mats: list, layout: TensorLayout) -> list:
    """nullspace() basis of the rows of rho.T = 0 over `layout`, for every
    rho in `mats`, as sparse {col: RatFunc} vectors: one int_nullspace when
    every entry is constant, one nullspace() over RatFunc otherwise."""
    ents = [nonzero_entries(m) for m in mats]
    if all(x.is_constant() for es in ents for _, _, x in es):
        rows = []
        for es in ents:
            vs = [(i, j, x.evaluate({})) for i, j, x in es]
            # scaling a matrix leaves the kernel of rho.T = 0 unchanged
            d = math.lcm(*(x.denominator for _, _, x in vs))
            rows += layout.rows([(i, j, (x * d).numerator) for i, j, x in vs])
        return [{c: RatFunc.const(x) for c, x in vec.items()}
                for vec in int_nullspace(rows, layout.cols)]
    cols = layout.cols
    rows = [[row.get(c, RF_ZERO) for c in range(cols)]
            for es in ents for row in layout.rows(es)]
    rows = [r for r in rows if any(not x.is_zero() for x in r)]
    return [{c: x for c, x in enumerate(vec) if not x.is_zero()}
            for vec in nullspace(FieldMatrix(len(rows), cols, rows)
                                 if rows else FieldMatrix.zeros(1, cols))]
