"""Invariant metric connections, their curvature, and holonomy.

solve_connections returns the general solution of

    Lambda(ad(e) u) = [rho(e), Lambda(u)]        (equivariance)
    t(Lambda(u)) g + g Lambda(u) = 0             (values skew w.r.t. g)

over the rational-function field, solved as one system that holds no metric
parameter.  Each Lambda_s = Lambda(u_s) lies in so(g), so A_s = g Lambda_s
is skew; every metric of the family is invariant (t(rho) g + g rho = 0, so
g rho g^-1 = -t(rho)), and equivariance multiplied by g reads

    t(rho) A_s + A_s rho + sum_t rho[t][s] A_t = 0

(Kobayashi-Nomizu II, ch. X).  Its unknowns are the 24 upper entries of
A_1..A_4, and linalg.kernel_linear_in solves it: over the integers when
every isotropy matrix is constant, at a specialised point otherwise.  Each
kernel vector gives Lambda = g^-1 A, 64 entries L_s[i][j] numbered
16s + 4i + j.

The free parameters v1, v2, ... belong to the basis that one nullspace of
the whole 64-unknown system gives: free variables set to 1 in column order,
so each basis vector ends in a 1 at its own free column and is 0 at the
others.  The reduced echelon form of the Lambda vectors, columns reversed,
is that basis: it is unique for their span, and its rows, read back, are
the identity on the free columns.

solve_connections solves each distinct system once per process.  The
system reads only the values of the isotropy matrices and of g, never the
[m, m] brackets or the case name, so the memo key is those values as tuples
of canonical RatFuncs, which hash and compare by value (the 35 catalog
cases give 14 keys).  Only a returned family is stored.  Cases with equal
keys share one ConnectionFamily, so callers treat it as read-only; the one
field set after construction, the cached answer of
depends_on_connection_params, is a function of the family itself.

Every pair reaching this module is symmetric ([m, m] in h; eym.run_case
checks it first), so curvature has no L([u_i, u_j]_m) term.  Whether the
curvature of the family depends on its parameters is read off the basis
maps B^k that the kernel vectors give (depends_on_connection_params),
without building the curvature in v1..vd.  The canonical member (all
parameters zero) always belongs to the family, its curvature is that of the
Levi-Civita connection, and it is what the energy-momentum pipeline
evaluates when curvature turns out to depend on the connection parameters.
The canonical member's holonomy algebra is the span of its curvature
components, rho([m, m]), which Jacobi closes under brackets; holonomy and
expand_in_basis find it and its coefficients with linalg.rref.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .exact import RF_ZERO, RatFunc
from .linalg import FieldMatrix, kernel_linear_in, matrices_key, rref
from .liecat import LiePair, U_LABELS

if TYPE_CHECKING:
    from .geom import MetricFamily


class NonClosing(RuntimeError):
    """A curvature component lies outside the holonomy span (guards
    implementation bugs)."""


@dataclass
class ConnectionFamily:
    maps: list            # Lambda(u_1..u_4), entries linear in free_params
    free_params: list
    basis: list           # basis[k][s] = B^k(u_s); maps = sum_k v_k basis[k]
    _depends: bool | None = field(default=None, init=False, repr=False,
                                  compare=False)

    @property
    def dim(self) -> int:
        return len(self.free_params)


@dataclass
class CurvatureForm:
    components: dict      # (i, j) with i < j  ->  FieldMatrix
    holonomy_basis: list | None = None
    structure: dict | None = None   # (i, j) -> coefficients in holonomy_basis

    def component(self, i: int, j: int) -> FieldMatrix:
        if i == j:
            return FieldMatrix.zeros(4, 4)
        return self.components[(i, j)] if i < j else -self.components[(j, i)]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components.values())

    def variables(self) -> set:
        out: set = set()
        for c in self.components.values():
            for row in c.entries:
                for x in row:
                    out |= x.variables()
        return out


_PAIRS = [(p, q) for p in range(4) for q in range(p + 1, 4)]
_COLS = {pq: k for k, pq in enumerate(_PAIRS)}   # A_s[p][q] is 6*s + _COLS[p, q]


def _add_entry(row: dict, s: int, p: int, q: int, c) -> None:
    """Add c * A_s[p][q] to row, A_s skew."""
    if p == q:
        return
    col = 6 * s + (_COLS[p, q] if p < q else _COLS[q, p])
    c = c if p < q else -c
    x = row.get(col)
    row[col] = c if x is None else x + c


def _equivariance_rows(entries: list) -> list:
    """Rows of t(rho) A_s + A_s rho + sum_t rho[t][s] A_t, entry (s, p < q),
    as {unknown: coeff} over the 24 upper entries of the skew A_s.

    `entries` are the nonzero (i, j, rho[i][j]), ints or RatFuncs; rho[i][j]
    multiplies A_s[i][q] in entry (j, q), A_s[p][i] in entry (p, j) and
    A_i[p][q] in every entry of slot j.
    """
    rows = {(s, p, q): {} for s in range(4) for p, q in _PAIRS}
    for i, j, x in entries:
        for s in range(4):
            for q in range(j + 1, 4):
                _add_entry(rows[s, j, q], s, i, q, x)
            for p in range(j):
                _add_entry(rows[s, p, j], s, p, i, x)
        for p, q in _PAIRS:
            _add_entry(rows[j, p, q], i, p, q, x)
    return list(rows.values())


_FAMILIES: dict = {}    # (isotropy matrices, g) by value -> ConnectionFamily


def solve_connections(rhos: list, family: MetricFamily) -> ConnectionFamily:
    """General solution of equivariance + g-skewness, parameters v1..vd.

    `rhos` are the isotropy matrices (liecat.isotropy_rep) and `family` an
    invariant metric family for them.  Solved once per distinct (rho, g) in
    a process; the family returned is shared and read-only (module
    docstring).
    """
    key = (matrices_key(rhos), matrices_key([family.g]))
    conn = _FAMILIES.get(key)
    if conn is None:
        conn = _FAMILIES[key] = _solve_connections(rhos, family)
    return conn


def _solve_connections(rhos: list, family: MetricFamily) -> ConnectionFamily:
    vecs = []
    kernel = kernel_linear_in(rhos, _equivariance_rows, 24)
    if kernel:
        # det(g) g^-1 has polynomial entries and spans the same rows as g^-1
        adj = family.g_inverse().scale(family.det_g)
        for vec in kernel:
            a = [[[RF_ZERO] * 4 for _ in range(4)] for _ in range(4)]
            for col, c in vec.items():
                (p, q), s = _PAIRS[col % 6], col // 6
                a[s][p][q], a[s][q][p] = c, -c
            vecs.append([x for rows in a
                         for row in (adj * FieldMatrix(4, 4, rows)).entries
                         for x in row])
        # columns reversed, each echelon row ends in a 1 at its free column
        red, _ = rref(FieldMatrix(len(vecs), 64, [v[::-1] for v in vecs]))
        vecs = [row[::-1] for row in reversed(red.entries)]

    params = [f"v{k + 1}" for k in range(len(vecs))]
    acc = [[[RF_ZERO] * 4 for _ in range(4)] for _ in range(4)]
    basis = []
    for name, vec in zip(params, vecs):
        p = RatFunc.var(name)
        for col, c in enumerate(vec):
            if not c.is_zero():
                s, i, j = col // 16, col // 4 % 4, col % 4
                acc[s][i][j] = acc[s][i][j] + p * c
        basis.append([FieldMatrix(4, 4, [vec[16 * s + 4 * i:16 * s + 4 * i + 4]
                                         for i in range(4)]) for s in range(4)])
    maps = [FieldMatrix(4, 4, rows) for rows in acc]
    return ConnectionFamily(maps=maps, free_params=params, basis=basis)


def curvature(pair: LiePair, rhos: list, maps: list) -> CurvatureForm:
    """R(u_i, u_j) = [L_i, L_j] - rho([u_i,u_j]) on a symmetric pair, with
    `rhos` its isotropy matrices (liecat.isotropy_rep)."""
    components = {}
    for i in range(4):
        for j in range(i + 1, 4):
            op = maps[i].commutator(maps[j])
            for lbl, c in pair.bracket(U_LABELS[i], U_LABELS[j]).items():
                op = op - rhos[pair.e_labels.index(lbl)].scale(c)
            components[(i, j)] = op
    return CurvatureForm(components=components)


def depends_on_connection_params(conn: ConnectionFamily) -> bool:
    """Whether the curvature of the family depends on v1..vd.

    With L_s = sum_k v_k B_s^k, R_ij = sum_{k,l} v_k v_l [B_i^k, B_j^l] -
    rho([u_i, u_j]) is a quadratic form in v plus a constant, so it depends
    on v iff a coefficient of one of its monomials is nonzero: [B_i^k, B_j^k]
    for v_k^2, [B_i^k, B_j^l] + [B_i^l, B_j^k] for v_k v_l with k < l.  The
    answer is kept on the family, so each family is decided once.
    """
    if conn._depends is None:
        conn._depends = any(not m.is_zero()
                            for m in _quadratic_coefficients(conn.basis))
    return conn._depends


def _quadratic_coefficients(basis: list):
    """The coefficient matrices of the v-monomials in each R_ij, lazily."""
    n = len(basis)
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(n):
                yield basis[k][i].commutator(basis[k][j])
                for l in range(k + 1, n):
                    yield (basis[k][i].commutator(basis[l][j])
                           + basis[l][i].commutator(basis[k][j]))


def _vec(m: FieldMatrix) -> list:
    return [m.entries[i][j] for i in range(4) for j in range(4)]


def holonomy(form: CurvatureForm, isotropy_mats: list) -> list:
    """Basis of the holonomy algebra, the span of the curvature components.

    Precondition: `form` is R(u_i, u_j) = -rho([u_i, u_j]) on a symmetric
    pair.  Its span rho([m, m]) is then closed under brackets, as Jacobi
    gives [h, [m, m]] in [m, m] (Kobayashi-Nomizu II, ch. XI).  The basis
    lists the isotropy matrices in the span, in order, then completes from
    the span's reduced echelon rows.
    """
    gens = [_vec(c) for c in form.components.values() if not c.is_zero()]
    if not gens:
        return []
    red, pivots = rref(FieldMatrix(len(gens), 16, gens))
    rows = red.entries[:len(pivots)]

    def in_span(v: list) -> bool:
        # echelon rows rebuild each vector of their span from its pivot entries
        return all(x == sum((v[p] * row[c] for p, row in zip(pivots, rows)),
                            RF_ZERO) for c, x in enumerate(v))

    cands = [rho for rho in isotropy_mats
             if not rho.is_zero() and in_span(_vec(rho))]
    cands += [FieldMatrix(4, 4, [row[4 * i:4 * i + 4] for i in range(4)])
              for row in rows]
    # pivot columns pick the first independent candidates, left to right
    _, chosen = rref(FieldMatrix(16, len(cands),
                                 [list(r) for r in zip(*map(_vec, cands))]))
    return [cands[c] for c in chosen]


def expand_in_basis(form: CurvatureForm, basis: list) -> dict:
    """Coefficients R^alpha_{ij} of each component in the independent
    holonomy basis, read off one reduced echelon form of [basis | components]."""
    keys = list(form.components)
    cols = [_vec(b) for b in basis] + [_vec(form.components[k]) for k in keys]
    n = len(basis)
    red, pivots = rref(FieldMatrix(16, len(cols), [list(r) for r in zip(*cols)]))
    if pivots != list(range(n)):
        raise NonClosing("curvature component outside the holonomy span")
    return {key: [red.entries[k][n + t] for k in range(n)]
            for t, key in enumerate(keys)}
