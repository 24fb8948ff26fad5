"""Invariant metric connections, their curvature, and holonomy.

solve_connections returns the general solution of

    Lambda(ad(e) u) = [rho(e), Lambda(u)]        (equivariance)
    t(Lambda(u)) g + g Lambda(u) = 0             (values skew w.r.t. g)

over the rational-function field, solved as one system that holds no metric
parameter.  Each Lambda_s = Lambda(u_s) lies in so(g), so A_s = g Lambda_s
is skew; every metric of the family is invariant (t(rho) g + g rho = 0, so
g rho g^-1 = -t(rho)), and equivariance multiplied by g reads

    t(rho) A_s + A_s rho + sum_t rho[t][s] A_t = 0

(Kobayashi-Nomizu II, ch. X).  That is rho.A = 0 for the tensor
A(u_s; x, y) = g(Lambda(u_s) x, y) in m* (x) Lambda^2 m*, so this module
declares only its index symmetry, a linalg.TensorLayout skew in the last two
indices: 24 unknowns A_s[p][q] (p < q), numbered 6s + the index of (p, q)
among the six pairs.  linalg.kernel_linear_in builds the rows and solves
them.  Each kernel vector, read back into A_1..A_4 through the layout, gives
Lambda = g^-1 A, 64 entries L_s[i][j] numbered 16s + 4i + j.

The free parameters v1, v2, ... belong to the basis that one nullspace of
the whole 64-unknown system gives: free variables set to 1 in column order,
so each basis vector ends in a 1 at its own free column and is 0 at the
others.  The reduced echelon form of the Lambda vectors, columns reversed,
is that basis: it is unique for their span, and its rows, read back, are
the identity on the free columns.

The system reads only the isotropy matrices and g, never the [m, m]
brackets or the case name, so the eym solve memo shares one
ConnectionFamily among cases whose metric solves share theirs.  run_case
does not solve it: eym.CaseReport.conn does, when a report first reads it.

Every pair reaching this module is symmetric ([m, m] in h; eym.run_case
checks it first).  The canonical member (all parameters zero) always belongs
to the family, and it is the Levi-Civita connection, whose curvature
R(u_i, u_j) = -rho([u_i, u_j]) (Kobayashi-Nomizu II, ch. XI) is the only
one the pipeline builds (curvature).  Whether the curvature of the family
depends on its parameters is read off the basis maps B^k that the kernel
vectors give (depends_on_connection_params), without building the
curvature in v1..vd.  The canonical member's holonomy algebra is the span of
its curvature components, rho([m, m]), which Jacobi closes under brackets.
Its coefficients over e_1..e_n are the negated [u_i, u_j] brackets, so
holonomy reads the basis and the components' coefficients in it off one
linalg.rref of that 6 x dim_h array (expand_in_basis), never touching a
4 x 4 matrix but the basis itself; both are returned by value.  rho maps
the echelon rows to independent matrices as it is faithful: eym.run_case
refuses a pair on which part of h acts trivially (TrivialIsotropy).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .exact import RF_ZERO, RatFunc
from .linalg import FieldMatrix, TensorLayout, kernel_linear_in, rref
from .liecat import LiePair, U_LABELS, rho_of

if TYPE_CHECKING:
    from .geom import MetricFamily


class ConnectionFamily:
    def __init__(self, maps: list, free_params: list, basis: list):
        self.maps = maps    # Lambda(u_1..u_4), entries linear in free_params
        self.free_params = free_params
        self.basis = basis  # basis[k][s] = B^k(u_s); maps = sum_k v_k basis[k]

    @property
    def dim(self) -> int:
        return len(self.free_params)


class CurvatureForm:
    def __init__(self, components: dict):
        self.components = components  # (i, j) with i < j  ->  FieldMatrix

    def component(self, i: int, j: int) -> FieldMatrix:
        if i == j:
            return FieldMatrix.zeros(4, 4)
        return self.components[(i, j)] if i < j else -self.components[(j, i)]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components.values())


# A(u_s; x, y) = g(Lambda(u_s) x, y), skew in x, y (module docstring)
_CONNECTION = TensorLayout(rank=3, sign=-1)


def solve_connections(rhos: list, family: MetricFamily) -> ConnectionFamily:
    """General solution of equivariance + g-skewness, parameters v1..vd.

    `rhos` are the isotropy matrices (liecat.isotropy_rep) and `family` an
    invariant metric family for them.
    """
    vecs = []
    kernel = kernel_linear_in(rhos, _CONNECTION)
    if kernel:
        # Lambda_s = g^-1 A_s for each kernel vector A_1..A_4
        inv = family.g_inverse()
        vecs = [[x for rows in _CONNECTION.unpack(vec)
                 for row in (inv * FieldMatrix(4, 4, rows)).entries for x in row]
                for vec in kernel]
        # columns reversed, each echelon row ends in a 1 at its free column
        red, _ = rref(FieldMatrix(len(vecs), 64, [v[::-1] for v in vecs]))
        vecs = [row[::-1] for row in reversed(red.entries)]

    params = [f"v{k + 1}" for k in range(len(vecs))]
    flat = [RF_ZERO] * 64   # sum_k v_k vecs[k], over the nonzero entries only
    for name, vec in zip(params, vecs):
        p = RatFunc.var(name)
        for col, c in enumerate(vec):
            if not c.is_zero():
                flat[col] = flat[col] + p * c
    return ConnectionFamily(maps=_slots(flat), free_params=params,
                            basis=[_slots(vec) for vec in vecs])


def _slots(vec: list) -> list:
    """Lambda(u_1..u_4) from its 64 entries L_s[i][j], numbered 16s + 4i + j."""
    return [FieldMatrix(4, 4, [vec[16 * s + 4 * i:16 * s + 4 * i + 4]
                               for i in range(4)]) for s in range(4)]


def curvature(pair: LiePair, rhos: list) -> CurvatureForm:
    """R(u_i, u_j) = -rho([u_i, u_j]), the curvature of the canonical member
    on a symmetric pair, with `rhos` its isotropy matrices
    (liecat.isotropy_rep)."""
    return CurvatureForm(components={
        key: rho_of(pair, rhos, dict(zip(pair.e_labels, row)))
        for key, row in _curvature_coefficients(pair).items()})


def _curvature_coefficients(pair: LiePair) -> dict:
    """(i, j) -> the coefficients of -[u_i, u_j] over e_1..e_n, so that
    R(u_i, u_j) is rho of them (curvature)."""
    brackets = {(i, j): pair.bracket(U_LABELS[i], U_LABELS[j])
                for i in range(4) for j in range(i + 1, 4)}
    return {key: [-b[lbl] if lbl in b else RF_ZERO for lbl in pair.e_labels]
            for key, b in brackets.items()}


def depends_on_connection_params(conn: ConnectionFamily) -> bool:
    """Whether the curvature of the family depends on v1..vd.

    With L_s = sum_k v_k B_s^k, R_ij = sum_{k,l} v_k v_l [B_i^k, B_j^l] -
    rho([u_i, u_j]) is a quadratic form in v plus a constant, so it depends
    on v iff a coefficient of one of its monomials is nonzero: [B_i^k, B_j^k]
    for v_k^2, [B_i^k, B_j^l] + [B_i^l, B_j^k] for v_k v_l with k < l.
    """
    return any(not m.is_zero() for m in _quadratic_coefficients(conn.basis))


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


def holonomy(pair: LiePair, rhos: list) -> tuple:
    """(basis, structure): a basis of the holonomy algebra of the canonical
    member and each curvature component's coefficients in it, read off the
    [m, m] brackets, with `rhos` the isotropy matrices (liecat.isotropy_rep).

    On a symmetric pair the span rho([m, m]) is closed under brackets, as
    Jacobi gives [h, [m, m]] in [m, m] (Kobayashi-Nomizu II, ch. XI), and
    expand_in_basis reads the basis off the coefficients of the curvature
    over e_1..e_n (_curvature_coefficients).  A flat pair has the empty basis.
    """
    coeffs = _curvature_coefficients(pair)
    if all(c.is_zero() for row in coeffs.values() for c in row):
        return [], {key: [] for key in coeffs}
    return expand_in_basis(pair, rhos, coeffs)


def expand_in_basis(pair: LiePair, rhos: list, coeffs: dict) -> tuple:
    """(basis, structure) from one reduced echelon form of the nonzero rows
    of `coeffs` ((i, j) -> coefficients over e_1..e_n): each echelon row E
    gives the basis element rho(E), rhos[p] itself for a unit row, and as E
    is 1 at its own pivot p and 0 at the others, row (i, j) is the sum of
    coeffs[(i, j)][p] E over the pivots.  The basis is independent as rho is
    faithful, which run_case checks (TrivialIsotropy)."""
    rows = [row for row in coeffs.values() if any(not c.is_zero() for c in row)]
    red, pivots = rref(FieldMatrix(len(rows), pair.dim_h, rows))
    basis = [rhos[p] if all(c.is_zero() for c in row[p + 1:])
             else rho_of(pair, rhos, dict(zip(pair.e_labels, row)))
             for p, row in zip(pivots, red.entries)]
    return basis, {key: [row[p] for p in pivots]
                   for key, row in coeffs.items()}
