"""Constructors and checks that only the tests use."""

from __future__ import annotations

from eymsym.conn import CurvatureForm, curvature
from eymsym.crosscheck import _inverse_scaled, _scaled, _unscaled
from eymsym.exact import RF_ONE, RF_ZERO, rf
from eymsym.linalg import FieldMatrix


def from_rows(rows) -> FieldMatrix:
    """A FieldMatrix from nested rows of ints, Fractions or RatFuncs."""
    data = [[rf(x) for x in row] for row in rows]
    return FieldMatrix(len(data), len(data[0]), data)


def identity(n: int) -> FieldMatrix:
    return FieldMatrix(n, n, [[RF_ONE if i == j else RF_ZERO for j in range(n)]
                              for i in range(n)])


def residual_is_zero(residual: dict) -> bool:
    """Whether every component of eym.second_eym_residual vanishes."""
    return all(m.is_zero() for m in residual.values())


def inverse_fractions(mat: list) -> list | None:
    """The inverse of a dense Fraction matrix through the numeric
    cross-check's integer elimination, or None when it is singular."""
    inv = _inverse_scaled(*_scaled(mat))
    return None if inv is None else _unscaled(*inv)


def member_curvature(pair, rhos: list, maps: list) -> CurvatureForm:
    """R(u_i, u_j) = [L_i, L_j] - rho([u_i, u_j]) of the connection with maps
    L_i = maps[i] on a symmetric pair: the canonical curvature plus the
    commutators of the maps."""
    canonical = curvature(pair, rhos).components
    return CurvatureForm(components={
        (i, j): maps[i].commutator(maps[j]) + r
        for (i, j), r in canonical.items()})
