"""The connection solve decides a parameterised equivariance system at one
specialised point when that point leaves no solution.

Specialising the case parameters can only lower the rank where every entry
is defined, so an empty kernel at such a point means an empty kernel over
Q(params); otherwise the staged RatFunc solve runs as before.  These tests
check the shortcut against the staged solve (forced by switching the
shortcut off) and against one nullspace of the whole system.
"""

from __future__ import annotations

import pytest

from eymsym import conn
from eymsym.exact import PoleAtPoint, RatFunc, rf
from eymsym.linalg import FieldMatrix, integer_entries

from test_conn import _one_shot_family

LAM_CASES = ["1.1^3(1)", "1.1^4(1)", "3.2^2(2)"]
LAM = RatFunc.var("lam")


def _staged(monkeypatch, rhos, g):
    with monkeypatch.context() as m:
        m.setattr(conn, "_empty_when_specialised", lambda rhos: False)
        return conn._solve_connections(rhos, g)


def _same_family(a, b) -> bool:
    return (a.maps, a.free_params, a.basis) == (b.maps, b.free_params, b.basis)


def _rotation(c) -> FieldMatrix:
    """c times the rotation generator of the (u1, u2) plane."""
    z = rf(0)
    return FieldMatrix(4, 4, [[z, c, z, z], [-c, z, z, z],
                              [z, z, z, z], [z, z, z, z]])


def test_only_the_lam_cases_have_parameterised_isotropy(reports):
    assert sorted(cid for cid, r in reports.items()
                  if integer_entries(r.rhos) is None) == sorted(LAM_CASES)


@pytest.mark.parametrize("cid", LAM_CASES)
def test_shortcut_equals_the_staged_solve_on_the_lam_cases(reports,
                                                           monkeypatch, cid):
    r = reports[cid]
    assert conn._empty_when_specialised(r.rhos)
    fast = conn._solve_connections(r.rhos, r.family.g)
    assert fast.free_params == [] and fast.basis == []
    assert _same_family(fast, _staged(monkeypatch, r.rhos, r.family.g))
    assert _same_family(r.conn, fast)


def test_nonempty_specialised_kernel_reaches_the_staged_solve(monkeypatch):
    """lam times a plane rotation has solutions at every lam != 0: the
    shortcut declines, and the staged solve gives the one-shot basis."""
    rhos = [_rotation(LAM)]
    g = FieldMatrix.identity(4)
    assert not conn._empty_when_specialised(rhos)
    cuts = []
    original = conn._cut

    def counted(kernel, rows):
        cuts.append(rows)
        return original(kernel, rows)

    monkeypatch.setattr(conn, "_cut", counted)
    family = conn._solve_connections(rhos, g)
    assert len(cuts) == 2       # the rotation's rows, then g-skewness
    params, maps = _one_shot_family(rhos, g)
    assert family.free_params == params and family.dim > 0
    assert family.maps == maps


def test_a_pole_at_the_first_point_is_skipped(reports, monkeypatch):
    """With one rho scaled by 1/(lam - 1), lam = 1 is a pole; lam = 2 decides,
    for an empty kernel (a lam case) and a nonempty one (a rotation)."""
    r = reports["1.1^3(1)"]
    pole = RatFunc.const(1) / (LAM - rf(1))
    rhos = [r.rhos[0].scale(pole)] + r.rhos[1:]
    with pytest.raises(PoleAtPoint):
        rhos[0].subs({"lam": 1})
    assert conn._empty_when_specialised(rhos)
    fast = conn._solve_connections(rhos, r.family.g)
    assert fast.free_params == []
    assert _same_family(fast, _staged(monkeypatch, rhos, r.family.g))

    rotation = [_rotation(LAM * pole)]
    g = FieldMatrix.identity(4)
    assert not conn._empty_when_specialised(rotation)
    params, maps = _one_shot_family(rotation, g)
    family = conn._solve_connections(rotation, g)
    assert family.free_params == params and family.maps == maps


def test_no_pole_free_point_falls_back_to_the_staged_solve():
    """An entry 1/(lam - mu) has a pole wherever lam = mu, so every point
    tried is skipped, and the staged solve decides."""
    mu = RatFunc.var("mu")
    rhos = [_rotation(RatFunc.const(1) / (LAM - mu))]
    assert not conn._empty_when_specialised(rhos)
    g = FieldMatrix.identity(4)
    params, maps = _one_shot_family(rhos, g)
    family = conn._solve_connections(rhos, g)
    assert family.free_params == params and family.maps == maps
