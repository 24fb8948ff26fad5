"""linalg.kernel_linear_in decides a parameterised system at one specialised
point when that point leaves no solution, for both systems linear in the
isotropy matrices: metric invariance and connection equivariance.

Specialising the case parameters can only lower the rank where every entry
is defined, so an empty kernel at such a point means an empty kernel over
Q(params); otherwise the routine takes one nullspace of all rows stacked.
These tests check each route against that one nullspace, built here, and
count which solver ran.
"""

from __future__ import annotations

import random

import pytest

from eymsym import conn, geom, linalg
from eymsym.cli import main
from eymsym.conn import _equivariance_rows, _solve_connections
from eymsym.eym import run_case
from eymsym.exact import RF_ONE, RF_ZERO, PoleAtPoint, RatFunc, rf
from eymsym.geom import (MetricFamily, NoInvariantMetric, _UPPER,
                         _invariance_rows, solve_invariant_metric)
from eymsym.liecat import catalog_load, isotropy_rep
from eymsym.linalg import (FieldMatrix, integer_entries, kernel_linear_in,
                           nonzero_entries, nullspace)

from test_conn import _one_shot_family

LAM_CASES = ["1.1^3(1)", "1.1^4(1)", "3.2^2(2)"]
LAM = RatFunc.var("lam")
EQUIVARIANCE = (_equivariance_rows, 24)
INVARIANCE = (_invariance_rows, len(_UPPER))


def _stacked(mats, rows_of, cols) -> list:
    """One nullspace of the rows of every matrix stacked, as sparse vectors."""
    rows = [[row.get(c, RF_ZERO) for c in range(cols)]
            for m in mats for row in rows_of(nonzero_entries(m))]
    rows = [r for r in rows if any(not x.is_zero() for x in r)]
    if not rows:
        return [{c: RF_ONE} for c in range(cols)]
    return [{c: x for c, x in enumerate(vec) if not x.is_zero()}
            for vec in nullspace(FieldMatrix(len(rows), cols, rows))]


def _solve(monkeypatch, mats, rows_of, cols) -> tuple:
    """kernel_linear_in's kernel, and how often each solver ran."""
    calls = {"int_nullspace": 0, "nullspace": 0}
    with monkeypatch.context() as m:
        for name in calls:
            def counted(*args, _name=name, _f=getattr(linalg, name)):
                calls[_name] += 1
                return _f(*args)
            m.setattr(linalg, name, counted)
        kernel = kernel_linear_in(mats, rows_of, cols)
    return kernel, calls


def _same_family(family, rhos, g) -> bool:
    params, maps = _one_shot_family(rhos, g)
    return family.free_params == params and family.maps == maps


IDENTITY = MetricFamily(g=FieldMatrix.identity(4), free_params=[],
                        det_g=RF_ONE)


def _rotation(c, p: int = 0, q: int = 1) -> FieldMatrix:
    """c times the rotation generator of the (u_p+1, u_q+1) plane."""
    rows = [[rf(0)] * 4 for _ in range(4)]
    rows[p][q], rows[q][p] = c, -c
    return FieldMatrix(4, 4, rows)


def test_only_the_lam_cases_have_parameterised_isotropy(reports):
    assert sorted(cid for cid, r in reports.items()
                  if integer_entries(r.rhos) is None) == sorted(LAM_CASES)


@pytest.mark.parametrize("cid", LAM_CASES)
def test_shortcut_equals_one_nullspace_on_the_lam_cases(reports,
                                                        monkeypatch, cid):
    """Equivariance has no solution at lam = 1; the empty kernel is that of
    one nullspace of the stacked rows, and the family is that of one
    nullspace of the whole 64-unknown system."""
    r = reports[cid]
    kernel, calls = _solve(monkeypatch, r.rhos, *EQUIVARIANCE)
    assert kernel == [] and calls == {"int_nullspace": 1, "nullspace": 0}
    assert _stacked(r.rhos, *EQUIVARIANCE) == []
    assert r.conn.basis == [] and _same_family(r.conn, r.rhos, r.family.g)


@pytest.mark.parametrize("cid", LAM_CASES)
def test_lam_invariance_reaches_one_nullspace_of_the_stacked_rows(
        reports, monkeypatch, cid):
    """Invariant metrics exist at lam = 1, so the shortcut declines."""
    rhos = reports[cid].rhos
    kernel, calls = _solve(monkeypatch, rhos, *INVARIANCE)
    assert kernel and calls == {"int_nullspace": 1, "nullspace": 1}
    assert kernel == _stacked(rhos, *INVARIANCE)


def test_nonempty_specialised_kernel_reaches_one_nullspace(monkeypatch):
    """lam times a plane rotation has solutions at every lam != 0, in both
    systems: the shortcut declines, and the kernel is the one-shot one."""
    rhos = [_rotation(LAM)]
    for rows_of, cols in (EQUIVARIANCE, INVARIANCE):
        kernel, calls = _solve(monkeypatch, rhos, rows_of, cols)
        assert kernel and calls == {"int_nullspace": 1, "nullspace": 1}
        assert kernel == _stacked(rhos, rows_of, cols)
    family = _solve_connections(rhos, IDENTITY)
    assert family.dim > 0 and _same_family(family, rhos, IDENTITY.g)


def test_a_pole_at_the_first_point_is_skipped(reports, monkeypatch):
    """With one rho scaled by 1/(lam - 1), lam = 1 is a pole; lam = 2 decides,
    for an empty kernel (a lam case) and a nonempty one (a rotation)."""
    r = reports["1.1^3(1)"]
    pole = RatFunc.const(1) / (LAM - rf(1))
    rhos = [r.rhos[0].scale(pole)] + r.rhos[1:]
    with pytest.raises(PoleAtPoint):
        rhos[0].subs({"lam": 1})
    kernel, calls = _solve(monkeypatch, rhos, *EQUIVARIANCE)
    assert kernel == [] and calls == {"int_nullspace": 1, "nullspace": 0}
    assert _stacked(rhos, *EQUIVARIANCE) == []
    assert _solve_connections(rhos, r.family).free_params == []

    for mats, (rows_of, cols) in (([_rotation(LAM * pole)], EQUIVARIANCE),
                                  ([_rotation(LAM * pole)], INVARIANCE),
                                  (rhos, INVARIANCE)):
        kernel, calls = _solve(monkeypatch, mats, rows_of, cols)
        assert kernel and calls == {"int_nullspace": 1, "nullspace": 1}
        assert kernel == _stacked(mats, rows_of, cols)


def test_no_pole_free_point_falls_back_to_one_nullspace(monkeypatch):
    """An entry 1/(lam - mu) has a pole wherever lam = mu, so every point
    tried is skipped, and one nullspace of the rows of both rotations
    decides."""
    mu = RatFunc.var("mu")
    rhos = [_rotation(RatFunc.const(1) / (LAM - mu)), _rotation(rf(1), 1, 2)]
    for rows_of, cols in (EQUIVARIANCE, INVARIANCE):
        kernel, calls = _solve(monkeypatch, rhos, rows_of, cols)
        assert kernel and calls == {"int_nullspace": 0, "nullspace": 1}
        assert kernel == _stacked(rhos, rows_of, cols)
    assert _same_family(_solve_connections(rhos, IDENTITY), rhos, IDENTITY.g)


def test_metric_solve_takes_the_shortcut(monkeypatch, tmp_path, capsys):
    """[e1, u_i] = i*lam*u_i gives rho = lam*diag(1, 2, 3, 4): row (i, j) of
    the invariance system is (i + j)*lam*G_ij, so no form is invariant, and
    the integer solve at lam = 1 says so."""
    path = tmp_path / "catalog.txt"
    path.write_text('case "x(lam)" dim_h 1\nparam lam range ">0"\n' + "".join(
        f"bracket e1 u{i} = {i}*lam*u{i}\n" for i in range(1, 5)))
    pair = catalog_load(str(path)).get("x(lam)").pair
    rhos = isotropy_rep(pair)
    kernel, calls = _solve(monkeypatch, rhos, *INVARIANCE)
    assert kernel == [] and calls == {"int_nullspace": 1, "nullspace": 0}
    assert _stacked(rhos, *INVARIANCE) == []
    with pytest.raises(NoInvariantMetric, match=r"^x\(lam\): "):
        solve_invariant_metric(pair, rhos)
    code = main(["--catalog", str(path), "report", "x(lam)"])
    out, err = capsys.readouterr()
    assert (code, out) == (5, "")
    assert err == ("error: case cannot be analysed: x(lam): only the zero "
                   "bilinear form is invariant\n")


def _random_matrix(rng) -> FieldMatrix:
    return FieldMatrix.from_rows([[rng.choice((0, 0, 0, 1, -1, 2))
                                   for _ in range(4)] for _ in range(4)])


@pytest.mark.parametrize("seed", range(6))
def test_random_systems_equal_one_nullspace_of_the_stacked_rows(seed):
    """Small seeded constant matrices, then the same with some scaled by lam,
    which leaves the kernel over Q(lam) unchanged, in both systems."""
    rng = random.Random(seed)
    for rows_of, cols in (EQUIVARIANCE, INVARIANCE):
        consts = [_random_matrix(rng) for _ in range(rng.randint(1, 3))]
        scaled = [m.scale(LAM) if k == 0 or rng.random() < 0.5 else m
                  for k, m in enumerate(consts)]
        expected = _stacked(consts, rows_of, cols)
        assert kernel_linear_in(consts, rows_of, cols) == expected, seed
        assert kernel_linear_in(scaled, rows_of, cols) == expected, seed


def test_a_fresh_pass_reaches_nullspace_only_for_the_lam_metrics(
        catalog, monkeypatch):
    """Over the 35 cases with empty memos, linalg.nullspace runs three times:
    the invariance systems (10 unknowns) of the three lam cases.  No
    connection solve reaches it."""
    monkeypatch.setattr(conn, "_FAMILIES", {})
    monkeypatch.setattr(geom, "_FAMILIES", {})
    widths = []

    def counted(m, _f=linalg.nullspace):
        widths.append(m.cols)
        return _f(m)

    monkeypatch.setattr(linalg, "nullspace", counted)
    for entry in catalog.entries:
        run_case(entry)
    assert widths == [len(_UPPER)] * 3
