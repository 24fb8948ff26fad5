"""linalg.kernel_linear_in has two routes, for both systems linear in the
isotropy matrices: metric invariance and connection equivariance.  A system
whose entries are all constant is solved by one int_nullspace; one whose
entries carry a parameter, such as the isotropy of the three `lam` cases,
by one nullspace of all its rows stacked, over RatFunc.

These tests check each kernel against that one nullspace, built here, and
count which solver ran.  Entries with a pole at some parameter value, such
as 1/(lam - 1) and 1/(lam - mu), take the same route as any other.
"""

from __future__ import annotations

import random

import pytest

from eymsym import eym, linalg
from eymsym.cli import main
from eymsym.conn import _CONNECTION, solve_connections
from eymsym.eym import run_case
from eymsym.exact import RF_ONE, RF_ZERO, PoleAtPoint, RatFunc, rf
from eymsym.geom import (MetricFamily, NoInvariantMetric, _METRIC,
                         solve_invariant_metric)
from eymsym.liecat import catalog_load, isotropy_rep
from eymsym.linalg import (FieldMatrix, kernel_linear_in, nonzero_entries,
                           nullspace)
from helpers import evaluate_matrix, from_rows, identity

from test_conn import _one_shot_family, is_parameterised

LAM_CASES = ["1.1^3(1)", "1.1^4(1)", "3.2^2(2)"]
LAM = RatFunc.var("lam")


def _stacked(mats, layout) -> list:
    """One nullspace of the rows of every matrix stacked, as sparse vectors."""
    cols = layout.cols
    rows = [[row.get(c, RF_ZERO) for c in range(cols)]
            for m in mats for row in layout.rows(nonzero_entries(m))]
    rows = [r for r in rows if any(not x.is_zero() for x in r)]
    if not rows:
        return [{c: RF_ONE} for c in range(cols)]
    return [{c: x for c, x in enumerate(vec) if not x.is_zero()}
            for vec in nullspace(FieldMatrix(len(rows), cols, rows))]


# solver calls of each route
ONE_NULLSPACE = {"int_nullspace": 0, "nullspace": 1}
ONE_INT_NULLSPACE = {"int_nullspace": 1, "nullspace": 0}


def _solve(monkeypatch, mats, layout) -> tuple:
    """kernel_linear_in's kernel, and how often each solver ran."""
    calls = {"int_nullspace": 0, "nullspace": 0}
    with monkeypatch.context() as m:
        for name in calls:
            def counted(*args, _name=name, _f=getattr(linalg, name)):
                calls[_name] += 1
                return _f(*args)
            m.setattr(linalg, name, counted)
        kernel = kernel_linear_in(mats, layout)
    return kernel, calls


def _same_family(family, rhos, g) -> bool:
    params, maps = _one_shot_family(rhos, g)
    return family.free_params == params and family.maps == maps


IDENTITY = MetricFamily(g=identity(4), free_params=[],
                        det_g=RF_ONE)


def _rotation(c, p: int = 0, q: int = 1) -> FieldMatrix:
    """c times the rotation generator of the (u_p+1, u_q+1) plane."""
    rows = [[rf(0)] * 4 for _ in range(4)]
    rows[p][q], rows[q][p] = c, -c
    return FieldMatrix(4, 4, rows)


def test_only_the_lam_cases_have_parameterised_isotropy(reports):
    assert sorted(cid for cid, r in reports.items()
                  if is_parameterised(r.rhos)) == sorted(LAM_CASES)


@pytest.mark.parametrize("cid", LAM_CASES)
def test_lam_equivariance_is_one_nullspace_of_the_stacked_rows(
        reports, monkeypatch, cid):
    """Equivariance has no solution over Q(lam): the empty kernel is that of
    one nullspace of the stacked rows, and the family is that of one
    nullspace of the whole 64-unknown system."""
    r = reports[cid]
    kernel, calls = _solve(monkeypatch, r.rhos, _CONNECTION)
    assert kernel == [] and calls == ONE_NULLSPACE
    assert _stacked(r.rhos, _CONNECTION) == []
    assert r.conn.basis == [] and _same_family(r.conn, r.rhos, r.family.g)


@pytest.mark.parametrize("cid", LAM_CASES)
def test_lam_invariance_reaches_one_nullspace_of_the_stacked_rows(
        reports, monkeypatch, cid):
    """Invariant metrics exist, found by the one nullspace alone."""
    rhos = reports[cid].rhos
    kernel, calls = _solve(monkeypatch, rhos, _METRIC)
    assert kernel and calls == ONE_NULLSPACE
    assert kernel == _stacked(rhos, _METRIC)


def test_a_lam_rotation_is_one_nullspace_in_both_systems(monkeypatch):
    """lam times a plane rotation has solutions in both systems, and the
    kernel is the one-shot one."""
    rhos = [_rotation(LAM)]
    for layout in (_CONNECTION, _METRIC):
        kernel, calls = _solve(monkeypatch, rhos, layout)
        assert kernel and calls == ONE_NULLSPACE
        assert kernel == _stacked(rhos, layout)
    family = solve_connections(rhos, IDENTITY)
    assert family.dim > 0 and _same_family(family, rhos, IDENTITY.g)


def test_a_pole_at_lam_1_reaches_one_nullspace(reports, monkeypatch):
    """With one rho scaled by 1/(lam - 1), lam = 1 is a pole; the one
    nullspace over Q(lam) decides, for an empty kernel (a lam case) and a
    nonempty one (a rotation)."""
    r = reports["1.1^3(1)"]
    pole = RatFunc.const(1) / (LAM - rf(1))
    rhos = [r.rhos[0].scale(pole)] + r.rhos[1:]
    with pytest.raises(PoleAtPoint):
        evaluate_matrix(rhos[0], {"lam": 1})
    kernel, calls = _solve(monkeypatch, rhos, _CONNECTION)
    assert kernel == [] and calls == ONE_NULLSPACE
    assert _stacked(rhos, _CONNECTION) == []
    assert solve_connections(rhos, r.family).free_params == []

    for mats, layout in (([_rotation(LAM * pole)], _CONNECTION),
                         ([_rotation(LAM * pole)], _METRIC),
                         (rhos, _METRIC)):
        kernel, calls = _solve(monkeypatch, mats, layout)
        assert kernel and calls == ONE_NULLSPACE
        assert kernel == _stacked(mats, layout)


def test_a_pole_on_a_line_reaches_one_nullspace(monkeypatch):
    """An entry 1/(lam - mu) has a pole wherever lam = mu; one nullspace of
    the rows of both rotations decides."""
    mu = RatFunc.var("mu")
    rhos = [_rotation(RatFunc.const(1) / (LAM - mu)), _rotation(rf(1), 1, 2)]
    for layout in (_CONNECTION, _METRIC):
        kernel, calls = _solve(monkeypatch, rhos, layout)
        assert kernel and calls == ONE_NULLSPACE
        assert kernel == _stacked(rhos, layout)
    assert _same_family(solve_connections(rhos, IDENTITY), rhos, IDENTITY.g)


def test_a_lam_metric_solve_with_no_invariant_form(monkeypatch, tmp_path,
                                                   capsys):
    """[e1, u_i] = i*lam*u_i gives rho = lam*diag(1, 2, 3, 4): row (i, j) of
    the invariance system is (i + j)*lam*G_ij, so no form is invariant, and
    the one nullspace over Q(lam) says so."""
    path = tmp_path / "catalog.txt"
    path.write_text('case "x(lam)" dim_h 1\nparam lam range ">0"\n' + "".join(
        f"bracket e1 u{i} = {i}*lam*u{i}\n" for i in range(1, 5)))
    pair = catalog_load(str(path)).get("x(lam)").pair
    rhos = isotropy_rep(pair)
    kernel, calls = _solve(monkeypatch, rhos, _METRIC)
    assert kernel == [] and calls == ONE_NULLSPACE
    assert _stacked(rhos, _METRIC) == []
    with pytest.raises(NoInvariantMetric, match=r"^x\(lam\): "):
        solve_invariant_metric(pair, rhos)
    code = main(["--catalog", str(path), "report", "x(lam)"])
    out, err = capsys.readouterr()
    assert (code, out) == (5, "")
    assert err == ("error: case cannot be analysed: x(lam): only the zero "
                   "bilinear form is invariant\n")


def _random_matrix(rng) -> FieldMatrix:
    return from_rows([[rng.choice((0, 0, 0, 1, -1, 2))
                       for _ in range(4)] for _ in range(4)])


def random_systems(seed: int) -> list:
    """(layout, constant matrices, the same with some scaled by lam) for the
    connection and the metric layout, from one seeded generator."""
    rng = random.Random(seed)
    out = []
    for layout in (_CONNECTION, _METRIC):
        consts = [_random_matrix(rng) for _ in range(rng.randint(1, 3))]
        scaled = [m.scale(LAM) if k == 0 or rng.random() < 0.5 else m
                  for k, m in enumerate(consts)]
        out.append((layout, consts, scaled))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_random_systems_equal_one_nullspace_of_the_stacked_rows(
        monkeypatch, seed):
    """Small seeded constant matrices, then the same with some scaled by lam,
    which leaves the kernel over Q(lam) unchanged, in both systems; the
    constant system takes the integer route, the scaled one the other."""
    for layout, consts, scaled in random_systems(seed):
        expected = _stacked(consts, layout)
        assert _solve(monkeypatch, consts, layout) == \
            (expected, ONE_INT_NULLSPACE), seed
        assert _solve(monkeypatch, scaled, layout) == \
            (expected, ONE_NULLSPACE), seed


def test_a_fresh_pass_reaches_nullspace_only_for_the_lam_systems(
        catalog, monkeypatch):
    """Over the 35 cases with an empty memo, linalg.nullspace runs three times:
    the invariance systems (10 unknowns) of the three lam cases.  Reading
    every connection family adds their three equivariance systems (24
    unknowns), and no other."""
    monkeypatch.setattr(eym, "_SOLVED", {})
    widths = []

    def counted(m, _f=linalg.nullspace):
        widths.append(m.cols)
        return _f(m)

    monkeypatch.setattr(linalg, "nullspace", counted)
    reports = [run_case(entry) for entry in catalog.entries]
    assert widths == [_METRIC.cols] * 3
    for r in reports:
        r.conn
    assert widths == [_METRIC.cols] * 3 + [_CONNECTION.cols] * 3
