"""Connection families, curvature, holonomy closure."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from eymsym.exact import RF_ZERO, RatFunc, rf
from eymsym.liecat import LiePair, U_LABELS, isotropy_rep
from eymsym.linalg import (FieldMatrix, det, inverse, nonzero_entries,
                           nullspace, rank)
import eymsym.conn as conn_module
import eymsym.eym as eym_module
import eymsym.geom as geom_module
import eymsym.linalg as linalg_module
from eymsym.conn import (ConnectionFamily, CurvatureForm, curvature,
                         depends_on_connection_params, holonomy,
                         solve_connections)
from eymsym.eym import run_case
from eymsym.geom import MetricFamily
from eymsym.crosscheck import NumericCase, sample_point
from helpers import (form_variables, from_rows, member_curvature,
                     reference_expand_in_basis, reference_holonomy)


def is_parameterised(mats) -> bool:
    """Whether some entry of the matrices carries a parameter."""
    return any(x.variables() for m in mats for _, _, x in nonzero_entries(m))


def _defining_residuals(pair, maps, g):
    """Equivariance residuals per (e, u), then g-skewness residuals per u,
    built from the brackets and isotropy_rep."""
    rhos = isotropy_rep(pair)
    out = []
    for a, e in enumerate(pair.e_labels):
        for s, u in enumerate(U_LABELS):
            res = rhos[a] * maps[s] - maps[s] * rhos[a]
            for lbl, c in pair.bracket(e, u).items():
                res = res - maps[U_LABELS.index(lbl)].scale(c)
            out.append(((e, u), res))
    for s in range(4):
        out.append((s, maps[s].transpose() * g + g * maps[s]))
    return out


def test_families_satisfy_defining_equations(catalog, reports):
    """Equivariance and g-skewness hold identically in the free parameters."""
    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        for where, res in _defining_residuals(entry.pair, r.conn.maps,
                                              r.family.g):
            assert res.is_zero(), (entry.pair.case_id, where)


def _numeric_family_dim(entry, sample) -> int:
    """Independent Fraction-only rank computation of the defining system."""
    num = NumericCase(entry, sample)
    rows = []
    for a in range(entry.pair.dim_h):
        for s, u in enumerate(U_LABELS):
            bracket = entry.pair.bracket(entry.pair.e_labels[a], u)
            coeffs = {U_LABELS.index(lbl): c.evaluate(sample)
                      for lbl, c in bracket.items()}
            for i in range(4):
                for j in range(4):
                    row = [Fraction(0)] * 64
                    for p in range(4):
                        row[16 * s + 4 * p + j] += num.rho[a][i][p]
                        row[16 * s + 4 * i + p] -= num.rho[a][p][j]
                    for k, c in coeffs.items():
                        row[16 * k + 4 * i + j] -= c
                    rows.append(row)
    for s in range(4):
        for i in range(4):
            for j in range(4):
                # (t(L_s) g + g L_s)_ij = sum_p L_s[p][i] g[p][j] + g[i][p] L_s[p][j]
                row = [Fraction(0)] * 64
                for p in range(4):
                    row[16 * s + 4 * p + i] += num.g[p][j]
                    row[16 * s + 4 * p + j] += num.g[i][p]
                rows.append(row)
    # Fraction Gauss rank
    rank = 0
    cols = 64
    mat = [r for r in rows if any(r)]
    r0 = 0
    for c in range(cols):
        pr = next((i for i in range(r0, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r0], mat[pr] = mat[pr], mat[r0]
        piv = mat[r0][c]
        for i in range(r0 + 1, len(mat)):
            if mat[i][c]:
                f = mat[i][c] / piv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r0])]
        r0 += 1
    rank = r0
    return 64 - rank


def test_family_dimensions_match_numeric_rank(catalog, reports):
    rng = random.Random(303)
    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        sample = sample_point(entry, rng)
        assert _numeric_family_dim(entry, sample) == r.conn.dim, \
            entry.pair.case_id


def _one_shot_system(rhos, g) -> FieldMatrix:
    """Equivariance and g-skewness stacked in one RatFunc system over the 64
    unknowns L_s[i][j] = 16*s + 4*i + j, every entry of both residuals."""
    rows = []
    for rho in rhos:
        r = rho.entries
        for s in range(4):
            for p in range(4):
                for q in range(4):
                    # [rho, L_s] - L(rho u_s), entry (p, q)
                    row = [RF_ZERO] * 64
                    for k in range(4):
                        row[16 * s + 4 * k + q] += r[p][k]
                        row[16 * s + 4 * p + k] -= r[k][q]
                        row[16 * k + 4 * p + q] -= r[k][s]
                    rows.append(row)
    for s in range(4):
        for p in range(4):
            for q in range(4):
                # t(L_s) g + g L_s, entry (p, q)
                row = [RF_ZERO] * 64
                for k in range(4):
                    row[16 * s + 4 * k + p] += g.entries[k][q]
                    row[16 * s + 4 * k + q] += g.entries[p][k]
                rows.append(row)
    return FieldMatrix(len(rows), 64, rows)


def _one_shot_family(rhos, g) -> tuple:
    """Parameters v1..vd and maps from one nullspace of the whole system."""
    basis = nullspace(_one_shot_system(rhos, g))
    params = [f"v{k + 1}" for k in range(len(basis))]
    maps = []
    for s in range(4):
        expected = [[RF_ZERO] * 4 for _ in range(4)]
        for name, vec in zip(params, basis):
            for i in range(4):
                for j in range(4):
                    expected[i][j] += RatFunc.var(name) * vec[16 * s + 4 * i + j]
        maps.append(FieldMatrix(4, 4, expected))
    return params, maps


def test_family_basis_is_the_one_shot_nullspace(catalog, reports):
    """The solve in g-free coordinates gives the basis of one nullspace of
    the whole 64-unknown system: same parameters v1..vd, same maps entry by
    entry."""
    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        params, maps = _one_shot_family(isotropy_rep(entry.pair), r.family.g)
        assert r.conn.free_params == params, entry.pair.case_id
        assert r.conn.maps == maps, entry.pair.case_id


def _random_metric(rng, off_diagonal: bool) -> FieldMatrix:
    rows = [[0] * 4 for _ in range(4)]
    for i in range(4):
        rows[i][i] = rng.choice((1, -1, 2, -3))
    if off_diagonal:
        i, j = rng.sample(range(4), 2)
        rows[i][j] = rows[j][i] = rng.choice((1, -1, 2))
    return from_rows(rows)


def _random_skew(rng) -> FieldMatrix:
    rows = [[0] * 4 for _ in range(4)]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(4), 2)
        c = rng.choice((1, -1, 2))
        rows[i][j] += c
        rows[j][i] -= c
    return from_rows(rows)


def test_random_so_g_inputs_give_the_one_shot_family():
    """rho = g^-1 S with S integer skew lies in so(g), for seeded constant
    metrics, diagonal and with one off-diagonal pair, some rho scaled by lam:
    the solve gives the parameters and maps of one nullspace of the whole
    64-unknown system.  The seeds cover nonempty families in each kind."""
    lam = RatFunc.var("lam")
    seen = set()
    for seed in range(12):
        rng = random.Random(seed)
        off = seed % 3 == 0
        g = _random_metric(rng, off)
        g_inv = inverse(g)
        rhos = [g_inv * _random_skew(rng) for _ in range(rng.randint(1, 2))]
        rhos = [m.scale(lam) if rng.random() < 0.5 else m for m in rhos]
        family = solve_connections(
            rhos, MetricFamily(g=g, free_params=[], det_g=det(g)))
        params, maps = _one_shot_family(rhos, g)
        assert (family.free_params, family.maps) == (params, maps), seed
        if family.dim:
            seen.add("off" if off else "diagonal")
            if is_parameterised(rhos):
                seen.add("lam")
    assert seen == {"off", "diagonal", "lam"}


def test_hand_derived_family_dimensions(reports):
    # frozen after independent derivation (eigenspace / module decompositions)
    assert reports["1.1^1(7)"].conn.dim == 8
    assert reports["1.1^2(9)"].conn.dim == 8
    for k in range(1, 7):
        assert reports[f"2.1^2({k})"].conn.dim == 0
    for k in (1, 2, 3):
        assert reports[f"6.1^3({k})"].conn.dim == 0
    for k in (2, 3, 4):
        assert reports[f"3.5^2({k})"].conn.dim == 2
        assert reports[f"3.5^1({k})"].conn.dim == 2


def test_zero_maps_are_the_canonical_member(catalog, reports):
    """The four zero maps satisfy every equivariance and g-skewness row, and
    are the family's member at v1 = .. = vd = 0, the member run_case uses."""
    zero = [FieldMatrix.zeros(4, 4)] * 4
    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        for where, res in _defining_residuals(entry.pair, zero, r.family.g):
            assert res.is_zero(), (entry.pair.case_id, where)
        symbolic = {p: RatFunc.var(p) for p in r.conn.free_params}
        assert member(r.conn, symbolic) == r.conn.maps, r.case_id
        assert member(r.conn, {}) == zero, r.case_id


def test_curvature_examples_at_canonical_member(catalog, reports):
    r = reports["1.1^1(7)"]
    rho1 = isotropy_rep(r.pair)[0]
    for (i, j), comp in r.form.components.items():
        if (i, j) == (0, 2):
            assert comp == -rho1
        else:
            assert comp.is_zero()

    r = reports["2.1^2(1)"]
    rhos = isotropy_rep(r.pair)
    assert r.form.components[(0, 2)] == -rhos[0]
    assert r.form.components[(1, 3)] == -rhos[1]

    assert reports["2.4^1(3)"].form.is_zero()
    assert reports["1.1^1(10)(t=0)"].form.is_zero()


def test_curvature_scaling_2_5_2(catalog, reports):
    # R(u2,u3) = -(1+t) rho(e1), R(u3,u4) = -(1-t) rho(e2)
    r = reports["2.5^2(4)"]
    rhos = isotropy_rep(r.pair)
    t = RatFunc.var("t")
    one = rf(1)
    assert r.form.components[(1, 2)] == rhos[0].scale(-(one + t))
    assert r.form.components[(2, 3)] == rhos[1].scale(-(one - t))


def test_holonomy_dims_match_goldens(catalog, reports):
    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        assert r.hol_dim == entry.golden.hol_dim, entry.pair.case_id


def test_holonomy_prefers_isotropy_matrices(reports):
    r = reports["1.1^1(7)"]
    assert r.hol_basis == [isotropy_rep(r.pair)[0]]
    r = reports["6.1^3(1)"]
    assert r.hol_basis == isotropy_rep(r.pair)


def span_rank(mats: list) -> int:
    """Rank of the 4x4 matrices as vectors of 16 entries."""
    return rank(FieldMatrix(len(mats), 16, [
        [x for row in m.entries for x in row] for m in mats]))


def is_closed_basis(basis: list) -> bool:
    """The matrices are independent and their span is closed under brackets."""
    n = len(basis)
    return n == 0 or span_rank(basis) == n and all(
        span_rank(basis + [basis[i].commutator(basis[j])]) == n
        for i in range(n) for j in range(i + 1, n))


def test_holonomy_closure_and_skewness(reports):
    for r in reports.values():
        assert is_closed_basis(r.hol_basis), r.case_id
        g = r.family.g
        for b in r.hol_basis:
            assert (b.transpose() * g + g * b).is_zero(), r.case_id


def _with_mm_brackets(pair, mm: dict) -> LiePair:
    """`pair` with its [u_i, u_j] brackets replaced by `mm`."""
    brackets = {key: v for key, v in pair.brackets.items()
                if not set(key) <= set(U_LABELS)}
    return LiePair("synthetic", pair.dim_h, {**brackets, **mm})


def _recomposed(basis: list, structure: dict) -> dict:
    """sum_a structure[key][a] basis[a] per component key."""
    out = {}
    for key, coeffs in structure.items():
        acc = FieldMatrix.zeros(4, 4)
        for c, b in zip(coeffs, basis):
            acc = acc + b.scale(c)
        out[key] = acc
    return out


def test_holonomy_completes_from_echelon_rows(catalog):
    """A span [m, m] that holds no isotropy matrix gets rho of the echelon
    rows of the bracket coefficients as its basis; a unit row gives the
    isotropy matrix itself.  The span and the recomposed components agree
    with the three-elimination reference, and a flat pair has the empty
    basis."""
    pair = catalog.get("6.1^3(1)").pair
    rhos = isotropy_rep(pair)
    t = RatFunc.var("t")
    keys = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    # [u_1, u_2] = 3 e1 + 3 t e2, so R_12 = -3 rho(e1 + t e2)
    mixed = _with_mm_brackets(pair, {("u1", "u2"): {"e1": rf(3),
                                                    "e2": rf(3) * t}})
    basis, structure = holonomy(mixed, rhos)
    assert basis == [rhos[0] + rhos[1].scale(t)]
    assert structure == {key: [rf(-3) if key == (0, 1) else RF_ZERO]
                         for key in keys}

    # [u_1, u_2] = e1 + e2 and [u_3, u_4] = e3: echelon rows in pivot order
    two = _with_mm_brackets(pair, {("u1", "u2"): {"e1": rf(1), "e2": rf(1)},
                                   ("u3", "u4"): {"e3": rf(1)}})
    basis, structure = holonomy(two, rhos)
    assert basis == [rhos[0] + rhos[1], rhos[2]]
    assert structure[(0, 1)] == [rf(-1), RF_ZERO]
    assert structure[(2, 3)] == [RF_ZERO, rf(-1)]

    for synthetic in (mixed, two):
        basis, structure = holonomy(synthetic, rhos)
        form = curvature(synthetic, rhos)
        ref_basis, ref_structure = _reference(form, rhos)
        n = len(ref_basis)
        assert len(basis) == n == span_rank(basis + ref_basis)
        assert _recomposed(basis, structure) == form.components \
            == _recomposed(ref_basis, ref_structure)

    flat = _with_mm_brackets(pair, {})
    assert holonomy(flat, rhos) == ([], {key: [] for key in keys}) \
        == _reference(curvature(flat, rhos), rhos)


def _reference(form: CurvatureForm, rhos: list) -> tuple:
    """(basis, structure) through the three-elimination reference."""
    basis = reference_holonomy(form, rhos)
    return basis, reference_expand_in_basis(form, basis)


def test_holonomy_matches_the_three_elimination_reference(reports):
    for r in reports.values():
        assert holonomy(r.pair, r.rhos) == (r.hol_basis, r.structure) \
            == _reference(r.form, r.rhos), r.case_id


def _count_rref(monkeypatch) -> Counter:
    """Count the rref calls made inside run_case's holonomy call, inside its
    faithfulness check and outside both, under the names linalg, geom and
    conn look rref up by.  Inside holonomy, each matrix must have at most six
    rows and dim_h columns."""
    calls = Counter()
    inside = []
    real_rref, real_holonomy = linalg_module.rref, conn_module.holonomy
    real_faithful = eym_module.rep_is_faithful

    def rref(m):
        stage = inside[-1][0] if inside else "other"
        calls[stage] += 1
        assert stage != "holonomy" or (m.rows <= 6 and m.cols == inside[-1][1])
        return real_rref(m)

    def holonomy(pair, rhos):
        inside.append(("holonomy", pair.dim_h))
        try:
            return real_holonomy(pair, rhos)
        finally:
            inside.pop()

    def rep_is_faithful(pair, rhos):
        inside.append(("faithful", pair.dim_h))
        try:
            return real_faithful(pair, rhos)
        finally:
            inside.pop()

    for module in (linalg_module, geom_module, conn_module):
        monkeypatch.setattr(module, "rref", rref)
    monkeypatch.setattr(eym_module, "holonomy", holonomy)
    monkeypatch.setattr(eym_module, "rep_is_faithful", rep_is_faithful)
    return calls


def test_rref_calls_per_catalog_pass(catalog, monkeypatch):
    """A catalog pass with an empty solve memo makes 66 rref calls: 21 in
    the holonomy stage (one per curved case, of at most six rows and dim_h
    columns), a flat case none there, and 14 in the faithfulness check (one
    per solve memo key, dim_h x 16).  Reading the connection families of the
    pass adds 8, one per distinct connection solve with a nonempty kernel,
    and 3 in the one nullspace of each lam case's equivariance system."""
    monkeypatch.setattr(eym_module, "_SOLVED", {})
    calls = _count_rref(monkeypatch)
    reports = [run_case(entry) for entry in catalog.entries]
    assert calls == {"holonomy": 21, "faithful": 14, "other": 31}
    for r in reports:
        r.conn
    assert calls == {"holonomy": 21, "faithful": 14, "other": 42}

    calls.clear()
    flat = run_case(catalog.get("1.1^1(10)(t=0)"))
    assert flat.form.is_zero() and flat.hol_basis == []
    assert calls["holonomy"] == calls["faithful"] == 0


def test_first_equation_makes_no_rref_call(reports, monkeypatch):
    """solve_first_eym reads lambda off the trace and kappa off one ratio:
    it builds no linear system and eliminates nothing."""
    assert not hasattr(eym_module, "rref")
    calls = _count_rref(monkeypatch)
    for r in reports.values():
        eym_module.solve_first_eym(r.lc, r.family, r.T)
    assert not calls


def test_structure_coefficients_reconstruct_components(reports):
    for r in reports.values():
        for key, comp in r.form.components.items():
            acc = FieldMatrix.zeros(4, 4)
            for c, b in zip(r.structure[key], r.hol_basis):
                acc = acc + b.scale(c)
            assert acc == comp, (r.case_id, key)


def test_curvature_param_dependence_flags(reports):
    # the two-generator rotation cases admit no deformation at all
    assert not reports["2.1^2(1)"].curvature_param_dependent
    assert not reports["6.1^3(1)"].curvature_param_dependent
    # large families do feed the curvature beyond the canonical member
    assert reports["1.1^1(7)"].curvature_param_dependent
    assert reports["3.5^2(2)"].curvature_param_dependent


def test_basis_maps_rebuild_the_family(reports):
    for r in reports.values():
        conn = r.conn
        acc = [FieldMatrix.zeros(4, 4) for _ in range(4)]
        for p in conn.free_params:
            acc = [a + b.scale(RatFunc.var(p)) for a, b in
                   zip(acc, conn.basis[conn.free_params.index(p)])]
        assert acc == conn.maps, r.case_id


def test_dependence_decision_matches_symbolic_curvature(reports):
    """The decision from basis-map commutators agrees with the variables of
    the curvature built symbolically in v1..vd, on a fresh family too."""
    for r in reports.values():
        conn = r.conn
        form = member_curvature(r.pair, r.rhos, conn.maps)
        symbolic = bool(form_variables(form) & set(conn.free_params))
        fresh = ConnectionFamily(maps=conn.maps, free_params=conn.free_params,
                                 basis=conn.basis)
        assert depends_on_connection_params(fresh) == symbolic, r.case_id
        assert r.curvature_param_dependent == symbolic, r.case_id
    assert sum(r.curvature_param_dependent for r in reports.values()) == 22


def test_dependence_through_a_cross_term_alone():
    """B^1 = E12 in slot u1, B^2 = E21 in slot u2: every [B_i^k, B_j^k]
    vanishes, but [B_1^1, B_2^2] + [B_1^2, B_2^1] = E11 - E22 does not, so
    R(u1, u2) carries v1*v2."""
    zero = FieldMatrix.zeros(4, 4)
    e12, e21 = FieldMatrix.zeros(4, 4), FieldMatrix.zeros(4, 4)
    e12.entries[0][1] = e21.entries[1][0] = rf(1)
    v1, v2 = RatFunc.var("v1"), RatFunc.var("v2")
    basis = [[e12, zero, zero, zero], [zero, e21, zero, zero]]
    maps = [e12.scale(v1), e21.scale(v2), zero, zero]
    family = ConnectionFamily(maps=maps, free_params=["v1", "v2"], basis=basis)
    assert all(b[i].commutator(b[j]).is_zero()
               for b in basis for i in range(4) for j in range(4))
    assert depends_on_connection_params(family)
    assert maps[0].commutator(maps[1]).entries[0][0] == v1 * v2


def member(conn, values: dict) -> list:
    """The maps sum_k v_k B^k at v_k = values[v_k], and v_k = 0 elsewhere."""
    out = [FieldMatrix.zeros(4, 4)] * 4
    for p, b in zip(conn.free_params, conn.basis):
        if p in values:
            out = [o + m.scale(values[p]) for o, m in zip(out, b)]
    return out


def u2_u4_subfamily(report):
    """Members supported on the h-fixed slots u2, u4 (symbolic parameters)."""
    conn = report.conn
    keep = [p for p, b in zip(conn.free_params, conn.basis)
            if b[0].is_zero() and b[2].is_zero()]
    return member(conn, {p: RatFunc.var(p) for p in keep}), keep


def test_u2_u4_subfamily_preserves_curvature(catalog, reports):
    """Within the u2/u4-supported subfamily the curvature stays canonical,
    symbolically in the remaining free parameters."""
    for cid in ("1.1^1(7)", "1.1^2(9)", "1.1^2(10)"):
        r = reports[cid]
        maps, keep = u2_u4_subfamily(r)
        assert len(keep) >= 2, cid
        form = member_curvature(r.pair, r.rhos, maps)
        assert not (form_variables(form) & set(keep)), cid
        for key, comp in form.components.items():
            assert comp == r.form.components[key], (cid, key)
