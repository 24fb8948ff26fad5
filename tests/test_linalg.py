"""Exact linear algebra: rref, nullspace, determinant, inverse."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from eymsym.exact import RatFunc, rf
from eymsym.linalg import (FieldMatrix, NonSquare, Singular, TensorLayout,
                           det, int_nullspace, inverse, kernel_linear_in,
                           nonzero_entries, nullspace, rank, rref)
from helpers import evaluate_matrix, from_rows, identity

A, B, C, D = (RatFunc.var(x) for x in "abcd")
Z = rf(0)


def metric_1_1_1() -> FieldMatrix:
    return from_rows([[Z, Z, A, Z], [Z, B, Z, C],
                      [A, Z, Z, Z], [Z, C, Z, D]])


def test_rref_identity():
    m = identity(4)
    red, pivots = rref(m)
    assert red == m and pivots == [0, 1, 2, 3]


def test_rref_zero_matrix():
    m = FieldMatrix.zeros(2, 3)
    red, pivots = rref(m)
    assert red == m and pivots == []


def test_nullspace_identity_empty():
    assert nullspace(identity(3)) == []


def test_nullspace_one_relation():
    basis = nullspace(from_rows([[1, -1]]))
    assert basis == [[rf(1), rf(1)]]


def test_nullspace_vectors_in_kernel():
    rng = random.Random(3)
    for _ in range(25):
        rows = rng.randint(2, 5)
        cols = rng.randint(2, 5)
        m = from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        for v in nullspace(m):
            assert (m * FieldMatrix(cols, 1, [[x] for x in v])).is_zero()
        assert rank(m) + len(nullspace(m)) == cols


def _int_rows(rows: list) -> list:
    """Sparse {col: int} rows, each rational row times its denominators' lcm."""
    out = []
    for row in rows:
        d = math.lcm(*(Fraction(x).denominator for x in row))
        out.append({c: int(x * d) for c, x in enumerate(row) if x})
    return out


def _dense(vec: dict, cols: int) -> list:
    return [rf(vec.get(c, 0)) for c in range(cols)]


def _random_system(rng: random.Random) -> list:
    """A random matrix: integer or rational, tall or wide, often rank
    deficient, with zero rows, duplicate rows and rows that are sums of
    earlier ones (their later entries land on earlier pivot columns)."""
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    rational = rng.random() < 0.5

    def entry():
        if rng.random() < 0.55:
            return 0
        n = rng.randint(-5, 5)
        return Fraction(n, rng.randint(1, 4)) if rational else n

    out = []
    for _ in range(rows):
        kind = rng.random()
        if out and kind < 0.15:
            out.append(list(rng.choice(out)))
        elif kind < 0.25:
            out.append([0] * cols)
        elif len(out) >= 2 and kind < 0.5:
            p, q = rng.sample(out, 2)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            out.append([a * x + b * y for x, y in zip(p, q)])
        else:
            out.append([entry() for _ in range(cols)])
    rng.shuffle(out)
    return out


def test_int_nullspace_is_the_nullspace_basis():
    rng = random.Random(43)
    shapes = set()
    for _ in range(600):
        rows = _random_system(rng)
        cols = len(rows[0])
        expected = nullspace(from_rows(rows))
        got = int_nullspace(_int_rows(rows), cols)
        assert [_dense(v, cols) for v in got] == expected, rows
        for v in got:
            assert all(type(x) in (int, Fraction) and x for x in v.values())
            assert list(v) == sorted(v)
        shapes.add((len(rows) > cols, len(expected) > max(0, cols - len(rows))))
    # tall and wide systems, with and without a rank deficit, all occurred
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_int_nullspace_reduces_at_every_pivot_column():
    # the second row's leftmost column is no pivot, but its column 2 is the
    # first row's pivot; leaving it there would give a wrong basis
    rows = [[0, 0, 1, 1], [1, 0, 1, 0]]
    assert int_nullspace(_int_rows(rows), 4) == [{1: 1}, {0: 1, 2: -1, 3: 1}]
    assert [_dense(v, 4) for v in int_nullspace(_int_rows(rows), 4)] == \
        nullspace(from_rows(rows))


def test_int_nullspace_edge_systems():
    assert int_nullspace([], 2) == [{0: 1}, {1: 1}]
    assert int_nullspace([{0: 0, 1: 0}], 2) == [{0: 1}, {1: 1}]
    assert int_nullspace([{0: 2}, {1: -3}], 2) == []
    assert int_nullspace([{0: 2, 1: 3}], 2) == [{0: Fraction(-3, 2), 1: 1}]


def test_kernel_linear_in_scales_each_matrix_to_integers():
    """Each matrix's values are scaled to integers by the lcm of its own
    denominators, which leaves the kernel unchanged: a matrix with Fraction
    entries, alone or next to an integer one, gives the kernel of its
    integer multiple, and that kernel is the stacked nullspace."""
    layout = TensorLayout(rank=2, sign=1)
    frac = from_rows([[Fraction(1, 2), 0, 0, Fraction(-1, 3)],
                      [0, 0, 0, 0], [0, 0, 0, 0],
                      [Fraction(1, 3), 0, 0, 0]])
    ints = frac.scale(rf(6))
    other = from_rows([[0, 1, 0, 0], [-1, 0, 0, 0],
                       [0, 0, 0, 0], [0, 0, 0, 0]])
    for mats in ([frac], [frac, other]):
        kernel = kernel_linear_in(mats, layout)
        assert kernel == kernel_linear_in([ints] + mats[1:], layout)
        rows = [[row.get(c, Z) for c in range(layout.cols)]
                for m in mats for row in layout.rows(nonzero_entries(m))]
        assert [[vec.get(c, Z) for c in range(layout.cols)]
                for vec in kernel] == nullspace(from_rows(rows))


def _sparse_entry(rng: random.Random) -> RatFunc:
    """Zero half the time, else rand_entry, over b + 3 a third of those."""
    if rng.random() < 0.5:
        return Z
    x = rand_entry(rng)
    return x / (B + rf(3)) if rng.random() < 1 / 3 else x


def test_product_equals_an_index_loop_at_a_sample():
    """Products of sparse RatFunc matrices, evaluated at a sample, equal the
    index-loop product of the evaluated factors; a mismatch raises."""
    rng = random.Random(37)
    for n, k, m in [(4, 4, 4), (1, 4, 1), (4, 1, 4)] * 4:
        a = FieldMatrix(n, k, [[_sparse_entry(rng) for _ in range(k)]
                               for _ in range(n)])
        b = FieldMatrix(k, m, [[_sparse_entry(rng) for _ in range(m)]
                               for _ in range(k)])
        point = {x: Fraction(rng.randint(1, 7)) for x in "abcd"}
        va, vb = evaluate_matrix(a, point), evaluate_matrix(b, point)
        expected = [[Fraction(0)] * m for _ in range(n)]
        for i in range(n):
            for j in range(m):
                for l in range(k):
                    expected[i][j] += va[i][l] * vb[l][j]
        product = a * b
        assert (product.rows, product.cols) == (n, m)
        assert evaluate_matrix(product, point) == expected
    for a, b in ((identity(4), FieldMatrix.zeros(1, 4)),
                 (FieldMatrix.zeros(4, 1), FieldMatrix.zeros(4, 1))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            a * b


def test_det_metric_families():
    assert det(metric_1_1_1()) == A * A * (C * C - B * D)
    diag = from_rows([[A, Z, Z, Z], [Z, A, Z, Z],
                      [Z, Z, A, Z], [Z, Z, Z, B]])
    assert det(diag) == A * A * A * B
    assert det(identity(4)) == rf(1)


def test_det_nonsquare():
    with pytest.raises(NonSquare):
        det(FieldMatrix.zeros(2, 3))


def test_inverse_diagonal():
    m = from_rows([[A, Z, Z, Z], [Z, A, Z, Z],
                   [Z, Z, A, Z], [Z, Z, Z, B]])
    inv = inverse(m)
    one = rf(1)
    assert inv.entries[0][0] == one / A and inv.entries[3][3] == one / B
    assert m * inv == identity(4)


def test_inverse_block_entries():
    inv = inverse(metric_1_1_1())
    one = rf(1)
    assert inv.entries[0][2] == one / A
    denom = B * D - C * C
    assert inv.entries[1][1] == D / denom
    assert inv.entries[1][3] == -C / denom
    assert inv.entries[3][3] == B / denom


def test_inverse_singular():
    with pytest.raises(Singular):
        inverse(FieldMatrix.zeros(3, 3))


def test_inverse_random_exact():
    rng = random.Random(17)
    found = 0
    while found < 15:
        m = from_rows(
            [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        if det(m).is_zero():
            continue
        assert m * inverse(m) == identity(4)
        found += 1


def test_det_matches_numeric_elimination():
    """Symbolic Bareiss det equals a plain Fraction Gauss det at samples."""
    rng = random.Random(29)
    names = "abcd"
    for _ in range(10):
        m = from_rows(
            [[rand_entry(rng) for _ in range(4)] for _ in range(4)])
        point = {n: Fraction(rng.randint(1, 7)) for n in names}
        numeric = [[x.evaluate(point) for x in row] for row in m.entries]
        assert det(m).evaluate(point) == fraction_det(numeric)


def rand_entry(rng: random.Random) -> RatFunc:
    name = rng.choice("abcd")
    c = rng.randint(-3, 3)
    return RatFunc.var(name) * rf(c) if rng.random() < 0.7 else rf(c)


def fraction_det(m: list) -> Fraction:
    n = len(m)
    m = [list(r) for r in m]
    sign = 1
    out = Fraction(1)
    for k in range(n):
        pr = next((i for i in range(k, n) if m[i][k]), None)
        if pr is None:
            return Fraction(0)
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return sign * out
