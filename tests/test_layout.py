"""linalg.TensorLayout against hand-written row builders.

The metric invariance and connection equivariance systems are both
rho.T = 0 for a covariant tensor T on m, built by one TensorLayout from the
index symmetry of T.  The two builders below write each system out by hand,
with their own index bookkeeping; the layout's rows must be the same row
sets, on every catalog isotropy matrix and on seeded random ones.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from eymsym.conn import _CONNECTION
from eymsym.exact import RatFunc
from eymsym.geom import _METRIC, _UPPER
from eymsym.linalg import nonzero_entries

from test_specialise import random_systems

_PAIRS = [(p, q) for p in range(4) for q in range(p + 1, 4)]
_COLS = {pq: k for k, pq in enumerate(_PAIRS)}   # A_s[p][q] is 6*s + _COLS[p, q]


def _sym_index(i: int, j: int) -> int:
    return _UPPER.index((i, j) if i <= j else (j, i))


def invariance_rows(entries: list) -> list:
    """Rows of t(rho) G + G rho, entry (p <= q), as {unknown: coeff} over
    the unknowns G_ij (i <= j) in `_UPPER` order.

    `entries` are the nonzero (k, c, rho[k][c]), ints or RatFuncs: rho[k][c]
    multiplies G_kq in entry (c, q) and G_pk in entry (p, c).
    """
    rows = {key: {} for key in _UPPER}
    for k, c, x in entries:
        for key, col in ([((c, q), _sym_index(k, q)) for q in range(c, 4)]
                         + [((p, c), _sym_index(p, k)) for p in range(c + 1)]):
            row = rows[key]
            row[col] = row[col] + x if col in row else x
    return [row for row in rows.values() if row]


def _add_entry(row: dict, s: int, p: int, q: int, c) -> None:
    """Add c * A_s[p][q] to row, A_s skew."""
    if p == q:
        return
    col = 6 * s + (_COLS[p, q] if p < q else _COLS[q, p])
    c = c if p < q else -c
    x = row.get(col)
    row[col] = c if x is None else x + c


def equivariance_rows(entries: list) -> list:
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


REFERENCE = [(_METRIC, invariance_rows), (_CONNECTION, equivariance_rows)]


def _row_set(rows: list) -> Counter:
    """The rows as a multiset, without zero coefficients or empty rows."""
    out = Counter()
    for row in rows:
        row = frozenset((c, x) for c, x in row.items()
                        if (not x.is_zero() if isinstance(x, RatFunc) else x))
        if row:
            out[row] += 1
    return out


def _int_entries(m) -> list | None:
    """The nonzero entries of a constant matrix scaled to ints, else None."""
    ents = nonzero_entries(m)
    if any(x.variables() for _, _, x in ents):
        return None
    d = math.lcm(*(x.constant_value().denominator for _, _, x in ents))
    return [(i, j, (x.constant_value() * d).numerator) for i, j, x in ents]


def _assert_same_rows(mats: list, context) -> None:
    for layout, reference in REFERENCE:
        for m in mats:
            for ents in (nonzero_entries(m), _int_entries(m)):
                if ents is not None:
                    assert (_row_set(layout.rows(ents))
                            == _row_set(reference(ents))), (context, layout.cols)


def test_layout_rows_equal_the_hand_written_rows_on_the_catalog(reports):
    for cid, r in reports.items():
        _assert_same_rows(r.rhos, cid)


@pytest.mark.parametrize("seed", range(6))
def test_layout_rows_equal_the_hand_written_rows_on_random_matrices(seed):
    for _, consts, scaled in random_systems(seed):
        _assert_same_rows(consts + scaled, seed)


def test_columns_keep_their_order():
    assert _METRIC.keys == [(i, j) for i in range(4) for j in range(i, 4)]
    assert [6 * s + _COLS[p, q] for s, p, q in _CONNECTION.keys] == \
        list(range(24))


def test_metric_read_rule_is_symmetric_on_all_16_tuples():
    for i in range(4):
        for j in range(4):
            col, sign = _METRIC.read[i, j]
            assert _METRIC.keys[col] == (min(i, j), max(i, j)) and sign == 1


def test_connection_read_rule_is_skew_on_all_64_tuples():
    for s in range(4):
        for p in range(4):
            for q in range(4):
                hit = _CONNECTION.read[s, p, q]
                if p == q:
                    assert hit is None
                    continue
                col, sign = hit
                assert _CONNECTION.keys[col] == (s, min(p, q), max(p, q))
                assert sign == (1 if p < q else -1)


def test_unpack_reads_every_entry_through_the_read_rule():
    """Column k holds k + 1; each full entry is sign times its column's."""
    for layout in (_METRIC, _CONNECTION):
        full = layout.unpack({k: RatFunc.const(k + 1)
                              for k in range(layout.cols)})
        assert len(layout.read) == 4 ** len(layout.keys[0])
        for t, hit in layout.read.items():
            x = full
            for i in t:
                x = x[i]
            expect = 0 if hit is None else hit[1] * (hit[0] + 1)
            assert x == RatFunc.const(expect), t
