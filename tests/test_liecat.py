"""Catalog loading, pair validation, and the isotropy representation."""

from __future__ import annotations

import copy

import pytest

from eymsym import liecat
from eymsym.exact import rf
from eymsym.liecat import (CatalogParseError, LiePair, NotReductive,
                           UnknownCase, catalog_load, isotropy_rep,
                           parse_catalog, rep_is_faithful,
                           rep_is_homomorphism, validate_pair)
from helpers import from_rows


def test_catalog_entry_count(catalog):
    # the bundled symmetric-case tables enumerate exactly these rows
    assert len(catalog.entries) == 35
    assert len(catalog.table1) == 14


def test_brackets_example(catalog):
    pair = catalog.get("1.1^1(7)").pair
    assert pair.bracket("e1", "u1") == {"u1": rf(1)}
    assert pair.bracket("e1", "u3") == {"u3": rf(-1)}
    assert pair.bracket("u1", "u3") == {"e1": rf(1)}
    assert pair.bracket("u3", "u1") == {"e1": rf(-1)}
    assert pair.bracket("u1", "u2") == {}


def test_space_name_example(catalog):
    assert catalog.get("3.5^2(2)").golden.space == "H^3 x R"


def test_unknown_case(catalog):
    with pytest.raises(UnknownCase):
        catalog.get("9.9^9(1)")


def test_filter(catalog):
    assert len(catalog.filter("2.1^2(*)")) == 6
    assert len(catalog.filter("zzz")) == 0
    assert len(catalog.filter(None)) == 35


def test_validate_all_entries(catalog):
    for entry in catalog.entries:
        failed = validate_pair(entry.pair)
        assert failed == [], f"{entry.pair.case_id}: {failed}"


def test_validate_detects_broken_symmetry(catalog):
    pair = copy.deepcopy(catalog.get("1.1^1(7)").pair)
    pair.brackets[("u1", "u3")] = {"u2": rf(1)}
    assert validate_pair(pair) == [("symmetric", "(u1,u3)")]


def test_validate_detects_broken_jacobi(catalog):
    pair = copy.deepcopy(catalog.get("3.5^2(2)").pair)
    pair.brackets[("e1", "u1")] = {"u2": rf(1)}  # flipped sign breaks Jacobi
    assert validate_pair(pair) == [("jacobi", "(e1,e2,u3)")]


def test_isotropy_rep_examples(catalog):
    rho = isotropy_rep(catalog.get("1.1^1(7)").pair)[0]
    assert rho == from_rows(
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]])
    rho = isotropy_rep(catalog.get("3.5^2(2)").pair)[0]
    assert rho == from_rows(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])


def test_isotropy_rep_abelian_action_is_zero():
    pair = LiePair(case_id="test", dim_h=1, brackets={})
    assert all(m.is_zero() for m in isotropy_rep(pair))


def test_isotropy_rep_not_reductive():
    pair = LiePair(case_id="bad", dim_h=1,
                   brackets={("e1", "u1"): {"e1": rf(1)}})
    with pytest.raises(NotReductive):
        isotropy_rep(pair)


def test_rep_homomorphism_and_faithfulness(catalog):
    for entry in catalog.entries:
        mats = isotropy_rep(entry.pair)
        assert rep_is_homomorphism(entry.pair, mats), entry.pair.case_id
        assert rep_is_faithful(entry.pair, mats), entry.pair.case_id


def test_bracket_leaving_h_is_no_homomorphism(catalog):
    """[e2, e3] = u1 in 3.5^1(4): h is not closed, so rho([e2, e3]) has no
    meaning and the check fails instead of looking u1 up among the e's."""
    pair = copy.deepcopy(catalog.get("3.5^1(4)").pair)
    pair.brackets[("e2", "e3")] = {"u1": rf(1)}
    assert not rep_is_homomorphism(pair, isotropy_rep(pair))


def test_symmetric_pairs_have_no_m_component(catalog):
    for entry in catalog.entries:
        pair = entry.pair
        for i in range(4):
            for j in range(i + 1, 4):
                coeffs = pair.bracket(f"u{i + 1}", f"u{j + 1}")
                assert all(lbl.startswith("e") for lbl in coeffs), \
                    f"{pair.case_id} [u{i + 1},u{j + 1}]"


def test_jacobi_holds_symbolically_in_case_params(catalog):
    # continuous parameters (t, lam) are carried exactly through validation
    for cid in ("2.5^2(4)", "1.1^3(1)", "3.2^2(2)"):
        entry = catalog.get(cid)
        assert entry.pair.params, cid
        assert validate_pair(entry.pair) == [], cid


def test_parse_error_carries_location():
    with pytest.raises(CatalogParseError) as err:
        parse_catalog('case "x" dim_h 1\nbracket e1 u9 = u1\n', "f.txt")
    assert "f.txt:2" in str(err.value)


def test_parse_rejects_directive_outside_case():
    with pytest.raises(CatalogParseError):
        parse_catalog("bracket e1 u1 = u1\n", "f.txt")


def test_parse_rejects_bad_verdict():
    text = 'case "x" dim_h 1\ngolden verdict = maybe\n'
    with pytest.raises(CatalogParseError):
        parse_catalog(text, "f.txt")


def test_parse_bracket_with_coefficients():
    text = ('case "x" dim_h 2\nparam t range ">=0"\n'
            'bracket u2 u3 = (1 + t)*e1 - 2*e2\n')
    cat = parse_catalog(text, "f.txt")
    coeffs = cat.entries[0].pair.bracket("u2", "u3")
    assert str(coeffs["e1"]) == "t + 1"
    assert coeffs["e2"] == rf(-2)


@pytest.mark.parametrize("rhs, reason", [
    ("e1/u1", "u1 in a denominator"),
    ("e1*u1", "term e1*u1 is not linear"),
    ("e1 + 1", "constant term in a bracket"),
], ids=["label-in-denominator", "nonlinear", "constant"])
def test_parse_rejects_bad_bracket(rhs, reason):
    text = f'case "x" dim_h 1\nbracket u1 u2 = {rhs}\n'
    with pytest.raises(CatalogParseError) as err:
        parse_catalog(text, "f.txt")
    assert str(err.value) == f"f.txt:2: {reason}"


_CASE = 'case "x" dim_h 1\nbracket e1 u1 = u2\n'


@pytest.mark.parametrize("extra, line, reason", [
    ('golden hol_dim = x\n', 3, "hol_dim must be an integer"),
    ('golden hol_dim = -1\n', 3, "hol_dim must be an integer"),
    ('case "x" dim_h 1\n', 3, "duplicate case id 'x'"),
    ('golden lorentz = "a*b"\n', 3, "cannot parse condition 'a*b'"),
    ('golden lorentz = "d^2)> b*c"\n', 3, "trailing tokens in 'd^2)'"),
    ('golden lorentz = "a <= b"\n', 3, ""),
    ('golden det = a - a\n', 3, "det g is identically zero"),
    ('golden det = u1 - a^4\n', 3,
     "'u1' is neither a metric-shape variable nor a declared param"),
    ('bracket e1 u2 = lam*u1\n', 3,
     "'lam' is neither a metric-shape variable nor a declared param"),
    ('golden metric = [a,0,0,0; 0,a,0,0; 0,0,a,0; 0,0,0,a]\n'
     'golden scalar = 2/b\n', 4,
     "'b' is neither a metric-shape variable nor a declared param"),
], ids=["hol-dim-word", "hol-dim-negative", "duplicate-case", "no-operator",
        "bad-side", "two-operators", "zero-det", "basis-label-in-golden",
        "undeclared-param", "not-in-shape"])
def test_load_rejects_what_a_verb_would_trip_on(extra, line, reason):
    with pytest.raises(CatalogParseError) as err:
        parse_catalog(_CASE + extra, "f.txt")
    assert str(err.value).startswith(f"f.txt:{line}: ")
    assert reason in str(err.value)


def test_load_accepts_declared_and_default_variables():
    """A declared param anywhere in the block, a letter the shapeless solve
    may use, and the letters of a recorded shape all pass."""
    text = ('case "x" dim_h 1\nbracket e1 u2 = lam*u1\n'
            'golden det = -j*lam\ngolden lorentz = "a*lam > 0"\n'
            'param lam range ">0"\n'
            'case "y" dim_h 1\nbracket e1 u1 = u2\n'
            'golden lorentz = "p != 0"\n'
            'golden metric = [p,0,0,0; 0,p,0,0; 0,0,p,0; 0,0,0,p]\n')
    cat = parse_catalog(text, "f.txt")
    assert [e.golden.lorentz for e in cat.entries] == ["a*lam > 0", "p != 0"]


def _count_parses(monkeypatch) -> list:
    """The texts liecat hands to parse_ratfunc from now on."""
    texts = []
    parse = liecat.parse_ratfunc

    def counting(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(liecat, "parse_ratfunc", counting)
    return texts


def test_catalog_parses_each_distinct_text_once_per_load(monkeypatch):
    # 1,531 expressions in the bundled catalog, 935 of them "0", plus the
    # two sides of each golden lorentz condition
    texts = _count_parses(monkeypatch)
    catalog = catalog_load()
    assert len(texts) == len(set(texts)) == 90
    # the memo lasts one load: a second load parses every text again
    catalog_load()
    assert texts[90:] == texts[:90]
    # only the immutable RatFuncs are shared: every bracket dict and every
    # matrix row is built for its own line
    mutable = [d for e in catalog.entries for d in e.pair.brackets.values()]
    mutable += [row for e in catalog.entries
                for m in (e.golden.metric, e.golden.ricci) if m is not None
                for row in m.entries]
    assert len({id(x) for x in mutable}) == len(mutable)


def test_repeated_bad_expression_fails_at_its_first_line(monkeypatch):
    texts = _count_parses(monkeypatch)
    text = ('case "x" dim_h 1\n'
            'golden det = 2*a\n'
            'golden scalar = 3*/a\n'
            'golden kappa = 3*/a\n')
    with pytest.raises(CatalogParseError) as err:
        parse_catalog(text, "f.txt")
    assert str(err.value).startswith("f.txt:3: ")
    assert texts == ["2*a", "3*/a"]
