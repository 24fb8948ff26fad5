"""Reductive pairs, validators, and the bundled case catalog.

A pair lives on the basis e_1..e_n (isotropy subalgebra) and u_1..u_4
(reductive complement); brackets are stored as structure constants with
RatFunc coefficients so that continuous case parameters (t, lam) stay exact
symbols.  The catalog is a line-oriented text file (see ``data/catalog.txt``)
carrying, per case, the brackets plus reference data used by the regression
and report machinery: the invariant-metric shape in its conventional
parameter letters, the Lorentz condition, Ricci/scalar values, the expected
first-equation outcome, and the global space name where one is recorded.

parse_catalog parses each distinct expression text once per load: the
bundled catalog has 90 distinct texts among about 1,500 expressions, most
of them the "0" entries of matrices.  The memo maps text to the immutable
RatFunc and lives only as long as that one call, so every load still
parses and checks every entry, and a malformed text raises a
CatalogParseError naming the first line it appears on.  Bracket dicts and
matrices are built fresh per line, as they are mutable.

A load also checks what would otherwise fail only when a verb reaches the
case: case ids are unique, `golden hol_dim` is an integer, `golden det` is
not identically zero, `golden lorentz` is a condition `lhs op rhs`
(parse_condition), and every variable of a bracket or of a golden
expression is a metric-shape variable or a declared `param`.
"""

from __future__ import annotations

import fnmatch
import re
from importlib import resources
from itertools import combinations

from .exact import RF_ZERO, ParseError, RatFunc, linear_parts, parse_ratfunc
from .linalg import FieldMatrix, rank

U_LABELS = ("u1", "u2", "u3", "u4")


class CatalogParseError(ValueError):
    """Catalog file is malformed; message carries the location."""


class UnknownCase(KeyError):
    """Requested case id is not in the catalog."""


class NotReductive(ValueError):
    """[h, m] does not stay inside m."""


class NotSymmetric(ValueError):
    """[m, m] does not stay inside h."""


class TrivialIsotropy(ValueError):
    """h, or a nonzero part of it, acts trivially on m: the isotropy
    matrices are all zero or linearly dependent."""


class CaseParam:
    def __init__(self, name: str, range_text: str):
        self.name = name
        self.range_text = range_text


class LiePair:
    """A reductive pair given by structure constants over e_1..e_n, u_1..u_4."""

    def __init__(self, case_id: str, dim_h: int, brackets: dict,
                 params: list | None = None):
        self.case_id = case_id
        self.dim_h = dim_h
        # (x, y) -> {label: RatFunc}, stored once per unordered pair
        self.brackets = brackets
        self.params = [] if params is None else params

    @property
    def e_labels(self) -> tuple:
        return tuple(f"e{i}" for i in range(1, self.dim_h + 1))

    @property
    def basis(self) -> tuple:
        return self.e_labels + U_LABELS

    def bracket(self, x: str, y: str) -> dict:
        """[x, y] as a coefficient dict over the basis (empty means zero)."""
        if x == y:
            return {}
        got = self.brackets.get((x, y))
        if got is not None:
            return got
        got = self.brackets.get((y, x))
        if got is not None:
            return {k: -v for k, v in got.items()}
        return {}

    def bracket_vec(self, coeffs: dict, y: str) -> dict:
        """[v, y] for v given as a coefficient dict (bilinear extension)."""
        out: dict = {}
        for x, c in coeffs.items():
            if c.is_zero():
                continue
            for label, v in self.bracket(x, y).items():
                s = out.get(label)
                out[label] = c * v if s is None else s + c * v
        return {k: v for k, v in out.items() if not v.is_zero()}


class CaseGolden:
    """Per-case reference data for regression checks and reports."""

    def __init__(self, metric: FieldMatrix | None = None,
                 det: RatFunc | None = None, lorentz: str | None = None,
                 ricci: FieldMatrix | None = None,
                 scalar: RatFunc | None = None, hol_dim: int | None = None,
                 verdict: str | None = None, lambda_: RatFunc | None = None,
                 kappa: RatFunc | None = None, conditions: list | None = None,
                 space: str | None = None, notes: list | None = None):
        self.metric = metric
        self.det = det
        self.lorentz = lorentz
        self.ricci = ricci
        self.scalar = scalar
        self.hol_dim = hol_dim
        self.verdict = verdict  # "solution" or "no_solution:<reason>"
        self.lambda_ = lambda_
        self.kappa = kappa
        self.conditions = [] if conditions is None else conditions
        self.space = space
        self.notes = [] if notes is None else notes


class CatalogEntry:
    def __init__(self, pair: LiePair, golden: CaseGolden):
        self.pair = pair
        self.golden = golden


class Table1Row:
    def __init__(self, family: str, cases_text: str, lorentz: str):
        self.family = family
        self.cases_text = cases_text
        self.lorentz = lorentz


class Catalog:
    def __init__(self, entries: list, table1: list):
        self.entries = entries
        self.table1 = table1

    def get(self, case_id: str) -> CatalogEntry:
        for e in self.entries:
            if e.pair.case_id == case_id:
                return e
        raise UnknownCase(case_id)

    def filter(self, pattern: str | None) -> list:
        if not pattern:
            return list(self.entries)
        return [e for e in self.entries
                if fnmatch.fnmatchcase(e.pair.case_id, pattern)]


# -- catalog file parsing ------------------------------------------------------

_QUOTED = re.compile(r'"([^"]*)"')


def _parse_matrix(text: str, where: str, parse) -> FieldMatrix:
    body = text.strip()
    if not body.startswith("[") or not body.endswith("]"):
        raise CatalogParseError(f"{where}: matrix literal must be [r1; r2; ...]")
    rows = []
    for row_text in body[1:-1].split(";"):
        cells = [c.strip() for c in _split_top_level(row_text)]
        try:
            rows.append([parse(c) for c in cells])
        except ParseError as exc:
            raise CatalogParseError(f"{where}: {exc}") from exc
    shape = [len(r) for r in rows]
    if shape != [4, 4, 4, 4]:
        raise CatalogParseError(f"{where}: matrix literal must be 4x4, got "
                                f"rows of lengths {shape}")
    return FieldMatrix(4, 4, rows)


def _split_top_level(text: str) -> list:
    """Split on commas that are not inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


NO_SOLUTION_REASONS = ("trivial_stress_energy", "inconsistent", "flat_curvature")


def parse_catalog(text: str, source: str = "<catalog>") -> Catalog:
    entries: list = []
    table1: list = []
    current_pair: LiePair | None = None
    current_golden: CaseGolden | None = None
    parsed: dict = {}   # text -> (RatFunc, its variables), for this load only
    case_ids: set = set()
    used: list = []     # (where, variables) of the current case's lines
    line_vars: set = set()  # variables of what the current line parsed

    def parse(expr: str) -> RatFunc:
        got = parsed.get(expr)
        if got is None:
            value = parse_ratfunc(expr)
            got = parsed[expr] = (value, value.variables())
        line_vars.update(got[1])
        return got[0]

    def flush():
        if current_pair is not None:
            _check_variables(current_pair, current_golden, used)
            entries.append(CatalogEntry(current_pair, current_golden))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        where = f"{source}:{lineno}"
        line_vars.clear()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "table1":
            m = re.match(r'"([^"]+)"\s+cases\s+"([^"]+)"\s+lorentz\s+"([^"]+)"', rest)
            if not m:
                raise CatalogParseError(f"{where}: bad table1 row")
            table1.append(Table1Row(*m.groups()))
            continue
        if head == "case":
            flush()
            m = re.match(r'"([^"]+)"\s+dim_h\s+(\d+)$', rest)
            if not m:
                raise CatalogParseError(f"{where}: bad case header")
            if m.group(1) in case_ids:
                raise CatalogParseError(
                    f"{where}: duplicate case id {m.group(1)!r}")
            case_ids.add(m.group(1))
            used.clear()
            current_pair = LiePair(case_id=m.group(1), dim_h=int(m.group(2)),
                                   brackets={})
            current_golden = CaseGolden()
            continue
        if current_pair is None:
            raise CatalogParseError(f"{where}: directive outside a case block")
        if head == "note":
            m = _QUOTED.match(rest)
            if not m:
                raise CatalogParseError(f"{where}: note needs a quoted string")
            current_golden.notes.append(m.group(1))
        elif head == "param":
            m = re.match(r'(\w+)\s+range\s+"([^"]*)"$', rest)
            if not m:
                raise CatalogParseError(f"{where}: bad param line")
            if any(p.name == m.group(1) for p in current_pair.params):
                raise CatalogParseError(
                    f"{where}: duplicate param {m.group(1)!r}")
            current_pair.params.append(CaseParam(m.group(1), m.group(2)))
        elif head == "bracket":
            m = re.match(r'(\w+)\s+(\w+)\s*=\s*(.+)$', rest)
            if not m:
                raise CatalogParseError(f"{where}: bad bracket line")
            x, y, rhs = m.groups()
            basis = current_pair.basis
            if x not in basis or y not in basis:
                raise CatalogParseError(f"{where}: unknown basis label {x} or {y}")
            if (x, y) in current_pair.brackets or (y, x) in current_pair.brackets:
                raise CatalogParseError(f"{where}: duplicate bracket [{x},{y}]")
            try:
                parts = linear_parts(parse(rhs), set(basis))
            except ValueError as exc:   # ParseError included
                raise CatalogParseError(f"{where}: {exc}") from exc
            if None in parts:
                raise CatalogParseError(f"{where}: constant term in a bracket")
            current_pair.brackets[(x, y)] = parts
            used.append((where, line_vars - set(basis)))
        elif head == "golden":
            _parse_golden(rest, current_golden, where, parse)
            used.append((where, set(line_vars)))
        elif head == "space":
            m = _QUOTED.match(rest)
            if not m:
                raise CatalogParseError(f"{where}: space needs a quoted string")
            current_golden.space = m.group(1)
        else:
            raise CatalogParseError(f"{where}: unknown directive {head!r}")
    flush()
    return Catalog(entries, table1)


def _check_variables(pair: LiePair, golden: CaseGolden, used: list) -> None:
    """Every variable `used` names is a declared param or a metric-shape
    variable: of the golden metric, or without one of the letters the
    solved family may take (geom.solve_invariant_metric)."""
    allowed = {p.name for p in pair.params}
    if golden.metric is not None:
        allowed.update(v for row in golden.metric.entries for x in row
                       if not x.is_zero() for v in x.variables())
    else:
        allowed |= set("abcdefghij")
    for where, names in used:
        if not names <= allowed:
            raise CatalogParseError(
                f"{where}: {min(names - allowed)!r} is neither a metric-shape "
                "variable nor a declared param")


_CONDITION = re.compile(r"^\s*(.+?)\s*(!=|<|>)\s*(.+?)\s*$")


def parse_condition(text: str, parse=None) -> tuple:
    """(lhs, op, rhs) of a condition like 'b*d > c^2', op one of !=, <, >;
    `parse` reads each side, `parse_ratfunc` (looked up at the call) when
    None."""
    m = _CONDITION.match(text)
    if not m:
        raise ParseError(f"cannot parse condition {text!r}")
    if parse is None:
        parse = parse_ratfunc
    return parse(m.group(1)), m.group(2), parse(m.group(3))


def _parse_golden(rest: str, golden: CaseGolden, where: str,
                  parse) -> None:
    m = re.match(r'(\w+)\s*=\s*(.+)$', rest)
    if not m:
        raise CatalogParseError(f"{where}: bad golden line")
    key, value = m.group(1), m.group(2).strip()
    try:
        if key == "metric":
            golden.metric = _parse_matrix(value, where, parse)
        elif key == "ricci":
            golden.ricci = _parse_matrix(value, where, parse)
        elif key == "det":
            golden.det = parse(value)
            if golden.det.is_zero():
                raise CatalogParseError(f"{where}: det g is identically zero")
        elif key == "scalar":
            golden.scalar = parse(value)
        elif key == "lorentz":
            mq = _QUOTED.match(value)
            if not mq:
                raise CatalogParseError(f"{where}: lorentz needs a quoted string")
            parse_condition(mq.group(1), parse)
            golden.lorentz = mq.group(1)
        elif key == "hol_dim":
            if not re.fullmatch(r"[0-9]+", value):
                raise CatalogParseError(f"{where}: hol_dim must be an integer")
            golden.hol_dim = int(value)
        elif key == "verdict":
            if value != "solution":
                if not value.startswith("no_solution:") or \
                        value.split(":", 1)[1] not in NO_SOLUTION_REASONS:
                    raise CatalogParseError(f"{where}: bad verdict {value!r}")
            golden.verdict = value
        elif key == "lambda":
            golden.lambda_ = parse(value)
        elif key == "kappa":
            golden.kappa = parse(value)
        elif key == "conditions":
            golden.conditions = [parse(c) for c in _split_top_level(value)]
        else:
            raise CatalogParseError(f"{where}: unknown golden key {key!r}")
    except ParseError as exc:
        raise CatalogParseError(f"{where}: {exc}") from exc


def catalog_load(path: str | None = None) -> Catalog:
    """Load the bundled catalog, or the file at `path` when given."""
    if path is None:
        text = (resources.files("eymsym") / "data" / "catalog.txt").read_text()
        source = "catalog.txt"
    else:
        with open(path, encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise CatalogParseError(
                    f"{path}: not UTF-8 text (byte {exc.start})") from None
        source = path
    return parse_catalog(text, source)


# -- validators --------------------------------------------------------------------


def isotropy_rep(pair: LiePair) -> list:
    """Matrices of ad(e_i) restricted to the complement, in the u-basis."""
    mats = []
    for e in pair.e_labels:
        cols = []
        for u in U_LABELS:
            coeffs = pair.bracket(e, u)
            bad = [lbl for lbl in coeffs if lbl not in U_LABELS]
            if bad:
                raise NotReductive(
                    f"{pair.case_id}: [{e},{u}] has isotropy component on {bad}")
            cols.append([coeffs.get(lbl, RF_ZERO) for lbl in U_LABELS])
        mats.append(FieldMatrix(4, 4, [[cols[j][i] for j in range(4)]
                                       for i in range(4)]))
    return mats


def validate_pair(pair: LiePair) -> list:
    """(name, witness) of each failed check, in check order: antisymmetry,
    Jacobi, reductivity, and the symmetric-pair property."""
    failed = []
    bad = [key for key in pair.brackets if key[0] == key[1]
           and any(not v.is_zero() for v in pair.brackets[key].values())]
    both = [(x, y) for (x, y) in pair.brackets if (y, x) in pair.brackets]
    if bad or both:
        failed.append(("antisymmetry", f"bad pairs {bad + both}"))

    for x, y, z in combinations(pair.basis, 3):
        total: dict = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            for lbl, v in pair.bracket_vec(pair.bracket(a, b), c).items():
                total[lbl] = total.get(lbl, RF_ZERO) + v
        if any(not v.is_zero() for v in total.values()):
            failed.append(("jacobi", f"({x},{y},{z})"))
            break

    witness = next((f"[{e},{u}]" for e in pair.e_labels for u in U_LABELS
                    if any(lbl not in U_LABELS for lbl in pair.bracket(e, u))),
                   "")
    if witness:
        failed.append(("reductive", witness))

    witness = symmetric_witness(pair)
    if witness:
        failed.append(("symmetric", witness))
    return failed


def symmetric_witness(pair: LiePair) -> str:
    """'(u_i,u_j)' for the first [u_i, u_j] with a component in m, or ''
    when the pair is symmetric ([m, m] in h)."""
    for i in range(4):
        for j in range(i + 1, 4):
            x, y = U_LABELS[i], U_LABELS[j]
            if any(lbl in U_LABELS for lbl in pair.bracket(x, y)):
                return f"({x},{y})"
    return ""


def rho_of(pair: LiePair, mats: list, coeffs: dict) -> FieldMatrix:
    """rho(x) = sum_l c_l rho(e_l) for x in h given by its coefficients
    {e_l: c_l}, with `mats` the isotropy matrices of the pair
    (isotropy_rep), summed over the nonzero c_l only, so zero entries stay
    the shared RF_ZERO."""
    out = FieldMatrix.zeros(4, 4)
    for lbl, c in coeffs.items():
        if not c.is_zero():
            out = out + mats[pair.e_labels.index(lbl)].scale(c)
    return out


def rep_is_homomorphism(pair: LiePair, mats: list) -> bool:
    """rho([e_i, e_j]) equals the matrix commutator for all generator pairs,
    with `mats` the isotropy matrices of the pair (isotropy_rep)."""
    e_labels = pair.e_labels
    for i in range(pair.dim_h):
        for j in range(i + 1, pair.dim_h):
            coeffs = pair.bracket(e_labels[i], e_labels[j])
            if any(lbl not in e_labels for lbl in coeffs):
                return False    # [h, h] leaves h: rho([e_i, e_j]) is undefined
            if mats[i].commutator(mats[j]) != rho_of(pair, mats, coeffs):
                return False
    return True


def rep_is_faithful(pair: LiePair, mats: list) -> bool:
    """The isotropy matrices `mats` of the pair are linearly independent
    (vacuously so when h = 0)."""
    if not mats:
        return True
    stacked = FieldMatrix(len(mats), 16, [
        [m.entries[i][j] for i in range(4) for j in range(4)] for m in mats])
    return rank(stacked) == len(mats)
