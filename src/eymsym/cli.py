"""Command-line interface.

Verbs: list, validate, report <case>, tables, solve <case>.

Exit codes (stable contract for CI):
  0  success
  1  reference-data or invariant mismatch
  2  catalog parse failure
  3  unknown case
  4  bad arguments, a --sample point at a pole of lambda or kappa included
  5  a case cannot be analysed (not reductive, not symmetric, no invariant
     metric, a bad metric shape, a degenerate metric, or a curvature
     component outside the holonomy span);
     `validate` prints such a case as FAIL, goes on, and exits 5 at the end
"""

from __future__ import annotations

import argparse
import random
import sys
import zlib
from fractions import Fraction

from .conn import NonClosing
from .exact import (ParseError, PoleAtPoint, format_point, parse_ratfunc,
                    rf)
from .eym import HolonomyMetric, run_case
from .geom import (BadMetricShape, NoInvariantMetric, SingularMetric,
                   lorentz_check, lorentz_condition_holds)
from .liecat import (Catalog, CatalogParseError, NotReductive, NotSymmetric,
                     UnknownCase, catalog_load, isotropy_rep, rep_is_faithful,
                     rep_is_homomorphism, validate_pair)
from .linalg import FieldMatrix

# A case whose data the pipeline cannot analyse (exit code 5).
_UNANALYSABLE = (NotReductive, NotSymmetric, NoInvariantMetric,
                 BadMetricShape, SingularMetric, NonClosing)


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="eymsym", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--catalog", help="override the bundled catalog file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the catalog cases")
    p_list.add_argument("--filter", help="glob over case ids, e.g. '2.1^2(*)'")

    p_val = sub.add_parser("validate", help="run the validation suite")
    p_val.add_argument("--filter")
    p_val.add_argument("--seed", type=int,
                       help="sample seed for every case run, replaying a FAIL line")

    p_rep = sub.add_parser("report", help="full report for one case")
    p_rep.add_argument("case")
    p_rep.add_argument("--format", choices=("markdown", "json"),
                       default="markdown")
    p_rep.add_argument("--g-holonomy", dest="g_holonomy",
                       help="diagonal holonomy metric overrides, e.g. 5=2,6=4")
    p_rep.add_argument("--out")

    p_tab = sub.add_parser("tables", help="emit the four summary tables")
    p_tab.add_argument("--format", choices=("markdown", "json"),
                       default="markdown")
    p_tab.add_argument("--g-holonomy", dest="g_holonomy")
    p_tab.add_argument("--out")

    p_sol = sub.add_parser("solve", help="first/second equation outcome")
    p_sol.add_argument("case")
    p_sol.add_argument("--g-holonomy", dest="g_holonomy")
    p_sol.add_argument("--sample", help="rational parameter values, e.g. a=3,b=5")
    p_sol.add_argument("--out")
    return parser


def _parse_holonomy(text: str | None) -> HolonomyMetric:
    hm = HolonomyMetric()
    if not text:
        return hm
    for piece in text.split(","):
        key, _, value = piece.partition("=")
        if not _ or not key.strip().isdigit():
            raise _ArgumentError(f"bad --g-holonomy entry {piece!r}")
        if int(key) < 5:
            raise _ArgumentError(f"--g-holonomy entry {piece!r}: holonomy "
                                 "indices start at 5")
        try:
            hm.overrides[int(key)] = parse_ratfunc(value.strip())
        except ParseError as exc:
            raise _ArgumentError(str(exc))
        if hm.overrides[int(key)].is_zero():
            raise _ArgumentError(f"--g-holonomy entry {piece!r} is zero")
    return hm


def _parse_sample(text: str | None) -> dict:
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        key, _, value = piece.partition("=")
        if not _:
            raise _ArgumentError(f"bad --sample entry {piece!r}")
        try:
            out[key.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise _ArgumentError(f"bad rational value in {piece!r}")
    return out


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_list(catalog: Catalog, args) -> int:
    entries = catalog.filter(args.filter)
    for e in entries:
        golden = e.golden
        space = f"  {golden.space}" if golden.space else ""
        print(f"{e.pair.case_id:18s} dim_h={e.pair.dim_h}  "
              f"L: {golden.lorentz or '-':12s}{space}")
    print(f"{len(entries)} case(s)")
    return 0


def validate_seed(case_id: str) -> int:
    """Seed of the sample points `validate` draws for one case.

    A stable digest of the case id, so the points are the same in every
    process and under every PYTHONHASHSEED.
    """
    return zlib.crc32(case_id.encode())


def _render(x) -> str:
    """A golden or computed value, matrices in the catalog's row syntax."""
    if isinstance(x, FieldMatrix):
        return "[" + "; ".join(",".join(map(str, row)) for row in x.entries) + "]"
    return str(x)


def _golden_failure(report, name: str) -> str:
    """`golden:<name> (expected ..., computed ...)` for a failed flag."""
    g, v = report.golden, report.verdict
    values = {"det": (g.det, report.family.det_g),
              "ricci": (g.ricci, report.lc.ricci),
              "scalar": (g.scalar, report.lc.scalar),
              "hol_dim": (g.hol_dim, report.hol_dim),
              "verdict": (g.verdict, v.verdict_string()),
              "lambda": (g.lambda_, v.lambda_),
              "kappa": (g.kappa, v.kappa)}
    if name not in values:
        return f"golden:{name}"
    expected, computed = values[name]
    return (f"golden:{name} (expected {_render(expected)}, "
            f"computed {_render(computed)})")


def _validate_one(entry, failures: list, seed: int | None = None) -> None:
    """Append the case's failures; an unanalysable case raises after them.
    `seed` overrides validate_seed for the sample points."""
    # imported here, as no other verb needs the numeric cross-check
    from .crosscheck import crosscheck_case, sample_point
    rep = validate_pair(entry.pair)
    failures += [f"{name} ({witness})" if witness else name
                 for name, witness in rep.failures()]
    mats = isotropy_rep(entry.pair)
    if not rep_is_homomorphism(entry.pair, mats):
        failures.append("isotropy homomorphism")
    if not rep_is_faithful(entry.pair, mats):
        failures.append("isotropy faithfulness")
    report = run_case(entry)
    failures += [_golden_failure(report, name)
                 for name, ok in report.flags.items() if not ok]
    # invariant suite: tracelessness, trace identity
    ginv = report.family.g_inverse()
    trace = rf(0)
    for i in range(4):
        for j in range(4):
            trace = trace + ginv.entries[i][j] * report.T.entries[i][j]
    if not trace.is_zero():
        failures.append("stress tensor trace")
    if report.verdict.is_solution:
        if report.verdict.lambda_ * rf(4) != report.lc.scalar:
            failures.append("lambda != scalar/4")
    if seed is None:
        seed = validate_seed(entry.pair.case_id)
    rng = random.Random(seed)
    # a vanishing structure coefficient would hide a dropped basis element
    avoid = list(report.verdict.conditions) + [
        c for coeffs in report.form.structure.values() for c in coeffs
        if not c.is_zero()]
    sample = sample_point(entry, rng, avoid=avoid, family=report.family)
    failures += [f"crosscheck {problem} (seed {seed}, sample {format_point(sample)})"
                 for problem in crosscheck_case(entry, report, sample)]
    # recorded Lorentz condition against exact signature verdicts
    if report.family.lorentz:
        for _ in range(5):
            s = sample_point(entry, rng, family=report.family)
            verdict = lorentz_check(report.family, s)
            expect = lorentz_condition_holds(report.family.lorentz, s)
            if (verdict.value == "lorentzian") != expect:
                failures.append(f"lorentz condition {report.family.lorentz!r} "
                                f"(seed {seed}, sample {format_point(s)})")
                break


def _cmd_validate(catalog: Catalog, args) -> int:
    entries = catalog.filter(args.filter)
    n_ok = n_unanalysable = 0
    for e in entries:
        failures = []
        try:
            _validate_one(e, failures, args.seed)
        except _UNANALYSABLE as exc:
            n_unanalysable += 1
            failures.append(f"cannot be analysed: {exc}")
        if failures:
            print(f"FAIL {e.pair.case_id}: " + "; ".join(failures))
        else:
            n_ok += 1
            print(f"ok   {e.pair.case_id}")
    print(f"{n_ok}/{len(entries)} pass")
    if n_unanalysable:
        return 5
    return 0 if n_ok == len(entries) else 1


def _cmd_report(catalog: Catalog, args) -> int:
    # imported here and in `tables` only, as `list` and `solve` render no report
    from .report import json_dumps, report_markdown, report_to_dict
    entry = catalog.get(args.case)
    report = run_case(entry, _parse_holonomy(args.g_holonomy))
    if args.format == "json":
        _emit(json_dumps(report_to_dict(report)), args.out)
    else:
        _emit(report_markdown(report), args.out)
    return 0 if report.golden_ok else 1


def _cmd_tables(catalog: Catalog, args) -> int:
    from .report import json_dumps, tables_data, tables_markdown
    hm = _parse_holonomy(args.g_holonomy)
    data = tables_data(catalog, [run_case(e, hm) for e in catalog.entries])
    if args.format == "json":
        _emit(json_dumps(data), args.out)
    else:
        _emit(tables_markdown(data), args.out)
    return 1 if data["mismatches"] else 0


def _cmd_solve(catalog: Catalog, args) -> int:
    entry = catalog.get(args.case)
    report = run_case(entry, _parse_holonomy(args.g_holonomy))
    lines = [f"case {report.case_id}"]
    v = report.verdict
    if v.is_solution:
        lines.append(f"first equation: lambda = {v.lambda_}, kappa = {v.kappa}")
        if v.conditions:
            lines.append("conditions: " + ", ".join(str(c) for c in v.conditions))
    else:
        lines.append(f"first equation: {v.verdict_string()}"
                     + (f" ({v.detail})" if v.detail else ""))
    lines.append("second equation residual: "
                 + ("0" if report.second_residual_zero else "nonzero"))
    sample = _parse_sample(args.sample)
    if sample:
        missing = sorted(set(report.family.free_params)
                         | {p.name for p in entry.pair.params})
        missing = [name for name in missing if name not in sample]
        if missing:
            raise _ArgumentError(f"--sample misses parameters {missing}")
        sig = lorentz_check(report.family, sample)
        lines.append(f"signature at sample: {sig.value}")
        if v.is_solution:
            lines.append(f"lambda at sample = {v.lambda_.evaluate(sample)}")
            lines.append(f"kappa at sample = {v.kappa.evaluate(sample)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def main(argv: list | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    try:
        catalog = catalog_load(args.catalog)
    except (CatalogParseError, OSError) as exc:
        print(f"catalog error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "list":
            return _cmd_list(catalog, args)
        if args.command == "validate":
            return _cmd_validate(catalog, args)
        if args.command == "report":
            return _cmd_report(catalog, args)
        if args.command == "tables":
            return _cmd_tables(catalog, args)
        if args.command == "solve":
            return _cmd_solve(catalog, args)
    except UnknownCase as exc:
        print(f"unknown case: {exc}", file=sys.stderr)
        return 3
    except (_ArgumentError, PoleAtPoint) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _UNANALYSABLE as exc:
        print(f"error: case cannot be analysed: {exc}", file=sys.stderr)
        return 5
    return 4


if __name__ == "__main__":
    sys.exit(main())
