"""Command-line interface.

Verbs: list, validate, report <case>, tables, solve <case>.

Exit codes (stable contract for CI):
  0  success
  1  reference-data or invariant mismatch
  2  a catalog that fails to parse, is not UTF-8 text, or fails a load-time
     check
  3  unknown case
  4  bad arguments, a --sample point at a pole of lambda or kappa included,
     an --out file that cannot be written, or a closed stdout
  5  a case cannot be analysed (not reductive, not symmetric, an isotropy
     that acts trivially or is not faithful, no invariant metric, a bad
     metric shape, or a degenerate metric); `validate` prints such a case as
     FAIL, goes on, and exits 5 at the end
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
import zlib
from fractions import Fraction

from .exact import (ParseError, PoleAtPoint, format_point, parse_ratfunc,
                    rf)
from .eym import CaseReport, HolonomyMetric, run_case
from .geom import (BadMetricShape, NoInvariantMetric, SingularMetric,
                   lorentz_check, lorentz_condition_holds)
from .liecat import (Catalog, CatalogParseError, NotReductive, NotSymmetric,
                     TrivialIsotropy, UnknownCase, catalog_load, isotropy_rep,
                     rep_is_faithful, rep_is_homomorphism, validate_pair)
from .linalg import FieldMatrix, contract

# A case whose data the pipeline cannot analyse (exit code 5).
_UNANALYSABLE = (NotReductive, NotSymmetric, TrivialIsotropy,
                 NoInvariantMetric, BadMetricShape, SingularMetric)


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


def _key_values(text: str | None, option: str):
    """(piece, key, value) of each entry of a `key=value,...` option."""
    for piece in text.split(",") if text else ():
        key, eq, value = piece.partition("=")
        if not eq:
            raise _ArgumentError(f"bad {option} entry {piece!r}")
        yield piece, key.strip(), value.strip()


def _parse_holonomy(text: str | None) -> HolonomyMetric:
    hm = HolonomyMetric()
    for piece, key, value in _key_values(text, "--g-holonomy"):
        # ASCII digits only: str.isdigit also takes '²', which int() refuses
        if not re.fullmatch(r"[0-9]+", key):
            raise _ArgumentError(f"bad --g-holonomy entry {piece!r}")
        index = int(key)
        if index in hm.overrides:   # a second value must not replace the first
            raise _ArgumentError(f"--g-holonomy repeats key {index}")
        if index < 5:
            raise _ArgumentError(f"--g-holonomy entry {piece!r}: holonomy "
                                 "indices start at 5")
        try:
            hm.overrides[index] = parse_ratfunc(value)
        except ParseError as exc:
            raise _ArgumentError(str(exc))
        if hm.overrides[index].is_zero():
            raise _ArgumentError(f"--g-holonomy entry {piece!r} is zero")
    return hm


def _warn_ignored_holonomy(hm: HolonomyMetric, dim: int, algebra: str) -> None:
    """One stderr line per --g-holonomy index beyond a holonomy algebra of
    dimension `dim`, whose indices run 5..4+dim; the run goes on without it."""
    indices = f"indices 5..{4 + dim}" if dim else "no indices"
    for a in sorted(hm.overrides):
        if a >= 5 + dim:
            print(f"warning: --g-holonomy index {a} ignored: {algebra} has "
                  f"dimension {dim} ({indices})", file=sys.stderr)


def _parse_sample(text: str | None) -> dict:
    out = {}
    for piece, key, value in _key_values(text, "--sample"):
        if key in out:
            raise _ArgumentError(f"--sample repeats key {key}")
        try:
            out[key] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise _ArgumentError(f"bad rational value in {piece!r}")
    return out


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _ArgumentError(f"cannot write --out {out_path}: "
                             f"{exc.strerror or exc}") from None


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
    if name not in report.compared:
        return f"golden:{name}"
    expected, computed = report.compared[name]
    return (f"golden:{name} (expected {_render(expected)}, "
            f"computed {_render(computed)})")


def _validate_one(entry, failures: list, seed: int | None = None) -> None:
    """Append the case's failures; an unanalysable case raises after them.
    `seed` overrides validate_seed for the sample points."""
    # imported here, as no other verb needs the numeric cross-check
    from .crosscheck import crosscheck_case, sample_point
    failures += [f"{name} ({witness})" if witness else name
                 for name, witness in validate_pair(entry.pair)]
    mats = isotropy_rep(entry.pair)
    if not rep_is_homomorphism(entry.pair, mats):
        failures.append("isotropy homomorphism")
    if not rep_is_faithful(entry.pair, mats):
        failures.append("isotropy faithfulness")
    report = run_case(entry)
    failures += [_golden_failure(report, name)
                 for name, ok in report.flags.items() if not ok]
    # invariant suite: tracelessness, trace identity; solve_first_eym is
    # built on both (lambda = s/4 is the g-trace of the first equation when
    # T is traceless), and these checks guard that identity
    if not contract(report.family.g_inverse(), report.T).is_zero():
        failures.append("stress tensor trace")
    if report.verdict.is_solution:
        if report.verdict.lambda_ * rf(4) != report.lc.scalar:
            failures.append("lambda != scalar/4")
    if seed is None:
        seed = validate_seed(entry.pair.case_id)
    rng = random.Random(seed)
    # a vanishing structure coefficient would hide a dropped basis element
    avoid = list(report.verdict.conditions) + [
        c for coeffs in report.structure.values() for c in coeffs
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


def _run_one(entry, hm: HolonomyMetric) -> CaseReport:
    """run_case under `hm`, with a warning per override index beyond the
    case's holonomy algebra."""
    report = run_case(entry, hm)
    _warn_ignored_holonomy(report.hm, report.hol_dim,
                           f"the holonomy algebra of {report.case_id}")
    return report


def _cmd_report(catalog: Catalog, args) -> int:
    # imported here and in `tables` only, as `list` and `solve` render no report
    from .report import json_dumps, report_markdown, report_to_dict
    report = _run_one(catalog.get(args.case), _parse_holonomy(args.g_holonomy))
    if args.format == "json":
        _emit(json_dumps(report_to_dict(report)), args.out)
    else:
        _emit(report_markdown(report), args.out)
    return 0 if report.golden_ok else 1


def _cmd_tables(catalog: Catalog, args) -> int:
    from .report import json_dumps, tables_data, tables_markdown
    hm = _parse_holonomy(args.g_holonomy)
    reports = [run_case(e, hm) for e in catalog.entries]
    _warn_ignored_holonomy(hm, max((r.hol_dim for r in reports), default=0),
                           "the largest holonomy algebra in the catalog")
    data = tables_data(catalog, reports)
    if args.format == "json":
        _emit(json_dumps(data), args.out)
    else:
        _emit(tables_markdown(data), args.out)
    return 1 if data["mismatches"] else 0


def _cmd_solve(catalog: Catalog, args) -> int:
    entry, hm = catalog.get(args.case), _parse_holonomy(args.g_holonomy)
    # a bad --sample ends the run before the case is analysed
    sample = _parse_sample(args.sample)
    report = _run_one(entry, hm)
    lines = [f"case {report.case_id}"]
    v = report.verdict
    if v.is_solution:
        lines.append(f"first equation: lambda = {v.lambda_}, kappa = {v.kappa}")
        if v.conditions:
            lines.append("conditions: " + ", ".join(str(c) for c in v.conditions))
    else:
        lines.append(f"first equation: {v.outcome.value}"
                     + (f" ({v.detail})" if v.detail else ""))
    lines.append("second equation residual: "
                 + ("0" if report.second_residual_zero else "nonzero"))
    if sample:
        # every name evaluated below: g's, and lambda's and kappa's, which
        # a symbolic --g-holonomy weight enters
        names = (set(report.family.free_params)
                 | {p.name for p in report.pair.params})
        if v.is_solution:
            names |= v.lambda_.variables() | v.kappa.variables()
        missing = [name for name in sorted(names) if name not in sample]
        if missing:
            raise _ArgumentError(f"--sample misses parameters {missing}")
        for key in sorted(sample.keys() - names):
            print(f"warning: --sample key {key} ignored: {report.case_id} "
                  f"evaluates only {', '.join(sorted(names))}", file=sys.stderr)
        sig = lorentz_check(report.family, sample)
        lines.append(f"signature at sample: {sig.value}")
        if v.is_solution:
            lines.append(f"lambda at sample = {v.lambda_.evaluate(sample)}")
            lines.append(f"kappa at sample = {v.kappa.evaluate(sample)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {"list": _cmd_list, "validate": _cmd_validate,
             "report": _cmd_report, "tables": _cmd_tables, "solve": _cmd_solve}


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
        code = _COMMANDS[args.command](catalog, args)
        # a closed stdout raises here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # what is still buffered goes nowhere when the interpreter exits
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {exc.strerror}",
              file=sys.stderr)
        return 4
    except UnknownCase as exc:
        print(f"unknown case: {exc}", file=sys.stderr)
        return 3
    except (_ArgumentError, PoleAtPoint) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _UNANALYSABLE as exc:
        print(f"error: case cannot be analysed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
