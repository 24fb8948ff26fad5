"""Rendering of case reports and the summary tables (markdown and json).

JSON output is canonical (sorted keys, fixed separators), so parsing an
emitted document and re-dumping it reproduces the bytes exactly.
"""

from __future__ import annotations

import json

from .eym import CaseReport
from .liecat import Catalog
from .linalg import FieldMatrix


def _mat(m: FieldMatrix) -> list:
    return [[str(x) for x in row] for row in m.entries]


def json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def report_to_dict(r: CaseReport) -> dict:
    verdict = {
        "outcome": r.verdict.outcome.value,
        "lambda": str(r.verdict.lambda_) if r.verdict.lambda_ is not None else None,
        "kappa": str(r.verdict.kappa) if r.verdict.kappa is not None else None,
        "conditions": [str(c) for c in r.verdict.conditions],
        "detail": r.verdict.detail,
    }
    return {
        "case": r.case_id,
        "dim_h": r.pair.dim_h,
        "notes": list(r.golden.notes),
        "params": [{"name": p.name, "range": p.range_text}
                   for p in r.pair.params],
        "metric": {
            "g": _mat(r.family.g),
            "free_params": list(r.family.free_params),
            "det": str(r.family.det_g),
            "lorentz": r.family.lorentz,
        },
        "isotropy": [_mat(m) for m in r.rhos],
        "ricci": _mat(r.lc.ricci),
        "scalar": str(r.lc.scalar),
        "connection": {
            "dim": r.conn.dim,
            "free_params": list(r.conn.free_params),
            "maps": [_mat(m) for m in r.conn.maps],
            "curvature_depends_on_params": r.curvature_param_dependent,
            "member_used": "canonical (all connection parameters zero)",
        },
        "curvature": {f"R_{i + 1}{j + 1}": _mat(c)
                      for (i, j), c in sorted(r.form.components.items())},
        "holonomy": {"dim": r.hol_dim, "basis": [_mat(b) for b in r.hol_basis]},
        "stress": _mat(r.T),
        "first_eym": verdict,
        "second_eym": {
            "residual_zero": r.second_residual_zero,
            "note": "densitized Hodge star (constant volume factor omitted)",
        },
        "golden": {
            "flags": dict(r.flags),
            "ok": r.golden_ok,
            "expected_verdict": r.golden.verdict,
            "space": r.golden.space,
        },
    }


def _md_matrix(m: FieldMatrix, indent: str = "    ") -> str:
    return "\n".join(indent + line for line in m.render().splitlines())


def report_markdown(r: CaseReport) -> str:
    out = [f"# Case {r.case_id}", ""]
    if r.golden.space:
        out.append(f"Global space: {r.golden.space}")
        out.append("")
    for note in r.golden.notes:
        out.append(f"> {note}")
    if r.golden.notes:
        out.append("")
    out.append(f"Isotropy dimension: {r.pair.dim_h}")
    if r.pair.params:
        ranges = ", ".join(f"{p.name} with range {p.range_text}"
                           for p in r.pair.params)
        out.append(f"Case parameters: {ranges}")
    out += ["", "## Invariant metric family", ""]
    out.append(_md_matrix(r.family.g))
    out.append("")
    out.append(f"free parameters: {', '.join(r.family.free_params)}")
    out.append(f"det g = {r.family.det_g}")
    if r.family.lorentz:
        out.append(f"Lorentzian iff {r.family.lorentz}")
    out += ["", "## Isotropy representation", ""]
    for lbl, m in zip(r.pair.e_labels, r.rhos):
        out.append(f"rho({lbl}):")
        out.append(_md_matrix(m))
    out += ["", "## Levi-Civita curvature", "", "Ricci tensor:",
            _md_matrix(r.lc.ricci), "", f"scalar curvature = {r.lc.scalar}"]
    out += ["", "## Invariant metric connections", ""]
    out.append(f"solution space dimension: {r.conn.dim}"
               + (f" (parameters {', '.join(r.conn.free_params)})"
                  if r.conn.free_params else ""))
    for lbl, m in zip(("u1", "u2", "u3", "u4"), r.conn.maps):
        if not m.is_zero():
            out.append(f"Lambda({lbl}):")
            out.append(_md_matrix(m))
    if all(m.is_zero() for m in r.conn.maps):
        out.append("all maps vanish")
    out.append("")
    out.append("curvature depends on connection parameters: "
               + ("yes (energy-momentum stage uses the canonical member)"
                  if r.curvature_param_dependent else "no"))
    out += ["", "## Curvature of the canonical member", ""]
    nonzero = [(key, c) for key, c in sorted(r.form.components.items())
               if not c.is_zero()]
    if not nonzero:
        out.append("all components vanish")
    for (i, j), c in nonzero:
        out.append(f"R(u{i + 1}, u{j + 1}):")
        out.append(_md_matrix(c))
    out += ["", f"holonomy dimension: {r.hol_dim}"]
    out += ["", f"## Energy-momentum tensor ({r.hm.describe(r.hol_dim)})", "",
            _md_matrix(r.T)]
    out += ["", "## First field equation", ""]
    v = r.verdict
    if v.is_solution:
        out.append(f"solution: lambda = {v.lambda_}, kappa = {v.kappa}")
        if v.conditions:
            out.append("nonvanishing conditions: "
                       + ", ".join(str(c) for c in v.conditions))
    else:
        out.append(f"no solution ({v.outcome.value.split(':', 1)[1]})"
                   + (f": {v.detail}" if v.detail else ""))
    out += ["", "## Second field equation", ""]
    out.append("residual identically zero"
               if r.second_residual_zero else "residual does not vanish")
    out += ["", "## Reference comparison", ""]
    for name, ok in sorted(r.flags.items()):
        out.append(f"- {name}: {'PASS' if ok else 'FAIL'}")
    out.append("")
    out.append(f"overall: {'PASS' if r.golden_ok else 'FAIL'}")
    return "\n".join(out) + "\n"


# -- tables --------------------------------------------------------------------------


def _family(case_id: str) -> str:
    return case_id.split("(")[0]


def tables_data(catalog: Catalog, reports: list) -> dict:
    """All four summary tables; Table 3 rows come from `reports`, the
    `run_case` reports of the catalog entries in catalog order."""
    by_family: dict = {}
    for e in catalog.entries:
        by_family.setdefault(_family(e.pair.case_id), []).append(e)
    by_case = {r.case_id: r for r in reports}

    table1 = [{"family": row.family, "cases": row.cases_text,
               "lorentz": row.lorentz,
               "det": str(by_case[by_family[row.family][0].pair.case_id]
                          .family.det_g)
               if row.family in by_family else None}
              for row in catalog.table1]

    table2 = []
    for family, entries in by_family.items():
        suffixes = []
        for e in entries:
            s = e.pair.case_id[len(family):].lstrip("(")
            suffixes.append(s.replace(")", "", 1))
        table2.append({"family": family, "cases": ", ".join(suffixes),
                       "lorentz": entries[0].golden.lorentz})

    table3 = []
    mismatches = []
    for r in reports:
        if r.verdict.is_solution:
            table3.append({
                "case": r.case_id, "dim_hol": r.hol_dim,
                "lambda": str(r.verdict.lambda_),
                "kappa": str(r.verdict.kappa),
                "conditions": [str(c) for c in r.verdict.conditions],
            })
        for name, ok in r.flags.items():
            if not ok:
                mismatches.append(f"{r.case_id}: {name}")

    table4 = [{"case": r.case_id, "space": r.golden.space}
              for r in reports if r.golden.space]
    return {"table1": table1, "table2": table2, "table3": table3,
            "table4": table4, "mismatches": mismatches}


def _md_table(headers: list, rows: list) -> str:
    table = [headers] + [[("" if c is None else str(c)) for c in row]
                         for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for k, row in enumerate(table):
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths))
                     + " |")
        if k == 0:
            lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines)


def tables_markdown(data: dict) -> str:
    out = ["# Reductive Lorentzian families", ""]
    out.append(_md_table(
        ["family", "cases", "Lorentzian", "det g (symmetric cases)"],
        [[r["family"], r["cases"], r["lorentz"], r["det"]]
         for r in data["table1"]]))
    out += ["", "# Symmetric cases", ""]
    out.append(_md_table(["family", "cases", "Lorentzian"],
                         [[r["family"], r["cases"], r["lorentz"]]
                          for r in data["table2"]]))
    out += ["", "# Solutions of the first field equation (computed)", ""]
    out.append(_md_table(
        ["case", "dim hol", "lambda", "kappa", "conditions"],
        [[r["case"], r["dim_hol"], r["lambda"], r["kappa"],
          ", ".join(r["conditions"])] for r in data["table3"]]))
    out += ["", "# Global spaces", ""]
    out.append(_md_table(["case", "space"],
                         [[r["case"], r["space"]] for r in data["table4"]]))
    if data["mismatches"]:
        out += ["", "# Reference mismatches", ""]
        out += [f"- {m}" for m in data["mismatches"]]
    return "\n".join(out) + "\n"
