"""Spans around the public functions of eymsym, recorded from outside.

`Tracer.install()` replaces each function in `TARGETS` by a wrapper that
records one span per call: (name, start, end, parent span, operation id,
value).  Modules bind many of these functions with `from ... import`, so the
wrapper replaces the name in every loaded eymsym module, not only in the
module that defines it.  Spans stay in memory until the traced process
writes out `document()` at its end; `summarize()` derives call counts and
self times from that document.
"""

from __future__ import annotations

import importlib
import sys
import time

SETUP_OP = -1


def _nontrivial(args, result) -> int:
    return 0 if result.is_constant() else 1


def _entries(args, result) -> int:
    return args[0].rows * args[0].cols


# (module, attribute, span name, value recorded per call or None)
TARGETS = [
    ("exact", "poly_gcd", "exact.poly_gcd", _nontrivial),
    ("exact", "parse_ratfunc", "exact.parse_ratfunc", None),
    ("exact", "RatFunc.evaluate", "exact.evaluate", None),
    ("linalg", "rref", "linalg.rref", _entries),
    ("linalg", "nullspace", "linalg.nullspace", None),
    ("linalg", "det", "linalg.det", None),
    ("linalg", "inverse", "linalg.inverse", None),
    ("liecat", "catalog_load", "liecat.catalog_load", None),
    ("liecat", "isotropy_rep", "liecat.isotropy_rep", None),
    ("geom", "solve_invariant_metric", "geom.solve_invariant_metric", None),
    ("geom", "levi_civita", "geom.levi_civita", None),
    ("geom", "signature_at", "geom.signature_at", None),
    ("conn", "solve_connections", "conn.solve_connections", None),
    ("conn", "curvature", "conn.curvature", None),
    ("conn", "depends_on_connection_params",
     "conn.depends_on_connection_params", None),
    ("conn", "holonomy", "conn.holonomy", None),
    ("conn", "expand_in_basis", "conn.expand_in_basis", None),
    ("eym", "run_case", "eym.run_case", None),
    ("eym", "stress_tensor", "eym.stress_tensor", None),
    ("eym", "solve_first_eym", "eym.solve_first_eym", None),
    ("eym", "hodge_star_2form", "eym.hodge_star_2form", None),
    ("eym", "second_eym_residual", "eym.second_eym_residual", None),
    ("crosscheck", "sample_point", "crosscheck.sample_point", None),
    ("crosscheck", "NumericCase.__init__", "crosscheck.NumericCase", None),
    ("crosscheck", "crosscheck_case", "crosscheck.crosscheck_case", None),
    ("report", "report_to_dict", "report.report_to_dict", None),
    ("report", "json_dumps", "report.json_dumps", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """In-memory span recorder; `on` pauses recording, `op` tags spans."""

    def __init__(self):
        self.names = [name for _, _, name, _ in TARGETS]
        self.spans = []
        self.stack = []
        self.on = True
        self.op = SETUP_OP

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "eymsym" or n.startswith("eymsym.")]
        for idx, (modname, path, _, measure) in enumerate(TARGETS):
            owner = importlib.import_module(f"eymsym.{modname}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(idx, original, measure)
            setattr(owner, attr, wrapper)
            if outer:
                continue
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapper)

    def _wrap(self, idx: int, fn, measure):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (idx, start, end, parent, self.op, 0)
            if measure is not None:
                spans[i] = (idx, start, end, parent, self.op,
                            measure(args, result))
            return result

        return wrapper

    def document(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def summarize(doc: dict) -> dict:
    """Per span name: counts, values and self/inclusive seconds.

    `calls`, `value`, `self_s` and `incl_s` cover spans inside timed
    operations only; `calls_all` and `self_all_s` also cover set-up.
    A span's self time is its duration minus that of its direct children;
    spans are nested, so children never overlap.  `incl_s` of a recursive
    function (poly_gcd) counts nested calls more than once.
    """
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"calls": 0, "value": 0, "self_s": 0.0, "incl_s": 0.0,
                  "calls_all": 0, "self_all_s": 0.0}
           for name in doc["names"]}
    for i, (idx, start, end, _, op, value) in enumerate(spans):
        row = out[doc["names"][idx]]
        dur = end - start
        row["calls_all"] += 1
        row["self_all_s"] += dur - child[i]
        if op != SETUP_OP:
            row["calls"] += 1
            row["value"] += value
            row["self_s"] += dur - child[i]
            row["incl_s"] += dur
    return out


def merge(summaries: list) -> dict:
    """Sum per-process summaries into one (a cold_report pass)."""
    out = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = out.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
    return out
