"""Write reference.json: the checked report fields of every catalog case.

    PYTHONPATH=src python3 perfbench/record_reference.py

The reference was recorded once, from the commit that introduced the
benchmark, and pins what later changes must keep byte-identical: det g,
Ricci, scalar curvature, holonomy dimension, stress tensor, first-equation
outcome (lambda, kappa, conditions), second-equation residual and the golden
verdict.  Connection maps are left out on purpose, since their
parameterization may change.  Do not re-record it to make a run pass.
"""

import json
from pathlib import Path

from eymsym import eym, liecat, report
from worker import checked_fields

if __name__ == "__main__":
    reference = {}
    for entry in liecat.catalog_load().entries:
        fields = checked_fields(report.report_to_dict(eym.run_case(entry)))
        del fields["golden_flags"]
        reference[entry.pair.case_id] = fields
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
