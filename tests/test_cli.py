"""CLI behavior: verbs, exit codes, output formats."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import zlib
from importlib import resources
from pathlib import Path

import eymsym
import eymsym.cli
import eymsym.crosscheck
from eymsym.cli import main
from eymsym.exact import format_point
from eymsym.report import json_dumps


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_all(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "35 case(s)" in out


def test_list_filter_family(capsys):
    code, out, _ = run_cli(capsys, "list", "--filter", "2.1^2(*)")
    assert code == 0
    assert "6 case(s)" in out


def test_list_filter_no_match(capsys):
    code, out, _ = run_cli(capsys, "list", "--filter", "zzz")
    assert code == 0
    assert "0 case(s)" in out


def test_unknown_case_exit_3(capsys):
    code, _, err = run_cli(capsys, "report", "9.9^9(1)")
    assert code == 3
    assert "unknown case" in err


def test_bad_arguments_exit_4(capsys):
    code, _, err = run_cli(capsys, "report", "1.1^1(7)", "--g-holonomy", "x=1")
    assert code == 4
    code, _, err = run_cli(capsys, "solve", "1.1^1(7)", "--sample", "a=oops")
    assert code == 4


def test_bad_catalog_exit_2(capsys, tmp_path):
    bad = tmp_path / "broken.txt"
    bad.write_text('case "x" dim_h 1\nbracket e1 u9 = u1\n')
    code, _, err = run_cli(capsys, "--catalog", str(bad), "list")
    assert code == 2
    assert "catalog error" in err


def test_report_markdown(capsys):
    code, out, _ = run_cli(capsys, "report", "1.1^1(7)")
    assert code == 0
    assert "lambda = -1/(2*a), kappa = a" in out
    assert "overall: PASS" in out


def test_report_no_solution_case(capsys):
    code, out, _ = run_cli(capsys, "report", "2.5^2(7)")
    assert code == 0
    assert "no solution (flat_curvature)" in out


def test_report_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "report", "1.1^1(7)", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert json_dumps(parsed) == out
    assert parsed["first_eym"]["lambda"] == "-1/(2*a)"
    assert parsed["first_eym"]["kappa"] == "a"
    assert parsed["golden"]["ok"] is True


def test_tables_markdown(capsys):
    code, out, _ = run_cli(capsys, "tables")
    assert code == 0
    assert "3.5^2(3)" in out and "3/(2*a)" in out
    assert "S^3 x R" in out


def test_tables_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "tables", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert json_dumps(parsed) == out
    assert len(parsed["table1"]) == 14
    assert len(parsed["table4"]) == 10
    assert parsed["mismatches"] == []


def test_solve_with_sample(capsys):
    code, out, _ = run_cli(capsys, "solve", "1.1^1(7)",
                           "--sample", "a=3,b=1,c=0,d=1")
    assert code == 0
    assert "lambda at sample = -1/6" in out
    assert "kappa at sample = 3" in out
    assert "signature at sample: lorentzian" in out


def test_solve_missing_sample_params(capsys):
    code, _, err = run_cli(capsys, "solve", "1.1^1(7)", "--sample", "a=3")
    assert code == 4
    assert "misses parameters" in err


def test_validate_filter(capsys):
    code, out, _ = run_cli(capsys, "validate", "--filter", "3.5^2(*)")
    assert code == 0
    assert "3/3 pass" in out


def test_validate_detects_corrupted_bracket(capsys, tmp_path):
    text = (resources.files("eymsym") / "data" / "catalog.txt").read_text()
    # corrupt one structure constant: breaks the Jacobi identity
    broken = text.replace("bracket u1 u3 = e1", "bracket u1 u3 = 2*e1", 1)
    assert broken != text
    path = tmp_path / "catalog.txt"
    path.write_text(broken)
    code, out, _ = run_cli(capsys, "--catalog", str(path), "validate",
                           "--filter", "1.1^1(7)")
    assert code == 1
    assert "FAIL 1.1^1(7)" in out


def test_validate_seed_is_stable_across_hash_seeds():
    script = ("import random\n"
              "from eymsym.cli import validate_seed\n"
              "from eymsym.crosscheck import sample_point\n"
              "from eymsym.liecat import catalog_load\n"
              "seed = validate_seed('2.1^2(1)')\n"
              "entry = catalog_load().get('2.1^2(1)')\n"
              "print(seed, sorted(sample_point(entry, random.Random(seed)).items()))\n")
    src = str(Path(eymsym.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert outs[0].split()[0] == str(zlib.crc32(b"2.1^2(1)"))


def test_only_validate_imports_the_crosscheck():
    """`list` and `report` never load eymsym.crosscheck; `validate` does."""
    script = ("import sys\n"
              "from eymsym.cli import main\n"
              "def loaded(code):\n"
              "    seen = 'eymsym.crosscheck' in sys.modules\n"
              "    print(code, seen, file=sys.stderr)\n"
              "loaded(main(['list']))\n"
              "loaded(main(['report', '2.5^2(4)', '--format', 'json']))\n"
              "loaded(main(['validate', '--filter', '2.5^2(4)']))\n")
    src = str(Path(eymsym.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert done.stderr.splitlines() == ["0 False", "0 False", "0 True"]
    assert "1/1 pass" in done.stdout



def test_only_report_and_tables_import_the_report_module():
    """`list` and `solve` never load eymsym.report; `report` does."""
    script = ("import sys\n"
              "from eymsym.cli import main\n"
              "def loaded(code):\n"
              "    seen = 'eymsym.report' in sys.modules\n"
              "    print(code, seen, file=sys.stderr)\n"
              "loaded(main(['list']))\n"
              "loaded(main(['solve', '2.5^2(4)']))\n"
              "loaded(main(['report', '2.5^2(4)', '--format', 'json']))\n")
    src = str(Path(eymsym.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert done.stderr.splitlines() == ["0 False", "0 False", "0 True"]
    assert "case 2.5^2(4)" in done.stdout

def test_validate_crosscheck_fail_line_replays(capsys, monkeypatch):
    monkeypatch.setattr(eymsym.crosscheck, "crosscheck_case",
                        lambda entry, report, sample: ["ricci"])
    code, out, _ = run_cli(capsys, "validate", "--filter", "1.1^1(7)")
    assert code == 1
    seed = zlib.crc32(b"1.1^1(7)")
    match = re.search(r"^FAIL 1\.1\^1\(7\): crosscheck ricci "
                      rf"\(seed {seed}, sample (\S+)\)$", out, re.MULTILINE)
    assert match, out
    # the printed sample is valid `solve --sample` input
    code, out, _ = run_cli(capsys, "solve", "1.1^1(7)", "--sample", match.group(1))
    assert code == 0
    assert "signature at sample: " in out


def test_validate_golden_mismatch_prints_expected_and_computed(capsys, tmp_path):
    text = (resources.files("eymsym") / "data" / "catalog.txt").read_text()
    good = "golden det = a^2*(c^2 - b*d)"
    broken = text.replace(good, "golden det = a^2*(c^2 + b*d)", 1)
    assert broken != text
    path = tmp_path / "catalog.txt"
    path.write_text(broken)
    code, out, _ = run_cli(capsys, "--catalog", str(path), "validate",
                           "--filter", "1.1^1(7)")
    assert code == 1
    assert ("FAIL 1.1^1(7): golden:det (expected a^2*b*d + a^2*c^2, "
            "computed -a^2*b*d + a^2*c^2)\n") in out
    # the JSON report keeps its plain flags
    code, out, _ = run_cli(capsys, "--catalog", str(path), "report",
                           "1.1^1(7)", "--format", "json")
    assert code == 1
    assert json.loads(out)["golden"]["flags"]["det"] is False


def test_validate_seed_replays_a_fail_line(capsys, monkeypatch):
    # a fault that shows only at one sample point
    bad_point = []

    def crosscheck(entry, report, sample):
        if not bad_point:
            bad_point.append(format_point(sample))
        return ["ricci"] if format_point(sample) == bad_point[0] else []

    monkeypatch.setattr(eymsym.crosscheck, "crosscheck_case", crosscheck)
    code, out, _ = run_cli(capsys, "validate", "--filter", "1.1^1(7)",
                           "--seed", "123")
    assert code == 1
    match = re.search(r"^FAIL 1\.1\^1\(7\): crosscheck ricci "
                      r"\(seed (\d+), sample (\S+)\)$", out, re.MULTILINE)
    assert match, out
    assert match.group(1) == "123" and match.group(2) == bad_point[0]
    # the printed seed replays the line; the case's own seed does not hit it
    code, again, _ = run_cli(capsys, "validate", "--filter", "1.1^1(7)",
                             "--seed", match.group(1))
    assert code == 1 and again == out
    code, out, _ = run_cli(capsys, "validate", "--filter", "1.1^1(7)")
    assert code == 0 and "ok   1.1^1(7)" in out


def test_report_out_file(capsys, tmp_path):
    target = tmp_path / "report.md"
    code, out, _ = run_cli(capsys, "report", "3.5^2(2)", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "kappa = -a" in target.read_text()


def test_g_holonomy_override(capsys):
    code, out, _ = run_cli(capsys, "solve", "1.1^1(7)",
                           "--g-holonomy", "5=4")
    assert code == 0
    assert "kappa = a/2" in out


def test_solve_sample_at_pole_exit_4(capsys):
    code, out, err = run_cli(capsys, "solve", "1.1^1(7)",
                             "--sample", "a=0,b=1,c=0,d=1")
    assert code == 4
    assert out == ""
    assert err == "error: denominator 2*a vanishes at a=0,b=1,c=0,d=1\n"


def test_validate_entry_without_golden_metric(capsys, tmp_path):
    text = (resources.files("eymsym") / "data" / "catalog.txt").read_text()
    line = "golden metric = [0,0,a,0; 0,b,0,c; a,0,0,0; 0,c,0,d]\n"
    start = text.index('case "1.1^1(7)"')
    bare = text[:start] + text[start:].replace(line, "", 1)
    assert bare.count(line) == text.count(line) - 1
    path = tmp_path / "catalog.txt"
    path.write_text(bare)
    code, out, err = run_cli(capsys, "--catalog", str(path), "validate",
                             "--filter", "1.1^1(*)")
    assert code == 0, out
    assert out == "ok   1.1^1(7)\nok   1.1^1(10)(t=0)\n2/2 pass\n"
    assert "Traceback" not in err


def _catalog_file(tmp_path, text: str) -> str:
    path = tmp_path / "catalog.txt"
    path.write_text(text)
    return str(path)


def _bundled_catalog() -> str:
    return (resources.files("eymsym") / "data" / "catalog.txt").read_text()


def test_not_reductive_case_exit_5(capsys, tmp_path):
    text = _bundled_catalog()
    # the first such line belongs to 1.1^1(7)
    broken = text.replace("bracket e1 u1 = u1\n", "bracket e1 u1 = u1 + e1\n", 1)
    assert broken != text
    path = _catalog_file(tmp_path, broken)
    code, out, err = run_cli(capsys, "--catalog", path, "report", "1.1^1(7)")
    assert code == 5
    assert out == ""
    assert err == ("error: case cannot be analysed: 1.1^1(7): [e1,u1] has "
                   "isotropy component on ['e1']\n")
    code, out, err = run_cli(capsys, "--catalog", path, "validate",
                             "--filter", "1.1^1(*)")
    assert code == 5
    assert out == ("FAIL 1.1^1(7): jacobi ((e1,u1,u3)); reductive ([e1,u1]); "
                   "cannot be analysed: 1.1^1(7): [e1,u1] has "
                   "isotropy component on ['e1']\n"
                   "ok   1.1^1(10)(t=0)\n1/2 pass\n")
    assert err == ""


def test_no_invariant_metric_exit_5(capsys, tmp_path):
    # e1 scales every u_i, so only the zero form is invariant
    path = _catalog_file(tmp_path, 'case "x(1)" dim_h 1\n' + "".join(
        f"bracket e1 u{i} = u{i}\n" for i in range(1, 5)))
    code, out, err = run_cli(capsys, "--catalog", path, "solve", "x(1)")
    assert code == 5
    assert out == ""
    assert err == ("error: case cannot be analysed: x(1): only the zero "
                   "bilinear form is invariant\n")
    code, out, _ = run_cli(capsys, "--catalog", path, "validate")
    assert code == 5
    assert out.startswith("FAIL x(1): cannot be analysed: ")


def test_singular_metric_exit_5(capsys, tmp_path):
    # e1 scales u1 alone, so every invariant form vanishes on u1
    path = _catalog_file(tmp_path, 'case "x(1)" dim_h 1\nbracket e1 u1 = u1\n')
    code, out, err = run_cli(capsys, "--catalog", path, "report", "x(1)")
    assert code == 5
    assert out == ""
    assert err == ("error: case cannot be analysed: x(1): det g vanishes "
                   "identically on the metric family\n")
    code, out, _ = run_cli(capsys, "--catalog", path, "tables")
    assert code == 5


def test_bad_metric_shape_exit_5(capsys, tmp_path):
    text = _bundled_catalog()
    line = "golden metric = [0,0,a,0; 0,b,0,c; a,0,0,0; 0,c,0,d]\n"
    start = text.index('case "1.1^1(7)"')
    broken = text[:start] + text[start:].replace(
        line, "golden metric = [a,0,0,0; 0,b,0,c; 0,0,a,0; 0,c,0,d]\n", 1)
    assert broken != text
    path = _catalog_file(tmp_path, broken)
    code, out, err = run_cli(capsys, "--catalog", path, "report", "1.1^1(7)",
                             "--format", "json")
    assert code == 5
    assert out == ""
    assert err == ("error: case cannot be analysed: 1.1^1(7): shape is not "
                   "invariant\n")
    code, out, _ = run_cli(capsys, "--catalog", path, "validate",
                           "--filter", "1.1^1(*)")
    assert code == 5
    assert "FAIL 1.1^1(7): cannot be analysed: " in out
    assert "ok   1.1^1(10)(t=0)" in out


def test_division_by_zero_in_holonomy_metric_exit_4(capsys):
    code, out, err = run_cli(capsys, "report", "1.1^1(7)",
                             "--g-holonomy", "5=1/0")
    assert (code, out, err) == (4, "", "error: division by zero\n")


def test_division_by_zero_in_catalog_exit_2(capsys, tmp_path):
    text = _bundled_catalog()
    start = text.index('case "1.1^1(7)"')
    broken = text[:start] + text[start:].replace(
        "bracket u1 u3 = e1\n", "bracket u1 u3 = e1/0\n", 1)
    assert broken != text
    line = broken.splitlines().index("bracket u1 u3 = e1/0") + 1
    path = _catalog_file(tmp_path, broken)
    code, out, err = run_cli(capsys, "--catalog", path, "list")
    assert (code, out) == (2, "")
    assert err == f"catalog error: {path}:{line}: division by zero\n"


def test_zero_holonomy_metric_entry_exit_4(capsys):
    code, out, err = run_cli(capsys, "report", "1.1^1(7)", "--g-holonomy", "5=0")
    assert code == 4
    assert out == ""
    assert err == "error: --g-holonomy entry '5=0' is zero\n"


def test_holonomy_index_below_5_exit_4(capsys):
    """Holonomy indices start at alpha = 5; a lower one would be ignored."""
    for entry in ("4=3", "0=1", "5=4,1=2"):
        code, out, err = run_cli(capsys, "report", "1.1^1(7)",
                                 "--g-holonomy", entry)
        bad = entry.split(",")[-1]
        assert (code, out) == (4, "")
        assert err == (f"error: --g-holonomy entry '{bad}': holonomy indices "
                       "start at 5\n")


def test_report_header_names_holonomy_metric(capsys):
    code, out, _ = run_cli(capsys, "report", "1.1^1(7)")
    assert "## Energy-momentum tensor (g_aa = 2)\n" in out
    # exit 1: kappa no longer matches the golden value recorded for g_aa = 2
    code, out, _ = run_cli(capsys, "report", "1.1^1(7)", "--g-holonomy", "5=4")
    assert code == 1
    assert "## Energy-momentum tensor (g_55 = 4)\n" in out
    code, out, _ = run_cli(capsys, "report", "3.5^2(2)", "--g-holonomy", "6=4")
    assert "## Energy-momentum tensor (g_66 = 4, g_aa = 2 otherwise)\n" in out


def test_not_symmetric_case_exit_5(capsys, tmp_path):
    text = _bundled_catalog()
    start = text.index('case "1.1^1(7)"')
    broken = text[:start] + text[start:].replace(
        "bracket u1 u3 = e1\n", "bracket u1 u3 = e1\nbracket u1 u2 = u3\n", 1)
    assert broken != text
    path = _catalog_file(tmp_path, broken)
    code, out, err = run_cli(capsys, "--catalog", path, "report", "1.1^1(7)")
    assert code == 5
    assert out == ""
    assert err == ("error: case cannot be analysed: 1.1^1(7): bracket of "
                   "(u1,u2) has a component in m\n")
    code, out, err = run_cli(capsys, "--catalog", path, "validate",
                             "--filter", "1.1^1(*)")
    assert code == 5
    assert out == ("FAIL 1.1^1(7): jacobi ((e1,u1,u2)); symmetric ((u1,u2)); "
                   "cannot be analysed: 1.1^1(7): bracket of "
                   "(u1,u2) has a component in m\n"
                   "ok   1.1^1(10)(t=0)\n1/2 pass\n")
    assert err == ""


def test_nonlinear_metric_shape_exit_5(capsys, tmp_path):
    text = _bundled_catalog()
    line = "golden metric = [-a,0,0,0; 0,-a,0,0; 0,0,-a,0; 0,0,0,a]\n"
    start = text.index('case "6.1^3(1)"')
    broken = text[:start] + text[start:].replace(line, line.replace("a", "a^2"), 1)
    assert broken != text
    path = _catalog_file(tmp_path, broken)
    code, out, err = run_cli(capsys, "--catalog", path, "report", "6.1^3(1)")
    assert code == 5
    assert out == ""
    assert err == ("error: case cannot be analysed: 6.1^3(1): term -a^2 is "
                   "not linear\n")
