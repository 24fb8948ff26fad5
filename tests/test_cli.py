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

import pytest

import eymsym
import eymsym.cli
import eymsym.crosscheck
from eymsym import geom
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


@pytest.mark.parametrize("case,sample,code,message", [
    ("1.1^2(9)", "a=oops", 4, "error: bad rational value in 'a=oops'\n"),
    ("1.1^2(9)", "a=1,a=2", 4, "error: --sample repeats key a\n"),
    ("nosuch", "a=oops", 3, "unknown case: 'nosuch'\n")])
def test_bad_sample_exits_before_the_case_runs(capsys, monkeypatch, case,
                                               sample, code, message):
    """A bad --sample exits 4 and an unknown case 3, with no run_case."""
    calls = []
    monkeypatch.setattr(eymsym.cli, "run_case",
                        lambda *args: calls.append(args))
    assert run_cli(capsys, "solve", case, "--sample", sample) \
        == (code, "", message)
    assert calls == []


def test_bad_catalog_exit_2(capsys, tmp_path):
    bad = tmp_path / "broken.txt"
    bad.write_text('case "x" dim_h 1\nbracket e1 u9 = u1\n')
    code, _, err = run_cli(capsys, "--catalog", str(bad), "list")
    assert code == 2
    assert "catalog error" in err


def test_catalog_that_is_not_utf8_exit_2(capsys, tmp_path):
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(b"\xff\xfe" + 'case "x" dim_h 1\n'.encode("utf-16-le"))
    code, out, err = run_cli(capsys, "--catalog", str(bad), "list")
    assert (code, out) == (2, "")
    assert err == f"catalog error: {bad}: not UTF-8 text (byte 0)\n"


@pytest.mark.parametrize("verb", [["report", "1.1^1(7)"], ["tables"],
                                  ["solve", "1.1^1(7)"]])
def test_unwritable_out_exit_4(capsys, tmp_path, verb):
    missing = tmp_path / "no" / "such" / "f"
    for target, reason in ((missing, "No such file or directory"),
                           (tmp_path, "Is a directory")):
        code, out, err = run_cli(capsys, *verb, "--out", str(target))
        assert (code, out) == (4, "")
        assert err == f"error: cannot write --out {target}: {reason}\n"
    assert not missing.parent.exists()


@pytest.mark.parametrize("verb", [["list"], ["validate"], ["tables"],
                                  ["report", "1.1^1(7)"],
                                  ["solve", "1.1^1(7)"]])
def test_closed_stdout_exit_4(verb):
    """A stdout whose reader is gone ends in exit 4 and one stderr line,
    with no traceback, also from the flush at interpreter exit."""
    src = str(Path(eymsym.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "eymsym.cli", *verb],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=path),
                              text=True, timeout=300)
    finally:
        os.close(write_end)
    assert done.returncode == 4
    assert done.stderr == "error: cannot write to stdout: Broken pipe\n"


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


def test_solve_warns_for_a_sample_key_it_does_not_evaluate(capsys):
    code, out, err = run_cli(capsys, "solve", "1.1^1(7)",
                             "--sample", "a=1,b=2,c=0,d=1,e=5")
    assert err == ("warning: --sample key e ignored: 1.1^1(7) evaluates "
                   "only a, b, c, d\n")
    # stdout and the exit code are those of the sample without e
    assert (code, out) == run_cli(capsys, "solve", "1.1^1(7)",
                                  "--sample", "a=1,b=2,c=0,d=1")[:2]
    # a weight's variable enters kappa, so it is evaluated, not ignored
    argv = ["solve", "1.1^1(7)", "--g-holonomy", "5=w", "--sample"]
    assert run_cli(capsys, *argv, "a=3,b=1,c=0,d=1,w=2")[2] == ""
    assert run_cli(capsys, *argv, "w=2,a=3,b=1,c=0,d=1,z=1,y=0")[2] == (
        "warning: --sample key y ignored: 1.1^1(7) evaluates only a, b, c, "
        "d, w\nwarning: --sample key z ignored: 1.1^1(7) evaluates only a, "
        "b, c, d, w\n")


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


def test_validate_stdout_is_stable_across_hash_seeds():
    """The whole `validate` report, sample points included, is the same
    under two hash seeds."""
    src = str(Path(eymsym.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-m", "eymsym.cli", "validate"],
                              env=env, capture_output=True, text=True,
                              check=True, timeout=300)
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert "35/35 pass" in outs[0]


def test_validate_parses_each_lorentz_condition_once(capsys, monkeypatch,
                                                     catalog):
    """lorentz_condition_holds parses a condition text once per process,
    however many samples `validate` checks it at."""
    monkeypatch.setattr(geom, "_CONDITIONS", {})
    parse, calls = geom.parse_condition, []

    def counting(text, *args):
        calls.append(text)
        return parse(text, *args)

    monkeypatch.setattr(geom, "parse_condition", counting)
    code, out, _ = run_cli(capsys, "validate")
    assert code == 0 and "35/35 pass" in out
    # 35 cases, 5 samples each, and 7 distinct condition texts
    assert sorted(calls) == sorted({e.golden.lorentz for e in catalog.entries})


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


def test_report_imports_neither_dataclasses_nor_inspect():
    """The CLI's classes are plain, so a report pays for neither module."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "from eymsym.cli import main\n"
              "code = main(['report', '2.5^2(4)', '--format', 'json'])\n"
              "added = set(sys.modules) - before\n"
              "print(code, sorted(added & {'dataclasses', 'inspect'}),\n"
              "      file=sys.stderr)\n")
    src = str(Path(eymsym.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert done.stderr == "0 []\n"
    assert json.loads(done.stdout)["case"] == "2.5^2(4)"


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


@pytest.mark.parametrize("det_line, code_out", [
    ("", (0, "ok   1.1^1(7)\n1/1 pass\n")),
    ("golden det = a^2\n",
     (1, "FAIL 1.1^1(7): golden:det (expected a^2, computed -a^2*b*d "
         "+ a^2*c^2)\n0/1 pass\n")),
], ids=["missing", "wrong"])
def test_validate_entry_without_golden_det(capsys, tmp_path, det_line,
                                           code_out):
    """sample_point redraws where g is singular, whatever `golden det` says:
    at seed 167 the first draw of 1.1^1(7) has c^2 = b*d, where a recorded
    `a^2` is nonzero."""
    path = _one_case_catalog(tmp_path, "golden det = a^2*(c^2 - b*d)\n",
                             det_line)
    code, out, err = run_cli(capsys, "--catalog", path, "validate",
                             "--seed", "167")
    assert (code, out) == code_out
    assert "Traceback" not in err


def _one_case_catalog(tmp_path, line: str, edited: str) -> str:
    """A catalog of 1.1^1(7) alone, with one of its lines edited."""
    text = (resources.files("eymsym") / "data" / "catalog.txt").read_text()
    start = text.index('case "1.1^1(7)"')
    block = text[start:text.index('case "', start + 1)]
    assert line in block
    return _catalog_file(tmp_path, block.replace(line, edited))


@pytest.mark.parametrize("line, edited, where, reason", [
    ("golden metric = [0,0,a,0; 0,b,0,c; a,0,0,0; 0,c,0,d]\n",
     "golden metric = [0,a; a,b]\n", 6,
     "matrix literal must be 4x4, got rows of lengths [2, 2]"),
    ("golden ricci = [0,0,-1,0; 0,0,0,0; -1,0,0,0; 0,0,0,0]\n",
     "golden ricci = [0,0,-1,0; 0,0,0,0; -1,0,0,0]\n", 9,
     "matrix literal must be 4x4, got rows of lengths [4, 4, 4]"),
    ("bracket e1 u1 = u1\n",
     'param t range "x"\nparam t range "y"\nbracket e1 u1 = u1\n', 4,
     "duplicate param 't'"),
], ids=["metric-2x2", "ricci-3-rows", "duplicate-param"])
def test_catalog_refused_at_load_exit_2(capsys, tmp_path, line, edited,
                                        where, reason):
    """A golden matrix that is not 4x4, or a param declared twice, is a
    catalog error for every verb, not a traceback or a mismatch."""
    path = _one_case_catalog(tmp_path, line, edited)
    for argv in (["report", "1.1^1(7)"], ["solve", "1.1^1(7)"], ["tables"],
                 ["validate"]):
        code, out, err = run_cli(capsys, "--catalog", path, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"catalog error: {path}:{where}: {reason}\n", argv


def test_solve_sample_covers_a_symbolic_holonomy_weight(capsys):
    """A symbolic --g-holonomy weight enters kappa, so --sample must set it."""
    argv = ["solve", "1.1^1(7)", "--g-holonomy", "5=w", "--sample"]
    code, out, err = run_cli(capsys, *argv, "a=3,b=1,c=0,d=1")
    assert (code, out, err) == (
        4, "", "error: --sample misses parameters ['w']\n")
    code, out, _ = run_cli(capsys, *argv, "a=3,b=1,c=0,d=1,w=2")
    assert code == 0
    assert "kappa at sample = 3" in out


def test_validate_lorentz_fail_line_replays(capsys, tmp_path):
    """A recorded Lorentz condition that contradicts the signature fails
    validate with the seed and sample that show it, and the printed seed
    replays the line."""
    path = _one_case_catalog(tmp_path, 'golden lorentz = "b*d > c^2"\n',
                             'golden lorentz = "b*d < c^2"\n')
    expected = ("FAIL 1.1^1(7): lorentz condition 'b*d < c^2' (seed "
                "1472125741, sample a=2,b=7/3,c=1/2,d=-7)\n0/1 pass\n")
    assert run_cli(capsys, "--catalog", path, "validate")[:2] == (1, expected)
    assert run_cli(capsys, "--catalog", path, "validate",
                   "--seed", "1472125741")[:2] == (1, expected)


def test_tables_lists_reference_mismatches(capsys, tmp_path):
    path = _one_case_catalog(tmp_path, "golden scalar = -2/a\n",
                             "golden scalar = 2/a\n")
    code, out, _ = run_cli(capsys, "--catalog", path, "tables")
    assert code == 1
    assert out.endswith("\n# Reference mismatches\n\n- 1.1^1(7): scalar\n")
    code, out, _ = run_cli(capsys, "--catalog", path, "tables",
                           "--format", "json")
    assert code == 1
    assert json.loads(out)["mismatches"] == ["1.1^1(7): scalar"]


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


def test_not_reductive_names_the_first_bracket(capsys, tmp_path):
    """With two brackets leaving m, validate's reductive witness is the
    first, the one the unanalysable error names."""
    text = _bundled_catalog()
    broken = text.replace("bracket e1 u1 = u1\n", "bracket e1 u1 = u1 + e1\n", 1)
    broken = broken.replace("bracket e1 u3 = -u3\n",
                            "bracket e1 u3 = -u3 + e1\n", 1)
    path = _catalog_file(tmp_path, broken)
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


@pytest.mark.parametrize("argv", [["report", "1.1^1(7)"], ["tables"],
                                  ["solve", "1.1^1(7)"]])
def test_repeated_holonomy_index_exit_4(capsys, argv):
    """A second value for one index would silently replace the first;
    `05` names index 5 too."""
    for entry in ("5=2,5=3", "5=2,6=1,05=2"):
        code, out, err = run_cli(capsys, *argv, "--g-holonomy", entry)
        assert (code, out) == (4, "")
        assert err == "error: --g-holonomy repeats key 5\n"


def test_repeated_sample_parameter_exit_4(capsys):
    code, out, err = run_cli(capsys, "solve", "1.1^1(7)",
                             "--sample", "a=1,a=2,b=2,c=0,d=1")
    assert (code, out) == (4, "")
    assert err == "error: --sample repeats key a\n"


@pytest.mark.parametrize("argv", [["report", "1.1^1(7)"], ["tables"]])
def test_holonomy_index_of_non_ascii_digits_exit_4(capsys, argv):
    """An index is ASCII digits: str.isdigit takes '²', which int() refuses,
    and int() takes the Arabic-Indic five, which the index syntax does not."""
    for entry in ("²=3", "\u0665=3", "5=4,²=3"):
        code, out, err = run_cli(capsys, *argv, "--g-holonomy", entry)
        bad = entry.split(",")[-1]
        assert (code, out) == (4, "")
        assert err == f"error: bad --g-holonomy entry '{bad}'\n"


@pytest.mark.parametrize("verb", ["report", "solve"])
def test_holonomy_index_beyond_the_algebra_warns(capsys, verb):
    # 1.1^1(7) has a holonomy algebra of dimension 1: only index 5 exists
    code, out, err = run_cli(capsys, verb, "1.1^1(7)", "--g-holonomy", "9=3")
    assert err == ("warning: --g-holonomy index 9 ignored: the holonomy "
                   "algebra of 1.1^1(7) has dimension 1 (indices 5..5)\n")
    # stdout and the exit code are those of the default metric
    assert (code, out) == run_cli(capsys, verb, "1.1^1(7)")[:2]


@pytest.mark.parametrize("verb", ["report", "solve"])
def test_holonomy_index_inside_the_algebra_does_not_warn(capsys, verb):
    code, _, err = run_cli(capsys, verb, "1.1^1(7)", "--g-holonomy", "5=3")
    assert err == ""
    assert code == (1 if verb == "report" else 0)


def test_tables_warns_for_an_index_no_case_reaches(capsys):
    # the largest holonomy algebra of the catalog has dimension 6
    code, out, err = run_cli(capsys, "tables", "--g-holonomy", "20=3")
    assert err == ("warning: --g-holonomy index 20 ignored: the largest "
                   "holonomy algebra in the catalog has dimension 6 "
                   "(indices 5..10)\n")
    assert (code, out) == run_cli(capsys, "tables")[:2]
    assert run_cli(capsys, "tables", "--g-holonomy", "10=3")[2] == ""


def test_holonomy_warning_without_holonomy(capsys):
    code, out, err = run_cli(capsys, "solve", "1.1^1(10)(t=0)",
                             "--g-holonomy", "6=4,5=3")
    assert code == 0 and out.startswith("case 1.1^1(10)(t=0)\n")
    assert err.splitlines() == [
        f"warning: --g-holonomy index {a} ignored: the holonomy algebra of "
        "1.1^1(10)(t=0) has dimension 0 (no indices)" for a in (5, 6)]


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


@pytest.mark.parametrize("text, faithful", [
    ('case "z" dim_h 1\n', False),
    ('case "z" dim_h 1\nbracket u1 u2 = e1\n', False),
    ('case "z" dim_h 0\n', True)])
def test_trivial_isotropy_exit_5(capsys, tmp_path, text, faithful):
    """h acting trivially leaves every symmetric form invariant (10 metric
    parameters); the case is refused up front instead of being solved."""
    path = _catalog_file(tmp_path, text)
    code, out, err = run_cli(capsys, "--catalog", path, "report", "z")
    assert (code, out) == (5, "")
    assert err == "error: case cannot be analysed: z: h acts trivially on m\n"
    code, out, err = run_cli(capsys, "--catalog", path, "validate")
    assert (code, err) == (5, "")
    assert out == ("FAIL z: " + ("" if faithful else "isotropy faithfulness; ")
                   + "cannot be analysed: z: h acts trivially on m\n"
                   "0/1 pass\n")


def test_unfaithful_isotropy_exit_5(capsys, tmp_path):
    """An e2 that acts trivially on m but is the bracket [u2, u4] would make
    rho of the holonomy rows dependent (rho(e2) = 0); the case is refused
    instead of given a zero holonomy basis element."""
    text = _bundled_catalog()
    start = text.index('case "1.1^1(7)" dim_h 1\n')
    broken = text[:start] + text[start:].replace(
        'case "1.1^1(7)" dim_h 1\n',
        'case "1.1^1(7)" dim_h 2\nbracket u2 u4 = e2\n', 1)
    path = _catalog_file(tmp_path, broken)
    message = "cannot be analysed: 1.1^1(7): h acts unfaithfully on m"
    for command in ("report", "solve"):
        code, out, err = run_cli(capsys, "--catalog", path, command, "1.1^1(7)")
        assert (code, out, err) == (5, "", f"error: case {message}\n")
    code, out, err = run_cli(capsys, "--catalog", path, "validate",
                             "--filter", "1.1^1(7)")
    assert (code, err) == (5, "")
    assert out == (f"FAIL 1.1^1(7): isotropy faithfulness; {message}\n"
                   "0/1 pass\n")
