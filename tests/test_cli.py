import csv
import json
import os
import subprocess
import sys

import pytest

from weyldisc import ScenarioError, builtin_names, load_scenario, resolve_scenario
from weyldisc.cli import main
from weyldisc.scenarios import builtin_scenario, scenario_from_dict


def test_builtin_registry_contents():
    assert builtin_names() == ["free", "ex4.1a", "ex4.1b", "ex4.2a", "ex4.2b"]
    s = builtin_scenario("ex4.1a")
    assert (s.p, s.q, s.c, s.h, s.d) == ("-(4^t)", "4^t", "0", "0", "1")
    assert s.a == 0
    s2 = builtin_scenario("ex4.2b")
    assert s2.c == "sqrt(4^(2*t) + 4^t)" and s2.d == "4^t"


def test_scenario_defaults():
    s = scenario_from_dict({"name": "x", "p": "1"})
    assert (s.lambda_re, s.lambda_im) == (0.0, 1.0)
    assert s.alpha == 0.0 and s.n_max == 200
    assert s.precision.mantissa_bits == 256
    assert s.thresholds.window == 32


def test_scenario_file_round_trip(tmp_path):
    body = {
        "name": "custom", "a": 1,
        "p": "2^t", "q": "t", "c": "0", "h": "0",
        "d": {"table": [1, 2, 3, 4, 5, 6], "start": 0},
        "lambda": {"re": 0.5, "im": 2.0},
        "n_max": 50,
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(body))
    s = load_scenario(path)
    assert s.name == "custom" and s.a == 1 and s.lam == 0.5 + 2j
    model = s.model()
    with model.workprec():
        assert float(model.kernel.to_mpf(model.coeff("d", 2))) == 3.0


@pytest.mark.parametrize("body, fragment", [
    ({"name": "x", "p": "4^"}, "coefficient 'p'"),
    ({"name": "x", "unknown": 1}, "unknown scenario field"),
    ({"name": "x", "n_max": "many"}, "n_max"),
    ({"name": "x", "p": {"table": []}}, "nonempty"),
    ({"name": "x", "precision": {"bits": 16}}, "precision"),
])
def test_scenario_validation_errors(body, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        scenario_from_dict(body)


def test_resolve_scenario_missing_file():
    with pytest.raises(ScenarioError, match="does not exist"):
        resolve_scenario("no-such-scenario")


def test_cli_examples(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    for name in builtin_names():
        assert name in out


def test_cli_classify_artifacts(tmp_path, capsys):
    code = main(["classify", "ex4.1a", "--n-max", "60", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "LCC" in out
    report = json.loads((tmp_path / "ex4.1a_report.json").read_text())
    assert report["verdict"] == "LCC"
    assert report["l2_solution_count"] == 2
    assert report["schema_version"] == 1
    with (tmp_path / "ex4.1a_discs.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["N", "center_re", "center_im", "radius", "S_psi", "T_chi"]
    ns = [int(r[0]) for r in rows[1:]]
    assert ns == sorted(ns) and len(set(ns)) == len(ns)
    assert ns[-1] == 60


def test_cli_classify_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert main(["classify", "ex4.2b", "--n-max", "50", "--out", str(out1)]) == 0
    assert main(["classify", "ex4.2b", "--n-max", "50", "--out", str(out2)]) == 0
    assert (out1 / "ex4.2b_report.json").read_bytes() == (out2 / "ex4.2b_report.json").read_bytes()
    assert (out1 / "ex4.2b_discs.csv").read_bytes() == (out2 / "ex4.2b_discs.csv").read_bytes()


def test_cli_classify_strict_undecided_exit_code(tmp_path):
    scenario = {
        "name": "stuck", "p": "1", "q": "0", "c": "0", "h": "0", "d": "0",
        "n_max": 60,
        "thresholds": {"rel_tol": 1e-40, "divergence_factor": 1e30, "window": 8},
    }
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(scenario))
    assert main(["classify", str(path), "--out", str(tmp_path)]) == 0
    assert main(["classify", str(path), "--strict", "--out", str(tmp_path)]) == 5


def test_cli_exit_code_scenario_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["classify", str(tmp_path / "missing.json")]) == 2


def test_cli_exit_code_inadmissible(tmp_path):
    # real lam on the excluded set: d == 1 everywhere for ex4.1a
    code = main(["classify", "ex4.1a", "--lambda-re", "1", "--lambda-im", "0",
                 "--out", str(tmp_path)])
    assert code == 3


def test_cli_check_refuses_a_real_lam(capsys):
    """A real lam has no Weyl discs: `check` reports it as inadmissible,
    without a traceback."""
    code = main(["check", "ex4.1a", "--lambda-re", "0.5", "--lambda-im", "0"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "inadmissible lam: the invariant suite requires a nonreal lam\n"


def test_cli_exit_code_precision_exhausted(tmp_path):
    scenario = builtin_scenario("ex4.2a").to_dict()
    scenario["precision"] = {"mode": "native-float", "bits": 256}
    path = tmp_path / "native.json"
    path.write_text(json.dumps(scenario))
    assert main(["classify", str(path), "--out", str(tmp_path)]) == 4


def test_cli_ivp_period_six(tmp_path, capsys):
    code = main(["ivp", "free", "--c1", "1", "--c2", "0", "--N", "5",
                 "--lambda-re", "1", "--lambda-im", "0", "--out", str(tmp_path)])
    assert code == 0
    lines = [ln.split() for ln in capsys.readouterr().out.splitlines()[1:]]
    y1_row = [ln[1] for ln in lines]
    assert y1_row == ["1+0j", "1+0j", "0+0j", "-1+0j", "-1+0j", "0+0j", "1+0j"]
    dump = json.loads((tmp_path / "free_ivp.json").read_text())
    assert len(dump["trajectory"]) == 8


def test_cli_disc(tmp_path, capsys):
    assert main(["disc", "free", "--N", "0", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "free_disc.json").read_text())
    assert payload["center"]["im"].startswith("0.5")
    assert payload["radius"].startswith("0.5")


def test_cli_eigen(tmp_path, capsys):
    assert main(["eigen", "free", "--lambda-re", "1", "--lambda-im", "0",
                 "--N", "0", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "free_eigen.json").read_text())
    assert payload["residual_abs"] < 1e-40
    assert main(["eigen", "free", "--lambda-re", "3", "--lambda-im", "0",
                 "--N", "0", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "free_eigen.json").read_text())
    assert payload["residual_abs"] == pytest.approx(2.0, rel=1e-12)


def test_cli_criteria(tmp_path, capsys):
    code = main(["criteria", "ex4.2a", "--M", "1", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ratio criterion" in out and "holds" in out
    payload = json.loads((tmp_path / "ex4.2a_criteria.json").read_text())
    assert payload["ratio_criterion"]["outcome"] == "holds"
    assert payload["weighted_criterion"]["outcome"] == "holds"


INVARIANTS = [
    "transfer_det_unit", "oracle_agreement", "pair_det_unit",
    "wronskian_constant", "equation_residual", "green_identity_random",
    "bracket_antisymmetry", "lagrange_identity_equal_lam",
    "lagrange_identity_two_lams", "disc_radius_sum_identity", "disc_nesting",
    "disc_corner_route", "m_sweep_on_circle", "y2_reconstruction",
    "variation_of_parameters",
]


def _check_lines(out: str) -> dict:
    """{invariant: (status, worst)} from the lines `check` prints."""
    lines = {}
    for fields in map(str.split, out.splitlines()):
        if fields and fields[0] in ("PASS", "FAIL"):
            lines[fields[1]] = (fields[0], fields[2])
    return lines


@pytest.mark.parametrize("name", builtin_names())
def test_cli_check_statuses_on_builtins(capsys, name):
    """Status of every invariant and the exit code at top 40.  Statuses,
    not digits: the printed defects sit at roundoff level.  ex4.2a's
    disc_corner_route failure is the known one."""
    code = main(["check", name])
    out = capsys.readouterr().out
    lines = _check_lines(out)
    assert list(lines) == INVARIANTS
    failing = {inv for inv, (status, _) in lines.items() if status == "FAIL"}
    expected = {"disc_corner_route"} if name == "ex4.2a" else set()
    assert failing == expected
    assert f"{name}: {15 - len(expected)}/15 invariants hold" in out
    assert code == (1 if expected else 0)


def test_cli_check_reports_a_singular_vop_matching_system(capsys):
    """At 53 bits ex4.2a's variation-of-parameters matching system is
    singular; the suite reports that check as inf and prints every line
    instead of aborting."""
    code = main(["check", "ex4.2a", "--bits", "53"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    lines = _check_lines(captured.out)
    assert list(lines) == INVARIANTS
    assert lines["variation_of_parameters"] == ("FAIL", "worst=inf")
    failing = {inv for inv, (status, _) in lines.items() if status == "FAIL"}
    assert failing == {"variation_of_parameters"}
    assert "ex4.2a: 14/15 invariants hold" in captured.out


def test_forced_python_backend_agrees():
    """The pure-Python kernel must reach the same verdicts (subprocess:
    the backend is chosen at import time)."""
    code = (
        "from weyldisc import classify, builtin_scenario, big_backend_name\n"
        "assert big_backend_name() == 'mpmath'\n"
        "s = builtin_scenario('ex4.2b')\n"
        "import dataclasses\n"
        "s = dataclasses.replace(s, n_max=60)\n"
        "r = classify(s.model(), 1j, 0.0, s.classify_options())\n"
        "print(r.verdict)\n"
    )
    env = dict(os.environ, WEYLDISC_BACKEND="mpmath")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "LCC"
