import ast
import csv
import gc
import json
from pathlib import Path

import pytest

from weyldisc import (
    ClassifyOptions,
    PrecisionConfig,
    Scenario,
    ScenarioError,
    builtin_names,
    load_scenario,
    resolve_scenario,
)
from weyldisc import cli
from weyldisc.cli import _scenario_with_overrides, build_parser, main
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


def test_scenario_dict_defaults_are_the_dataclass_defaults():
    """Every optional field left out gives Scenario's own defaults, whose
    thresholds are ClassifyOptions's; to_dict reads back to the same
    scenario."""
    s = scenario_from_dict({"name": "x"})
    assert s == Scenario(name="x")
    assert s.classify_options() == ClassifyOptions(n_max=200)
    assert scenario_from_dict(s.to_dict()) == s


def test_command_line_overrides():
    """Each flag given replaces its scenario field; --bits keeps the mode."""
    args = build_parser().parse_args(
        ["classify", "free", "--lambda-im", "2", "--n-max", "90", "--bits", "80"]
    )
    s = _scenario_with_overrides(args)
    assert (s.lambda_re, s.lambda_im, s.alpha, s.n_max) == (0.0, 2.0, 0.0, 90)
    assert s.precision == PrecisionConfig(mode="big-float", mantissa_bits=80)
    plain = build_parser().parse_args(["classify", "free"])
    assert _scenario_with_overrides(plain) == builtin_scenario("free")


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
    assert float(model.coeff("d", 2)) == 3.0


@pytest.mark.parametrize("body, fragment", [
    ({"name": "x", "p": "4^"}, "coefficient 'p'"),
    ({"name": "x", "unknown": 1}, "unknown scenario field"),
    ({"name": "x", "n_max": "many"}, "n_max"),
    ({"name": "x", "p": {"table": []}}, "nonempty"),
    ({"name": "x", "precision": {"bits": 16}}, "precision"),
    # integers are JSON integers, reals JSON numbers: nothing is coerced
    ({"name": "x", "a": True}, "field 'a' must be an integer"),
    ({"name": "x", "n_max": True}, "n_max must be an integer"),
    ({"name": "x", "precision": {"bits": 300.7}}, "field 'precision.bits' must be an integer"),
    ({"name": "x", "thresholds": {"window": 32.9}}, "thresholds.window must be an integer"),
    ({"name": "x", "thresholds": {"window": 0}}, "thresholds.window must be positive"),
    ({"name": "x", "lambda": {"re": "0.5"}}, "field 'lambda.re' must be a number"),
    ({"name": "x", "alpha": False}, "field 'alpha' must be a number"),
    # and finite
    ({"name": "x", "thresholds": {"rel_tol": "nan"}}, "thresholds.rel_tol must be a number"),
    ({"name": "x", "thresholds": {"rel_tol": float("nan")}},
     "thresholds.rel_tol must be a finite number"),
    ({"name": "x", "thresholds": {"divergence_factor": float("inf")}},
     "thresholds.divergence_factor must be a finite number"),
    ({"name": "x", "lambda": {"im": float("inf")}}, "field 'lambda.im' must be a finite number"),
    ({"name": "x", "alpha": 10 ** 400}, "field 'alpha' must be a finite number"),
])
def test_scenario_validation_errors(body, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        scenario_from_dict(body)


def test_scenario_numbers_keep_their_json_values():
    """An integer in a real field is stored as a float, so the echoed
    scenario reads the same as before integers were checked."""
    s = scenario_from_dict({"name": "x", "lambda": {"re": 1, "im": 2}, "alpha": 0,
                            "thresholds": {"rel_tol": 0, "divergence_factor": 10}})
    assert s.to_dict()["lambda"] == {"re": 1.0, "im": 2.0}
    assert type(s.alpha) is float and type(s.thresholds.rel_tol) is float
    assert s.to_dict()["thresholds"]["divergence_factor"] == 10.0


@pytest.mark.parametrize("thresholds, named", [
    ({"rel_tol": 2, "divergence_factor": 1e300}, "rel_tol"),
    ({"rel_tol": -1}, "rel_tol"),
    ({"rel_tol": 0}, "rel_tol"),
    ({"divergence_factor": 0.5}, "divergence_factor"),
])
def test_classify_refuses_thresholds_that_cannot_decide(tmp_path, monkeypatch, capsys,
                                                        thresholds, named):
    """A rel_tol outside (0, 1) or a divergence_factor of at most 1 is a
    scenario problem (exit 2) that names the field, and no report is
    written: rel_tol 2 with divergence_factor 1e300 would call the free
    model, which is limit point, LCC."""
    path = tmp_path / "t1.json"
    path.write_text(json.dumps({"name": "t1", "p": "1", "thresholds": thresholds}))
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    assert _exit_code(["classify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err
    assert list(out.iterdir()) == []


def _exit_code(argv) -> int:
    """main's exit code, also where argparse refuses a flag."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, named", [
    (["classify", "free", "--lambda-im", "inf"], "--lambda-im"),
    (["check", "free", "--lambda-im", "inf"], "--lambda-im"),
    (["classify", "free", "--lambda-re", "nan"], "--lambda-re"),
    (["ivp", "free", "--c1", "inf", "--c2", "0", "--N", "3"], "--c1"),
    (["ivp", "free", "--c1", "0", "--c2", "nan", "--N", "3"], "--c2"),
    (["classify", "{nan_file}"], "thresholds.rel_tol"),
    (["check", "{true_file}"], "field 'a'"),
    (["classify", "{lambda_typo}"], "unknown scenario field 'lambda.imag'"),
    (["classify", "{precision_typo}"], "unknown scenario field 'precision.bitz'"),
    (["classify", "{thresholds_typo}"], "unknown scenario field 'thresholds.rel_tl'"),
])
def test_cli_refuses_non_finite_and_coerced_numbers(tmp_path, monkeypatch, capsys,
                                                   argv, named):
    """A non-finite number from a flag or a file, a scenario file value
    of the wrong JSON type, or an unknown key inside lambda, precision or
    thresholds, is a scenario problem (exit 2) that names the flag or
    field; nothing runs and no report is written."""
    files = {"nan_file": {"name": "x", "thresholds": {"rel_tol": "nan"}},
             "true_file": {"name": "x", "a": True},
             "lambda_typo": {"name": "x", "lambda": {"imag": 5}},
             "precision_typo": {"name": "x", "precision": {"bitz": 64}},
             "thresholds_typo": {"name": "x", "thresholds": {"rel_tl": 1e-3}}}
    for key, body in files.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(body))
    argv = [arg.format(**{key: str(tmp_path / f"{key}.json") for key in files})
            for arg in argv]
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err
    assert list(out.iterdir()) == []


def test_cli_native_power_with_an_overflowed_exponent_is_an_evaluation_error(
        tmp_path, capsys):
    """On native floats 4^t * 4^t overflows to inf at t = 256, and the
    parity of an infinite exponent of a negative base has no value: exit
    2 with an evaluation error naming the power and t, not a traceback."""
    path = tmp_path / "negpow.json"
    path.write_text(json.dumps({
        "name": "negpow", "q": "(0 - 1)^(4^t * 4^t)", "n_max": 300,
        "precision": {"mode": "native-float"},
    }))
    assert main(["classify", str(path), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "evaluation error: cannot convert non-finite value to a rational "
        "in (0 - 1)^(4^t * 4^t) at t=256\n"
    )


@pytest.mark.parametrize("q, message", [
    ("sqrt(1 - t)", "square root of negative value -1.0 in sqrt(1 - t) at t=2"),
    ("(t - 3)^(0 - 1)", "zero raised to a negative power in (t - 3)^(0 - 1) at t=3"),
])
def test_cli_evaluation_errors_name_the_expression_and_t(tmp_path, capsys, q, message):
    """An element error of a coefficient names its node and first failing
    t, as a division by zero does, on either kernel."""
    for mode in ("big-float", "native-float"):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "q": q, "precision": {"mode": mode}}))
        assert main(["classify", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"evaluation error: {message}\n"


def test_resolve_scenario_missing_file():
    with pytest.raises(ScenarioError, match="does not exist"):
        resolve_scenario("no-such-scenario")


def test_cli_unreadable_scenario_file_is_a_scenario_problem(tmp_path, capsys):
    """A scenario path that is a directory exits 2 with one line naming
    it, not a traceback."""
    path = tmp_path / "dir.json"
    path.mkdir()
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scenario error: scenario file {path} cannot be read (Is a directory)\n"


@pytest.mark.parametrize("out, blocked", [
    ("out", "out/free_report.json"),  # the report path is a directory
    ("file/out", "file"),  # --out lies under a regular file
])
def test_cli_unwritable_artifact_is_one_error_line(tmp_path, monkeypatch, capsys, out, blocked):
    """An artifact that cannot be written exits 1 with one ``error:``
    line naming the path, not a traceback."""
    monkeypatch.chdir(tmp_path)
    if blocked == "file":
        Path(blocked).touch()
    else:
        Path(blocked).mkdir(parents=True)
    assert main(["classify", "free", "--n-max", "40", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(out if blocked == "file" else blocked) in err


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


@pytest.mark.parametrize("mode, backend", [
    ("big-float", "mpmath"), ("native-float", "native"),
])
def test_cli_classify_prints_the_model_backend(tmp_path, capsys, mode, backend):
    """The backend line names the kernel the run used, as its report does."""
    path = tmp_path / "free.json"
    path.write_text(json.dumps({"name": "free", "n_max": 60, "precision": {"mode": mode}}))
    assert main(["classify", str(path), "--out", str(tmp_path)]) == 0
    assert f"  backend: {backend}\n" in capsys.readouterr().out
    report = json.loads((tmp_path / "free_report.json").read_text())
    assert report["backend"] == backend


def test_cli_classify_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert main(["classify", "ex4.2b", "--n-max", "50", "--out", str(out1)]) == 0
    assert main(["classify", "ex4.2b", "--n-max", "50", "--out", str(out2)]) == 0
    assert (out1 / "ex4.2b_report.json").read_bytes() == (out2 / "ex4.2b_report.json").read_bytes()
    assert (out1 / "ex4.2b_discs.csv").read_bytes() == (out2 / "ex4.2b_discs.csv").read_bytes()


def test_cli_classify_rerun_into_the_same_out_leaves_the_same_bytes(tmp_path):
    """A second run rewrites its artifacts as new files, byte for byte the
    first run's; a symlink at an artifact path is replaced by the file,
    and what it pointed to is left alone."""
    names = ("ex4.2b_report.json", "ex4.2b_discs.csv")
    argv = ["classify", "ex4.2b", "--n-max", "50", "--out", str(tmp_path)]
    assert main(argv) == 0
    first = {name: (tmp_path / name).read_bytes() for name in names}
    assert main(argv) == 0
    assert {name: (tmp_path / name).read_bytes() for name in names} == first
    elsewhere = tmp_path / "elsewhere"
    for name in names:
        (tmp_path / name).unlink()
        (tmp_path / name).symlink_to(elsewhere)
    elsewhere.write_text("untouched")
    assert main(argv) == 0
    for name in names:
        assert not (tmp_path / name).is_symlink()
        assert (tmp_path / name).read_bytes() == first[name]
    assert elsewhere.read_text() == "untouched"


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


@pytest.mark.parametrize("a", [0, 5])
def test_cli_disc_below_the_grid_origin_is_a_scenario_error(tmp_path, monkeypatch,
                                                           capsys, a):
    """`disc --N a-1` names the window problem and exits 2, as `ivp` does,
    and writes no report."""
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps({"name": "shifted", "a": a, "p": "1"}))
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    assert main(["disc", str(path), "--N", str(a - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "top must be at least the grid origin a" in captured.err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("a", [0, 5])
def test_cli_eigen_below_the_grid_origin_is_a_scenario_error(tmp_path, monkeypatch,
                                                            capsys, a):
    """`eigen --N a-1` and `--N a-2` name the window problem in one message
    and exit 2, as `disc` and `ivp` do, and write no report."""
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps({"name": "shifted", "a": a, "p": "1"}))
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    for n in (a - 1, a - 2):
        argv = ["eigen", str(path), "--lambda-re", "0.5", "--lambda-im", "0",
                "--N", str(n)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "scenario error: top must be at least the grid origin a\n"
    assert list(out.iterdir()) == []


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


def _strict_json(text: str):
    """json.loads that refuses Infinity and NaN, which strict JSON lacks."""
    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def test_cli_reports_are_strict_json(tmp_path):
    """ex4.2a's residual at N = 40 is far past the float range: its
    magnitude is written as the string "inf", not as Infinity."""
    assert main(["eigen", "ex4.2a", "--lambda-re", "0.5", "--lambda-im", "0",
                 "--N", "40", "--out", str(tmp_path)]) == 0
    payload = _strict_json((tmp_path / "ex4.2a_eigen.json").read_text())
    assert payload["residual_abs"] == "inf"
    assert payload["residual"]["re"].endswith("e+493")


def test_cli_criteria(tmp_path, capsys):
    code = main(["criteria", "ex4.2a", "--M", "1", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ratio criterion" in out and "holds" in out
    payload = json.loads((tmp_path / "ex4.2a_criteria.json").read_text())
    assert payload["ratio_criterion"]["outcome"] == "holds"
    assert payload["weighted_criterion"]["outcome"] == "holds"


def test_cli_criteria_and_classify_share_the_ratio_witness(tmp_path, capsys):
    """Both commands evaluate the ratio criterion over the scenario's
    n_max, so a shortened window gives one witness, not two."""
    argv = ["ex4.2b", "--n-max", "50", "--out", str(tmp_path)]
    assert main(["criteria", *argv]) == 0
    assert main(["classify", *argv]) == 0
    criteria = json.loads((tmp_path / "ex4.2b_criteria.json").read_text())
    report = json.loads((tmp_path / "ex4.2b_report.json").read_text())
    assert criteria["ratio_criterion"] == report["ratio_criterion"]


@pytest.mark.parametrize("argv", [
    ["criteria", "free", "--horizon", "50"],
    ["check", "free", "--out", "."],
])
def test_cli_refuses_unread_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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
    _assert_builtin_check_statuses(capsys, name)


def _assert_builtin_check_statuses(capsys, name, *flags):
    """Every invariant of `check name *flags` holds but ex4.2a's
    disc_corner_route, and the exit code says so."""
    code = main(["check", name, *flags])
    out = capsys.readouterr().out
    lines = _check_lines(out)
    assert list(lines) == INVARIANTS
    failing = {inv for inv, (status, _) in lines.items() if status == "FAIL"}
    expected = {"disc_corner_route"} if name == "ex4.2a" else set()
    assert failing == expected
    assert f"{name}: {15 - len(expected)}/15 invariants hold" in out
    assert code == (1 if expected else 0)


@pytest.mark.parametrize("name", builtin_names())
def test_cli_check_statuses_at_nonzero_alpha(capsys, name):
    """At alpha = 0.7 the statuses are those at alpha = 0: every invariant
    holds but ex4.2a's disc_corner_route, on the three-datum basis."""
    _assert_builtin_check_statuses(capsys, name, "--alpha", "0.7")


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


def _check_gate_scenario(tmp_path, capsys, body) -> tuple:
    """(exit code, check lines) of `check` at 53 bits and n_max 20 on a
    scenario file; stderr must be empty."""
    path = tmp_path / "gate.json"
    path.write_text(json.dumps({"name": "gate", **body}))
    code = main(["check", str(path), "--bits", "53", "--n-max", "20"])
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = _check_lines(captured.out)
    assert list(lines) == INVARIANTS
    return code, lines


def test_cli_check_reports_failed_solution_gates_as_inf(tmp_path, capsys):
    """At 53 bits this a = 3 family's solutions miss their equation far
    beyond the Lagrange lines' solution gate; both lines read inf and the
    suite prints every line instead of failing as a scenario error."""
    code, lines = _check_gate_scenario(tmp_path, capsys, {
        "a": 3, "p": "-1", "q": "2^t", "c": "(2*4^t*t)", "h": "t",
        "d": "(-2*2^t*t)", "lambda": {"re": 1.38, "im": 0.33},
    })
    assert code == 1
    assert lines["lagrange_identity_equal_lam"] == ("FAIL", "worst=inf")
    assert lines["lagrange_identity_two_lams"] == ("FAIL", "worst=inf")


def test_cli_check_coupled_family_solutions_pass_the_gates(tmp_path, capsys):
    """This a = 3 family's solutions once failed the gates at 53 bits
    through cancellation in the step table's a21 column; formed without
    the cancelling terms, they solve their equation and both Lagrange
    lines pass."""
    _, lines = _check_gate_scenario(tmp_path, capsys, {
        "a": 3, "p": "2^t", "q": "(2*2^t*t)", "c": "(-2*4^t*t^2)",
        "h": "(2*4^t*t)", "d": "(2*(1/2)^t*t^2)", "lambda": {"re": -0.46, "im": 1.21},
    })
    assert lines["lagrange_identity_equal_lam"][0] == "PASS"
    assert lines["lagrange_identity_two_lams"][0] == "PASS"


@pytest.mark.parametrize("a", [10, 60])
def test_cli_check_windows_count_from_the_grid_origin(tmp_path, capsys, a):
    """The free model on a .. a+40 passes every line, as on 0 .. 40."""
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps({"name": "shifted", "a": a, "p": "1"}))
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == 0
    lines = _check_lines(captured.out)
    assert list(lines) == INVARIANTS
    assert "shifted: 15/15 invariants hold" in captured.out


@pytest.mark.parametrize("argv, message", [
    (["criteria", "free", "--n-max", "-5"],
     "n_max must be an integer above a (0), got -5"),
    (["check", "free", "--n-max", "5"],
     "the invariant suite needs top >= a + 6 = 6"),
])
def test_cli_refuses_a_window_too_short(tmp_path, monkeypatch, capsys, argv, message):
    """An --n-max override gets the scenario file's check, and `check`
    names the window it needs; neither writes a report."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, code", [
    (["classify", "free", "--n-max", "60", "--out", "{out}"], 0),
    (["criteria", "free", "--n-max", "-5"], 2),
    (["classify", "free", "--lambda-im", "inf"], 2),
    (["classify"], 2),
    (["--help"], 0),
], ids=["returns-0", "returns-2", "refused-flag", "argparse-usage", "argparse-help"])
def test_cli_restores_the_callers_collector_state(tmp_path, monkeypatch, argv, code,
                                                  enabled):
    """main pauses the cyclic collector while it runs and leaves it as the
    caller had it: after a command that returns 0 or 2, after argparse's
    SystemExit (a refused flag value, a missing argument, --help), and
    with the collector enabled or disabled beforehand."""
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(out=tmp_path) for arg in argv]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert _exit_code(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_cli_pauses_the_collector_while_a_command_runs(monkeypatch):
    """The dispatched command runs with the collector off; an exception
    the command does not map to an exit code still restores it."""
    seen = []

    def command(_args):
        seen.append(gc.isenabled())
        return 0

    def failing(_args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    assert gc.isenabled()
    monkeypatch.setitem(cli._COMMANDS, "examples", command)
    assert main(["examples"]) == 0
    monkeypatch.setitem(cli._COMMANDS, "examples", failing)
    with pytest.raises(RuntimeError, match="boom"):
        main(["examples"])
    assert seen == [False, False]
    assert gc.isenabled()


def test_no_library_module_imports_gc():
    """Only the command line touches the collector: the library modules
    leave the caller's collector alone."""
    package = Path(cli.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "gc" in names:
                importers.append(path.name)
    assert importers == ["cli.py"]
