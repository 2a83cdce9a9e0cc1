"""Cross-cutting checks: shifted grid origins, precision scaling, and
agreement of the two chi-profile routes."""

import json

import pytest

from weyldisc import (
    ClassifyOptions,
    CoefficientSet,
    PrecisionConfig,
    WeyldiscError,
    builtin_scenario,
    classify,
)
from weyldisc.checks import run_suite
from weyldisc.cli import main
from weyldisc.scenarios import scenario_from_dict

from conftest import fabs


@pytest.mark.parametrize("a", [3, -5])
def test_shifted_origin_constant_model(a):
    model = CoefficientSet.from_expressions(a=a, p="1")
    report = classify(model, 1j, 0.0, ClassifyOptions(n_max=a + 80))
    assert report.verdict == "LPC"
    assert report.disc_samples[0].n == a
    assert all(r.passed for r in run_suite(model, 1j, top=a + 30))


def test_shifted_origin_families():
    geometric = CoefficientSet.from_expressions(a=2, p="-(4^t)", q="4^t", d="1")
    report = classify(geometric, 1j, 0.0, ClassifyOptions(n_max=82))
    assert report.verdict == "LCC"
    coupled = CoefficientSet.from_expressions(
        a=-4, p="1", q="4^t", c="sqrt(4^(2*t) + 4^t)", h="0", d="4^t"
    )
    report = classify(coupled, 1j, 0.0, ClassifyOptions(n_max=86))
    assert report.verdict == "LCC"
    assert all(r.passed for r in run_suite(coupled, 1j, top=26))


def test_backward_chi_agrees_with_high_precision_forward():
    """At 1024 bits the forward chi combination keeps plenty of mantissa
    on the h-coupled family, so it cross-validates the backward route
    used at 256 bits."""
    lo = builtin_scenario("ex4.1b").model()
    hi = lo.with_precision(PrecisionConfig(mantissa_bits=1024))
    opts = ClassifyOptions(n_max=200)
    rep_lo = classify(lo, 1j, 0.0, opts)
    rep_hi = classify(hi, 1j, 0.0, opts)
    assert rep_lo.chi_method == "backward"
    assert rep_hi.chi_method == "forward"
    assert rep_lo.verdict == rep_hi.verdict == "LPC"
    lo_sums = dict(rep_lo.chi_profile.partial_sums)
    hi_sums = dict(rep_hi.chi_profile.partial_sums)
    for n in (0, 10, 50, 120, 200):
        a, b = fabs(lo_sums[n]), fabs(hi_sums[n])
        assert abs(a - b) <= b * 1e-55, n


def test_higher_precision_same_verdicts():
    scenario = builtin_scenario("ex4.2a")
    model = scenario.model().with_precision(PrecisionConfig(mantissa_bits=512))
    report = classify(model, 1j, 0.0, scenario.classify_options())
    assert report.verdict == "LPC"


def test_native_precision_invariant_suite():
    model = CoefficientSet.from_expressions(
        precision=PrecisionConfig(mode="native-float")
    )
    results = run_suite(model, 1j, top=30, pairs=10)
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_cli_rejects_bad_run_parameters(tmp_path):
    body = {"name": "tiny", "p": "1", "n_max": 20}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(body))
    assert main(["classify", str(path), "--out", str(tmp_path)]) == 2
    assert main(["classify", "free", "--alpha", "9", "--out", str(tmp_path)]) == 2


# five generated families (a = 1) whose solutions grow with c and h
# together; every one is limit circle (LCC at 512 and 1024 bits)
COUPLED_LCC_FAMILIES = [
    ({"p": "t+1", "q": "0", "c": "(1/2*2^t*t)", "h": "(1*t) + (3*2^t)",
      "d": "(-2*t^2)"}, (-0.52, 1.97), 0.0),
    ({"p": "t+1", "q": "0", "c": "(2*(1/2)^t) + (3*2^t)", "h": "(1/2*2^t)",
      "d": "0"}, (1.59, 0.64), 0.0),
    ({"p": "-1", "q": "(-2)", "c": "(2*4^t)", "h": "(1*4^t)", "d": "0"},
     (-0.03, 0.69), 1.5),
    ({"p": "1", "q": "(1/2*4^t*t^2)", "c": "(1*2^t*t^2) + (2*4^t)", "h": "(3*4^t)",
      "d": "0"}, (-1.43, 0.95), 1.5),
    ({"p": "-1", "q": "(1*2^t*t^2)", "c": "(2*4^t)", "h": "(3*4^t)", "d": "0"},
     (1.82, 0.82), 0.0),
]


@pytest.mark.parametrize("bits, n_max", [(256, 200), (256, 400), (128, 200)])
@pytest.mark.parametrize("family", range(len(COUPLED_LCC_FAMILIES)), ids=lambda i: f"family{i + 1}")
def test_coupled_limit_circle_families_never_read_limit_point(family, bits, n_max):
    """Cancellation in the step table once made these read LPC; a verdict
    may be LCC or undecided, or the run may end in a typed error, but a
    wrong LPC is never allowed."""
    coeffs, (re, im), alpha = COUPLED_LCC_FAMILIES[family]
    scenario = scenario_from_dict({
        "name": f"family{family + 1}", "a": 1, **coeffs,
        "lambda": {"re": re, "im": im}, "alpha": alpha, "n_max": n_max,
        "precision": {"bits": bits},
    })
    try:
        report = classify(scenario.model(), scenario.lam, scenario.alpha,
                          scenario.classify_options())
    except WeyldiscError:
        return
    assert report.verdict in ("LCC", "undecided")
