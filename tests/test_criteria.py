from fractions import Fraction

import pytest

from weyldisc import (
    CoefficientSet,
    TableCoefficient,
    ratio_limit_point_check,
    weighted_limit_point_check,
)
from weyldisc.errors import EvaluationError
from weyldisc.model import ExprCoefficient


def _table_model(**tables):
    coeffs = {}
    for name in ("p", "q", "c", "h", "d"):
        if name in tables:
            coeffs[name] = TableCoefficient(
                start=-1, values=tuple(Fraction(v) for v in tables[name])
            )
        else:
            coeffs[name] = ExprCoefficient.parse("1" if name == "p" else "0")
    return CoefficientSet(a=0, **coeffs)


def test_ratio_criterion_constant_leading(models):
    verdict = ratio_limit_point_check(models["ex4.2a"], 60)
    assert verdict.outcome == "holds"
    assert verdict.witnesses["K"] == 0.0


def test_ratio_criterion_fails_on_geometric_leading(models):
    verdict = ratio_limit_point_check(models["ex4.1a"], 60)
    assert verdict.outcome == "fails"
    assert verdict.failing_condition == "reciprocal_series_divergence"


def test_ratio_criterion_fails_on_unbounded_coupling(models):
    verdict = ratio_limit_point_check(models["ex4.2b"], 60)
    assert verdict.outcome == "fails"
    assert verdict.failing_condition == "coupling_ratio_bound"


def test_ratio_criterion_table_is_unknown():
    model = _table_model(p=[1] * 12)
    verdict = ratio_limit_point_check(model, 10)
    assert verdict.outcome == "unknown"


def test_ratio_criterion_reduces_to_series_test_without_coupling():
    # with c == 0 only the series condition matters
    diverging = CoefficientSet.from_expressions(a=0, p="t + 1")
    converging = CoefficientSet.from_expressions(a=0, p="t^2 + 1")
    assert ratio_limit_point_check(diverging, 40).outcome == "holds"
    assert ratio_limit_point_check(converging, 40).outcome == "fails"


def test_weighted_criterion_unit_weight(models):
    verdict = weighted_limit_point_check(models["ex4.2a"], "1", 60)
    assert verdict.outcome == "holds"
    w = verdict.witnesses
    assert w["k1"] == 0.0 and w["k2"] == 0.0 and w["k3"] == 0.0 and w["k4"] == 0.0


def test_weighted_criterion_geometric_weight_fails_series(models):
    verdict = weighted_limit_point_check(models["ex4.2a"], "4^t", 60)
    assert verdict.outcome == "fails"
    assert verdict.failing_condition == "weighted_series_divergence"


def test_weighted_criterion_sign_precondition(models):
    verdict = weighted_limit_point_check(models["ex4.1a"], "1", 60)
    assert verdict.outcome == "fails"
    assert verdict.failing_condition == "p_positive"
    assert verdict.witnesses["p_violation_t"] == 0


def test_weighted_criterion_negative_weight_is_an_error(models):
    with pytest.raises(EvaluationError, match="positive"):
        weighted_limit_point_check(models["free"], "0 - 1", 20)


def test_weighted_criterion_unbounded_coupling_needs_growing_weight(models):
    model = models["ex4.2b"]
    small = weighted_limit_point_check(model, "1", 40)
    assert small.outcome == "fails"
    assert small.failing_condition == "coupling_bound"


def test_weighted_criterion_handles_negative_potential():
    model = CoefficientSet.from_expressions(a=0, p="1", q="0 - t")
    verdict = weighted_limit_point_check(model, "t + 1", 40)
    # q ~ -t is dominated by M = t+1; series sum 1/sqrt(t+1) diverges
    assert verdict.outcome == "holds"
    verdict2 = weighted_limit_point_check(
        CoefficientSet.from_expressions(a=0, p="1", q="0 - 4^t"), "t + 1", 40
    )
    assert verdict2.outcome == "fails"
    assert verdict2.failing_condition == "potential_lower_bound"


def test_weighted_criterion_variation_bound():
    # M = 4^t against p = 16^t: variation ratio grows like 2^t
    model = CoefficientSet.from_expressions(a=0, p="16^t", q="0")
    verdict = weighted_limit_point_check(model, "4^t", 40)
    assert verdict.outcome == "fails"
    assert verdict.failing_condition == "weight_variation"


def test_verdicts_monotone_in_horizon(models):
    for name, model in models.items():
        short = ratio_limit_point_check(model, 30)
        long = ratio_limit_point_check(model, 300)
        assert short.outcome == long.outcome, name


def test_criterion_soundness_against_classifier(models, classify_memo):
    """Every certified 'holds' must coincide with an LPC classification."""
    for name, model in models.items():
        verdict = ratio_limit_point_check(model, 60)
        if verdict.outcome == "holds":
            assert classify_memo(name).verdict == "LPC", name


def _reference_witnesses(model, weight, horizon):
    """The witnesses as sups of per-t formulas, one coefficient lookup per
    term, with the scanned ranges of the criteria: K, k1, k2 and k3 over
    a .. horizon, k4 over a+1 .. min(horizon, a+200)."""
    k = model.kernel
    a = model.a
    coeff = model.coeff
    weight = ExprCoefficient.parse(weight)

    def m(t):
        return weight.value(t, k)

    def sup(lo, hi, fn):
        worst = 0.0
        for t in range(lo, hi + 1):
            worst = max(worst, float(fn(t)))
        return worst

    return {
        "K": sup(a, horizon, lambda t: abs(coeff("c", t)) / abs(coeff("p", t))),
        "k1": sup(a, horizon, lambda t: (abs(coeff("c", t)) + abs(coeff("c", t - 1))) / m(t)),
        "k2": sup(a, horizon, lambda t: abs(coeff("h", t)) / m(t)),
        "k3": sup(a, horizon, lambda t: max(-coeff("q", t), k.real(0)) / m(t)),
        "k4": sup(a + 1, min(horizon, a + 200), lambda t: k.sqrt(coeff("p", t - 1))
                  * abs(m(t) - m(t - 1)) / (k.sqrt(m(t)) * m(t - 1))),
    }


@pytest.mark.parametrize("weight", ["t + 2", "4^t", "sqrt(t) + 1"])
@pytest.mark.parametrize("horizon", [-2, 0, 1, 30, 250])
def test_witnesses_are_the_per_t_sups(weight, horizon):
    """The windowed witnesses equal the sups of their per-t formulas, bit
    for bit, including where the k4 range stops at a+200 and where the
    horizon lies below a on a model that already holds longer columns."""
    model = CoefficientSet.from_expressions(
        a=1, p="t + 1", q="0 - t + 3", c="2^(0 - t) + 1", h="sqrt(t)", d="1"
    )
    weighted_limit_point_check(model, weight, 40)
    want = _reference_witnesses(model, weight, horizon)
    ratio = ratio_limit_point_check(model, horizon)
    weighted = weighted_limit_point_check(model, weight, horizon)
    got = {"K": ratio.witnesses["K"], **{key: weighted.witnesses[key] for key in want if key != "K"}}
    assert got == want
    assert want["k4"] > 0 or horizon <= 1
