from fractions import Fraction

import pytest

from weyldisc import (
    CoefficientSet,
    TableCoefficient,
    ratio_limit_point_check,
    weighted_limit_point_check,
)
from weyldisc.errors import CoefficientRangeError, EvaluationError
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


@pytest.mark.parametrize("c", ["0", "1"])
@pytest.mark.parametrize("p, zero_t, horizons", [
    ("t^2 - 100*t + 2500", 50, (20, 60)),
    ("sqrt((t - 250)^2)", 250, (200, 300)),
])
def test_ratio_criterion_p_vanishing(p, zero_t, horizons, c):
    """A zero of p fails the ratio criterion, coupled or not: the longer
    horizon finds it on p's column, the shorter by the exact scan of p*p
    past the horizon, and both name it."""
    model = CoefficientSet.from_expressions(a=0, p=p, c=c)
    for horizon in horizons:
        verdict = ratio_limit_point_check(model, horizon)
        assert (verdict.outcome, verdict.failing_condition) == ("fails", "p_nonvanishing")
        assert verdict.witnesses["p_violation_t"] == zero_t


def test_ratio_criterion_p_vanishing_in_a_table():
    """A table p is scanned on a .. horizon: a zero there fails, one past
    the horizon leaves the verdict unknown, p(a-1) is not on the
    criterion's grid, and a horizon past the table's end is its range
    error, as in the weighted criterion."""
    model = _table_model(p=[1, 1, 1, 0] + [1] * 8)
    verdict = ratio_limit_point_check(model, 10)
    assert (verdict.outcome, verdict.failing_condition) == ("fails", "p_nonvanishing")
    assert verdict.witnesses["p_violation_t"] == 2
    assert ratio_limit_point_check(model, 1).outcome == "unknown"
    assert ratio_limit_point_check(_table_model(p=[0] + [1] * 11), 10).outcome == "unknown"
    for check in (ratio_limit_point_check, lambda m, h: weighted_limit_point_check(m, "1", h)):
        with pytest.raises(CoefficientRangeError, match="evaluated at t=11"):
            check(_table_model(p=[1] * 12), 20)


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
    for bit, including where the k4 range stops at a+200, on a model that
    already holds longer columns.  A horizon below a is refused by both
    criteria."""
    model = CoefficientSet.from_expressions(
        a=1, p="t + 1", q="0 - t + 3", c="2^(0 - t) + 1", h="sqrt(t)", d="1"
    )
    weighted_limit_point_check(model, weight, 40)
    if horizon < model.a:
        with pytest.raises(ValueError, match="horizon must be at least the grid origin a"):
            ratio_limit_point_check(model, horizon)
        with pytest.raises(ValueError, match="horizon must be at least the grid origin a"):
            weighted_limit_point_check(model, weight, horizon)
        return
    want = _reference_witnesses(model, weight, horizon)
    ratio = ratio_limit_point_check(model, horizon)
    weighted = weighted_limit_point_check(model, weight, horizon)
    got = {"K": ratio.witnesses["K"], **{key: weighted.witnesses[key] for key in want if key != "K"}}
    assert got == want
    assert want["k4"] > 0 or horizon <= 1


def test_ratio_criterion_needs_both_classes():
    assert ratio_limit_point_check(_table_model(c=[1] * 12), 10).outcome == "unknown"
    model = _table_model(p=[1] * 12)
    coupled = CoefficientSet(a=0, p=model.p, q=model.q, c=ExprCoefficient.parse("1"),
                             h=model.h, d=model.d)
    verdict = ratio_limit_point_check(coupled, 10)
    assert verdict.outcome == "unknown"
    assert verdict.reason == "coupling/leading coefficient has no certified asymptotics"


@pytest.mark.parametrize("name, reason", [
    ("p", "positivity of p beyond the horizon could not be certified"),
    ("c", "c has no certified asymptotics"),
    ("h", "h has no certified asymptotics"),
    ("q", "q has no certified asymptotics"),
])
def test_weighted_criterion_table_coefficient_is_unknown(name, reason):
    verdict = weighted_limit_point_check(_table_model(**{name: [1] * 12}), "1", 10)
    assert (verdict.outcome, verdict.failing_condition) == ("unknown", None)
    assert verdict.reason == reason


def test_weighted_criterion_p_negative_past_the_horizon():
    model = CoefficientSet.from_expressions(a=0, p="100 - t")
    verdict = weighted_limit_point_check(model, "1", 50)
    assert (verdict.outcome, verdict.failing_condition) == ("fails", "p_positive")
    assert verdict.witnesses["p_violation_t"] == 100


@pytest.mark.parametrize("p, zero_t, horizons", [
    ("t^2 - 100*t + 2500", 50, (20, 60)),
    # sqrt(v) > 0 exactly when v > 0
    ("sqrt((t - 250)^2)", 250, (200, 300)),
])
def test_weighted_criterion_p_vanishing_past_the_horizon(p, zero_t, horizons):
    """p is positive up to the shorter horizon and eventually; the exact
    scan between them finds its zero, as the longer horizon does."""
    model = CoefficientSet.from_expressions(a=0, p=p)
    for horizon in horizons:
        verdict = weighted_limit_point_check(model, "1", horizon)
        assert (verdict.outcome, verdict.failing_condition) == ("fails", "p_positive")
        assert verdict.witnesses["p_violation_t"] == zero_t


def test_weighted_criterion_weight_is_a_string_or_a_coefficient(models):
    model = models["ex4.2a"]
    parsed = weighted_limit_point_check(model, ExprCoefficient.parse("t + 1"), 40)
    assert parsed == weighted_limit_point_check(model, "t + 1", 40)
    table = TableCoefficient(start=0, values=(Fraction(1),) * 41)
    verdict = weighted_limit_point_check(model, table, 40)
    assert (verdict.outcome, verdict.failing_condition) == ("unknown", None)
    assert verdict.reason == "weight has no certified asymptotics"
    assert verdict.witnesses["k4"] == 0.0


def test_weighted_criterion_sqrt_weight_variation_is_unknown(models):
    verdict = weighted_limit_point_check(models["free"], "sqrt(t + 1)", 20)
    assert verdict.outcome == "unknown"
    assert verdict.reason == "variation of a sqrt-wrapped weight is not certified"


def test_weighted_criterion_coupling_dominates_the_series():
    # c^2 = t^4 outgrows p^2 = 1: the terms 1/(t sqrt(t^2 + 1)) converge
    model = CoefficientSet.from_expressions(a=0, p="1", c="t^2")
    verdict = weighted_limit_point_check(model, "t^2 + 1", 30)
    assert (verdict.outcome, verdict.failing_condition) == ("fails", "weighted_series_divergence")
    assert weighted_limit_point_check(
        CoefficientSet.from_expressions(a=0, p="1"), "t^2 + 1", 30).outcome == "holds"


def test_weighted_criterion_below_the_grid_origin(models):
    """A horizon below a would scan no value of M or p, so both criteria
    refuse it, as ``spectral_gap`` does; from a on a zero weight is an
    input error."""
    zero_p = CoefficientSet.from_expressions(a=0, p="0")
    for model, weight in ((models["free"], "0"), (zero_p, "1")):
        with pytest.raises(ValueError, match="horizon must be at least the grid origin a"):
            weighted_limit_point_check(model, weight, -1)
        with pytest.raises(ValueError, match="horizon must be at least the grid origin a"):
            ratio_limit_point_check(model, -1)
    with pytest.raises(EvaluationError, match=r"weight M\(0\) is not positive"):
        weighted_limit_point_check(models["free"], "0", 0)
