"""Identically one coefficients.

A model whose p or d is the literal 1 or a table of ones
(``CoefficientSet.ones``) must agree value for value with the same
model with each such one spelled ``1+0*t``, which forms every product;
``recurrence``'s module docstring lists where products are left out.
A count pins how many complex products ``classify`` leaves out, so that
none of them comes back unnoticed.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from weyldisc import (
    ClassifyOptions,
    CoefficientSet,
    PrecisionConfig,
    builtin_names,
    builtin_scenario,
    classify,
    step_table,
)
from weyldisc.checks import random_pair_sequences, run_suite
from weyldisc.model import ExprCoefficient, TableCoefficient, as_lambda_scalar
from weyldisc.recurrence import operator_window, propagate_backward
from weyldisc.weyl import fundamental_pair

from conftest import _random_left_end_cases
from test_zero_coefficients import (
    PRECISIONS,
    _flat,
    _outcome,
    _report_values,
    _routine_values,
    _suite_values,
    _table_values,
)


def _spellings(model: CoefficientSet, last: int) -> dict:
    """The model with each of its ones spelled ``1+0*t``, and with each
    a table of ones on a-1 .. last."""
    table = TableCoefficient(start=model.a - 1, values=(Fraction(1),) * (last - model.a + 2))
    return {
        "spelled": dataclasses.replace(
            model, **dict.fromkeys(model.ones, ExprCoefficient.parse("1+0*t"))),
        "table": dataclasses.replace(model, **dict.fromkeys(model.ones, table)),
    }


def _one_values(model: CoefficientSet, lam, top: int) -> list:
    """The raw results of the routines that leave out products by a one:
    the step table, the fundamental pair, backward propagation from psi's
    last state, and the operator rows and terms on psi and on seeded
    random sequences."""
    lam = as_lambda_scalar(model, lam)
    a = model.a
    table = step_table(model, lam, top)
    phi, psi = fundamental_pair(model, lam, 0.7, top, table=table)
    y, _ = random_pair_sequences(model, top, random.Random(top))
    return [
        _table_values(table),
        _flat((phi, psi)),
        _outcome(propagate_backward, model, lam, psi.state(top), top),
        _flat(list(operator_window(model, psi.y1, psi.y2, a - 1, top))),
        _flat(list(operator_window(model, *zip(*y), a, top))),
        _routine_values(model, lam, top),
    ]


def _agree(model: CoefficientSet, lam, top: int, n_max: int, suite_top: int,
           pairs: int) -> None:
    assert model.ones
    options = ClassifyOptions(n_max=n_max)
    want = [
        _one_values(model, lam, top),
        _report_values(classify(model, lam, 0.0, options)),
        _suite_values(run_suite(model, lam, 0.0, suite_top, pairs)),
    ]
    for spelling, other in _spellings(model, n_max).items():
        if spelling == "spelled":
            assert not other.ones
        else:
            assert other.ones == model.ones
        got = [
            _one_values(other, lam, top),
            _report_values(classify(other, lam, 0.0, options)),
            _suite_values(run_suite(other, lam, 0.0, suite_top, pairs)),
        ]
        assert got == want, spelling


@pytest.mark.parametrize("precision", PRECISIONS.values(), ids=PRECISIONS.keys())
def test_random_models_agree_with_ones_spelled_out(precision):
    """Seeded random and strongly coupled models: leaving out the products
    by a one changes no value.  Every pruned branch runs: p one with c and
    h zero (a21 = h_shift), with c zero alone, with c nonzero (the operator
    rows only), and d one."""
    cases = [*_random_left_end_cases(48, 20261101),
             *_random_left_end_cases(48, 20261201),
             *_random_left_end_cases(16, 20261102, coupled=True)]
    seen = set()
    for a, exprs, lam, _ in cases:
        model = CoefficientSet.from_expressions(a=a, precision=precision, **exprs)
        if not model.ones:
            continue
        if "p" in model.ones:
            seen.add("p, c = h = 0" if model.decoupled
                     else "p, c = 0" if "c" in model.zeros else "p")
        if "d" in model.ones:
            seen.add("d")
        _agree(model, lam, a + 12, a + 40, a + 12, 3)
    assert seen == {"p, c = h = 0", "p, c = 0", "p", "d"}


@pytest.mark.parametrize("precision", PRECISIONS.values(), ids=PRECISIONS.keys())
@pytest.mark.parametrize("name", builtin_names())
def test_builtins_agree_with_ones_spelled_out(name, precision):
    """Each built-in at n_max 200 (p one on free, ex4.2a and ex4.2b, d one
    on ex4.1a and ex4.1b) gives the same classification evidence and
    check-suite defects with its ones spelled ``1+0*t`` or tabled."""
    scenario = dataclasses.replace(builtin_scenario(name), precision=precision)
    _agree(scenario.model(), scenario.lam, 200, 200, 40, 25)


def test_what_counts_as_one():
    """The literal 1 in any spelling that parses to it, and a table of
    ones, count for p and d; ``1+0*t``, ``t^0`` and ``2/2`` do not, nor
    a one among q, c and h, and nothing counts on native floats."""
    model = CoefficientSet.from_expressions(p="1.0", q="1", c="1", h="1", d="(1)")
    assert model.ones == {"p", "d"}
    for text in ("1+0*t", "t^0", "2/2"):
        spelled = CoefficientSet.from_expressions(p=text, d=text)
        assert spelled.ones == frozenset()
    ones = TableCoefficient(start=-1, values=(Fraction(1),) * 20)
    tabled = dataclasses.replace(spelled, p=ones, d=ones)
    assert tabled.ones == {"p", "d"}
    almost = TableCoefficient(start=-1, values=(Fraction(1),) * 19 + (Fraction(2),))
    assert dataclasses.replace(tabled, d=almost).ones == {"p"}
    native = tabled.with_precision(PrecisionConfig(mode="native-float"))
    assert native.ones == frozenset()
    assert model.with_precision(PrecisionConfig(mode="native-float")).ones == frozenset()


# built-in -> backward chi seeds that ``classify`` steps at n_max 40
_BACKWARD_SEEDS = {"free": 0, "ex4.2a": 1}


@pytest.mark.parametrize("name", sorted(_BACKWARD_SEEDS))
def test_classify_leaves_out_the_products_by_a_one(name, monkeypatch):
    """One ``classify`` at n_max 40 with p the literal 1 (and c = h = 0)
    forms exactly this many fewer complex products than with p spelled
    ``1+0*t``, per step t = a .. 40: three in the step table (a21 =
    h_shift lead / p_tilde and a22 = -h_shift / p_tilde), one a12 s1 for
    each of phi and psi stepped forward, and one for each backward chi
    seed."""
    scenario = builtin_scenario(name)
    complex_type = type(scenario.model().kernel.complex(0))
    multiply = complex_type.__mul__
    count = 0

    def counted(s, t):
        nonlocal count
        count += 1
        return multiply(s, t)

    monkeypatch.setattr(complex_type, "__mul__", counted)
    monkeypatch.setattr(complex_type, "__rmul__", counted)
    options = ClassifyOptions(n_max=40)
    products = {}
    for p in ("1", "1+0*t"):
        model = dataclasses.replace(scenario, p=p).model()
        count = 0
        report = classify(model, scenario.lam, 0.0, options)
        products[p] = count
    seeds = _BACKWARD_SEEDS[name]
    assert report.chi_method == ("backward" if seeds else "forward")
    steps = options.n_max - scenario.a + 1
    assert products["1+0*t"] - products["1"] == steps * (3 + 2 + seeds)
    monkeypatch.undo()
    assert complex_type.__mul__ is multiply and complex_type.__rmul__ is multiply
