"""Identically zero coefficients.

A model whose c, h, d or q is the literal 0 or a table of zeros
(``CoefficientSet.zeros``) must agree value for value with the same
model with each such zero spelled ``0*t``, which forms every product;
``recurrence``'s module docstring lists where products are dropped.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from weyldisc import (
    ClassifyOptions,
    CoefficientRangeError,
    CoefficientSet,
    PrecisionConfig,
    builtin_names,
    builtin_scenario,
    classify,
    step_table,
)
from weyldisc.checks import random_pair_sequences, run_suite
from weyldisc.errors import WeyldiscError
from weyldisc.model import TableCoefficient, as_lambda_scalar
from weyldisc.recurrence import (
    BoundaryData,
    Trajectory,
    fundamental_matrix,
    propagate_backward,
    propagate_columns,
    quasi_difference,
    relative_residuals,
    y2_relation,
)
from weyldisc.structure import green_terms, lagrange_identity_defect, vop_reconstruct
from weyldisc.weyl import on_circle_defect

from conftest import _random_left_end_cases

PRECISIONS = {
    "mpmath-256": PrecisionConfig(mantissa_bits=256),
    "mpmath-53": PrecisionConfig(mantissa_bits=53),
}
_COLUMNS = ("p_tilde", "alpha", "q_tilde", "r1", "r2")


def _respelled(exprs: dict) -> dict:
    return {name: "0*t" if text == "0" else text for name, text in exprs.items()}


def _table_values(table) -> list:
    columns = [list(getattr(table, name)) for name in _COLUMNS]
    return columns + [[table.lead_left], [v for step in table.steps for v in step]]


def _report_values(report) -> list:
    discs = [(d.n, d.center, d.radius) for d in report.disc_samples]
    chi_sums = report.chi_profile.partial_sums if report.chi_profile else None
    return [discs, report.psi_profile.partial_sums, chi_sums, report.m_limit,
            report.chi_method, report.verdict]


def _suite_values(results) -> list:
    return [(r.name, r.worst) for r in results]


def _flat(value):
    """A value's exact identity, through tuples, lists and trajectories."""
    if isinstance(value, Trajectory):
        return _flat((value.y1, value.y2, value.y1q))
    if isinstance(value, (tuple, list)):
        return [_flat(v) for v in value]
    for attr in ("_mpc_", "_mpf_"):
        if hasattr(value, attr):
            return getattr(value, attr)
    return value


def _outcome(func, *args):
    try:
        return _flat(func(*args))
    except (WeyldiscError, ZeroDivisionError) as exc:
        return type(exc).__name__


def _routine_values(model: CoefficientSet, lam, top: int) -> list:
    """The raw results of the routines that drop zero products, on the
    solutions at lam and lam + i and on seeded random sequences."""
    k = model.kernel
    a = model.a
    lam = as_lambda_scalar(model, lam)
    table = step_table(model, lam, top)
    phi, psi = propagate_columns(table, (BoundaryData(1, 0), BoundaryData(0, 1)))
    (other,) = propagate_columns(step_table(model, lam + k.complex(0, 1), top),
                                 (BoundaryData(1, 1),))
    rng = random.Random(top)
    y, z = random_pair_sequences(model, top, rng)
    n = top + 1 - (a - 1)
    draws = [k.complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3 * n + 1)]
    junk = Trajectory(model=model, lam=lam, top=top, y1=tuple(draws[:n + 1]),
                      y2=tuple(draws[n + 1:2 * n + 1]), y1q=tuple(draws[2 * n + 1:]))
    return [
        _outcome(propagate_backward, model, lam, psi.state(top), top),
        _outcome(fundamental_matrix, model, lam, top),
        _outcome(y2_relation, model, lam, psi.y1, a - 1, top),
        _outcome(quasi_difference, model, psi.y1, psi.y2, a - 1, top),
        _outcome(quasi_difference, model, junk.y1, junk.y2, a - 1, top),
        _outcome(relative_residuals, model, psi, a - 1, top),
        _outcome(relative_residuals, model, junk, a - 1, top),
        _outcome(green_terms, model, y, z, top),
        _outcome(lagrange_identity_defect, psi, other, top),
        _outcome(lambda *args: list(vars(vop_reconstruct(*args)).values()),
                 (phi, psi), other, a, top),
    ]


def _agree(pruned: CoefficientSet, full: CoefficientSet, lam, top: int, n_max: int,
           suite_top: int, pairs: int) -> None:
    assert pruned.zeros and not full.zeros
    assert _table_values(step_table(pruned, lam, top)) == _table_values(
        step_table(full, lam, top))
    assert _routine_values(pruned, lam, top) == _routine_values(full, lam, top)
    options = ClassifyOptions(n_max=n_max)
    assert _report_values(classify(pruned, lam, 0.0, options)) == _report_values(
        classify(full, lam, 0.0, options))
    assert _suite_values(run_suite(pruned, lam, 0.0, suite_top, pairs)) == _suite_values(
        run_suite(full, lam, 0.0, suite_top, pairs))


@pytest.mark.parametrize("precision", PRECISIONS.values(), ids=PRECISIONS.keys())
def test_random_models_agree_with_zeros_spelled_out(precision):
    """Seeded random and strongly coupled models: dropping the zero
    coefficients' products changes no value.  Every branch of the step
    table runs: c zero, h zero, both and neither."""
    cases = [*_random_left_end_cases(48, 20261101),
             *_random_left_end_cases(16, 20261102, coupled=True)]
    seen = set()
    for a, exprs, lam, _ in cases:
        pruned = CoefficientSet.from_expressions(a=a, precision=precision, **exprs)
        if not pruned.zeros:
            continue
        full = CoefficientSet.from_expressions(a=a, precision=precision,
                                               **_respelled(exprs))
        seen.add(pruned.zeros & {"c", "h"})
        _agree(pruned, full, lam, a + 12, a + 40, a + 12, 3)
    assert seen == {frozenset(), frozenset("c"), frozenset("h"), frozenset("ch")}


@pytest.mark.parametrize("precision", PRECISIONS.values(), ids=PRECISIONS.keys())
@pytest.mark.parametrize("name", builtin_names())
def test_builtins_agree_with_zeros_spelled_out(name, precision):
    """Each built-in at n_max 200 gives the same classification evidence
    and check-suite defects with its zero coefficients spelled ``0*t``."""
    scenario = dataclasses.replace(builtin_scenario(name), precision=precision)
    spelled = dataclasses.replace(scenario, **_respelled(
        {c: getattr(scenario, c) for c in "pqchd"}))
    _agree(scenario.model(), spelled.model(), scenario.lam, 200, 200, 40, 25)


def test_what_counts_as_zero():
    """The literal 0 in any spelling that parses to it, and a table of
    zeros, count; ``0*t`` and the like do not, and nothing counts on
    native floats."""
    model = CoefficientSet.from_expressions(q="0.0", c="(0)", h="0*t", d="0 - 0")
    assert model.zeros == {"q", "c"}
    assert not model.decoupled
    zeros = TableCoefficient(start=-1, values=(Fraction(0),) * 20)
    tabled = dataclasses.replace(model, h=zeros, d=zeros)
    assert tabled.zeros == {"q", "c", "h", "d"} and tabled.decoupled
    native = tabled.with_precision(PrecisionConfig(mode="native-float"))
    assert native.zeros == frozenset() and not native.decoupled


@pytest.mark.parametrize("name", "ch")
def test_a_zero_table_counts_and_keeps_its_range(name):
    """A table of zeros for c or h is a zero coefficient: the step table
    and the classification agree with the literal 0's.  Past the table's
    last t the pruned solvers still refuse, as for any table."""
    lam = 0.5 + 1j
    literal = CoefficientSet.from_expressions(p="1", q="4^t", d="4^t", **{
        "c" if name == "h" else "h": "t + 1"})
    table = dataclasses.replace(
        literal, **{name: TableCoefficient(start=-1, values=(Fraction(0),) * 42)})
    assert name in table.zeros
    assert _table_values(step_table(table, lam, 40)) == _table_values(
        step_table(literal, lam, 40))
    options = ClassifyOptions(n_max=40)
    assert _report_values(classify(table, lam, 0.0, options)) == _report_values(
        classify(literal, lam, 0.0, options))
    with pytest.raises(CoefficientRangeError, match="t=41"):
        step_table(table, lam, 41)
    with pytest.raises(CoefficientRangeError, match="t=41"):
        classify(table, lam, 0.0, ClassifyOptions(n_max=41))


@pytest.mark.parametrize("h", ["2^t", "0"])
def test_a_zero_c_keeps_the_complex_reciprocal(h):
    """With c = 0, p_tilde is p, but 1/p_tilde stays the complex
    reciprocal, which truncates |p|^2 at prec+10 bits: for p = 3/7 + 2^t
    at 53 bits a real 1/p differs from it in the last bit at some t."""
    exprs = {"p": "3/7 + 2^t", "q": "t", "c": "0", "h": h, "d": "0"}
    precision = PRECISIONS["mpmath-53"]
    pruned = CoefficientSet.from_expressions(precision=precision, **exprs)
    full = CoefficientSet.from_expressions(precision=precision, **_respelled(exprs))
    _agree(pruned, full, 0.5 + 1j, 60, 60, 20, 3)


def test_a_given_trajectory_keeps_every_term():
    """A trajectory handed to a routine is taken as it is, whatever the
    model's zeros: on free (c = h = 0) a hand-built y2 = 1 enters
    ``Trajectory.combined`` and ``on_circle_defect`` as with the
    zeros spelled ``0*t``."""
    scenario = builtin_scenario("free")
    spelled = dataclasses.replace(scenario, **_respelled(
        {c: getattr(scenario, c) for c in "pqchd"}))
    n = 5
    got = []
    for model in (scenario.model(), spelled.model()):
        k = model.kernel
        one, lam = k.complex(1), k.complex(0, 1)
        count = n + 2 - model.a
        traj = Trajectory(model=model, lam=lam, top=n, y1=(one,) * (count + 1),
                          y2=(one,) * count, y1q=(one,) * count)
        combined = traj.combined(traj, 2)
        assert set(combined.y2) == {k.complex(3)}
        columns = traj.component_columns(model.a - 1, n)
        defect = on_circle_defect(model, columns, k.complex(0), lam, n)
        assert float(defect) == 2.0 * (n + 1 - model.a)
        got.append(_flat([combined, traj.combined(traj, k.complex(2)), defect]))
    assert got[0] == got[1]
