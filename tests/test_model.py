import random
from fractions import Fraction

import pytest

from weyldisc import (
    BoundaryData,
    ClassifyOptions,
    CoefficientSet,
    CoefficientRangeError,
    EvaluationError,
    PrecisionConfig,
    PrecisionExhaustedError,
    TableCoefficient,
    asymptotic_class,
    builtin_names,
    builtin_scenario,
    classify,
    oracle_three_term,
    propagate,
    propagate_backward,
    spectral_gap,
    step_table,
)
from weyldisc.checks import run_suite
from weyldisc.expr import parse_coefficient_expr
from weyldisc.model import ExprCoefficient, m_excl_column, m_excl_growth_class

from conftest import fabs, fdiff


def test_free_model_derived_values(models):
    free = models["free"]
    row = step_table(free, 1j, 0)
    assert fdiff(row.p_tilde[-1], 1) == 0
    assert fabs(row.alpha[-1]) == 0
    # a21 = (h_shift - alpha) alpha / p_tilde + h_shift, and alpha = 0
    assert fdiff(row.steps[-1][2], -1j) == 0
    assert fabs(m_excl_column(free, 0, 0)[0]) == 0


def test_perturbed_geometric_effective_potential(models):
    """q_eff for the h-coupled family equals its closed rational form."""
    model = models["ex4.1b"]
    k = model.kernel
    lam = k.complex(0, 1)
    table = step_table(model, lam, 20)
    for t in (0, 1, 5, 20):
        i = table.index(t)
        four_t = k.real(4) ** t
        expected = four_t + (four_t + k.real(4) ** (-t) + 2) / (lam - 1)
        assert fdiff(table.q_tilde[i], expected) / fabs(expected) < 1e-70
        assert fdiff(table.p_tilde[i], -four_t) == 0


def test_sqrt_coupled_effective_leading_coefficient(models):
    """p_eff for the c-coupled family equals 1 + (4^2t + 4^t)/(lam - 4^t)."""
    model = models["ex4.2b"]
    k = model.kernel
    lam = k.complex(0, 1)
    table = step_table(model, lam, 9)
    for t in (0, 1, 4, 9):
        four_t = k.real(4) ** t
        expected = 1 + (four_t * four_t + four_t) / (lam - four_t)
        p_tilde = table.p_tilde[table.index(t)]
        assert fdiff(p_tilde, expected) / fabs(expected) < 1e-70


def test_p_tilde_m_excl_consistency(models):
    """p_eff (lam - d) = p (lam - m_excl), the defining factorization."""
    rng = random.Random(11)
    for model in models.values():
        k = model.kernel
        for _ in range(20):
            t = rng.randint(model.a - 1, model.a + 30)
            lam = k.complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
            row = step_table(model, lam, t)
            d_val = model.coeff("d", t)
            p_val = model.coeff("p", t)
            lhs = row.p_tilde[-1] * (lam - d_val)
            rhs = p_val * (lam - m_excl_column(model, t, t)[0])
            scale = fabs(lhs) + fabs(rhs)
            assert fdiff(lhs, rhs) <= scale * 2.0 ** -248


def test_alpha_definition(models):
    model = models["ex4.1b"]
    k = model.kernel
    lam = k.complex(0.5, 2)
    alpha = step_table(model, lam, 3).alpha[-1]
    expected = model.coeff("h", 3) * model.coeff("c", 3) / (lam - model.coeff("d", 3))
    assert fdiff(alpha, expected) == 0


def test_derived_precision_agreement(models):
    """256- and 512-bit evaluations agree to at least 60 digits, t <= 50."""
    for name in ("ex4.1b", "ex4.2b"):
        base = models[name]
        hi = base.with_precision(PrecisionConfig(mantissa_bits=512))
        lo_table = step_table(base, 1j, 50)
        hi_table = step_table(hi, 1j, 50)
        for t in (0, 17, 50):
            i = lo_table.index(t)
            pairs = [
                (getattr(lo_table, field)[i], getattr(hi_table, field)[i])
                for field in ("p_tilde", "q_tilde", "alpha")
            ]
            pairs.append((m_excl_column(base, t, t)[0], m_excl_column(hi, t, t)[0]))
            k = hi.kernel
            for lo_v, hi_v in pairs:
                # hi_v leads, so the difference rounds at 512 bits
                ref = abs(hi_v) + k.real(1e-30)
                assert abs(hi_v - lo_v) / ref < k.real(10) ** -60


@pytest.mark.parametrize("name", builtin_names())
def test_m_excl_at_is_the_table_column(models, name):
    """The lam-free excluded value keeps the bits of the m_excl column the
    step table used to carry, d - (c*c - h*c)/p on the coefficient columns,
    at every point (a one-point window) and over a whole window, at
    big-float and native precision."""
    for model in (models[name],
                  models[name].with_precision(PrecisionConfig(mode="native-float"))):
        first = model.a - 1
        p, c, h, d = (model.column(n, first, 30) for n in "pchd")
        want = [d[i] - (c[i] * c[i] - h[i] * c[i]) / p[i] for i in range(len(p))]
        assert [m_excl_column(model, t, t)[0] for t in range(first, 31)] == want
        assert m_excl_column(model, first, 30) == want


def test_spectral_gap_examples(models):
    gap = spectral_gap(models["ex4.1b"], 1j, 40)
    assert gap.margin == pytest.approx(2 ** 0.5, rel=1e-12)
    assert gap.decided_symbolically

    zero = spectral_gap(models["free"], 0.0, 40)
    assert zero.margin == 0.0 and not zero.admissible

    one = spectral_gap(models["free"], 1j, 40)
    assert one.margin == pytest.approx(1.0, rel=1e-12)


def test_spectral_gap_refuses_a_horizon_below_the_origin(models):
    with pytest.raises(ValueError, match="horizon"):
        spectral_gap(models["free"], 1j, -1)


def test_spectral_gap_monotone_in_horizon(models):
    model = models["ex4.2b"]
    margins = [spectral_gap(model, 2.5, h).margin for h in (5, 10, 20, 40)]
    assert all(m1 >= m2 for m1, m2 in zip(margins, margins[1:]))


def test_spectral_gap_symbolic_hits(models):
    model = models["ex4.2b"]
    # 4.0 is in the range of d = 4^t; -16.0 in the range of the derived
    # excluded sequence -4^(2t); -17 avoids both, certified for all t
    assert spectral_gap(model, 4.0, 10).margin == 0.0
    assert spectral_gap(model, -16.0, 10).margin == 0.0
    clear = spectral_gap(model, -17.0, 10)
    assert clear.margin == pytest.approx(1.0) and clear.decided_symbolically


def test_spectral_gap_hit_beyond_horizon_is_still_rejected(models):
    # 4^6 = 4096 is attained at t=6, beyond this horizon of 3
    point = spectral_gap(models["ex4.2a"], 4096.0, 3)
    assert point.decided_symbolically and point.margin == 0.0


def test_spectral_gap_accumulation_point():
    model = CoefficientSet.from_expressions(a=0, p="1", d="1 + 2^(-t)")
    # 1 is the limit of d, never attained: in the closure
    assert spectral_gap(model, 1.0, 30).margin == 0.0
    ok = spectral_gap(model, 0.99, 30)
    assert ok.margin > 0 and ok.decided_symbolically


def test_table_coefficient_range_error():
    table = TableCoefficient(start=-1, values=tuple(Fraction(n) for n in range(5)))
    model = CoefficientSet(
        a=0,
        p=ExprCoefficient.parse("1"),
        q=ExprCoefficient.parse("0"),
        c=ExprCoefficient.parse("0"),
        h=ExprCoefficient.parse("0"),
        d=table,
    )
    assert float(model.coeff("d", 2)) == 3.0
    with pytest.raises(CoefficientRangeError):
        model.coeff("d", 4)


def test_vanishing_p_is_an_error():
    """At the point and in a window over it, p = 0 names its t."""
    model = CoefficientSet.from_expressions(a=0, p="t - 3")
    assert len(model.column("p", -1, 2)) == 4
    with pytest.raises(EvaluationError, match="^p\\(3\\) = 0; p must never vanish$"):
        model.column("p", 0, 10)
    with pytest.raises(EvaluationError, match="p\\(3\\) = 0"):
        model.coeff("p", 3)


def test_table_window_out_of_range_names_the_first_missing_t():
    """Windows past either end of a table report the first t it lacks,
    as the one-point read does."""
    table = TableCoefficient(start=1, values=tuple(Fraction(n) for n in range(4)))
    k = PrecisionConfig().kernel
    assert [float(v) for v in table.column(2, 4, k)] == [1.0, 2.0, 3.0]
    assert table.column(2, -1, k) == table.column(0, -2, k) == ()  # empty windows
    for first, last, bad in ((1, 9, 5), (0, 3, 0), (7, 9, 7)):
        with pytest.raises(CoefficientRangeError) as window:
            table.column(first, last, k)
        with pytest.raises(CoefficientRangeError) as point:
            table.value(bad, k)
        assert str(window.value) == str(point.value)
        assert str(window.value).endswith(f"evaluated at t={bad}")


def test_column_is_exactly_the_window(models):
    """A column is t = first .. last whatever the model already holds, and
    q starts at a: the first equation row is the only reader of q."""
    model = models["ex4.1b"].with_precision(PrecisionConfig())
    a = model.a
    long = model.column("p", a - 1, 60)
    short = model.column("p", a + 3, a + 7)
    assert len(long) == 62 - a and short == long[4:9]
    assert model.column("p", a + 7, a + 7)[-1] == model.coeff("p", a + 7) == long[8]
    assert model.column("q", a, a + 5) == tuple(model.coeff("q", t) for t in range(a, a + 6))
    with pytest.raises(EvaluationError, match="below the grid start"):
        model.column("q", a - 1, a + 5)
    with pytest.raises(EvaluationError, match="below the grid start"):
        model.coeff("d", a - 2)


def test_q_singular_below_a_is_never_read():
    """With a = 1 and q = 1/t, q(0) does not exist; only the first row
    reads q, from t = a on, so classify and the check suite both run."""
    model = CoefficientSet.from_expressions(a=1, q="1/t")
    report = classify(model, 1j, 0.0, ClassifyOptions(n_max=120))
    assert (report.verdict, report.chi_method) == ("LPC", "backward")
    results = run_suite(model, 1j, top=30)
    assert len(results) == 15 and all(r.passed for r in results)


def test_precision_config_validation():
    with pytest.raises(ValueError):
        PrecisionConfig(mantissa_bits=32)
    with pytest.raises(ValueError):
        PrecisionConfig(mode="quad")


class _OnePointRead(AssertionError):
    """A coefficient was read at one point instead of as a column."""


@pytest.mark.parametrize("mode", ["big-float", "native-float"])
def test_solvers_read_coefficients_only_as_columns(monkeypatch, mode):
    """With the one-point reads made to raise, classify, the check suite,
    both propagations and the oracle run on all five built-ins; only
    ex4.2a on native floats stops, at its known overflow."""
    def refuse(*args, **kwargs):
        raise _OnePointRead("one-point coefficient read")

    monkeypatch.setattr(CoefficientSet, "coeff", refuse)
    monkeypatch.setattr(ExprCoefficient, "value", refuse)
    monkeypatch.setattr(TableCoefficient, "value", refuse)
    for name in builtin_names():
        # a fresh model: its column cache is empty
        model = builtin_scenario(name).model().with_precision(PrecisionConfig(mode=mode))
        runs = (
            lambda: classify(model, 1j, 0.0, ClassifyOptions(n_max=200)),
            lambda: run_suite(model, 1j, top=40),
            lambda: propagate(model, 1j, BoundaryData(1, 0), 40),
            lambda: propagate_backward(model, 1j, (1, 0), 40),
            lambda: oracle_three_term(model, 1j, BoundaryData(1, 0), 40),
        )
        for run in runs:
            try:
                run()
            except PrecisionExhaustedError:
                assert (name, mode) == ("ex4.2a", "native-float")


def _m_excl_class(**exprs):
    return m_excl_growth_class(CoefficientSet.from_expressions(a=0, **exprs))


def _class(text):
    return asymptotic_class(parse_coefficient_expr(text))


def test_m_excl_class_of_recognized_coefficients():
    # c^2 - h*c = 4^t - t 2^t over p = 2^t leaves 2^t - t
    assert _m_excl_class(p="2^t", c="2^t", h="t", d="1") == _class("1 - 2^t + t")
    # a sqrt c squares to its radicand
    assert _m_excl_class(c="sqrt(t + 1)") == _class("0 - t - 1")
    # a vanishing c^2 - h*c leaves d, whatever p is
    assert _m_excl_class(p="t + 1", c="t", h="t", d="sqrt(t + 1)") == _class("sqrt(t + 1)")
    assert _m_excl_class(p="sqrt(t + 1)", d="4^t") == _class("4^t")


def test_m_excl_class_of_equal_sqrt_couplings():
    """c = h = sqrt(t + 1): c^2 - h*c vanishes and m_excl is d."""
    assert _m_excl_class(c="sqrt(t + 1)", h="sqrt(t + 1)", d="2^t") == _class("2^t")
    assert _m_excl_class(c="sqrt(t + 1)", h="sqrt(t + 2)") is None


def test_m_excl_class_is_none_without_a_closed_form():
    table = TableCoefficient(start=-1, values=(Fraction(1),) * 4)
    one = ExprCoefficient.parse("1")
    model = CoefficientSet(a=0, p=one, q=one, c=one, h=one, d=table)
    assert m_excl_growth_class(model) is None
    assert _m_excl_class(d="t^t") is None
    assert _m_excl_class(c="t^t") is None
    assert _m_excl_class(h="t^t") is None
    assert _m_excl_class(c="t", h="sqrt(t + 1)") is None  # h*c keeps a sqrt
    assert _m_excl_class(c="1", d="sqrt(t + 1)") is None
    assert _m_excl_class(c="1", p="sqrt(t + 1)") is None
    assert _m_excl_class(c="1", p="t + 1") is None  # p has two terms
    assert _m_excl_class(c="1", p="t + 2 - 2") is None  # 1/t is no exponential polynomial


def test_spectral_gap_without_a_closed_form_is_a_horizon_margin():
    table = TableCoefficient(start=-1, values=(Fraction(3),) * 12)
    one = ExprCoefficient.parse("1")
    model = CoefficientSet(a=0, p=one, q=one, c=ExprCoefficient.parse("0"), h=one, d=table)
    point = spectral_gap(model, 1.0, 10)
    assert point.margin == 2.0 and not point.decided_symbolically
    # m_excl = -1/(t + 2) has no closed form: only the horizon is checked
    point = spectral_gap(CoefficientSet.from_expressions(a=0, p="t + 2", c="1"), 1.0, 10)
    assert point.margin == 1.0 and not point.decided_symbolically
