import random
from fractions import Fraction

import mpmath
import pytest

from weyldisc import (
    CoefficientSet,
    CoefficientRangeError,
    EvaluationError,
    PrecisionConfig,
    TableCoefficient,
    builtin_names,
    spectral_gap,
    step_table,
)
from weyldisc.model import ExprCoefficient, m_excl_at

from conftest import fabs, fdiff


def test_free_model_derived_values(models):
    free = models["free"]
    row = step_table(free, 1j, 0)
    assert fdiff(free, row.p_tilde[-1], 1) == 0
    assert fabs(free, row.alpha[-1]) == 0
    assert fdiff(free, row.h_shift[-1], -1j) == 0
    assert fabs(free, row.m_excl[-1]) == 0


def test_perturbed_geometric_effective_potential(models):
    """q_eff for the h-coupled family equals its closed rational form."""
    model = models["ex4.1b"]
    k = model.kernel
    with model.workprec():
        lam = k.complex(0, 1)
        table = step_table(model, lam, 20)
        for t in (0, 1, 5, 20):
            i = table.index(t)
            four_t = k.real(4) ** t
            expected = four_t + (four_t + k.real(4) ** (-t) + 2) / (lam - 1)
            assert fdiff(model, table.q_tilde[i], expected) / fabs(model, expected) < 1e-70
            assert fdiff(model, table.p_tilde[i], -four_t) == 0


def test_sqrt_coupled_effective_leading_coefficient(models):
    """p_eff for the c-coupled family equals 1 + (4^2t + 4^t)/(lam - 4^t)."""
    model = models["ex4.2b"]
    k = model.kernel
    with model.workprec():
        lam = k.complex(0, 1)
        table = step_table(model, lam, 9)
        for t in (0, 1, 4, 9):
            four_t = k.real(4) ** t
            expected = 1 + (four_t * four_t + four_t) / (lam - four_t)
            p_tilde = table.p_tilde[table.index(t)]
            assert fdiff(model, p_tilde, expected) / fabs(model, expected) < 1e-70


def test_p_tilde_m_excl_consistency(models):
    """p_eff (lam - d) = p (lam - m_excl), the defining factorization."""
    rng = random.Random(11)
    for model in models.values():
        k = model.kernel
        with model.workprec():
            for _ in range(20):
                t = rng.randint(model.a - 1, model.a + 30)
                lam = k.complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
                row = step_table(model, lam, t)
                d_val = model.coeff("d", t)
                p_val = model.coeff("p", t)
                lhs = row.p_tilde[-1] * (lam - d_val)
                rhs = p_val * (lam - row.m_excl[-1])
                scale = fabs(model, lhs) + fabs(model, rhs)
                assert fdiff(model, lhs, rhs) <= scale * 2.0 ** -248


def test_alpha_definition(models):
    model = models["ex4.1b"]
    k = model.kernel
    with model.workprec():
        lam = k.complex(0.5, 2)
        alpha = step_table(model, lam, 3).alpha[-1]
        expected = model.coeff("h", 3) * model.coeff("c", 3) / (lam - model.coeff("d", 3))
        assert fdiff(model, alpha, expected) == 0


def test_derived_precision_agreement(models):
    """256- and 512-bit evaluations agree to at least 60 digits, t <= 50."""
    for name in ("ex4.1b", "ex4.2b"):
        base = models[name]
        hi = base.with_precision(PrecisionConfig(mantissa_bits=512))
        lo_table = step_table(base, 1j, 50)
        hi_table = step_table(hi, 1j, 50)
        for t in (0, 17, 50):
            i = lo_table.index(t)
            with hi.workprec():
                k = hi.kernel
                for field in ("p_tilde", "q_tilde", "alpha", "m_excl"):
                    lo_v, hi_v = getattr(lo_table, field)[i], getattr(hi_table, field)[i]
                    ref = k.to_mpf(k.absval(hi_v)) + mpmath.mpf(1e-30)
                    assert k.to_mpf(k.absval(lo_v - hi_v)) / ref < mpmath.mpf(10) ** -60


@pytest.mark.parametrize("name", builtin_names())
def test_m_excl_at_is_the_table_column(models, name):
    """The lam-free excluded value equals the step table's m_excl bit for
    bit, at big-float and native precision."""
    for model in (models[name],
                  models[name].with_precision(PrecisionConfig(mode="native-float"))):
        table = step_table(model, 1j, 30)
        assert tuple(m_excl_at(model, t) for t in range(model.a - 1, 31)) == table.m_excl


def test_spectral_gap_examples(models):
    gap = spectral_gap(models["ex4.1b"], 1j, 40)
    assert gap.margin == pytest.approx(2 ** 0.5, rel=1e-12)
    assert gap.decided_symbolically

    zero = spectral_gap(models["free"], 0.0, 40)
    assert zero.margin == 0.0 and not zero.admissible

    one = spectral_gap(models["free"], 1j, 40)
    assert one.margin == pytest.approx(1.0, rel=1e-12)


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
    with model.workprec():
        assert float(model.kernel.to_mpf(model.coeff("d", 2))) == 3.0
        with pytest.raises(CoefficientRangeError):
            model.coeff("d", 4)


def test_vanishing_p_is_an_error():
    model = CoefficientSet.from_expressions(a=0, p="t - 3")
    with model.workprec():
        with pytest.raises(EvaluationError, match="p\\(3\\) = 0"):
            model.coeff("p", 3)


def test_precision_config_validation():
    with pytest.raises(ValueError):
        PrecisionConfig(mantissa_bits=32)
    with pytest.raises(ValueError):
        PrecisionConfig(mode="quad")
