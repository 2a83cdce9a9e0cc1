"""Sufficient limit-point criteria decided from the coefficients alone.

Two closed checks, each sound but not necessary:

* ratio criterion -- |c/p| bounded beyond some index together with a
  divergent sum of 1/|p| forces the limit point case;
* weighted criterion -- p positive, with a positive weight sequence M
  controlling c, h and the negative part of q, a bounded normalized
  variation of M, and a divergent weighted series
  sum 1/((p^2 + c^2)^(1/4) sqrt(M)) (shifted one step in p and c).

The bound constants involved are existential, so a numeric scan can
witness but never certify them; certification happens through the exact
growth classes of the coefficients (dominant-term comparison and the
divergence decision table: a reciprocal series sum 1/f diverges exactly
when f's dominant base is below 1, or equals 1 with t-power at most 1).
Those classes and their exponential-polynomial arithmetic belong to
``growth``; this module reads them only through its public functions.
Both criteria need p nonzero on the whole grid from a: the ratio
criterion finds a zero of p from the exact class of p*p, or on p's
column up to the horizon when p has no class; the weighted one tests
p > 0 on the column and past the horizon from p's class.  Both refuse
a horizon below a, which would scan no value.
Whenever a certificate is unavailable the verdict is ``unknown``, never
a guess, and a definite verdict can never flip under a longer horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import growth
from .errors import EvaluationError
from .model import Coefficient, CoefficientSet, ExprCoefficient


@dataclass(frozen=True)
class CriterionVerdict:
    outcome: str  # holds | fails | unknown
    which: str  # ratio | weighted
    witnesses: dict
    failing_condition: str | None = None
    reason: str | None = None


def _sup(fn, *columns) -> float:
    """Largest ``fn`` over the zipped columns as a machine float, at least 0."""
    worst = 0.0
    for value in map(fn, *columns):
        worst = max(worst, float(value))
    return worst


def ratio_limit_point_check(model: CoefficientSet, horizon: int = 200) -> CriterionVerdict:
    """Bounded |c/p| plus divergent sum of 1/|p| force the limit point case."""
    _require_horizon(model, horizon)
    c_cls = model.c.growth_class()
    p_cls = model.p.growth_class()
    witnesses: dict = {"N": model.a}

    nonvanishing, bad_t = _certify_nonvanishing(model, p_cls, horizon)
    if nonvanishing is False:
        witnesses["p_violation_t"] = bad_t
        return CriterionVerdict(
            outcome="fails", which="ratio", witnesses=witnesses,
            failing_condition="p_nonvanishing",
        )

    if c_cls is not None and c_cls.is_zero:
        ratio_ok = True
        witnesses["K"] = 0.0
    elif c_cls is None or p_cls is None:
        return CriterionVerdict(
            outcome="unknown", which="ratio", witnesses=witnesses,
            reason="coupling/leading coefficient has no certified asymptotics",
        )
    else:
        ratio_ok = growth.ratio_bounded(growth.order_of(c_cls), growth.order_of(p_cls))
        columns = (model.column(name, model.a, horizon) for name in "cp")
        witnesses["K"] = _sup(lambda c, p: abs(c) / abs(p), *columns)
    if not ratio_ok:
        return CriterionVerdict(
            outcome="fails", which="ratio", witnesses=witnesses,
            failing_condition="coupling_ratio_bound",
        )

    if p_cls is None:
        return CriterionVerdict(
            outcome="unknown", which="ratio", witnesses=witnesses,
            reason="leading coefficient has no certified asymptotics "
                   "(finite data cannot witness divergence)",
        )
    p_order = growth.order_of(p_cls)
    if growth.recip_sum_diverges(p_order):
        if nonvanishing is None:
            return CriterionVerdict(
                outcome="unknown", which="ratio", witnesses=witnesses,
                reason="p != 0 beyond the horizon could not be certified",
            )
        return CriterionVerdict(outcome="holds", which="ratio", witnesses=witnesses)
    return CriterionVerdict(
        outcome="fails", which="ratio", witnesses=witnesses,
        failing_condition="reciprocal_series_divergence",
    )


def _require_horizon(model: CoefficientSet, horizon: int) -> None:
    """Refuse a horizon below the grid origin, where no value is scanned."""
    if horizon < model.a:
        raise ValueError("horizon must be at least the grid origin a")


def _certify_nonvanishing(model: CoefficientSet, p_cls, horizon: int):
    """(verdict, witness_t) for p(t) != 0 at every t >= a: False with the
    first t where p vanishes, True if p never does, None if only the
    scanned range could be checked.  With an exact class, p*p (positive
    exactly where p is nonzero) is scanned exactly from a up to where its
    dominant term fixes its sign, whatever the horizon, and p itself is
    never evaluated; without one, p's column on a .. horizon is scanned
    and nothing past it is certified."""
    if p_cls is None:
        values = model.p.column(model.a, horizon, model.kernel)
        bad = next((t for t, v in enumerate(values, model.a) if not v), None)
        return (None, None) if bad is None else (False, bad)
    square = growth.class_mul(p_cls, p_cls)
    sign = growth.eventual_sign(square, model.a)
    if sign is None:
        return None, None
    if sign[0] <= 0:  # p is the zero class
        return False, model.a
    bad = next((t for t in range(model.a, sign[1]) if not growth.positive_at(square, t)), None)
    return (True, None) if bad is None else (False, bad)


def _certify_positive(model: CoefficientSet, coeff: Coefficient, horizon: int):
    """(verdict, witness_t): True if positive on the whole grid from a,
    False with a witness index if a violation is found, None if only the
    scanned range could be checked."""
    values = coeff.column(model.a, horizon, model.kernel)
    for t, value in enumerate(values, model.a):
        if not value > 0:
            return False, t
    cls = coeff.growth_class()
    if cls is None:
        return None, None
    sign = growth.eventual_sign(cls, model.a)
    if sign is None:
        return None, None
    # of sign sign[0] from sign[1] on; the exact scan of the front past
    # the column names the first value <= 0 whenever sign[0] <= 0
    for t in range(horizon + 1, sign[1] + 1):
        if not growth.positive_at(cls, t):
            return False, t
    return True, None


def weighted_limit_point_check(
    model: CoefficientSet, weight: Coefficient | str, horizon: int = 200,
) -> CriterionVerdict:
    """Weight-sequence criterion; ``weight`` is the positive sequence M, an
    expression string or a coefficient (a table has no certified
    asymptotics, so it reads ``unknown``)."""
    _require_horizon(model, horizon)
    if isinstance(weight, str):
        weight = ExprCoefficient.parse(weight)
    witnesses: dict = {"N": model.a}

    # M > 0 wherever we can see it; a witnessed violation is an input error
    m_col = weight.column(model.a, horizon, model.kernel)
    for t, m_t in enumerate(m_col, model.a):
        if not m_t > 0:
            raise EvaluationError(f"weight M({t}) is not positive")

    p_positive, bad_t = _certify_positive(model, model.p, horizon)
    if p_positive is False:
        witnesses["p_violation_t"] = bad_t
        return CriterionVerdict(
            outcome="fails", which="weighted", witnesses=witnesses,
            failing_condition="p_positive",
        )
    if p_positive is None:
        return CriterionVerdict(
            outcome="unknown", which="weighted", witnesses=witnesses,
            reason="positivity of p beyond the horizon could not be certified",
        )

    outcome, failing_condition, reason = _weighted_conditions(model, weight)
    witnesses.update(_weighted_witnesses(model, m_col, horizon))
    return CriterionVerdict(
        outcome=outcome, which="weighted", witnesses=witnesses,
        failing_condition=failing_condition, reason=reason,
    )


def _weighted_conditions(
    model: CoefficientSet, weight: Coefficient
) -> tuple[str, str | None, str | None]:
    """(outcome, failing_condition, reason) of the weighted criterion's
    four conditions, decided from the exact growth classes for a p that
    ``_certify_positive`` certified (so p's class is known and nonzero)."""
    m_cls = weight.growth_class()
    c_cls = model.c.growth_class()
    h_cls = model.h.growth_class()
    q_cls = model.q.growth_class()
    p_cls = model.p.growth_class()

    if m_cls is None:
        return "unknown", None, "weight has no certified asymptotics"
    m_order = growth.order_of(m_cls)

    # condition 1: |c| and |h| dominated by M
    for cls, name in ((c_cls, "c"), (h_cls, "h")):
        if cls is None:
            return "unknown", None, f"{name} has no certified asymptotics"
        if not growth.ratio_bounded(growth.order_of(cls), m_order):
            return "fails", "coupling_bound", None

    # condition 2: q bounded below by a multiple of -M
    if q_cls is None:
        return "unknown", None, "q has no certified asymptotics"
    if not q_cls.is_zero:
        sign = growth.eventual_sign(q_cls, model.a)
        if sign is None:
            return "unknown", None, "sign of q could not be certified"
        if sign[0] < 0:
            if not growth.ratio_bounded(growth.order_of(q_cls), m_order):
                return "fails", "potential_lower_bound", None

    # condition 3: normalized variation of M stays bounded
    p_order = growth.order_of(p_cls)
    nabla_m = growth.nabla_class(m_cls)
    if nabla_m is None:
        return "unknown", None, "variation of a sqrt-wrapped weight is not certified"
    if not nabla_m.is_zero:
        num_order = p_order.pow(Fraction(1, 2)).mul(growth.order_of(nabla_m))
        den_order = m_order.pow(Fraction(3, 2))
        if growth.order_cmp(num_order, den_order) > 0:
            return "fails", "weight_variation", None

    # condition 4: divergence of sum 1/((p^2+c^2)^(1/4) sqrt(M))
    c_order = growth.order_of(c_cls)
    pc_order = p_order.pow(Fraction(2))
    if c_order is not None:
        c_sq = c_order.pow(Fraction(2))
        if growth.order_cmp(c_sq, pc_order) > 0:
            pc_order = c_sq
    term_order = pc_order.pow(Fraction(1, 4)).mul(m_order.pow(Fraction(1, 2)))
    if growth.recip_sum_diverges(term_order):
        return "holds", None, None
    return "fails", "weighted_series_divergence", None


def _weighted_witnesses(model: CoefficientSet, m_col: tuple, horizon: int) -> dict:
    """Numeric sups k1..k4 of the bound ratios over a .. horizon, M being
    ``m_col``; they witness the conditions but cannot certify them."""
    k = model.kernel
    a = model.a
    c_col = model.column("c", a - 1, horizon)
    zero = k.real(0)
    return {
        "k1": _sup(lambda c, c_prev, m: (abs(c) + abs(c_prev)) / m,
              c_col[1:], c_col, m_col),
        "k2": _sup(lambda h, m: abs(h) / m, model.column("h", a, horizon), m_col),
        "k3": _sup(lambda q, m: max(-q, zero) / m,
              model.column("q", a, horizon), m_col),
        # the variation ratio needs M(t-1): usable only from a+1, where
        # the validated positive range covers the previous index
        "k4": _sup(lambda p_prev, m_t, m_prev: k.sqrt(p_prev)
              * abs(m_t - m_prev) / (k.sqrt(m_t) * m_prev),
              model.column("p", a, min(horizon, a + 200) - 1), m_col[1:], m_col),
    }
