"""Coefficient families, derived quantities, and the admissible set.

A model is the five real coefficient sequences p, q, c, h, d on the grid
{a-1, a, a+1, ...} together with a precision configuration.  Coefficients
are expressions or explicit value tables (never closures) so a scenario
can be serialized and re-run bit-for-bit.

For a spectral parameter lam the derived quantities are

    p_tilde = p + (c^2 - h*c)/(lam - d)         effective leading coefficient
    q_tilde = q + h^2/(lam - d) - nabla(alpha)  effective potential
    alpha   = h*c/(lam - d)                     off-diagonal coupling
    h_shift = q + h^2/(lam - d) - lam           shifted potential
    m_excl  = d - (c^2 - h*c)/p                 second excluded-value sequence

lam is admissible when it avoids the closures of the ranges of d and
m_excl; there p_tilde and its reciprocal stay well defined, because
p_tilde * (lam - d) = p * (lam - m_excl).  ``recurrence.step_table``
computes them; ``m_excl_at`` gives the one lam-free value on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import expr as ex
from . import growth
from .backends import BIG_KERNEL, native_kernel
from .errors import CoefficientRangeError, EvaluationError


@dataclass(frozen=True)
class PrecisionConfig:
    """Active arithmetic mode.  big-float 256 is the default: the target
    problems involve 4^t growth that native floats cannot track."""

    mode: str = "big-float"
    mantissa_bits: int = 256

    def __post_init__(self):
        if self.mode not in ("big-float", "native-float"):
            raise ValueError(f"unknown precision mode {self.mode!r}")
        if self.mode == "big-float" and self.mantissa_bits < 53:
            raise ValueError("mantissa_bits must be at least 53")

    @property
    def kernel(self):
        return native_kernel() if self.mode == "native-float" else BIG_KERNEL

    @property
    def bits(self) -> int:
        return 53 if self.mode == "native-float" else self.mantissa_bits

    def workprec(self):
        return self.kernel.workprec(self.bits)


@dataclass(frozen=True)
class ExprCoefficient:
    """Coefficient given by a formula in t."""

    ast: ex.CoefficientExpr

    @classmethod
    def parse(cls, text: str) -> "ExprCoefficient":
        return cls(ex.parse_coefficient_expr(text))

    def value(self, t: int, kernel):
        return ex.evaluate(self.ast, t, kernel)

    def text(self) -> str:
        return ex.to_text(self.ast)

    def growth_class(self) -> growth.GrowthClass | None:
        return growth.class_of_expr(self.ast)


@dataclass(frozen=True)
class TableCoefficient:
    """Coefficient given by explicit values from a start index.

    Evaluation outside the declared range is a hard error; silently
    extending a table would corrupt any classification built on it.
    """

    start: int
    values: tuple[Fraction, ...]

    def value(self, t: int, kernel):
        idx = t - self.start
        if idx < 0 or idx >= len(self.values):
            raise CoefficientRangeError(
                f"table covers t in [{self.start}, {self.start + len(self.values) - 1}]"
                f" but was evaluated at t={t}"
            )
        return kernel.real(self.values[idx])

    def text(self) -> str:
        head = ", ".join(str(v) for v in self.values[:4])
        more = ", ..." if len(self.values) > 4 else ""
        return f"table(start={self.start}; {head}{more})"

    def growth_class(self) -> None:
        return None  # finite data has no certified asymptotics


Coefficient = ExprCoefficient | TableCoefficient


def coefficient_from_spec(spec) -> Coefficient:
    """Build a coefficient from its serialized form (expression string or
    {"table": [...], "start": n})."""
    if isinstance(spec, str):
        return ExprCoefficient.parse(spec)
    if isinstance(spec, dict) and "table" in spec:
        values = tuple(Fraction(str(v)) for v in spec["table"])
        return TableCoefficient(start=int(spec.get("start", 0)), values=values)
    raise TypeError(
        "coefficient must be an expression string or {'table': [...], 'start': n}"
    )


@dataclass(frozen=True)
class CoefficientSet:
    """The five coefficient sequences plus grid origin and precision."""

    a: int
    p: Coefficient
    q: Coefficient
    c: Coefficient
    h: Coefficient
    d: Coefficient
    precision: PrecisionConfig = field(default_factory=PrecisionConfig)

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})

    @classmethod
    def from_expressions(
        cls,
        a: int = 0,
        p: str = "1",
        q: str = "0",
        c: str = "0",
        h: str = "0",
        d: str = "0",
        precision: PrecisionConfig | None = None,
    ) -> "CoefficientSet":
        return cls(
            a=a,
            p=ExprCoefficient.parse(p),
            q=ExprCoefficient.parse(q),
            c=ExprCoefficient.parse(c),
            h=ExprCoefficient.parse(h),
            d=ExprCoefficient.parse(d),
            precision=precision or PrecisionConfig(),
        )

    @property
    def kernel(self):
        return self.precision.kernel

    def workprec(self):
        return self.precision.workprec()

    def coeff(self, name: str, t: int):
        """Real scalar value of one coefficient at integer t >= a-1.

        Values are memoized per model; a precision context must be active.
        """
        if t < self.a - 1:
            raise EvaluationError(f"t={t} is below the grid start {self.a - 1}")
        memo = self._memo
        key = (name, t)
        out = memo.get(key)
        if out is None:
            out = getattr(self, name).value(t, self.kernel)
            if name == "p" and out == 0:
                raise EvaluationError(f"p({t}) = 0; p must never vanish")
            memo[key] = out
        return out

    def with_precision(self, precision: PrecisionConfig) -> "CoefficientSet":
        return CoefficientSet(
            a=self.a, p=self.p, q=self.q, c=self.c, h=self.h, d=self.d,
            precision=precision,
        )


@dataclass(frozen=True)
class SpectralPoint:
    """Admissibility record for one spectral parameter.

    margin is the certified infimum of min(|lam-d(t)|, |lam-m_excl(t)|):
    over the checked horizon only when decided_symbolically is False, over
    the whole grid when True.
    """

    lam: object
    margin: float
    decided_symbolically: bool

    @property
    def admissible(self) -> bool:
        return self.margin > 0


def as_lambda_scalar(model: CoefficientSet, lam):
    """Coerce a python number (or pass through a kernel scalar)."""
    k = model.kernel
    if isinstance(lam, complex):
        return k.complex(lam.real, lam.imag)
    if isinstance(lam, (int, float, Fraction)):
        return k.complex(lam, 0)
    return lam


def m_excl_at(model: CoefficientSet, t: int):
    """The excluded value m_excl(t) = d - (c^2 - h*c)/p, with the operands
    and order of ``recurrence.step_table``."""
    with model.workprec():
        p = model.coeff("p", t)
        c = model.coeff("c", t)
        h = model.coeff("h", t)
        return model.coeff("d", t) - (c * c - h * c) / p


def m_excl_growth_class(model: CoefficientSet) -> growth.GrowthClass | None:
    """Exact normal form of d - (c^2 - h*c)/p when the coefficients allow it."""
    d_cls = model.d.growth_class()
    c_cls = model.c.growth_class()
    h_cls = model.h.growth_class()
    p_cls = model.p.growth_class()
    if d_cls is None or c_cls is None or h_cls is None or p_cls is None:
        return None
    c_sq = _class_square(c_cls)
    hc = _class_mul(h_cls, c_cls)
    if c_sq is None or hc is None:
        return None
    num = growth._add(c_sq, hc, -1)
    if not num:
        return d_cls  # off-diagonal part vanishes identically
    if d_cls.sqrt_wrapped or p_cls.sqrt_wrapped:
        return None
    if len(p_cls.poly()) != 1:
        return None
    quot = growth._div_single(num, p_cls.poly())
    if quot is None:
        return None
    return growth._class_from_poly(growth._add(d_cls.poly(), quot, -1))


def _class_square(cls: growth.GrowthClass) -> growth.ExpPoly | None:
    if cls.is_zero:
        return {}
    if cls.sqrt_wrapped:
        return cls.poly()
    return growth._mul(cls.poly(), cls.poly())


def _class_mul(a: growth.GrowthClass, b: growth.GrowthClass) -> growth.ExpPoly | None:
    if a.is_zero or b.is_zero:
        return {}
    if a.sqrt_wrapped or b.sqrt_wrapped:
        return None
    return growth._mul(a.poly(), b.poly())


def spectral_gap(model: CoefficientSet, lam, horizon: int) -> SpectralPoint:
    """Distance of lam to the excluded values over a-1 <= t <= horizon,
    plus an exact all-t decision for recognized coefficient families.

    Any lam with a nonzero imaginary part is admissible outright (the
    excluded values are real).  For real lam the decision is exact when
    d and the derived excluded sequence have recognized normal forms.
    """
    if horizon < model.a:
        raise ValueError("horizon must be at least the grid origin a")
    k = model.kernel
    with model.workprec():
        lam = as_lambda_scalar(model, lam)
        margin = None
        for t in range(model.a - 1, horizon + 1):
            d_val = model.coeff("d", t)
            m_val = m_excl_at(model, t)
            gap = min(k.absval(lam - d_val), k.absval(lam - m_val))
            margin = gap if margin is None else min(margin, gap)
        try:
            margin_f = float(k.to_mpf(margin))
        except OverflowError:
            margin_f = float("inf")

        if k.im(lam) != 0:
            return SpectralPoint(lam=lam, margin=margin_f, decided_symbolically=True)

        lam_frac = k.to_fraction(k.re(lam))
        d_cls = model.d.growth_class()
        m_cls = m_excl_growth_class(model)
        if d_cls is None or m_cls is None:
            return SpectralPoint(lam=lam, margin=margin_f, decided_symbolically=False)
        t0 = model.a - 1
        hit_d = growth.closure_contains(d_cls, lam_frac, t0)
        hit_m = growth.closure_contains(m_cls, lam_frac, t0)
        if hit_d is None or hit_m is None:
            return SpectralPoint(lam=lam, margin=margin_f, decided_symbolically=False)
        if hit_d or hit_m:
            # the true infimum is zero even if the horizon scan missed it
            return SpectralPoint(lam=lam, margin=0.0, decided_symbolically=True)
        return SpectralPoint(lam=lam, margin=margin_f, decided_symbolically=True)


# spec-facing aliases
parse_coefficient_expr = ex.parse_coefficient_expr
