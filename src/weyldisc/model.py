"""Coefficient families, derived quantities, and the admissible set.

A model is the five real coefficient sequences p, q, c, h, d on the grid
{a-1, a, a+1, ...} together with a precision configuration.  Coefficients
are expressions or explicit value tables (never closures) so a scenario
can be serialized and re-run bit-for-bit.  They are evaluated as windows:
``CoefficientSet.column`` hands out one coefficient on t = first .. last,
and each value is evaluated once per model.  q is read from a on (only
the first equation row reads it), the others from a-1.

For a spectral parameter lam the derived quantities are

    p_tilde = p + (c^2 - h*c)/(lam - d)         effective leading coefficient
    q_tilde = q + h^2/(lam - d) - nabla(alpha)  effective potential
    alpha   = h*c/(lam - d)                     off-diagonal coupling
    h_shift = q + h^2/(lam - d) - lam           shifted potential
    m_excl  = d - (c^2 - h*c)/p                 second excluded-value sequence

lam is admissible when it avoids the closures of the ranges of d and
m_excl; there p_tilde and its reciprocal stay well defined, because
p_tilde * (lam - d) = p * (lam - m_excl).  ``recurrence.step_table``
computes the lam-dependent ones; ``m_excl_column`` gives the lam-free
m_excl on a window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import expr as ex
from . import growth
from .backends import big_kernel, native_kernel
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
        """The scalar kernel: its scalars round at ``bits`` wherever used."""
        if self.mode == "native-float":
            return native_kernel()
        return big_kernel(self.mantissa_bits)

    @property
    def bits(self) -> int:
        return 53 if self.mode == "native-float" else self.mantissa_bits


@dataclass(frozen=True)
class ExprCoefficient:
    """Coefficient given by a formula in t."""

    ast: ex.CoefficientExpr

    @classmethod
    def parse(cls, text: str) -> "ExprCoefficient":
        return cls(ex.parse_coefficient_expr(text))

    def column(self, first: int, last: int, kernel) -> tuple:
        """Values at t = first .. last, one tree walk for the window."""
        return ex.evaluate(self.ast, range(first, last + 1), kernel)

    def value(self, t: int, kernel):
        return self.column(t, t, kernel)[0]

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

    def column(self, first: int, last: int, kernel) -> tuple:
        """Values at t = first .. last; the first t outside is reported."""
        end = self.start + len(self.values) - 1
        if first <= last and (first < self.start or last > end):
            bad = end + 1 if self.start <= first <= end else first
            raise CoefficientRangeError(
                f"table covers t in [{self.start}, {end}] but was evaluated at t={bad}"
            )
        lo = first - self.start
        return tuple(map(kernel.real, self.values[lo:max(lo, last + 1 - self.start)]))

    def value(self, t: int, kernel):
        return self.column(t, t, kernel)[0]

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
        object.__setattr__(self, "_columns", {})

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

    def column(self, name: str, first: int, last: int) -> tuple:
        """Real scalar values of one coefficient at t = first .. last.

        The grid starts at a for q (only the first equation row reads it),
        else at a-1.  Each column is kept from its grid start and only
        extended, so each value is evaluated once."""
        start = self.a if name == "q" else self.a - 1
        if first < start:
            raise EvaluationError(f"t={first} is below the grid start {start}")
        held = self._columns.get(name, ())
        end = start + len(held) - 1
        if last > end:
            new = getattr(self, name).column(end + 1, last, self.kernel)
            if name == "p" and 0 in new:
                raise EvaluationError(f"p({end + 1 + new.index(0)}) = 0; p must never vanish")
            held = self._columns[name] = held + new
        return held[first - start:max(first, last + 1) - start]

    def coeff(self, name: str, t: int):
        """One coefficient at integer t: ``column`` at the one point."""
        return self.column(name, t, t)[0]

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


def m_excl_column(model: CoefficientSet, first: int, last: int) -> list:
    """The excluded values m_excl(t) = d - (c^2 - h*c)/p, t = first .. last."""
    return [
        d - (c * c - h * c) / p
        for p, c, h, d in zip(*(model.column(n, first, last) for n in "pchd"))
    ]


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
    lam = as_lambda_scalar(model, lam)
    margin = None
    first = model.a - 1
    d_col = model.column("d", first, horizon)
    for d_val, m_val in zip(d_col, m_excl_column(model, first, horizon)):
        gap = min(abs(lam - d_val), abs(lam - m_val))
        margin = gap if margin is None else min(margin, gap)
    margin_f = float(margin)

    if lam.imag != 0:
        return SpectralPoint(lam=lam, margin=margin_f, decided_symbolically=True)

    lam_frac = k.to_fraction(lam.real)
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

