"""Exact asymptotics for the recognized coefficient family.

A recognized coefficient is an exponential polynomial

    f(t) = sum_i  c_i * b_i^t * t^(k_i),   c_i, b_i rational, b_i > 0, k_i >= 0,

optionally wrapped in a single outermost sqrt.  Within this family the
questions the solvers need -- does a real number lie in the closure of the
range, is a ratio of two coefficients bounded, does a reciprocal series
diverge -- are decidable exactly with rational arithmetic.  Everything
outside the family is reported as unrecognized (None), never guessed.

This module owns the exponential-polynomial form: the dict ``ExpPoly``
mapping (base, power) -> coefficient, all entries nonzero, is read and
built only here.  The other modules hold ``GrowthClass`` values, combine
them with ``class_mul``, ``class_sub``, ``class_div`` and ``nabla_class``,
compare them through their ``GrowthOrder`` and ask ``eventual_sign``,
``positive_at`` and ``closure_contains``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import comb, lcm

from . import expr as ex

ExpPoly = dict[tuple[Fraction, int], Fraction]

_MAX_INT_EXPONENT = 64
_SCAN_LIMIT = 200_000


def _clean(poly: ExpPoly) -> ExpPoly:
    return {key: c for key, c in poly.items() if c != 0}


def _const_poly(value: Fraction) -> ExpPoly:
    return {(Fraction(1), 0): value} if value != 0 else {}


def _add(p: ExpPoly, q: ExpPoly, sign: int = 1) -> ExpPoly:
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, Fraction(0)) + sign * c
    return _clean(out)


def _mul(p: ExpPoly, q: ExpPoly) -> ExpPoly:
    out: ExpPoly = {}
    for (b1, k1), c1 in p.items():
        for (b2, k2), c2 in q.items():
            key = (b1 * b2, k1 + k2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return _clean(out)


def _div(p: ExpPoly, q: ExpPoly) -> ExpPoly | None:
    """p / q for a single-term q that no t-power of p falls below."""
    if len(q) != 1:
        return None
    ((b0, k0), c0), = q.items()
    if any(k < k0 for (_, k) in p):
        return None
    return {(b / b0, k - k0): c / c0 for (b, k), c in p.items()}


def _int_pow(p: ExpPoly, n: int) -> ExpPoly | None:
    if n < 0:
        inverse = _div(_const_poly(Fraction(1)), p)
        return None if inverse is None else _int_pow(inverse, -n)
    if n > _MAX_INT_EXPONENT:
        return None
    out = _const_poly(Fraction(1))
    for _ in range(n):
        out = _mul(out, p)
    return out


def _linear_int_parts(p: ExpPoly) -> tuple[int, int] | None:
    """Return (u, v) when the poly is u*t + v with integer u, v."""
    u = v = Fraction(0)
    for (b, k), c in p.items():
        if b != 1 or k > 1:
            return None
        if k == 1:
            u = c
        else:
            v = c
    if u.denominator != 1 or v.denominator != 1:
        return None
    return int(u), int(v)


def _pow(base: ExpPoly, expo: ExpPoly) -> ExpPoly | None:
    """base^expo for an integer expo, or a positive constant base raised
    to an affine exponent u*t + v."""
    linear = _linear_int_parts(expo)
    if linear is None:
        return None
    u, v = linear
    if u == 0:
        return _int_pow(base, v)
    c = base.get((Fraction(1), 0))
    if len(base) == 1 and c is not None and c > 0:
        return {(c**u, 0): c**v}
    return None


# how each operator node combines the normal forms of its children
_COMBINE = {
    ex.Neg: lambda p: _add({}, p, -1),
    ex.Add: _add,
    ex.Sub: lambda p, q: _add(p, q, -1),
    ex.Mul: _mul,
    ex.Div: _div,
    ex.Pow: _pow,
}


def poly_of(node: ex.CoefficientExpr) -> ExpPoly | None:
    """Exponential-polynomial normal form of an AST, or None."""
    if isinstance(node, ex.Num):
        return _const_poly(node.value)
    if isinstance(node, ex.Var):
        return {(Fraction(1), 1): Fraction(1)}
    combine = _COMBINE.get(type(node))  # Sqrt handled only at the top level
    if combine is None:
        return None
    parts = [poly_of(getattr(node, f.name)) for f in fields(node)]
    return None if None in parts else combine(*parts)


@dataclass(frozen=True)
class GrowthClass:
    """Normal form sum of c * b^t * t^k terms, optionally under a sqrt.

    ``terms`` is sorted with the dominant (largest base, then largest
    power) term first; recognition is exact or absent.
    """

    terms: tuple[tuple[Fraction, Fraction, int], ...]
    sqrt_wrapped: bool = False

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def dominant(self) -> tuple[Fraction, Fraction, int] | None:
        """(coeff, base, power) of the asymptotically leading term."""
        return self.terms[0] if self.terms else None

    def poly(self) -> ExpPoly:
        return {(b, k): c for c, b, k in self.terms}


def _class_from_poly(poly: ExpPoly, sqrt_wrapped: bool = False) -> GrowthClass:
    terms = tuple(
        (c, b, k)
        for (b, k), c in sorted(poly.items(), key=lambda kv: kv[0], reverse=True)
    )
    return GrowthClass(terms=terms, sqrt_wrapped=sqrt_wrapped and bool(terms))


def class_of_expr(node: ex.CoefficientExpr) -> GrowthClass | None:
    wrapped = isinstance(node, ex.Sqrt)
    poly = poly_of(node.arg if wrapped else node)
    if poly is None:
        return None
    cls = _class_from_poly(poly, sqrt_wrapped=wrapped)
    if cls.sqrt_wrapped and cls.dominant[0] < 0:
        return None  # eventually negative under a sqrt: not evaluable
    return cls


# ---------------------------------------------------------------------------
# Class arithmetic.  Each takes and gives GrowthClass or None (no closed
# form), so a formula of classes reads as written and None carries through.


def class_mul(a: GrowthClass | None, b: GrowthClass | None) -> GrowthClass | None:
    """a * b: a zero class gives zero and a sqrt class times itself its
    radicand; any other product with a sqrt class has no closed form."""
    if a is None or b is None:
        return None
    if a.is_zero or b.is_zero:
        return GrowthClass(())
    if a.sqrt_wrapped or b.sqrt_wrapped:
        return GrowthClass(a.terms) if a == b else None
    return _class_from_poly(_mul(a.poly(), b.poly()))


def class_sub(a: GrowthClass | None, b: GrowthClass | None) -> GrowthClass | None:
    """a - b; a sqrt class survives only a zero b."""
    if a is None or b is None:
        return None
    if b.is_zero:
        return a
    if a.sqrt_wrapped or b.sqrt_wrapped:
        return None
    return _class_from_poly(_add(a.poly(), b.poly(), -1))


def class_div(a: GrowthClass | None, b: GrowthClass | None) -> GrowthClass | None:
    """a / b: zero over any class is zero; otherwise b must be a single
    unwrapped term that no t-power of an unwrapped a falls below."""
    if a is None or b is None:
        return None
    if a.is_zero:
        return a
    if a.sqrt_wrapped or b.sqrt_wrapped:
        return None
    quot = _div(a.poly(), b.poly())
    return None if quot is None else _class_from_poly(quot)


def shift_poly(poly: ExpPoly) -> ExpPoly:
    """The poly of t -> f(t-1)."""
    out: ExpPoly = {}
    for (b, k), c in poly.items():
        base_coeff = c / b
        for j in range(k + 1):
            binom = Fraction(comb(k, j) * ((-1) ** (k - j)))
            key = (b, j)
            out[key] = out.get(key, Fraction(0)) + base_coeff * binom
    return _clean(out)


def nabla_class(cls: GrowthClass) -> GrowthClass | None:
    """f(t) - f(t-1); None for a sqrt class, whose difference has no
    closed form."""
    if cls.sqrt_wrapped:
        return None
    poly = cls.poly()
    return _class_from_poly(_add(poly, shift_poly(poly), -1))


# ---------------------------------------------------------------------------
# Exact values and eventual signs.


def exact_value(poly: ExpPoly, t: int) -> Fraction:
    total = Fraction(0)
    for (b, k), c in poly.items():
        total += c * b**t * Fraction(t) ** k
    return total


def positive_at(cls: GrowthClass, t: int) -> bool:
    """Whether f(t) > 0, exactly; sqrt(v) > 0 exactly when v > 0."""
    return exact_value(cls.poly(), t) > 0


def _first(test, t: int) -> int | None:
    """The first s >= t with ``test(s)``; None past _SCAN_LIMIT steps."""
    return next((s for s in range(t, t + _SCAN_LIMIT) if test(s)), None)


def _term_abs(c: Fraction, b: Fraction, k: int, t: int) -> Fraction:
    return abs(c) * b**t * Fraction(t) ** k


def _ratio_nonincreasing_at(bi: Fraction, ki: int, bd: Fraction, kd: int, t: int) -> bool:
    # |term_i(t+1)/term_d(t+1)| <= |term_i(t)/term_d(t)|
    return bi * Fraction(t + 1, t) ** (ki - kd) <= bd


def _domination_index(cls: GrowthClass, t_start: int) -> int | None:
    """Smallest T >= max(t_start, 1) with  sum of non-dominant |terms|
    <= |dominant|/2  for every t >= T, for a nonzero class.  None if the
    scan cap is hit."""
    (cd, bd, kd), *rest = cls.terms

    def dominated(t):
        return all(_ratio_nonincreasing_at(b, k, bd, kd, t) for _, b, k in rest) and (
            2 * sum(_term_abs(c, b, k, t) for c, b, k in rest) <= _term_abs(cd, bd, kd, t)
        )

    return _first(dominated, max(t_start, 1))


def eventual_sign(cls: GrowthClass, t_start: int) -> tuple[int, int] | None:
    """(sign, T) such that sign(f(t)) = sign for all t >= T, or None.  A
    sqrt class takes its radicand's sign, positive from ``class_of_expr``."""
    if cls.is_zero:
        return (0, max(t_start, 1))
    T = _domination_index(cls, t_start)
    if T is None:
        return None
    return (1 if cls.dominant[0] > 0 else -1, T)


# ---------------------------------------------------------------------------
# Growth orders: exact comparison of products of rational powers.


@dataclass(frozen=True)
class GrowthOrder:
    """Order of growth (base^t * t^power) with base a product of rational
    numbers raised to rational exponents (so sqrt and quartic roots of
    recognized coefficients stay exactly comparable)."""

    base_factors: tuple[tuple[Fraction, Fraction], ...]
    power: Fraction

    def pow(self, r: Fraction) -> "GrowthOrder":
        return GrowthOrder(
            tuple((b, e * r) for b, e in self.base_factors), self.power * r
        )

    def mul(self, other: "GrowthOrder") -> "GrowthOrder":
        return GrowthOrder(
            self.base_factors + other.base_factors, self.power + other.power
        )


ORDER_ONE = GrowthOrder((), Fraction(0))


def _base_cmp(a: GrowthOrder, b: GrowthOrder) -> int:
    """Exact comparison of the two exponential bases: -1, 0 or +1."""
    factors = list(a.base_factors) + [(q, -e) for q, e in b.base_factors]
    factors = [(q, e) for q, e in factors if e != 0 and q != 1]
    if not factors:
        return 0
    scale = lcm(*(e.denominator for _, e in factors))
    ratio = Fraction(1)
    for q, e in factors:
        ratio *= q ** int(e * scale)
    if ratio == 1:
        return 0
    return 1 if ratio > 1 else -1


def order_cmp(a: GrowthOrder, b: GrowthOrder) -> int:
    base = _base_cmp(a, b)
    if base != 0:
        return base
    if a.power == b.power:
        return 0
    return 1 if a.power > b.power else -1


def order_of(cls: GrowthClass) -> GrowthOrder | None:
    """None for the zero class."""
    if cls.is_zero:
        return None
    _, b, k = cls.dominant
    order = GrowthOrder(((b, Fraction(1)),), Fraction(k))
    return order.pow(Fraction(1, 2)) if cls.sqrt_wrapped else order


def ratio_bounded(num: GrowthOrder | None, den: GrowthOrder | None) -> bool | None:
    """Is limsup |num/den| finite?  None when it cannot be decided."""
    if num is None:
        return True
    if den is None:
        return None  # nonzero over an identically zero denominator
    return order_cmp(num, den) <= 0


def recip_sum_diverges(order: GrowthOrder) -> bool:
    """Does sum of 1/f(t) diverge, for positive f of the given order?"""
    base = _base_cmp(order, ORDER_ONE)
    if base < 0:
        return True  # terms themselves blow up
    if base > 0:
        return False  # geometric decay of 1/f
    return order.power <= 1


# ---------------------------------------------------------------------------
# Membership of a rational value in the closure of a recognized range.


def closure_contains(
    cls: GrowthClass, value: Fraction, t_start: int
) -> bool | None:
    """Exact membership of value in closure({f(t): t >= t_start}).

    The closure is the set of attained values together with the finite
    limit when one exists.  None when no finite certificate was found.
    """
    if cls.sqrt_wrapped:
        if value < 0:
            return False
        return closure_contains(GrowthClass(cls.terms), value * value, t_start)
    if cls.is_zero:
        return value == 0
    poly = cls.poly()
    cd, bd, kd = cls.dominant
    if bd > 1 or (bd == 1 and kd >= 1):
        # beyond T the modulus exceeds |dominant(t)|/2, which increases
        T = _domination_index(cls, t_start)
        end = None if T is None else _first(
            lambda t: _term_abs(cd, bd, kd, t) > 2 * abs(value), T)
    else:
        # no growing term: limit is the constant part
        limit = poly.get((Fraction(1), 0), Fraction(0))
        if value == limit:
            return True
        decay = [(c, b, k) for c, b, k in cls.terms if b != 1]
        delta = abs(value - limit)

        def settled(t):
            return all(b * Fraction(t + 1, t) ** k <= 1 for _, b, k in decay) and (
                sum(_term_abs(c, b, k, t) for c, b, k in decay) < delta
            )

        end = _first(settled, max(t_start, 1))
    if end is None:
        return None
    return any(exact_value(poly, t) == value for t in range(t_start, end + 1))
