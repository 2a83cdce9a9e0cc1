"""Numeric kernels.

All arithmetic in the solvers runs on one of three scalar kernels:

* ``gmpy2``  -- compiled MPFR/MPC arithmetic (C extension), the default
  big-float kernel when importable;
* ``mpmath`` -- Python-level big-float arithmetic, the fallback kernel;
* ``native`` -- machine ``float``/``complex``, selected by the precision
  config rather than at import.

The big-float kernel is chosen once at import time; set the environment
variable ``WEYLDISC_BACKEND`` to ``gmpy2`` or ``mpmath`` to force one.
Every kernel implements the same small protocol (duck-typed), so every
solver is written once; ``perfbench/run.py --trace 1`` times a complex
multiply-add on every importable kernel.

The protocol holds only what differs between kernels, and a member that
only forwards to a library function is that function.  A kernel object
provides thirteen members:

* ``name`` -- the kernel's name in reports;
* ``workprec(bits)`` -- a context manager that must be active while
  arithmetic runs (public operations in the other modules open it);
* ``needs_finite_checks`` -- True when an overflow turns into inf or
  nan instead of widening the exponent, so the solvers test for it;
* ``real(x)`` and ``complex(re, im=0)`` -- scalars from Python ints,
  floats, ``Fraction``s or the kernel's own reals;
* ``abs2(z)`` -- the squared modulus, without a square root;
* ``isfinite(z)``;
* ``sqrt(x)`` of x >= 0, ``pow_positive(base, expo)`` of base > 0,
  ``sin(x)`` and ``cos(x)``; ``expr`` applies the sign rules;
* ``to_fraction(x)`` and ``to_mpf(x)`` -- the exact value of a real
  scalar as a ``Fraction`` or an ``mpmath.mpf``.

The kernel's scalar types carry the rest: ``+ - * /`` among themselves
and with Python ints, ``**`` with an int exponent, unary minus, ``==``
and, on reals, the order comparisons; ``abs(z)``, the modulus as a
real; ``z.real``, ``z.imag`` and ``z.conjugate()``, which a real
answers too; and ``float(x)``, a real as a machine float rounded to
nearest (an infinity past the float range, the sign of zero kept).
``format_real`` and ``format_complex`` below render every kernel's
values from their exact ``to_mpf``.  Division by an exact zero raises
``ZeroDivisionError`` on mpmath and native floats but returns inf on
gmpy2, so a denominator that can legally vanish is tested before the
division.
"""

from __future__ import annotations

import cmath
import math
import os
from contextlib import contextmanager, nullcontext
from fractions import Fraction

import mpmath
from mpmath import libmp as _libmp

from .errors import EvaluationError, NativeOverflowError

try:  # compiled kernel is optional
    import gmpy2
except ImportError:  # pragma: no cover - exercised only on gmpy2-less installs
    gmpy2 = None


class MpmathKernel:
    """Python big-float kernel backed by mpmath."""

    name = "mpmath"
    needs_finite_checks = False

    workprec = staticmethod(mpmath.mp.workprec)

    def real(self, x):
        if isinstance(x, Fraction):
            return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
        return mpmath.mpf(x)

    def complex(self, re, im=0):
        if type(re) is float and type(im) is float:
            # a float pair rounds once per part, straight to the context's
            # precision: the value mpc(mpf(re), mpf(im)) gives, built without
            # the two conversions through mpf
            prec, rounding = mpmath.mp._prec_rounding
            return mpmath.mp.make_mpc((
                _libmp.from_float(re, prec, rounding),
                _libmp.from_float(im, prec, rounding),
            ))
        return mpmath.mpc(self.real(re), self.real(im))

    def abs2(self, z):
        """|z|^2 as re^2 + im^2: exact squares, one rounding, no square root."""
        if not isinstance(z, mpmath.mpc):
            return z * z
        re, im = z._mpc_
        prec, rounding = mpmath.mp._prec_rounding
        return mpmath.mp.make_mpf(
            _libmp.mpf_add(_libmp.mpf_mul(re, re), _libmp.mpf_mul(im, im), prec, rounding)
        )

    sqrt = staticmethod(mpmath.sqrt)
    pow_positive = staticmethod(mpmath.power)
    sin = staticmethod(mpmath.sin)
    cos = staticmethod(mpmath.cos)
    isfinite = staticmethod(mpmath.isfinite)

    def to_fraction(self, x) -> Fraction:
        sign, man, exp, _ = mpmath.mpf(x)._mpf_
        if man == 0 and exp != 0:
            raise EvaluationError("cannot convert non-finite value to a rational")
        frac = Fraction(int(man)) * Fraction(2) ** exp
        return -frac if sign else frac

    def to_mpf(self, x) -> mpmath.mpf:
        """x as an mpf, exactly: an mpf is returned as it is, not rounded
        to the ambient precision."""
        return x if isinstance(x, mpmath.mpf) else mpmath.mpf(x)


class Gmpy2Kernel:
    """Compiled big-float kernel backed by gmpy2 (MPFR/MPC)."""

    name = "gmpy2"
    needs_finite_checks = False

    @contextmanager
    def workprec(self, bits: int):
        old = gmpy2.get_context()
        gmpy2.set_context(gmpy2.context(precision=bits))
        try:
            yield
        finally:
            gmpy2.set_context(old)

    def real(self, x):
        if isinstance(x, Fraction):
            return gmpy2.mpfr(gmpy2.mpq(x.numerator, x.denominator))
        return gmpy2.mpfr(x)

    def complex(self, re, im=0):
        return gmpy2.mpc(self.real(re), self.real(im))

    def abs2(self, z):
        return gmpy2.norm(z) if isinstance(z, gmpy2.mpc) else z * z

    def sqrt(self, x):
        return gmpy2.sqrt(x)

    def pow_positive(self, base, expo):
        return base ** expo

    def sin(self, x):
        return gmpy2.sin(self.real(x))

    def cos(self, x):
        return gmpy2.cos(self.real(x))

    def isfinite(self, z) -> bool:
        return bool(gmpy2.is_finite(z))

    def to_fraction(self, x) -> Fraction:
        x = gmpy2.mpfr(x)
        if not gmpy2.is_finite(x):
            raise EvaluationError("cannot convert non-finite value to a rational")
        num, den = x.as_integer_ratio()
        return Fraction(int(num), int(den))

    def to_mpf(self, x) -> mpmath.mpf:
        x = gmpy2.mpfr(x)
        if gmpy2.is_zero(x):
            return mpmath.mpf(0)
        man, exp = x.as_mantissa_exp()
        return mpmath.mp.make_mpf(_libmp.from_man_exp(int(man), int(exp)))


class NativeKernel:
    """Machine float/complex kernel.  Overflow is an error, never an inf."""

    name = "native"
    needs_finite_checks = True

    def workprec(self, bits: int):
        return nullcontext()

    real = float
    complex = complex

    def abs2(self, z):
        # an overflow gives inf here, which the finite checks report
        return z.real * z.real + z.imag * z.imag

    sqrt = staticmethod(math.sqrt)
    sin = staticmethod(math.sin)
    cos = staticmethod(math.cos)

    def pow_positive(self, base, expo):
        # past the float range math.pow raises, or returns inf from an inf base
        try:
            out = math.pow(base, expo)
            if math.isfinite(out):
                return out
        except OverflowError:
            pass
        raise NativeOverflowError(f"overflow at native-float precision: {base} ^ {expo}")

    # both parts finite, for float, complex and int alike; a C builtin, so
    # ``map(isfinite, values)`` runs without a Python frame per value
    isfinite = staticmethod(cmath.isfinite)

    def to_fraction(self, x) -> Fraction:
        return Fraction(float(x))

    def to_mpf(self, x) -> mpmath.mpf:
        return mpmath.mp.make_mpf(_libmp.from_float(float(x)))


_NATIVE = NativeKernel()
_MPMATH = MpmathKernel()
_GMPY2 = Gmpy2Kernel() if gmpy2 is not None else None


def _select_big_kernel():
    forced = os.environ.get("WEYLDISC_BACKEND", "").strip().lower()
    if forced == "mpmath":
        return _MPMATH
    if forced == "gmpy2":
        if _GMPY2 is None:
            raise ImportError("WEYLDISC_BACKEND=gmpy2 but gmpy2 is not installed")
        return _GMPY2
    if forced:
        raise ValueError(f"unknown WEYLDISC_BACKEND {forced!r}")
    return _GMPY2 if _GMPY2 is not None else _MPMATH


BIG_KERNEL = _select_big_kernel()


def big_backend_name() -> str:
    return BIG_KERNEL.name


def native_kernel() -> NativeKernel:
    return _NATIVE


# significant digits of every rendered value in reports and disc CSVs
_DIGITS = 40


def format_real(kernel, x) -> str:
    """Deterministic decimal rendering, identical across kernels: the
    exact value of x to 40 significant digits, formatted from its own
    mantissa and exponent, whatever precision context is active."""
    return _libmp.to_str(kernel.to_mpf(x)._mpf_, _DIGITS)


def format_complex(kernel, z) -> dict:
    return {"re": format_real(kernel, z.real), "im": format_real(kernel, z.imag)}
