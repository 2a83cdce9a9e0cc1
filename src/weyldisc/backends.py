"""Numeric kernels.

All arithmetic in the solvers runs on one of three scalar kernels:

* ``gmpy2``  -- compiled MPFR/MPC arithmetic (C extension), the default
  big-float kernel when importable;
* ``mpmath`` -- Python-level big-float arithmetic, the fallback kernel;
* ``native`` -- machine ``float``/``complex``, selected by the precision
  config rather than at import.

The big-float kernel is chosen once at import time; set the environment
variable ``WEYLDISC_BACKEND`` to ``gmpy2`` or ``mpmath`` to force one.
Both kernels implement the same small protocol (duck-typed), so every
solver is written once; ``perfbench/run.py --trace 1`` times a complex
multiply-add on every importable kernel.

A kernel's ``workprec(bits)`` context manager must be active while
arithmetic runs; public operations in the other modules take care of
that.  Scalars are the kernel's own complex/real types and support the
usual operators.  Division by an exact zero raises ``ZeroDivisionError``
(gmpy2 would silently return inf, so division sites that can legally see
a zero go through ``checked_div``).
"""

from __future__ import annotations

import cmath
import math
import os
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath import libmp as _libmp

from .errors import EvaluationError, NativeOverflowError

try:  # compiled kernel is optional
    import gmpy2
except ImportError:  # pragma: no cover - exercised only on gmpy2-less installs
    gmpy2 = None


# an mpc's parts and an mpf itself are taken as they are, never rounded to
# the ambient precision (mpmath.mpc(z) would round them)
_MP_TYPES = (mpmath.mpc, mpmath.mpf)


class MpmathKernel:
    """Python big-float kernel backed by mpmath."""

    name = "mpmath"
    compiled = False
    needs_finite_checks = False

    @contextmanager
    def workprec(self, bits: int):
        with mpmath.mp.workprec(bits):
            yield

    def real(self, x):
        if isinstance(x, Fraction):
            return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
        if isinstance(x, str):
            return mpmath.mpf(x)
        return mpmath.mpf(x)

    def complex(self, re, im=0):
        return mpmath.mpc(self.real(re), self.real(im))

    def re(self, z):
        return z.real if isinstance(z, _MP_TYPES) else mpmath.mpc(z).real

    def im(self, z):
        return z.imag if isinstance(z, _MP_TYPES) else mpmath.mpc(z).imag

    def conj(self, z):
        return mpmath.conj(z)

    def absval(self, z):
        return abs(z)

    def abs2(self, z):
        """|z|^2 as re^2 + im^2: exact squares, one rounding, no square root."""
        if not isinstance(z, mpmath.mpc):
            return z * z
        re, im = z._mpc_
        prec, rounding = mpmath.mp._prec_rounding
        return mpmath.mp.make_mpf(
            _libmp.mpf_add(_libmp.mpf_mul(re, re), _libmp.mpf_mul(im, im), prec, rounding)
        )

    def sqrt_nonneg(self, x):
        if x < 0:
            raise EvaluationError(f"square root of negative value {mpmath.nstr(x, 12)}")
        return mpmath.sqrt(x)

    def pow_real(self, base, expo):
        return _pow_real(self, base, expo)

    def pow_positive(self, base, expo):
        return mpmath.power(base, expo)

    def sin(self, x):
        return mpmath.sin(self.real(x))

    def cos(self, x):
        return mpmath.cos(self.real(x))

    def isfinite(self, z) -> bool:
        return bool(mpmath.isfinite(z))

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
    compiled = True
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

    def re(self, z):
        return z.real if isinstance(z, gmpy2.mpc) else gmpy2.mpfr(z)

    def im(self, z):
        return z.imag if isinstance(z, gmpy2.mpc) else gmpy2.mpfr(0)

    def conj(self, z):
        return z.conjugate() if isinstance(z, gmpy2.mpc) else z

    def absval(self, z):
        return abs(z)

    def abs2(self, z):
        return gmpy2.norm(z) if isinstance(z, gmpy2.mpc) else z * z

    def sqrt_nonneg(self, x):
        if x < 0:
            raise EvaluationError(f"square root of negative value {x!s}")
        return gmpy2.sqrt(x)

    def pow_real(self, base, expo):
        return _pow_real(self, base, expo)

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
    compiled = True
    needs_finite_checks = True

    @contextmanager
    def workprec(self, bits: int):
        yield

    def real(self, x):
        return float(x)

    def complex(self, re, im=0):
        return complex(self.real(re), self.real(im))

    def re(self, z):
        return complex(z).real

    def im(self, z):
        return complex(z).imag

    def conj(self, z):
        return complex(z).conjugate()

    def absval(self, z):
        return abs(z)

    def abs2(self, z):
        # an overflow gives inf here, which the finite checks report
        return z.real * z.real + z.imag * z.imag

    def sqrt_nonneg(self, x):
        if x < 0:
            raise EvaluationError(f"square root of negative value {x}")
        return math.sqrt(x)

    def pow_real(self, base, expo):
        out = _pow_real(self, base, expo)
        if not math.isfinite(out):
            raise NativeOverflowError(
                f"overflow at native-float precision: {base} ^ {expo}"
            )
        return out

    def pow_positive(self, base, expo):
        try:
            return math.pow(base, expo)
        except OverflowError:
            raise NativeOverflowError(
                f"overflow at native-float precision: {base} ^ {expo}"
            ) from None

    def sin(self, x):
        return math.sin(self.real(x))

    def cos(self, x):
        return math.cos(self.real(x))

    # both parts finite, for float, complex and int alike; a C builtin, so
    # ``map(isfinite, values)`` runs without a Python frame per value
    isfinite = staticmethod(cmath.isfinite)

    def to_fraction(self, x) -> Fraction:
        return Fraction(float(x))

    def to_mpf(self, x) -> mpmath.mpf:
        return mpmath.mp.make_mpf(_libmp.from_float(float(x)))


def _pow_real(kernel, base, expo):
    """Real-valued power with explicit sign rules.

    Negative bases require an integer exponent; 0^negative is an error.
    Both gmpy2 and native floats would otherwise produce nan/inf silently.
    """
    if base == 0:
        if expo < 0:
            raise EvaluationError("zero raised to a negative power")
        if expo == 0:
            return kernel.real(1)
        return kernel.real(0)
    if base > 0:
        return kernel.pow_positive(base, expo)
    # negative base: exponent must be an integer
    frac = kernel.to_fraction(expo)
    if frac.denominator != 1:
        raise EvaluationError(
            f"negative base {base!s} raised to non-integer power {expo!s}"
        )
    n = frac.numerator
    mag = kernel.pow_real(-base, expo)
    return -mag if n % 2 else mag


def checked_div(num, den):
    """Division that refuses an exactly-zero denominator."""
    if den == 0:
        raise ZeroDivisionError("division by a scalar of modulus zero")
    return num / den


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


def format_real(kernel, x, digits: int = 40) -> str:
    """Deterministic decimal rendering, identical across kernels: the
    exact value of x to ``digits`` significant digits, formatted from its
    own mantissa and exponent, whatever precision context is active."""
    return _libmp.to_str(kernel.to_mpf(x)._mpf_, digits)


def format_complex(kernel, z, digits: int = 40) -> dict:
    return {
        "re": format_real(kernel, kernel.re(z), digits),
        "im": format_real(kernel, kernel.im(z), digits),
    }
