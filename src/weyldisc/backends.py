"""Numeric kernels.

All arithmetic in the solvers runs on one of two scalar kernels:

* ``mpmath`` -- Python-level big floats, one kernel per precision;
* ``native`` -- machine ``float``/``complex``.

``PrecisionConfig.kernel`` picks the kernel of a model: ``big_kernel(bits)``
in big-float mode, ``native_kernel()`` in native mode.  Each big-float
kernel owns a private ``mpmath`` context at its bit count and builds its
scalars from it, so the precision travels with the scalars: arithmetic
on them rounds at their model's precision wherever it runs, whatever the
global ``mpmath.mp`` or another thread is set to.  Runs at different
precisions may therefore execute concurrently.  Every kernel implements
the same small protocol (duck-typed), so every solver is written once;
``perfbench/run.py --trace 1`` times a complex multiply-add on each.

The protocol holds only what differs between kernels, and a member that
only forwards to a library function is that function.  A kernel object
provides fourteen members:

* ``name`` -- the kernel's name in reports;
* ``workprec(bits)`` -- a context manager that runs its block at another
  precision: the benchmark's multiply-add probe uses it, the library
  never does (on mpmath it changes the kernel's own context, which other
  threads share; on native floats it does nothing);
* ``needs_finite_checks`` -- True when an overflow turns into inf or
  nan instead of widening the exponent, so the solvers test for it;
* ``real(x)`` and ``complex(re, im=0)`` -- scalars from Python ints,
  floats, ``Fraction``s or the kernel's own reals;
* ``abs2(z)`` -- the squared modulus, without a square root;
* ``abs_bound(z)`` -- a real between |z| and sqrt(2) |z| (up to one
  rounding) that takes no square root: |re| + |im| on mpmath, ``abs``
  itself on native floats, where the modulus is as cheap;
* ``isfinite(z)``;
* ``sqrt(x)`` of x >= 0, ``pow_positive(base, expo)`` of base > 0,
  ``sin(x)`` and ``cos(x)``; ``expr`` applies the sign rules;
* ``to_fraction(x)`` and ``to_mpf(x)`` -- the exact value of a real
  scalar as a ``Fraction`` or an ``mpmath.mpf``; a non-finite value is
  an ``EvaluationError``.

The kernel's scalar types carry the rest: ``+ - * /`` among themselves
and with Python ints, ``**`` with an int exponent, unary minus, ``==``
and, on reals, the order comparisons; ``abs(z)``, the modulus as a
real; ``z.real``, ``z.imag`` and ``z.conjugate()``, which a real
answers too; and ``float(x)``, a real as a machine float rounded to
nearest (an infinity past the float range, the sign of zero kept).
``format_real`` and ``format_complex`` below render every kernel's
values from their exact ``to_mpf``.  Division by an exact zero raises
``ZeroDivisionError`` on both kernels.
"""

from __future__ import annotations

import cmath
import math
from contextlib import nullcontext
from fractions import Fraction

import mpmath
from mpmath import libmp as _libmp

from .errors import EvaluationError, NativeOverflowError

# no compiled kernel: perfbench/run.py reads this name and reports the
# compiled kernel as skipped, until its kernel probe is rewritten
gmpy2 = None


class MpmathKernel:
    """Big-float kernel backed by a private mpmath context at ``bits``.

    The scalars are that context's ``mpf`` and ``mpc``, not the global
    ``mpmath.mpf`` and ``mpmath.mpc``: those would round at the global
    precision, so nothing here converts through them."""

    name = "mpmath"
    needs_finite_checks = False

    def __init__(self, bits: int = 53):
        ctx = self._ctx = mpmath.MPContext()
        ctx.prec = bits
        self._mpf, self._mpc = ctx.mpf, ctx.mpc
        self.workprec = ctx.workprec
        self.sqrt = ctx.sqrt
        self.pow_positive = ctx.power
        self.sin = ctx.sin
        self.cos = ctx.cos
        self.isfinite = ctx.isfinite

    def real(self, x):
        if isinstance(x, Fraction):
            return self._mpf(x.numerator) / self._mpf(x.denominator)
        return self._mpf(x)

    def complex(self, re, im=0):
        mpf = self._mpf
        if type(re) is mpf and type(im) is mpf:
            # two of the context's own reals, each already at its precision
            # (or a special value), are the parts as they stand: the value
            # mpc(re, im) gives, built without rounding them again
            prec = self._ctx._prec_rounding[0]
            if re._mpf_[3] <= prec and im._mpf_[3] <= prec:
                return self._ctx.make_mpc((re._mpf_, im._mpf_))
        elif type(re) is float and type(im) is float:
            # a float pair rounds once per part, straight to the context's
            # precision: the value mpc(mpf(re), mpf(im)) gives, built without
            # the two conversions through mpf
            prec, rounding = self._ctx._prec_rounding
            return self._ctx.make_mpc((
                _libmp.from_float(re, prec, rounding),
                _libmp.from_float(im, prec, rounding),
            ))
        return self._mpc(self.real(re), self.real(im))

    def abs2(self, z):
        """|z|^2 as re^2 + im^2: exact squares, one rounding, no square root."""
        parts = getattr(z, "_mpc_", None)
        if parts is None:
            return z * z
        re, im = parts
        prec, rounding = self._ctx._prec_rounding
        return self._ctx.make_mpf(
            _libmp.mpf_add(_libmp.mpf_mul(re, re), _libmp.mpf_mul(im, im), prec, rounding)
        )

    def abs_bound(self, z):
        """|re| + |im|, rounded once: abs(z) without its square root."""
        parts = getattr(z, "_mpc_", None)
        if parts is None:
            return abs(z)
        re, im = parts
        prec, rounding = self._ctx._prec_rounding
        return self._ctx.make_mpf(
            _libmp.mpf_add(_libmp.mpf_abs(re), _libmp.mpf_abs(im), prec, rounding)
        )

    def to_fraction(self, x) -> Fraction:
        sign, man, exp, _ = self._ctx.convert(x)._mpf_
        if man == 0 and exp != 0:
            raise EvaluationError("cannot convert non-finite value to a rational")
        frac = Fraction(int(man)) * Fraction(2) ** exp
        return -frac if sign else frac

    def to_mpf(self, x) -> mpmath.mpf:
        """x as an mpf, exactly: its own mantissa and exponent, not rounded
        to the global precision."""
        return mpmath.mp.make_mpf(self._ctx.convert(x)._mpf_)


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

    # the modulus, a C builtin: no cheaper bound exists on machine floats
    abs_bound = staticmethod(abs)
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
        x = float(x)
        if not math.isfinite(x):
            raise EvaluationError("cannot convert non-finite value to a rational")
        return Fraction(x)

    def to_mpf(self, x) -> mpmath.mpf:
        return mpmath.mp.make_mpf(_libmp.from_float(float(x)))


_NATIVE = NativeKernel()
_BIG: dict[int, MpmathKernel] = {}


def big_kernel(bits: int) -> MpmathKernel:
    """The one big-float kernel at ``bits``, shared by every model at that
    precision (``setdefault`` keeps it one under concurrent first calls)."""
    kernel = _BIG.get(bits)
    if kernel is None:
        kernel = _BIG.setdefault(bits, MpmathKernel(bits))
    return kernel


def big_backend_name() -> str:
    return MpmathKernel.name


def native_kernel() -> NativeKernel:
    return _NATIVE


# significant digits of every rendered value in reports and disc CSVs
_DIGITS = 40


def format_real(kernel, x) -> str:
    """Deterministic decimal rendering, identical across kernels: the
    exact value of x to 40 significant digits, formatted from its own
    mantissa and exponent, whatever the global mpmath precision.  An
    mpmath real carries them as ``_mpf_``, which ``to_mpf`` would only
    copy; any other scalar goes through ``to_mpf``."""
    parts = getattr(x, "_mpf_", None)
    if parts is None:
        parts = kernel.to_mpf(x)._mpf_
    return _libmp.to_str(parts, _DIGITS)


def format_complex(kernel, z) -> dict:
    return {"re": format_real(kernel, z.real), "im": format_real(kernel, z.imag)}
