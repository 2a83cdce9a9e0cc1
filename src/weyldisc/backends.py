"""Numeric kernels.

All arithmetic in the solvers runs on one of two scalar kernels:

* ``mpmath`` -- Python-level big floats that round as mpmath does, one
  kernel per precision;
* ``native`` -- machine ``float``/``complex``.

``PrecisionConfig.kernel`` picks the kernel of a model: ``big_kernel(bits)``
in big-float mode, ``native_kernel()`` in native mode.  Each big-float
kernel owns a private ``mpmath`` context at its bit count and its own
scalar classes, so the precision travels with the scalars: arithmetic
on them rounds at their model's precision wherever it runs, whatever the
global ``mpmath.mp`` or another thread is set to.  Runs at different
precisions may therefore execute concurrently.  Every kernel implements
the same small protocol (duck-typed), so every solver is written once;
``perfbench/run.py --trace 1`` times a complex multiply-add on each.

The big-float scalars (``weyldisc.bigfloat``) are two slotted classes
per kernel.  A real holds a signed Python int mantissa m and an int
exponent e, the value m * 2**e; a complex holds two such parts.  A
result is rounded, with ``int.bit_length``, only when its mantissa is
wider than the precision; nothing strips trailing zeros or splits off
the sign, which is where mpmath's pure-Python libmp spends its time.
Each operation rounds exactly as the mpmath routine it replaces, so
every value, and every report byte, is the one mpmath computes
("nearest" is round to nearest, ties to even; int operands are exact):

==========================  ===============  ============================
operation                   mpmath routine   rounding
==========================  ===============  ============================
x + y, x - y, x * y, x / y  ``mpf_add``,     nearest, once
(reals)                     ``mpf_mul``,
                            ``mpf_div``
z + w, z - w, z * w         ``mpc_add``,     nearest, once per part
                            ``mpc_mul``
z + x, z - x (x real)       ``mpc_add_mpf``  nearest on the real part;
                                             the imaginary part as it
                                             stands
x - z, 1 - z                ``mpc_sub``      nearest, once per part
z * x, z / x                ``mpc_mul_mpf``, nearest, once per part
                            ``mpc_div_mpf``
z / w                       ``mpc_div``      |w|^2, ac + bd and bc - ad
                                             toward zero at prec+10,
                                             then each quotient nearest
x / z, 1 / z                ``mpc_mpf_div``  |z|^2 toward zero at
                                             prec+10, then each quotient
                                             nearest
abs(z)                      ``mpf_hypot``    re^2 + im^2 toward zero at
                                             prec+4, then the square
                                             root nearest
``abs2(z)``,                ``mpf_add``      nearest, once
``abs_bound(z)``
-x, abs(x), -z,             ``mpf_neg``,     nearest
z.conjugate()               ``mpf_abs``
==, <, bool, float(x)       ``mpf_eq``,      exact; ``float`` as
                            ``mpf_cmp``,     ``to_float`` at nearest
                            ``to_float``
==========================  ===============  ============================

``mpf_add`` perturbs instead of adding when two operands lie far apart
(leading bits more than prec+4 apart, exponents more than 100); the
scalars do the same, so nothing is ever shifted by the full gap.  What
stays on mpmath, on the kernel's context: ``sqrt``, ``pow_positive``,
``sin``, ``cos``, ``**``, ``str``/``repr``, ``hash``, operands of other
types (floats, other contexts' values), non-finite values, which are
the context's own mpmath values, and formatting.  mpmath reads the
scalars through ``_mpf_`` and ``_mpc_``, which give its canonical tuple
of the same value, computed when read.

The protocol holds only what differs between kernels, and a member that
only forwards to a library function is that function.  A kernel object
provides thirteen members:

* ``name`` -- the kernel's name in reports;
* ``workprec(bits)`` -- a context manager that runs its block at another
  precision (on mpmath it changes the kernel's own context, which other
  threads share; on native floats it does nothing).  The library never
  uses it; it stays for ``perfbench/run.py``'s multiply-add probe;
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
* ``to_fraction(x)`` -- the exact value of a real scalar as a
  ``Fraction``; a non-finite value is an ``EvaluationError``.

The kernel's scalar types carry the rest: ``+ - * /`` among themselves
and with Python ints, ``**`` with an int exponent, unary minus, ``==``
and, on reals, the order comparisons; ``abs(z)``, the modulus as a
real; ``z.real``, ``z.imag`` and ``z.conjugate()``, which a real
answers too; and ``float(x)``, a real as a machine float rounded to
nearest (an infinity past the float range, the sign of zero kept).
``format_real`` and ``format_complex`` below render every kernel's
values exactly, from the values alone.  Division by an exact zero
raises ``ZeroDivisionError`` on both kernels.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager, nullcontext
from fractions import Fraction

import mpmath
from mpmath import libmp as _libmp

from .bigfloat import Scalars
from .errors import EvaluationError, NativeOverflowError

# no compiled kernel: kept because perfbench/run.py's kernel probe reads
# this name to report the compiled kernel as skipped (ROADMAP item 11)
gmpy2 = None


class MpmathKernel:
    """Big-float kernel at ``bits``: ``bigfloat`` scalars, which round as
    mpmath does, on a private mpmath context at that precision.

    Whatever stays on mpmath runs on that context, not on the global
    ``mpmath.mp``, which rounds at the global precision."""

    name = "mpmath"
    needs_finite_checks = False

    def __init__(self, bits: int = 53):
        ctx = self._ctx = mpmath.MPContext()
        ctx.prec = bits
        scalars = self._scalars = Scalars(ctx)
        self.real, self.complex = scalars.real, scalars.complex
        self.abs2, self.abs_bound = scalars.abs2, scalars.abs_bound
        self.isfinite = scalars.isfinite
        self.sqrt, self.pow_positive = scalars.sqrt, scalars.pow_positive
        on_mpmath = scalars.on_mpmath
        self.sin = on_mpmath(ctx.sin)
        self.cos = on_mpmath(ctx.cos)

    @contextmanager
    def workprec(self, bits: int):
        """Run the block at ``bits``: values built and operations run
        inside it round there."""
        old = self._ctx.prec
        self._scalars.set_prec(bits)
        try:
            yield
        finally:
            self._scalars.set_prec(old)

    def to_fraction(self, x) -> Fraction:
        sign, man, exp, _ = self._ctx.convert(x)._mpf_
        if man == 0 and exp != 0:
            raise EvaluationError("cannot convert non-finite value to a rational")
        frac = Fraction(int(man)) * Fraction(2) ** exp
        return -frac if sign else frac


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
    # kept because perfbench/run.py names the kernel in its records with it
    return MpmathKernel.name


def native_kernel() -> NativeKernel:
    return _NATIVE


# significant digits of every rendered value in reports and disc CSVs
_DIGITS = 40

# libmp's to_str(x, 40) takes 43 digits from to_digits_exp, which works
# at this many bits; it scales by a power of ten only past 2**+-3500
_LOG2_10 = math.log(10, 2)
_BITPREC = int((_DIGITS + 3) * _LOG2_10) + 10
_SCALED = 3500
# fixdps -> 10**fixdps, the decimal scaling of one binary point
_TEN_POWERS: dict[int, int] = {}


def _ten_power(fixdps: int) -> int:
    return _TEN_POWERS.setdefault(fixdps, 10**fixdps)


def _render(m: int, e: int) -> str:
    """``libmp.to_str`` of m * 2**e at 40 digits, for a nonzero m with
    |e + bit_length(m)| <= 3500, computed on m and e as libmp computes
    it on the canonical tuple: e + bit_length(m) is the same for every
    representation of the value, and so is every floor below."""
    sign = ""
    if m < 0:
        sign = "-"
        m = -m
    # to_digits_exp: the value in fixed point at fixprec bits, then
    # floor(value * 10**fixdps) in decimal; at least 45 digits
    fixprec = _BITPREC - e - m.bit_length()
    if fixprec < 0:
        fixprec = 0
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    scale = _TEN_POWERS.get(fixdps) or _ten_power(fixdps)
    shift = e + fixprec
    fixed = m << shift if shift >= 0 else m >> -shift
    digits = str(fixed * scale >> fixprec)
    exponent = len(digits) - fixdps - 1
    # to_str: 40 digits, rounded half up on the 41st
    if digits[_DIGITS] >= "5":
        digits = str(int(digits[:_DIGITS]) + 1)
        if len(digits) > _DIGITS:
            digits = digits[:_DIGITS]
            exponent += 1
    else:
        digits = digits[:_DIGITS]
    # fixed point for a leading digit strictly between 10**-13 and 10**40
    split = 1
    if -13 < exponent < _DIGITS:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    if not exponent:
        return sign + digits
    return f"{sign}{digits}e{exponent:+d}"


def format_real(x) -> str:
    """Deterministic decimal rendering, identical across kernels: the
    exact value of x to 40 significant digits as ``libmp.to_str``
    renders it, whatever the global mpmath precision.  A machine float
    is rendered from its exact ``from_float`` tuple; a big-float real
    from its own mantissa and exponent (``_render``).  Zero, values past
    2**+-3500 and non-finite values, which are the kernel context's
    mpmath values, go through ``to_str`` itself."""
    if type(x) is float:
        return _libmp.to_str(_libmp.from_float(x), _DIGITS)
    m = getattr(x, "m", 0)
    if m and -_SCALED <= x.e + m.bit_length() <= _SCALED:
        return _render(m, x.e)
    return _libmp.to_str(x._mpf_, _DIGITS)


def format_complex(z) -> dict:
    return {"re": format_real(z.real), "im": format_real(z.imag)}
