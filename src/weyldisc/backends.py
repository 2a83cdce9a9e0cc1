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
                                             root nearest, from an
                                             integer root of at least
                                             prec+2 bits and a sticky
                                             bit (``mpf_sqrt``)
``abs2(z)``,                ``mpf_add``      nearest, once
``abs_bound(z)``
-x, abs(x), -z,             ``mpf_neg``,     nearest
z.conjugate()               ``mpf_abs``
==, <, bool, float(x)       ``mpf_eq``,      exact; ``float`` as
                            ``mpf_cmp``,     ``to_float`` at nearest
                            ``to_float``
``format_real(x)``          ``to_str`` at    43 digits toward zero, then
                            40 digits        40 half up; past 2**+-3500
                                             x / 10**b toward zero at
                                             152 bits first
==========================  ===============  ============================

``mpf_add`` perturbs instead of adding when two operands lie far apart
(leading bits more than prec+4 apart, exponents more than 100); the
scalars do the same, so nothing is ever shifted by the full gap.  What
stays on mpmath, on the kernel's context: ``sin``, ``cos``, the square
roots and powers that ``bigfloat`` does not compute itself (it takes
square roots of positive reals and powers of two to integral powers),
``str``/``repr``, ``hash``, operands of other types (floats, other
contexts' values), non-finite values, which are the context's own
mpmath values, and the rendering of zero and non-finite values.
``format_real`` renders every other value from its own integers, also
past 2**+-3500, where it runs ``to_digits_exp``'s division by a power
of ten; it reads libmp's ln 2 and ln 10 once per bit count.  mpmath
reads the scalars through ``_mpf_`` and ``_mpc_``, which give its canonical tuple
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
  floats, ``Fraction``s or the kernel's own reals, rounded to nearest
  as ``ctx.mpf`` rounds them; ``complex`` builds each part as ``real``
  would;
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
# at this many bits; past 2**+-3500 it first divides by a power of ten
_LOG2_10 = math.log(10, 2)
_BITPREC = int((_DIGITS + 3) * _LOG2_10) + 10
_SCALED = 3500
# mpf_pow_int raises ten's mantissa 5 exactly while 3 * n < 1000
_EXACT_TEN_POWER = 333
# fixprec -> (fixdps, 10**fixdps), the decimal scaling of a binary point
_FIXED: dict[int, tuple] = {}
# _render converts only the leading digits, at least _KEEP, of an integer
# part of _LONG_TOP bits (about 180 digits) or more, where one division
# costs less than str() of the rest; it cuts multiples of _CUT_STEP
# digits, so _TENS (cut -> 10**cut) holds at most 14 powers of ten
_KEEP = 50
_CUT_STEP = 64
_LONG_TOP = 600
_TENS: dict[int, int] = {}
# expprec -> libmp's ln 2 and ln 10 at expprec bits, as (man, exp) pairs
_LOGS: dict[int, tuple] = {}
# (workprec, down) -> 10**(2**i) as (man, exp) for i below the bit count
# of every exponent of that workprec: mpf_pow_int's chain of squares,
# each truncated to workprec bits toward zero (down) or away from it
_SQUARES: dict[tuple, list] = {}
# the digit after each one; a 9 carries into the digit before it
_NEXT_DIGIT = dict(zip("012345678", "123456789"))


def _fixed_scale(fixprec: int) -> tuple:
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    return _FIXED.setdefault(fixprec, (fixdps, 10**fixdps))


def _render(m: int, e: int, exponent: int = 0) -> str:
    """``libmp.to_str`` at 40 digits of a nonzero m * 2**e, scaled by
    10**exponent, computed on m and e as ``to_digits_exp`` computes its
    unscaled branch on the canonical tuple: e + bit_length(m) is the same
    for every representation of the value, and so is every floor below."""
    sign = ""
    if m < 0:
        sign = "-"
        m = -m
    # to_digits_exp: the value in fixed point at fixprec bits, then
    # floor(value * 10**fixdps) in decimal; at least 45 digits
    top = e + m.bit_length()
    fixprec = _BITPREC - top
    if fixprec < 0:
        fixprec = 0
    fixdps, scale = _FIXED.get(fixprec) or _fixed_scale(fixprec)
    shift = e + fixprec
    fixed = m << shift if shift >= 0 else m >> -shift
    value = fixed * scale >> fixprec
    # only the leading digits and their count are read, and str() takes
    # time quadratic in the digit count: a long integer part (fixprec 0)
    # drops all but 51 to 115 of its digits first
    cut = 0
    if top >= _LONG_TOP:
        cut = (int((top - 1) / _LOG2_10) - _KEEP) // _CUT_STEP * _CUT_STEP
        value //= _TENS.get(cut) or _TENS.setdefault(cut, 10**cut)
    digits = str(value)
    exponent += len(digits) + cut - fixdps - 1
    # to_str: 40 digits, rounded half up on the 41st
    if digits[_DIGITS] >= "5":
        head = digits[:_DIGITS].rstrip("9")
        if head:
            digits = head[:-1] + _NEXT_DIGIT[head[-1]] + "0" * (_DIGITS - len(head))
        else:
            digits = "1" + "0" * (_DIGITS - 1)
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


def _logs(expprec: int) -> tuple:
    ln2, ln10 = _libmp.mpf_ln2(expprec), _libmp.mpf_ln10(expprec)
    return _LOGS.setdefault(expprec, ((ln2[1], ln2[2]), (ln10[1], ln10[2])))


def _squares(workprec: int, down: bool, count: int) -> list:
    sm, se = 5, 1
    chain = [(sm, se)]
    for _ in range(count - 1):
        sm, se = sm * sm, se + se
        excess = sm.bit_length() - workprec
        if excess > 0:
            sm = sm >> excess if down else -(-sm >> excess)
            se += excess
        chain.append((sm, se))
    return _SQUARES.setdefault((workprec, down), chain)


def _ten_power(n: int, prec: int, down: bool) -> tuple:
    """``mpf_pow_int(ften, n, prec, rnd)`` of an int n >= 0 as (man, exp),
    rnd toward zero (``down``) or away from it: 10**n exactly for a small
    n, else the product of the squares at n's set bits, each product
    truncated to workprec bits in rnd's direction; then the result is
    rounded to prec bits the same way."""
    if n <= _EXACT_TEN_POWER:
        pm, pe = 5**n, n
    else:
        count = n.bit_length()
        workprec = prec + 4 * count + 4
        pm, pe = 1, 0
        for sm, se in _SQUARES.get((workprec, down)) or _squares(workprec, down, count):
            if n & 1:
                pm, pe = pm * sm, pe + se
                excess = pm.bit_length() - workprec
                if excess > 0:
                    pm = pm >> excess if down else -(-pm >> excess)
                    pe += excess
            n >>= 1
    excess = pm.bit_length() - prec
    if excess > 0:
        pm = pm >> excess if down else -(-pm >> excess)
        pe += excess
    return pm, pe


def _quotient(m: int, e: int, d: int, f: int) -> tuple:
    """``mpf_div`` of m * 2**e by d * 2**f at 152 bits toward zero, for
    positive m and d: the floor of a quotient of 153 or 154 bits, then
    truncated, which is the exact quotient truncated."""
    k = _BITPREC + 1 + d.bit_length() - m.bit_length()
    q = (m << k) // d if k >= 0 else (m >> -k) // d
    n = q.bit_length() - _BITPREC
    return q >> n, e - f - k + n


def _decimal_exponent(exp: int) -> int:
    """``to_digits_exp``'s b = to_int(exp * ln2 / ln10), the quotient
    toward zero at expprec = bitcount(|exp|) + 5 bits: no integer lies
    between that quotient and the exact one, so b is the exact one's
    integer part."""
    size = abs(exp)
    expprec = size.bit_length() + 5
    (m2, e2), (m10, e10) = _LOGS.get(expprec) or _logs(expprec)
    num, shift = size * m2, e2 - e10
    b = (num << shift) // m10 if shift >= 0 else num // (m10 << -shift)
    return b if exp >= 0 else -b


def _power_of_ten(b: int) -> tuple:
    """``mpf_pow_int(ften, b, 152)`` as (man, exp): a negative b's power
    is 1 over the power of -b at 157 bits, rounded away from zero."""
    if b >= 0:
        return _ten_power(b, _BITPREC, True)
    return _quotient(1, 0, *_ten_power(-b, _BITPREC + 5, False))


def _render_far(m: int, e: int) -> str:
    """``libmp.to_str`` at 40 digits of a nonzero m * 2**e past 2**+-3500,
    where ``to_digits_exp`` first divides the value by 10**b, b from the
    canonical exponent (trailing zeros stripped): the same b, power of
    ten and quotient, computed on m and e."""
    b = _decimal_exponent(e + (m & -m).bit_length() - 1)
    qm, qe = _quotient(abs(m), e, *_power_of_ten(b))
    return _render(-qm if m < 0 else qm, qe, b)


def format_real(x) -> str:
    """Deterministic decimal rendering, identical across kernels: the
    exact value of x to 40 significant digits as ``libmp.to_str``
    renders it, whatever the global mpmath precision.  A nonzero finite
    value is rendered from its own integers: a machine float from its
    exact ``as_integer_ratio``, a big-float real from its mantissa and
    exponent, scaled by a power of ten past 2**+-3500 as libmp scales it
    (``_render_far``).  Only zero and non-finite values go through
    ``to_str`` itself; on a big-float kernel the non-finite ones are the
    context's own mpmath values."""
    if type(x) is float:
        if x and math.isfinite(x):
            m, d = x.as_integer_ratio()
            return _render(m, 1 - d.bit_length())
        return _libmp.to_str(_libmp.from_float(x), _DIGITS)
    m = getattr(x, "m", 0)
    if not m:
        return _libmp.to_str(x._mpf_, _DIGITS)
    e = x.e
    if -_SCALED <= e + m.bit_length() <= _SCALED:
        return _render(m, e)
    return _render_far(m, e)


def format_complex(z) -> dict:
    return {"re": format_real(z.real), "im": format_real(z.imag)}
