import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp

from weyldisc import ExprCoefficient, PrecisionConfig
from weyldisc.backends import (
    MpmathKernel,
    big_kernel,
    format_complex,
    format_real,
    native_kernel,
)
from weyldisc.errors import EvaluationError

BIG_256 = big_kernel(256)
KERNELS = [BIG_256, native_kernel()]

# every kernel the protocol test covers
ALL_KERNELS = [
    pytest.param(MpmathKernel, id="mpmath"),
    pytest.param(native_kernel, id="native"),
]

# the whole public face of a kernel object: what the solvers call on it;
# the scalar types carry the rest
PROTOCOL_MEMBERS = {
    "name", "workprec", "needs_finite_checks", "real", "complex", "abs2",
    "abs_bound", "isfinite", "sqrt", "pow_positive", "sin", "cos",
    "to_fraction",
}
PROTOCOL_METHODS = sorted(PROTOCOL_MEMBERS - {"name", "needs_finite_checks"})


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_exact_fraction_round_trip(kernel):
    x = kernel.real(Fraction(3, 8))  # dyadic: exactly representable
    assert kernel.to_fraction(x) == Fraction(3, 8)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_to_fraction_refuses_non_finite_values(kernel):
    """inf and nan have no rational value on any kernel."""
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(EvaluationError, match="non-finite value to a rational"):
            kernel.to_fraction(kernel.real(x))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_division_by_zero_scalar_is_an_error(kernel):
    """mpmath and native floats refuse an exact zero denominator, complex
    or real; the solvers test the ones that can vanish beforehand."""
    for den in (kernel.complex(0, 0), kernel.real(0)):
        with pytest.raises(ZeroDivisionError):
            kernel.complex(1, 0) / den


def _value(text, kernel):
    """The value of a constant coefficient expression on ``kernel``."""
    return ExprCoefficient.parse(text).value(0, kernel)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_sqrt_guard(kernel):
    """``sqrt`` refuses a negative argument on every kernel, before the
    kernel's own square root sees it."""
    with pytest.raises(EvaluationError, match="square root of negative value -1.0"):
        _value("sqrt(0 - 1)", kernel)
    assert kernel.to_fraction(_value("sqrt(4)", kernel)) == 2


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_pow_sign_rules(kernel):
    assert kernel.to_fraction(_value("(0 - 4)^3", kernel)) == -64
    assert kernel.to_fraction(_value("(0 - 4)^2", kernel)) == 16
    with pytest.raises(EvaluationError, match="non-integer power"):
        _value("(0 - 4)^0.5", kernel)
    with pytest.raises(EvaluationError, match="zero raised to a negative power"):
        _value("0^(0 - 1)", kernel)


@pytest.mark.parametrize("make", ALL_KERNELS)
def test_kernel_protocol(make):
    """A kernel provides exactly the members the solvers call, and its scalars
    give exact parts, conjugates and moduli through ``.real``, ``.imag``,
    ``.conjugate()`` and ``abs``, reals as well as complex values."""
    kernel = make()
    assert isinstance(kernel.name, str)
    assert isinstance(kernel.needs_finite_checks, bool)
    public = {member for member in dir(kernel) if not member.startswith("_")}
    assert public == PROTOCOL_MEMBERS
    for method in PROTOCOL_METHODS:
        assert callable(getattr(kernel, method)), method
    exact = kernel.to_fraction
    z = kernel.complex(1.5, -2.5)
    assert (exact(z.real), exact(z.imag)) == (Fraction(3, 2), Fraction(-5, 2))
    w = z.conjugate()
    assert (exact(w.real), exact(w.imag)) == (Fraction(3, 2), Fraction(5, 2))
    assert exact(abs(kernel.complex(3, -4))) == 5
    x = kernel.real(Fraction(-3, 4))
    assert (exact(x.real), exact(x.imag)) == (Fraction(-3, 4), 0)
    assert exact(x.conjugate()) == Fraction(-3, 4)
    assert exact(abs(x)) == Fraction(3, 4)
    assert float(abs(z.conjugate() - z)) == 5.0
    assert float(x) == -0.75


def test_float_is_infinite_past_the_float_range():
    """``float`` rounds a real scalar to nearest: an infinity past the
    float range, zero below it; a native float stays itself, sign of
    zero included."""
    k = BIG_256
    huge = k.pow_positive(k.real(2), k.real(2000))
    assert float(huge) == math.inf
    assert float(-huge) == -math.inf
    assert float(1 / huge) == 0.0
    assert float(k.real(1) / 3) == 1 / 3
    n = native_kernel()
    for x in (math.inf, -math.inf, 0.1, -2.5, 0.0, -0.0):
        y = float(n.real(x))
        assert y == x and math.copysign(1, y) == math.copysign(1, x)


def test_big_precision_actually_applies():
    """A 256-bit model's scalars round at 256 bits outside any precision
    context and whatever the global mpmath precision is set to."""
    kernel = PrecisionConfig(mantissa_bits=256).kernel
    assert kernel is big_kernel(256)
    x = kernel.real(1) / 3
    assert abs(x * 3 - 1) < 2.0 ** -250
    assert abs(kernel.to_fraction(x) - Fraction(1, 3)) < Fraction(1, 2**250)
    with mpmath.workprec(20):
        assert kernel.real(1) / 3 == x
        assert abs(kernel.sqrt(kernel.real(2)) ** 2 - 2) < 2.0 ** -250
    assert mpmath.mp.prec == 53


def test_formatting_is_backend_independent():
    k = BIG_256
    x = k.real(1) / 3
    text = format_real(x)
    assert text.startswith("0.3333333333")
    assert format_real(0.5) == "0.5"
    entry = format_complex(complex(0, 1))
    assert entry == {"re": "0.0", "im": "1.0"}


def test_formatting_uses_the_working_precision_value():
    """A 256-bit value keeps all of its forty printed digits, though the
    global mpmath context has 53 bits."""
    k = BIG_256
    third = k.real(1) / 3
    z = k.complex(1, -1) / 3
    assert format_real(third) == "0." + "3" * 40
    assert format_complex(z) == {"re": "0." + "3" * 40, "im": "-0." + "3" * 40}


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_abs2_is_the_squared_modulus(kernel):
    bits = 256 if kernel is BIG_256 else 53
    tol = 2.0 ** (-(bits - 4))
    for re, im in ((3, 4), (0.1, -2.5), (-1e-30, 7e20), (0, 0), (5, 0)):
        z = kernel.complex(re, im)
        got = kernel.abs2(z)
        want = abs(z) ** 2
        assert float(abs(got - want)) <= tol * float(want)
    assert kernel.abs2(kernel.real(-3)) == 9


def test_huge_exponents_format():
    k = BIG_256
    big = k.pow_positive(k.real(4), k.real(20000))
    text = format_real(big)
    assert "e+12041" in text


def test_native_isfinite_matches_the_two_part_test():
    """The builtin finite test gives the answers of testing both parts of
    complex(z) with math.isfinite."""
    n = native_kernel()
    inf, nan = float("inf"), float("nan")
    for z in (1.5, -0.0, 7, 0, 2 + 3j, complex(inf, 0), complex(0, nan),
              complex(-inf, 1), -inf, inf, nan):
        w = complex(z)
        assert n.isfinite(z) is (math.isfinite(w.real) and math.isfinite(w.imag)), z


def _reference(bits: int) -> mpmath.MPContext:
    """A fresh mpmath context at ``bits``: the values the kernel's scalars
    must reproduce bit for bit."""
    ctx = mpmath.MPContext()
    ctx.prec = bits
    return ctx


@pytest.mark.parametrize("bits", [30, 53, 256])
def test_mpmath_complex_of_floats_equals_general_path(bits):
    """complex(x, y) of two floats is mpmath's mpc(mpf(x), mpf(y)) at the
    kernel's precision, exactly, also below 53 bits, where each part is
    rounded; a pair with a non-finite part is that mpmath value itself."""
    kernel = MpmathKernel(bits)
    ref = _reference(bits)
    own = type(kernel.complex(0))
    rng = random.Random(bits)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 7,
               1e308, -1e308, math.inf, -math.inf, math.nan]
    values = special + [rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300)
                        for _ in range(200)]
    for x in values:
        for y in special + [rng.uniform(-1, 1)]:
            got = kernel.complex(x, y)
            want = ref.mpc(ref.mpf(x), ref.mpf(y))
            assert got._mpc_ == want._mpc_
            assert (type(got) is own) is (math.isfinite(x) and math.isfinite(y))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_abs_bound_brackets_the_modulus(kernel):
    """abs_bound(z) lies between |z| and sqrt(2) |z|, within one rounding
    of |re| + |im|; on native floats it is the modulus itself."""
    bits = 256 if kernel is BIG_256 else 53
    slack = 1 + kernel.real(2) ** -(bits - 2)
    rng = random.Random(bits)
    values = [(3, 4), (0, 0), (0, -2.5), (-7, 0), (1e-300, -1e300), (1, 1)] + [
        (rng.uniform(-1, 1) * 10.0 ** rng.randint(-200, 200),
         rng.uniform(-1, 1) * 10.0 ** rng.randint(-200, 200)) for _ in range(200)]
    for re, im in values:
        z = kernel.complex(re, im)
        got, modulus = kernel.abs_bound(z), abs(z)
        assert modulus <= got * slack
        assert got <= modulus * kernel.sqrt(kernel.real(2)) * slack
        if kernel is not BIG_256:
            assert got == modulus
    assert kernel.abs_bound(kernel.real(-3)) == 3


def _special_reals(kernel) -> tuple:
    """(own, wide, other): reals of the kernel at its precision (zero,
    negatives, 1e+-384839, infinities, nan), two of its own type made at
    512 bits, and mpfs of other contexts and precisions."""
    k = kernel
    huge = k.pow_positive(k.real(10), k.real(384839))
    own = [k.real(0), k.real(1), k.real(-3.5), k.real(Fraction(1, 3)),
           k.real(Fraction(-2, 7)), huge, -huge, 1 / huge, -1 / huge,
           k.real(math.inf), k.real(-math.inf), k.real(math.nan)]
    with k.workprec(512):
        wide = [k.real(Fraction(1, 3)), -k.pow_positive(k.real(10), k.real(-384839))]
    other = [big_kernel(512).real(Fraction(1, 3)), MpmathKernel(64).real(Fraction(-5, 3)),
             mpmath.mpf(2) / 3]
    return own, wide, other


def test_mpmath_complex_of_reals_equals_general_path():
    """complex(x, y) of two reals is mpmath's mpc(mpf(x), mpf(y)) at the
    kernel's precision for every pair: a part with more bits than the
    kernel (its own, made at 512 bits) is rounded, as is one from another
    context, and a non-finite part makes the pair that mpmath value."""
    k = MpmathKernel(256)
    ref = _reference(256)
    own, wide, other = _special_reals(k)
    values = own + wide + other
    for x in values:
        for y in values:
            got = k.complex(x, y)
            want = ref.mpc(ref.mpf(x), ref.mpf(y))
            assert got._mpc_ == want._mpc_
            assert (type(got) is type(k.complex(0))) is ref.isfinite(want)
    for x in wide:
        assert type(x) is type(k.real(0))
        assert x._mpf_[3] > 256
        assert k.complex(x, k.real(0)).real._mpf_ != x._mpf_


def test_format_real_of_an_mpmath_real_equals_general_path():
    """format_real reads an mpmath real's own mantissa and exponent; the
    text equals that of its exact value on every kernel: ``_mpf_`` on
    mpmath, ``from_float`` on native floats."""
    k = MpmathKernel(256)
    for x in sum(_special_reals(k), []):
        assert format_real(x) == libmp.to_str(x._mpf_, 40)
    assert format_real(k.pow_positive(k.real(10), k.real(384839))).endswith("e+384839")
    for x in (0.0, -0.0, 1.5, -2.5e300, 5e-324, math.inf, -math.inf, math.nan):
        assert format_real(x) == libmp.to_str(libmp.from_float(x), 40)
