import math
import random
from fractions import Fraction

import mpmath
import pytest

from weyldisc import ExprCoefficient, backends
from weyldisc.backends import (
    BIG_KERNEL,
    Gmpy2Kernel,
    MpmathKernel,
    format_complex,
    format_real,
    native_kernel,
)
from weyldisc.errors import EvaluationError

KERNELS = [BIG_KERNEL, native_kernel()]

# every kernel the protocol test covers; one that cannot be imported here
# is reported as skipped
IMPORTABLE = [
    pytest.param(MpmathKernel, id="mpmath"),
    pytest.param(native_kernel, id="native"),
    pytest.param(Gmpy2Kernel, id="gmpy2", marks=pytest.mark.skipif(
        backends.gmpy2 is None, reason="gmpy2 is not importable")),
]

# the whole public face of a kernel object: what the solvers call on it;
# the scalar types carry the rest
PROTOCOL_MEMBERS = {
    "name", "workprec", "needs_finite_checks", "real", "complex", "abs2",
    "isfinite", "sqrt", "pow_positive", "sin", "cos", "to_fraction", "to_mpf",
}
PROTOCOL_METHODS = sorted(PROTOCOL_MEMBERS - {"name", "needs_finite_checks"})


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_exact_fraction_round_trip(kernel):
    with kernel.workprec(256):
        x = kernel.real(Fraction(3, 8))  # dyadic: exactly representable
        assert kernel.to_fraction(x) == Fraction(3, 8)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_division_by_zero_scalar_is_an_error(kernel):
    """mpmath and native floats refuse an exact zero denominator, complex
    or real; the solvers test the ones that can vanish beforehand."""
    with kernel.workprec(256):
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
    with kernel.workprec(256):
        with pytest.raises(EvaluationError, match="square root of negative value -1.0"):
            _value("sqrt(0 - 1)", kernel)
        assert kernel.to_fraction(_value("sqrt(4)", kernel)) == 2


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_pow_sign_rules(kernel):
    with kernel.workprec(256):
        assert kernel.to_fraction(_value("(0 - 4)^3", kernel)) == -64
        assert kernel.to_fraction(_value("(0 - 4)^2", kernel)) == 16
        with pytest.raises(EvaluationError, match="non-integer power"):
            _value("(0 - 4)^0.5", kernel)
        with pytest.raises(EvaluationError, match="zero raised to a negative power"):
            _value("0^(0 - 1)", kernel)


@pytest.mark.parametrize("make", IMPORTABLE)
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
    with kernel.workprec(128):
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
    k = MpmathKernel()
    with k.workprec(256):
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
    k = BIG_KERNEL
    with k.workprec(256):
        third = k.real(1) / 3
        err = abs(third * 3 - 1)
        assert k.to_fraction(err) < Fraction(1, 2**250)


def test_formatting_is_backend_independent():
    k = BIG_KERNEL
    with k.workprec(256):
        x = k.real(1) / 3
        text = format_real(k, x)
    assert text.startswith("0.3333333333")
    n = native_kernel()
    assert format_real(n, 0.5) == "0.5"
    entry = format_complex(n, complex(0, 1))
    assert entry == {"re": "0.0", "im": "1.0"}


def test_formatting_uses_the_working_precision_value():
    """Rendered outside any precision context, a 256-bit value keeps all
    of its forty printed digits (the ambient context has 53 bits)."""
    k = BIG_KERNEL
    with k.workprec(256):
        third = k.real(1) / 3
        z = k.complex(1, -1) / 3
    assert format_real(k, third) == "0." + "3" * 40
    assert format_complex(k, z) == {"re": "0." + "3" * 40, "im": "-0." + "3" * 40}


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_abs2_is_the_squared_modulus(kernel):
    bits = 256 if kernel is BIG_KERNEL else 53
    tol = 2.0 ** (-(bits - 4))
    with kernel.workprec(bits):
        for re, im in ((3, 4), (0.1, -2.5), (-1e-30, 7e20), (0, 0), (5, 0)):
            z = kernel.complex(re, im)
            got = kernel.abs2(z)
            want = abs(z) ** 2
            assert float(abs(got - want)) <= tol * float(want)
        assert kernel.abs2(kernel.real(-3)) == 9


def test_huge_exponents_format():
    k = BIG_KERNEL
    with k.workprec(256):
        big = k.pow_positive(k.real(4), k.real(20000))
        text = format_real(k, big)
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


@pytest.mark.parametrize("bits", [30, 53, 256])
def test_mpmath_complex_of_floats_equals_general_path(bits):
    """The float-pair fast path gives mpc(mpf(x), mpf(y)) exactly, also
    below 53 bits, where each part is rounded."""
    kernel = MpmathKernel()
    rng = random.Random(bits)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 7,
               1e308, -1e308, math.inf, -math.inf, math.nan]
    values = special + [rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300)
                        for _ in range(200)]
    with kernel.workprec(bits):
        for x in values:
            for y in special + [rng.uniform(-1, 1)]:
                got = kernel.complex(x, y)
                assert type(got) is mpmath.mpc
                assert got._mpc_ == mpmath.mpc(mpmath.mpf(x), mpmath.mpf(y))._mpc_
