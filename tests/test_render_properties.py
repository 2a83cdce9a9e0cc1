"""Properties of the value renderer against ``libmp.to_str``.

``format_real`` renders every nonzero finite value from its own
integers, also past 2**+-3500, where libmp's ``to_digits_exp`` first
divides by a power of ten 10**b.  Its text must be ``to_str``'s at 40
digits for every representation of every value: mantissas of any width
up to the kernel's precision, with trailing zeros, and leading bits at
the scaling threshold and up to 10**6 bits from the binary point.  The
replicas of b and of 10**b are compared with libmp's own expressions.

The runs are derandomized; ``conftest.py`` sets the number of examples.
"""

from hypothesis import given
from hypothesis import strategies as st
from mpmath import libmp

from weyldisc import backends
from weyldisc.backends import MpmathKernel, format_real

KERNELS = {bits: MpmathKernel(bits) for bits in (53, 256, 1024)}
EDGES = [s * (3500 + d) for s in (1, -1) for d in (-1, 0, 1)]
TOPS = st.one_of(
    st.sampled_from(EDGES),
    st.integers(-160, 160),
    st.integers(-4000, 4000),
    st.integers(-(10**6), 10**6),
)


@st.composite
def kernel_reals(draw, tops=TOPS):
    """A kernel real m * 2**e as arithmetic leaves it: any width up to the
    precision, either sign, trailing zeros, and a leading bit from
    ``tops``."""
    bits = draw(st.sampled_from(sorted(KERNELS)))
    width = draw(st.integers(1, bits))
    m = draw(st.integers(1 << (width - 1), (1 << width) - 1))
    m <<= draw(st.sampled_from((0, 0, 1, 9, 80)))
    m = draw(st.sampled_from((m, -m)))
    e = draw(tops) - m.bit_length()
    x = object.__new__(type(KERNELS[bits].real(1)))
    x.m, x.e = m, e
    return x


POWERS = st.one_of(st.integers(-60, 10), st.integers(1060, 5000),
                   st.integers(-5000, -1060))


@st.composite
def decimal_edges(draw, powers=POWERS):
    """A 41-digit decimal whose 41st digit rounds up (a tie ending in 5,
    or a run of nines that carries into the digit before it, or into a
    new decade), times 10**B, give or take a unit of the mantissa: the
    exact value for B >= 0, and for B < 0 a binary mantissa of 1,024
    bits.  B, from ``powers``, puts the leading digit by default in the
    fixed-point range, next to it, or past 2**+-3500, where the power of
    ten's and the quotient's truncations decide which way the 41st digit
    rounds."""
    head = draw(st.integers(1, 40))
    digits = draw(st.one_of(
        st.integers(10**39, 10**40 - 1).map(lambda d: 10 * d + 5),
        st.integers(10 ** (head - 1) + 1, 10**head).map(lambda p: p * 10 ** (41 - head) - 1),
    ))
    power = draw(powers)
    if power >= 0:
        m, e = digits * 5**power, power
    else:
        shift = 1024 - digits.bit_length() + (5**-power).bit_length()
        m, e = (digits << shift) // 5**-power, power - shift
    m += draw(st.integers(-1, 1))
    zeros = draw(st.sampled_from((0, 1, 9, 80)))
    x = object.__new__(type(KERNELS[256].real(1)))
    x.m, x.e = draw(st.sampled_from((m, -m))) << zeros, e - zeros
    return x


@given(kernel_reals())
def test_format_real_of_a_kernel_real_is_to_str(x):
    assert format_real(x) == libmp.to_str(x._mpf_, 40)


@given(decimal_edges())
def test_format_real_rounds_decimal_edges_as_to_str(x):
    assert format_real(x) == libmp.to_str(x._mpf_, 40)


@given(st.one_of(kernel_reals(st.integers(600, 3500)),
                 decimal_edges(st.integers(140, 1010))))
def test_format_real_of_a_long_integer_part_is_to_str(x):
    """Where the integer part has about 180 digits or more, ``_render``
    converts only its leading digits; the text is still ``to_str``'s."""
    assert format_real(x) == libmp.to_str(x._mpf_, 40)


@given(st.floats())
def test_format_real_of_a_machine_float_is_to_str(x):
    assert format_real(x) == libmp.to_str(libmp.from_float(x), 40)


@given(st.one_of(st.integers(-4000, 4000), st.integers(-(2**45), 2**45)))
def test_decimal_exponent_is_to_digits_exps(exp):
    expprec = abs(exp).bit_length() + 5
    ratio = libmp.mpf_div(libmp.mpf_mul(libmp.from_int(exp), libmp.mpf_ln2(expprec)),
                          libmp.mpf_ln10(expprec), expprec)
    assert backends._decimal_exponent(exp) == libmp.to_int(ratio)


@given(st.one_of(st.integers(-400, 400), st.integers(-(10**6), 10**6),
                 st.integers(-(2**45), 2**45)))
def test_power_of_ten_is_mpf_pow_int(b):
    assert libmp.from_man_exp(*backends._power_of_ten(b)) == libmp.mpf_pow_int(libmp.ften, b, 152)

