"""Agreement of the int-backed big-float scalars with mpmath.

Every operation the library runs on the mpmath kernel's scalars is
compared, bit for bit, with the same operation on mpmath values of a
fresh context at the same precision, which runs the libmp routine it
replaces: real, complex and int operands in both orders, over seeded
random operands and the cases where rounding is delicate (exact ties,
carries into the next binade, exact cancellation, zero operands, powers
of two, exponents 10^6 bits apart, values wider than the precision).
A classification at 256 bits must compute on these scalars throughout,
with no mpmath value on its hot path.  The disc-CSV renderer, powers of
two and square roots, which run on the scalars' own integers, are
compared with ``libmp.to_str``, ``ctx.power`` and ``ctx.sqrt``.
"""

import dataclasses
import math
import operator
import random
import sys
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp

from weyldisc import bigfloat, builtin_names, cli
from weyldisc.backends import MpmathKernel, big_kernel, format_real
from weyldisc.recurrence import step_table
from weyldisc.scenarios import builtin_scenario
from weyldisc.weyl import ClassifyOptions, classify, fundamental_pair

BITS = [53, 64, 128, 256, 512]
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
GAP = 10**6


def _exact(value):
    """A value's exact identity: mpmath's canonical tuple, or an int."""
    for attr in ("_mpc_", "_mpf_"):
        parts = getattr(value, attr, None)
        if parts is not None:
            return parts
    return value


def _ref(ctx, value):
    """``value`` as an mpmath value of ``ctx``, exactly."""
    if type(value) is int:
        return value
    if hasattr(value, "_mpc_"):
        return ctx.make_mpc(value._mpc_)
    return ctx.make_mpf(value._mpf_)


def _outcome(func, *args):
    try:
        return func(*args)
    except ZeroDivisionError as exc:
        return type(exc)


class Case:
    """A kernel at ``bits``, a reference mpmath context at the same
    precision and the operands of both."""

    def __init__(self, bits):
        self.bits = bits
        self.k = MpmathKernel(bits)
        self.own = (type(self.k.real(1)), type(self.k.complex(1)))
        self.ctx = mpmath.MPContext()
        self.ctx.prec = bits
        self.rng = random.Random(bits)

    def real(self, man, exp=0):
        """man * 2**exp, rounded at the precision, through mpmath."""
        return self.k.real(self.ctx.make_mpf(libmp.from_man_exp(man, exp, self.bits, "n")))

    def random_real(self, span=2000):
        rng = self.rng
        width = rng.choice((1, 2, 3, 8, self.bits // 2, self.bits, self.bits))
        man = rng.getrandbits(width) | 1 << (width - 1)
        return self.real(-man if rng.random() < 0.5 else man, rng.randint(-span, span))

    def check(self, label, func, *args, ref_func=None):
        """``func`` on the kernel's scalars and ``ref_func`` (``func`` by
        default) on the reference values agree exactly; a scalar result
        is of the kernel's own types."""
        got = _outcome(func, *args)
        want = _outcome(ref_func or func, *(_ref(self.ctx, a) for a in args))
        if hasattr(want, "_mpf_") or hasattr(want, "_mpc_"):
            assert type(got) in self.own, (label, args, got)
        assert _exact(got) == _exact(want), (label, [_exact(a) for a in args])


def _reals(case) -> list:
    """Seeded random reals plus the delicate ones, zero included."""
    bits, real = case.bits, case.real
    ones = (1 << bits) - 1
    half_ulp = (1 << (bits - 1)) + 1  # odd, times 3 is an exact tie
    values = [
        real(0), real(1), real(-1), real(3), real(1, 1000), real(1, -1000),
        real(ones), real(-ones, -7), real(half_ulp), real(half_ulp * 2 - 1, -bits),
        real(1, GAP), real(-3, -GAP), real(ones, GAP - bits), real(half_ulp, -GAP),
        # subnormal and past-the-range floats
        real(3, -1076), real(-ones, -1054 - bits), real(ones, 1024 - bits),
    ]
    values += [case.random_real() for _ in range(26)]
    return values


def _complexes(case, reals) -> list:
    k = case.k
    values = [k.complex(0), k.complex(1), k.complex(0, 1), k.complex(0, -2)]
    picks = case.rng.sample(reals, 12)
    values += [k.complex(x, y) for x, y in zip(picks, reals[:12])]
    values += [k.complex(case.random_real(), case.random_real()) for _ in range(14)]
    # parts far apart, and parts wider than the precision
    values += [k.complex(reals[4], reals[13]), k.complex(reals[10], reals[2])]
    return values


def _wide(case) -> list:
    """Values built at twice the precision: their mantissas are wider
    than the precision outside the block."""
    k = case.k
    with k.workprec(2 * case.bits):
        third = k.real(1) / 3
        return [third, -third * k.real(2) ** 300, k.complex(third, k.real(1) / 7),
                k.complex(k.real(5), third)]


@pytest.fixture(scope="module", params=BITS, ids=[f"{b}bit" for b in BITS])
def case(request):
    case = Case(request.param)
    case.reals = _reals(case)
    case.complexes = _complexes(case, case.reals)
    case.wide = _wide(case)
    case.ints = [0, 1, -1, 2, 3, 7, -(1 << 70) - 1]
    # results of arithmetic carry trailing zeros, unlike mpmath's mantissas
    rs = case.reals
    case.derived = [rs[i] * rs[i + 1] + rs[i + 2] for i in range(0, 24, 3)]
    case.derived += [z * w - w for z, w in zip(case.complexes, case.complexes[5:15])]
    return case


def test_binary_operations_agree(case):
    scalars = case.reals + case.complexes + case.wide + case.derived
    for x in scalars:
        for y in scalars + case.ints:
            for label, op in BINARY.items():
                case.check(label, op, x, y)
                case.check(label, op, y, x)


def test_ties_carries_and_cancellation(case):
    """Sums and products whose exact value is a tie, carries into the
    next binade or cancels to zero round as mpmath rounds them."""
    bits, real, k = case.bits, case.real, case.k
    one = real(1)
    ulp = real(1, 1 - bits)
    ones = real((1 << bits) - 1)
    tie = real((1 << (bits - 1)) + 1)
    for x, y in [
        (one, real(1, -bits)),          # 1 + ulp/2: a tie, to even
        (one, real(3, -bits)),          # 1 + 3 ulp/2: a tie, to even (up)
        (one, -real(1, -bits - 1)),     # 1 - ulp/4: below the binade
        (ones, real(1, -1)),            # all ones + 1/2: carries
        (ones, real(3, -2)),            # all ones + 3/4: carries
        (ones, -ones), (tie, -tie),     # exact cancellation
    ]:
        for label, op in BINARY.items():
            case.check(label, op, x, y)
    for factor in (3, k.real(3), -3, 5):
        case.check("*", operator.mul, tie, factor)     # an exact tie
        case.check("*", operator.mul, k.complex(tie, -tie), factor)
    case.check("*", operator.mul, ones, ones)
    case.check("*", operator.mul, ones * ulp, ones)
    # products whose parts cancel exactly, or are ties beside a far term
    for z, w in [
        (k.complex(tie, tie), k.complex(tie, -tie)),
        (k.complex(ones, tie), k.complex(tie, ones)),
        (k.complex(tie, 1), k.complex(3, real(1, -GAP))),
        (k.complex(tie, -1), k.complex(3, real(1, -GAP))),
        (k.complex(tie, 1), k.complex(3, real(1, -5 * bits))),
        (k.complex(tie, 1), k.complex(3, real(-1, -2 * bits))),
        (k.complex(ones, real(1, -GAP)), k.complex(real(1, GAP), ones)),
    ]:
        for label, op in BINARY.items():
            case.check(label, op, z, w)
            case.check(label, op, w, z)


def test_divisions_by_parts_far_apart(case):
    """Complex quotients whose intermediates |w|^2, ac + bd and bc - ad
    are sums of terms far apart, where mpmath's rounding toward zero
    decides the last bit."""
    bits, real, k = case.bits, case.real, case.k
    tiny = [real(1, -bits - 12), real(-1, -bits - 12), real(1, -GAP), real(3, -2 * bits)]
    for small in tiny:
        for big in (real(1), real(2, 7), real((1 << bits) - 1, -bits), real(-3)):
            z, w = k.complex(big, small), k.complex(small, big)
            for num in (k.complex(1), k.complex(big, big), z, w, big, 1, 3):
                case.check("/", operator.truediv, num, z)
                case.check("/", operator.truediv, num, w)
            case.check("abs", abs, z)
            case.check("abs", abs, w)


def test_unary_operations_and_kernel_members_agree(case):
    k, ctx = case.k, case.ctx
    prec = case.bits
    for z in case.complexes + case.wide[2:] + case.derived[8:]:
        case.check("1/z", lambda v: 1 / v, z)
        case.check("1-z", lambda v: 1 - v, z)
        for label, func in (("neg", operator.neg), ("abs", abs),
                            ("conj", lambda v: v.conjugate()), ("re", lambda v: v.real),
                            ("im", lambda v: v.imag), ("bool", bool)):
            case.check(label, func, z)
        re, im = z._mpc_
        want = libmp.mpf_add(libmp.mpf_mul(re, re), libmp.mpf_mul(im, im), prec, "n")
        assert k.abs2(z)._mpf_ == want
        assert type(k.abs2(z)) is case.own[0]
        want = libmp.mpf_add(libmp.mpf_abs(re), libmp.mpf_abs(im), prec, "n")
        assert k.abs_bound(z)._mpf_ == want
        assert type(k.abs_bound(z)) is case.own[0]
    for x in case.reals + case.wide[:2] + case.derived[:8]:
        for label, func in (("neg", operator.neg), ("abs", abs),
                            ("conj", lambda v: v.conjugate()), ("re", lambda v: v.real),
                            ("im", lambda v: v.imag), ("bool", bool), ("1/x", lambda v: 1 / v),
                            ("1-x", lambda v: 1 - v)):
            case.check(label, func, x)
        case.check("abs2", k.abs2, x, ref_func=lambda v: v * v)
        case.check("abs_bound", k.abs_bound, x, ref_func=abs)
        got, want = float(x), float(_ref(ctx, x))
        assert got.hex() == want.hex(), x
        assert k.to_fraction(x) == k.to_fraction(_ref(ctx, x))


def test_comparisons_agree(case):
    reals = case.reals + case.wide[:2] + case.derived[:8]
    complexes = case.complexes + case.wide[2:]
    ctx = case.ctx
    for x in reals:
        for y in reals + case.ints:
            for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
                       operator.ge):
                assert op(x, y) is op(_ref(ctx, x), _ref(ctx, y)), (op, x, y)
                assert op(y, x) is op(_ref(ctx, y), _ref(ctx, x)), (op, y, x)
    for z in complexes:
        for w in complexes + reals + case.ints:
            want = _ref(ctx, z) == _ref(ctx, w)
            assert (z == w) is want and (w == z) is want and (z != w) is not want
    # equal values held with different mantissas and exponents
    x = case.reals[3]
    assert x * 2 / 2 == x and hash(x * 4 / 4) == hash(x) == hash(_ref(ctx, x))
    assert case.k.complex(x, 1) == case.k.complex(x * 8 / 8, 1)


def test_conversions_agree(case):
    """``real`` and ``complex`` round ints, floats, Fractions and other
    contexts' values as mpmath does; a float pair rounds once per part."""
    k, ctx, rng = case.k, case.ctx, case.rng
    floats = [0.0, -0.0, 5e-324, -2.5, 1e308, 1 / 3] + [
        rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300) for _ in range(40)]
    others = [(1 << 600) + 1, -(3 ** 400), Fraction(1, 3), Fraction(-(10**50) - 1, 7**40),
              mpmath.mpf(2) / 3, MpmathKernel(2 * case.bits).real(Fraction(1, 3))]
    for x in floats + others:
        got = k.real(x)
        if isinstance(x, Fraction):
            want = ctx.mpf(x.numerator) / ctx.mpf(x.denominator)
        else:
            want = ctx.mpf(x)
        assert type(got) is case.own[0]
        assert got._mpf_ == want._mpf_, x
    for x, y in zip(floats, reversed(floats)):
        got = k.complex(x, y)
        assert got._mpc_ == ctx.mpc(ctx.mpf(x), ctx.mpf(y))._mpc_


def test_wide_values_are_rounded_where_mpmath_rounds_them(case):
    """A value made at a higher precision keeps its bits where mpmath
    passes a part through unrounded (the imaginary part of z + x) and
    rounds them everywhere else."""
    k = case.k
    wide_real, _, wide_z, _ = case.wide
    assert wide_real._mpf_[3] > case.bits
    assert (wide_z + 1).imag._mpf_ == wide_z.imag._mpf_
    assert (wide_z * 1).imag._mpf_ != wide_z.imag._mpf_
    assert k.complex(wide_real, 0).real._mpf_ != wide_real._mpf_
    assert (-wide_real)._mpf_[3] <= case.bits


def test_sums_round_as_mpf_add():
    """The sum behind every operation, ``_add`` rounded by ``_round`` or
    ``_trunc``, is ``mpf_add`` at nearest or toward zero, also on exact
    products wider than the precision and on operands whose leading bits
    lie near mpmath's thresholds for perturbing instead of adding (prec+4
    bits apart, exponents 100 apart with trailing zeros stripped)."""
    rng = random.Random(7)

    def mantissa(prec):
        width = rng.choice((1, 5, prec - 1, prec, prec + 1, 2 * prec, 2 * prec + 7))
        man = (1 << width) - 1 if rng.random() < 0.2 else rng.getrandbits(width) | 1 << (width - 1)
        if rng.random() < 0.3:
            man <<= rng.randint(1, 200)  # trailing zeros, as products carry them
        return -man if rng.random() < 0.5 else man

    for _ in range(4000):
        prec = rng.choice(BITS)
        ma, mb = mantissa(prec), mantissa(prec)
        ea = rng.randint(-500, 500)
        eb = ea + rng.choice((1, -1)) * rng.choice(
            (0, prec, prec + 4, prec + 5, 99, 100, 101, 105, prec + 101, 2 * prec + 100, GAP)
        ) + rng.randint(-3, 3)
        for rnd, finish in (("n", bigfloat._round), ("d", bigfloat._trunc)):
            got = finish(*bigfloat._add(ma, ea, mb, eb, prec), prec)
            want = libmp.mpf_add(libmp.from_man_exp(ma, ea), libmp.from_man_exp(mb, eb), prec, rnd)
            assert bigfloat._mpf_tuple(*got) == want, (rnd, prec, ma, ea, mb, eb)
        got = bigfloat._sum(ma, ea, mb, eb, prec)
        want = libmp.mpf_add(libmp.from_man_exp(ma, ea), libmp.from_man_exp(mb, eb), prec, "n")
        assert bigfloat._mpf_tuple(*got) == want, (prec, ma, ea, mb, eb)


def test_workprec_switches_the_precision_of_values_built_inside():
    k = MpmathKernel(53)
    with k.workprec(256):
        third = k.real(1) / 3
        z = k.complex(0.5, 0.25) * k.complex(1 / 3, 1)
    assert third._mpf_[3] > 200
    assert (k.real(1) / 3)._mpf_[3] <= 53
    ref = mpmath.MPContext()
    ref.prec = 256
    assert z._mpc_ == (ref.mpc(0.5, 0.25) * ref.mpc(1 / 3, 1))._mpc_


def test_non_finite_values_stay_on_mpmath():
    """inf and nan are the context's mpmath values; arithmetic with them
    runs on mpmath and a finite result is a kernel scalar again."""
    k = MpmathKernel(256)
    inf = k.real(math.inf)
    assert not k.isfinite(inf) and k.isfinite(k.real(1))
    assert not k.isfinite(k.complex(1, math.nan))
    x = k.real(3)
    assert not k.isfinite(x + inf) and not k.isfinite(x * inf)
    assert type(x / inf) is type(x) and x / inf == 0


# ---------------------------------------------------------------------------
# Rendering, powers of two and square roots on the scalars' own integers

OWN_BITS = [53, 256, 512]


def _own(k, m, e):
    """The kernel's real m * 2**e as it stands: not rounded, and not
    normalised, as results of arithmetic carry trailing zeros."""
    x = object.__new__(type(k.real(1)))
    x.m, x.e = m, e
    return x


def _to_str(m, e):
    return libmp.to_str(libmp.from_man_exp(m, e), 40)


def _mantissa(rng, width):
    man = rng.getrandbits(width) | 1 << (width - 1)
    return -man if rng.random() < 0.5 else man


def _rendered_parts(rng) -> list:
    """(m, e) pairs where libmp's rendering is delicate, plus seeded ones."""
    parts = []
    for _ in range(3000):
        m = _mantissa(rng, rng.randint(1, 600)) << rng.choice((0, 0, 1, 9, 80))
        top = rng.choice((rng.randint(-3500, 3500), rng.randint(-160, 160)))
        parts.append((m, top - m.bit_length()))
    # the leading bit where the fixed-point window starts and ends, and
    # where libmp starts scaling by a power of ten
    for top in (152, -152, 3499, 3500, 3501, -3500, -3501, 0, 1, 136, 153):
        for width in (1, 2, 53, 152, 153, 600):
            m = _mantissa(rng, width) << rng.choice((0, 5))
            parts.append((m, top - m.bit_length()))
    # exact powers of ten, short exact decimals (2.5**j), and 41-digit
    # integers that end in 5 (ties of the 41st digit after a 40th that
    # is even or odd)
    parts += [(10**j, 0) for j in range(0, 120, 3)]
    parts += [(5**j << 7, -j - 7) for j in range(1, 60, 4)]
    for _ in range(40):
        tie = (rng.randrange(10**39, 10**40) * 10 + 5) * 10 ** rng.choice((0, 0, 3))
        parts.append((tie if rng.random() < 0.5 else -tie, 0))
    # just above such a tie, by less than libmp's 152-bit fixed point
    # keeps: its truncation makes the 41st digit a 4, and rounds down
    for d in range(-30, 30, 2):
        tie = (rng.randrange(10**39, 10**40) * 10 + 5) * 10**5
        scale = d - 45
        if scale >= 0:
            parts.append(((tie * 10**scale << 400) + 1, -400))
        else:
            parts.append((-(-(tie << 400) // 10**-scale), -400))
    # just below a power of ten: the 43-digit truncation is all nines and
    # rounding carries into the next decade
    for d in range(-40, 60, 3):
        if d >= 0:
            parts.append((10**d << 400, -400))
            parts.append(((10**d << 400) - 1, -400))
        else:
            parts.append((-((1 << 400) // 10**-d), -400))
    return parts


@pytest.mark.parametrize("bits", OWN_BITS)
def test_format_real_renders_as_to_str(bits):
    """``format_real`` of the kernel's reals is ``libmp.to_str`` at 40
    digits of the same value, for every representation of it: any width
    up to 600 bits, both signs, trailing zeros, leading bits at the
    thresholds of libmp's fixed-point and scaled paths, powers of ten,
    decimal ties, carries into a new decade and zero."""
    k = MpmathKernel(bits)
    rng = random.Random(bits)
    for m, e in _rendered_parts(rng) + [(0, 0), (0, 40)]:
        assert format_real(_own(k, m, e)) == _to_str(m, e), (m, e)
    # values as the kernel computes them
    for x in (k.real(1) / 3, -k.real(2) / 3, k.real(10) ** 30 / 7, k.real(Fraction(1, 10**13))):
        assert format_real(x) == libmp.to_str(x._mpf_, 40)


def test_format_real_of_machine_floats_is_to_str_of_their_exact_value():
    values = [5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 0.0, -0.0,
              math.inf, -math.inf, math.nan, 0.1, -2.5, 1 / 3, 1e22, 1e23]
    for x in values:
        assert format_real(x) == libmp.to_str(libmp.from_float(x), 40), x


def test_format_real_hands_only_zero_and_non_finite_values_to_to_str(monkeypatch):
    """A nonzero finite real is rendered from its own integers, within
    2**+-3500 and past it, where libmp first divides by a power of ten,
    and so is a machine float; only zero and non-finite values go
    through ``to_str`` itself."""
    k = MpmathKernel(256)
    calls = []
    to_str = libmp.to_str
    monkeypatch.setattr(libmp, "to_str", lambda *args: calls.append(args) or to_str(*args))
    for top in (3500, -3500, 152, -152, 0, 3501, -3501, 10**6, -10**6):
        for m in (1, 3, -7, -(1 << 300) - 1, 5 << 90):
            e = top - m.bit_length()
            assert format_real(_own(k, m, e)) == to_str(libmp.from_man_exp(m, e), 40), (m, e)
    for x in (0.1, -2.5e300, 5e-324):
        assert format_real(x) == to_str(libmp.from_float(x), 40)
    assert calls == []
    edges = [_own(k, 0, 0), _own(k, 0, 40), k.real(math.inf), k.real(math.nan)]
    edges += [0.0, -0.0, math.inf, -math.inf, math.nan]
    for x in edges:
        format_real(x)
    assert len(calls) == len(edges)


@pytest.mark.parametrize("bits", OWN_BITS)
def test_pow_positive_of_a_power_of_two_is_mpmaths(bits):
    """2**k raised to an integral real is ``ctx.power``'s value, for
    bases and exponents in any representation, exponents with e > 0
    among them."""
    k = MpmathKernel(bits)
    ctx = mpmath.MPContext()
    ctx.prec = bits
    own = type(k.real(1))
    rng = random.Random(bits)
    for kk in range(-3, 201):
        shift = rng.choice((0, 1, 4))
        base = _own(k, 1 << shift, kk - shift)
        ns = [-800, -1, 0, 1, 2, 3200] + [rng.randint(-800, 3200) for _ in range(12)]
        for n in ns:
            z = bigfloat._tz(n) if n else 3
            e = rng.randint(0, min(z, 3))
            for expo in (_own(k, n, 0), _own(k, n >> e, e), _own(k, n << 2, -2)):
                got = k.pow_positive(base, expo)
                want = ctx.power(ctx.make_mpf(base._mpf_), ctx.make_mpf(expo._mpf_))
                assert type(got) is own and got._mpf_ == want._mpf_, (kk, n)


@pytest.mark.parametrize("bits", OWN_BITS)
def test_int_power_of_a_power_of_two_is_mpmaths(bits, monkeypatch):
    """``x ** n`` of a power of two x, in any representation, and an int
    n with |n| <= 4096 is the value of mpmath's ``**`` and leaves the
    scalars for no mpmath value; other bases still go to mpmath."""
    k = MpmathKernel(bits)
    ctx = mpmath.MPContext()
    ctx.prec = bits
    own = type(k.real(1))
    bases = [_own(k, 1, 0), _own(k, 1, 2), _own(k, 8, -4), _own(k, 1, -300),
             _own(k, 1 << 5, 295), k.real(1) / 3, k.real(-2)]
    ns = range(-4096, 4097)
    wanted = [[(ctx.make_mpf(base._mpf_) ** n)._mpf_ for n in ns] for base in bases]
    conversions = Counter()
    mp = own._mp
    monkeypatch.setattr(own, "_mp", lambda s: conversions.update([s.m]) or mp(s))
    for base, want in zip(bases, wanted):
        assert [(base ** n)._mpf_ for n in ns] == want, base
    # only the last two bases, which are not positive powers of two
    assert conversions == Counter({bases[-2].m: len(ns), -2: len(ns)})


def test_pow_positive_of_other_operands_runs_on_mpmath(monkeypatch):
    """A base that is not a power of two, or an exponent that is not an
    integer, still goes to ``ctx.power``; powers of two do not."""
    calls = []
    power = mpmath.MPContext.power
    monkeypatch.setattr(mpmath.MPContext, "power",
                        lambda ctx, x, y: calls.append((x, y)) or power(ctx, x, y))
    for bits in OWN_BITS:
        k = MpmathKernel(bits)
        ctx = mpmath.MPContext()
        ctx.prec = bits
        two, four = k.real(2), k.real(4)
        k.pow_positive(four, k.real(-7))
        k.pow_positive(two, k.real(5) * 3)
        assert calls == []
        pairs = [(k.real(3), k.real(5)), (k.real(6), k.real(-2)), (k.real(1) / 3, k.real(2)),
                 (two, k.real(1) / 2), (four, k.real(-5) / 2), (two, k.real(1) / 3),
                 (k.real(10), k.real(1) / 7)]
        for base, expo in pairs:
            got = k.pow_positive(base, expo)
            want = power(ctx, ctx.make_mpf(base._mpf_), ctx.make_mpf(expo._mpf_))
            assert got._mpf_ == want._mpf_
        assert len(calls) == len(pairs)
        calls.clear()


@pytest.mark.parametrize("bits", OWN_BITS)
def test_sqrt_is_mpmaths(bits):
    """``sqrt`` of a positive real is ``ctx.sqrt``'s value: odd and even
    exponents, exact squares (powers of four among them), mantissas
    narrower and wider than the precision, with trailing zeros."""
    k = MpmathKernel(bits)
    ctx = mpmath.MPContext()
    ctx.prec = bits
    own = type(k.real(1))
    rng = random.Random(bits)
    values = [(1, 0), (1, 1), (1, -1), (4, 0), (1, 2 * GAP), (1, -2 * GAP - 1), (2, 7)]
    for _ in range(600):
        m = rng.getrandbits(rng.choice((1, 3, bits // 2, bits, bits + 3, 2 * bits + 5))) | 1
        if rng.random() < 0.4:
            m *= m
        e = rng.randint(-400, 400)
        values.append((m << rng.choice((0, 0, 1, 6)), e))
    for m, e in values:
        x = _own(k, m, e)
        got = k.sqrt(x)
        assert type(got) is own and got._mpf_ == ctx.sqrt(ctx.make_mpf(x._mpf_))._mpf_, (m, e)
    assert k.sqrt(k.real(0)) == 0 and not k.isfinite(k.sqrt(k.real(math.inf)))


# ---------------------------------------------------------------------------
# The modulus and the conversions, against mpmath's tuples

DIFF_BITS = [53, 128, 256, 512]


def _own_complex(k, x, xe, y, ye):
    """The kernel's complex of two (m, e) pairs as they stand."""
    z = object.__new__(type(k.complex(1)))
    z.x, z.xe, z.y, z.ye = x, xe, y, ye
    return z


@pytest.mark.parametrize("bits", DIFF_BITS)
def test_abs_is_mpf_hypot(bits, monkeypatch):
    """``abs`` of a complex is ``mpc_abs``, which is ``mpf_hypot``: a zero
    part, squares more than prec+4 bits apart (where ``_far`` perturbs
    the larger one), mantissas wider than the precision and with
    trailing zeros, negative parts and exponents past +-10^5."""
    k = MpmathKernel(bits)
    own = type(k.real(1))
    rng = random.Random(bits + 1)
    far = []
    monkeypatch.setattr(bigfloat, "_far", lambda *a: far.append(a) or FAR(*a))
    parts = []
    for _ in range(800):
        width = rng.choice((1, 3, bits // 2, bits, bits + 4, 2 * bits + 5))
        x = _mantissa(rng, width) << rng.choice((0, 0, 3, 150))
        y = _mantissa(rng, rng.choice((1, 2, bits, 2 * bits + 5))) << rng.choice((0, 0, 7))
        xe = rng.choice((rng.randint(-300, 300), rng.randint(10**5, 2 * 10**5),
                         -rng.randint(10**5, 2 * 10**5)))
        # the squares' leading bits close, near the prec+4 threshold, or far apart
        top = xe + x.bit_length() - y.bit_length() + rng.choice(
            (0, 1, -1, bits // 2 + 4, bits // 2 + 5, -bits // 2 - 5, bits + 60, -GAP))
        parts.append((x, xe, y, top - rng.randint(0, 2)))
    m = _mantissa(rng, bits)
    parts += [(m, 5, 0, 0), (0, 0, m, -10**5 - 3), (-m, 10**5 + 1, 0, 7), (0, 0, 0, 0)]
    for x, xe, y, ye in parts:
        z = _own_complex(k, x, xe, y, ye)
        got = abs(z)
        want = libmp.mpc_abs(z._mpc_, bits, "n")
        assert type(got) is own and got._mpf_ == want, (x, xe, y, ye)
        assert want == libmp.mpf_hypot(*z._mpc_, bits, "n")
    assert far, "no modulus summed squares far apart"


FAR = bigfloat._far


@pytest.mark.parametrize("bits", DIFF_BITS)
def test_complex_and_real_build_their_parts_as_mpmath(bits):
    """``k.real(x)`` is ``ctx.mpf(x)`` and ``k.complex(x, y)`` is
    ``ctx.mpc(ctx.mpf(x), ctx.mpf(y))``, tuple for tuple, for every pair
    of floats (-0.0, the least subnormal, values near 2^+-1000), ints
    wider than the precision, the kernel's reals made at another
    precision, another kernel's reals and Fractions; a finite part of
    the complex holds the integers ``k.real`` gives it.  inf and nan
    still reach mpmath and come back as its values."""
    k = MpmathKernel(bits)
    ctx = mpmath.MPContext()
    ctx.prec = bits
    own = (type(k.real(1)), type(k.complex(1)))
    rng = random.Random(bits + 2)
    with k.workprec(2 * bits):
        wide = [k.real(1) / 3, -k.real(7) ** 3 / 11]
    with k.workprec(bits // 2 + 1):
        narrow = [k.real(2) / 3]
    finite = [
        0.0, -0.0, 5e-324, -5e-324, 2.0**1000, -(2.0**-1000),
        math.nextafter(2.0**1000, math.inf), math.nextafter(2.0**-1000, 0.0),
        1.7976931348623157e308, rng.uniform(-1, 1), 1 / 3,
        0, 1, -7, (1 << (2 * bits)) + 1, -(3**400),
        *wide, *narrow, MpmathKernel(2 * bits).real(Fraction(1, 3)),
        Fraction(1, 3), Fraction(-(10**50) - 1, 7**40), mpmath.mpf(2) / 3,
    ]
    special = [math.inf, -math.inf, math.nan]

    def ref(x):
        if isinstance(x, Fraction):
            return ctx.mpf(x.numerator) / ctx.mpf(x.denominator)
        return ctx.mpf(x)

    for x in finite + special:
        got = k.real(x)
        assert (type(got) is own[0]) is (x in finite)
        assert got._mpf_ == ref(x)._mpf_, x
    for x in finite + special:
        for y in finite + special:
            got = k.complex(x, y)
            want = ctx.mpc(ref(x), ref(y))
            assert got._mpc_ == want._mpc_, (x, y)
            if x in special or y in special:
                assert type(got) not in own and not k.isfinite(got), (x, y)
                continue
            assert type(got) is own[1], (x, y)
            re, im = k.real(x), k.real(y)
            assert (got.x, got.xe, got.y, got.ye) == (re.m, re.e, im.m, im.e), (x, y)
    assert k.complex(0.5)._mpc_ == ctx.mpc(0.5)._mpc_


# ---------------------------------------------------------------------------
# No silent fallback on the hot path


@pytest.mark.parametrize("name", builtin_names())
def test_classification_runs_on_the_kernel_scalars(name):
    """The step table, the pair's states, the disc rows and the partial
    sums of a 256-bit classification are the kernel's own scalars, not
    mpmath values that a fallback would leave."""
    scenario = dataclasses.replace(builtin_scenario(name), n_max=80)
    model = scenario.model()
    k = model.kernel
    real, cplx = type(k.real(1)), type(k.complex(1))
    lam = k.complex(scenario.lam.real, scenario.lam.imag)
    table = step_table(model, lam, 80)
    for column in (table.p_tilde, table.alpha, table.q_tilde[1:], table.r1, table.r2):
        assert {type(v) for v in column} == {cplx}
    assert {type(v) for step in table.steps for v in step} == {cplx}
    for traj in fundamental_pair(model, lam, scenario.alpha, 80, table=table):
        assert {type(v) for v in traj.y1 + traj.y2 + traj.y1q} == {cplx}
    report = classify(model, scenario.lam, scenario.alpha, ClassifyOptions(n_max=80))
    for disc in report.disc_samples:
        assert (type(disc.center), type(disc.radius)) == (cplx, real)
    sums = report.psi_profile.partial_sums + (
        report.chi_profile.partial_sums if report.chi_profile else ())
    assert {type(s) for _, s in sums} == {real}
    assert type(report.m_limit) is cplx


# What still reaches mpmath in one in-process `classify --n-max 200` and
# one `check` at 256 bits, per built-in: the scalars' ``_mp`` conversions
# by calling method, ``to_str`` calls from ``format_real`` (zeros) and
# the kernel's ``sin``/``cos``.  The
# ``k.real(2) ** n`` scalings of the chi and corner routes stay on the
# scalars.
REACH = {
    ("classify", "free"): {"to_str": 1, "sin": 1, "cos": 1},
    ("classify", "ex4.1a"): {"to_str": 2, "sin": 1, "cos": 1},
    ("classify", "ex4.1b"): {"to_str": 1, "sin": 1, "cos": 1},
    ("classify", "ex4.2a"): {"to_str": 1, "sin": 1, "cos": 1},
    ("classify", "ex4.2b"): {"sin": 1, "cos": 1},
    **{("check", name): {"sin": 8, "cos": 8} for name in builtin_names()},
}


@pytest.mark.parametrize("command, name", sorted(REACH))
def test_what_reaches_mpmath_is_counted(command, name, tmp_path, monkeypatch, capsys):
    """Exactly the pinned conversions, renderings and trigonometric calls
    leave the scalars, so that no new fallback appears silently."""
    k = big_kernel(256)
    counts = Counter()
    for cls in (type(k.real(1)), type(k.complex(1, 1))):
        def counted(s, _mp=cls._mp, _cls=cls.__name__):
            counts[f"{_cls}.{sys._getframe(1).f_code.co_name}"] += 1
            return _mp(s)
        monkeypatch.setattr(cls, "_mp", counted)
    to_str = libmp.to_str

    def counted_to_str(*args):
        if sys._getframe(1).f_code.co_name == "format_real":
            counts["to_str"] += 1
        return to_str(*args)
    monkeypatch.setattr(libmp, "to_str", counted_to_str)
    for trig in ("sin", "cos"):
        def counted_trig(x, _f=getattr(k, trig), _trig=trig):
            counts[_trig] += 1
            return _f(x)
        monkeypatch.setattr(k, trig, counted_trig)
    argv = [command, name, "--bits", "256"]
    if command == "classify":
        argv += ["--n-max", "200", "--out", str(tmp_path)]
    cli.main(argv)  # check exits 1 on ex4.2a, whose disc_corner_route fails
    capsys.readouterr()
    assert counts == REACH[command, name]
