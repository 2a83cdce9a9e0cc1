"""Int-backed big-float scalars for the ``mpmath`` kernel.

A real is a signed Python int mantissa ``m`` and an int exponent ``e``,
the value m * 2**e; a complex is two such parts.  Mantissa and exponent
stay apart, as in extended-range arithmetic (Smith, Olver & Lozier, ACM
TOMS 7, 1981): a result is rounded, with ``int.bit_length``, only when
its mantissa has more bits than the precision, and nothing strips
trailing zeros or splits off the sign.  So one value has many
representations; every comparison is by value.

Each operation rounds exactly as the mpmath routine it replaces, so
every value equals, bit for bit, the one mpmath computes at the same
precision; the table of operations and routines is in
``weyldisc.backends``.

An int operand is exact, as mpmath converts it, on either side: ``+``
and ``*`` commute, so each reflected one is its forward operation.
``mpf_add`` adds two operands whose leading bits lie more than prec+4
apart (and whose exponents, trailing zeros stripped, more than 100
apart) by perturbing the larger one by one unit prec+4 bits below its
last bit: ``_far`` does the same, so that even sums of exact products,
which are wider than the precision, round as mpmath rounds them.
Nothing is ever shifted by the full gap between two exponents.

The kernel's ``sqrt`` of a positive real rounds with ``_sqrt``, as
``mpf_sqrt`` does, and ``abs`` of a complex runs ``mpf_hypot``'s steps,
the same root among them, in one frame.  ``complex`` builds each part
from the (m, e) that ``real`` rounds, with no intermediate real.  Its ``pow_positive`` of a power of two 2**k and an
integral real n, and a real 2**k ``**`` an int n, are 2**(k*n), exactly
what ``mpf_pow_int`` returns.

What stays on mpmath: any other ``**``, ``str``/``repr``, ``hash``,
``complex``, operands of any other type (Python floats and complexes,
other contexts' values) and non-finite values.  They reach these
scalars through ``_mpf_`` and ``_mpc_``, properties that give mpmath's
canonical tuple of the same value, computed when read; the context's
own mpmath types carry the non-finite values.  The kernel takes
``sin`` and ``cos`` from mpmath too, and ``sqrt`` and ``pow_positive``
of any other operands.  Rendering is not among them:
``backends.format_real`` prints every nonzero finite real from ``m``
and ``e``, and hands only zero and non-finite values to ``libmp.to_str``.
"""

from __future__ import annotations

import math

from mpmath import libmp

_FZERO = libmp.fzero
_new = object.__new__
_isfinite, _isqrt = math.isfinite, math.isqrt


def _tz(m: int) -> int:
    """Trailing zero bits of a nonzero int."""
    return (m & -m).bit_length() - 1


def _round(m: int, e: int, prec: int) -> tuple:
    """m * 2**e rounded to nearest at ``prec`` bits, ties to even."""
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    # q keeps one bit below the last kept one: the half bit
    q = m >> (n - 1)
    if q & 1 and (q & 2 or m & ((1 << (n - 1)) - 1)):
        return (q >> 1) + 1, e + n
    return q >> 1, e + n


def _trunc(m: int, e: int, prec: int) -> tuple:
    """m * 2**e rounded toward zero at ``prec`` bits."""
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    if m >= 0:
        return m >> n, e + n
    return -(-m >> n), e + n


def _far(ms: int, es: int, mt: int, et: int, prec: int) -> tuple:
    """s + t, unrounded, for s with leading bit more than prec+4 bits above
    t's: ``mpf_add``'s perturbed s, s with one unit of t's sign prec+4
    bits below its last bit.  A wider s than ``prec`` bits is perturbed
    only where mpmath does, when the exponents differ by more than 100
    with trailing zeros stripped, and is summed exactly otherwise.  For
    a narrower s any perturbation that far down rounds, in either mode,
    as the exact sum does."""
    if ms.bit_length() > prec:
        zs = _tz(ms)
        if es + zs - et - _tz(mt) <= 100:
            if es >= et:
                return (ms << (es - et)) + mt, et
            return ms + (mt << (et - es)), es
        ms >>= zs
        es += zs
    k = prec + 4
    return (ms << k) + (1 if mt > 0 else -1), es - k


def _add(ma: int, ea: int, mb: int, eb: int, prec: int) -> tuple:
    """a + b before ``mpf_add`` rounds it at ``prec``: exact, or perturbed
    by ``_far`` when the operands lie far apart."""
    if not mb:
        return ma, ea
    if not ma:
        return mb, eb
    d = ea - eb
    delta = d + ma.bit_length() - mb.bit_length()
    if delta > prec + 4:
        return _far(ma, ea, mb, eb, prec)
    if delta < -4 - prec:
        return _far(mb, eb, ma, ea, prec)
    if d >= 0:
        return (ma << d) + mb, eb
    return ma + (mb << -d), ea


def _sum(ma: int, ea: int, mb: int, eb: int, prec: int) -> tuple:
    """``mpf_add(a, b, prec, nearest)``: ``_add``, then ``_round``, in
    one call, since every sum and complex product runs through it; a
    narrow operand far above the other is the rounded sum itself."""
    if ma and mb:
        d = ea - eb
        la = ma.bit_length()
        lb = mb.bit_length()
        delta = d + la - lb
        if delta > prec + 4:
            # a narrow a is the rounded sum itself
            if la <= prec:
                return ma, ea
            ma, ea = _far(ma, ea, mb, eb, prec)
        elif delta < -4 - prec:
            if lb <= prec:
                return mb, eb
            ma, ea = _far(mb, eb, ma, ea, prec)
        elif d >= 0:
            ma = (ma << d) + mb
            ea = eb
        else:
            ma += mb << -d
    elif not ma:
        ma, ea = mb, eb
    n = ma.bit_length() - prec
    if n <= 0:
        return ma, ea
    q = ma >> (n - 1)
    if q & 1 and (q & 2 or ma & ((1 << (n - 1)) - 1)):
        return (q >> 1) + 1, ea + n
    return q >> 1, ea + n


def _div(ma: int, ea: int, mb: int, eb: int, prec: int) -> tuple:
    """``mpf_div(a, b, prec, nearest)``: the quotient rounded once, from
    at least prec+3 quotient bits and a sticky bit for the remainder."""
    if not mb:
        raise ZeroDivisionError
    if not ma:
        return 0, 0
    neg = (ma < 0) != (mb < 0)
    if ma < 0:
        ma = -ma
    if mb < 0:
        mb = -mb
    k = prec + 3 + mb.bit_length() - ma.bit_length()
    if k < 0:
        k = 0
    q, r = divmod(ma << k, mb)
    if r:
        q |= 1
    m, e = _round(q, ea - eb - k, prec)
    return (-m if neg else m), e


def _sqrt(m: int, e: int, prec: int) -> tuple:
    """The square root of m * 2**e > 0 rounded to nearest, as
    ``mpf_sqrt`` rounds it: an integer root of at least prec+2 bits and
    a sticky bit for its remainder."""
    if e & 1:
        m <<= 1
        e -= 1
    k = max(0, 2 * prec + 4 - m.bit_length())
    k += k & 1
    x = m << k
    s = math.isqrt(x)
    if s * s != x:
        s = (s << 1) | 1
        k += 2
    return _round(s, (e - k) >> 1, prec)


def _cdiv(a, ea, b, eb, c, ec, d, ed, prec) -> tuple:
    """``mpc_div``: (a + ib) / (c + id) as two (m, e) pairs."""
    wp = prec + 10
    mm, me = _trunc(*_add(c * c, ec + ec, d * d, ed + ed, wp), wp)
    tm, te = _trunc(*_add(a * c, ea + ec, b * d, eb + ed, wp), wp)
    um, ue = _trunc(*_add(b * c, eb + ec, -(a * d), ea + ed, wp), wp)
    return _div(tm, te, mm, me, prec), _div(um, ue, mm, me, prec)


def _rdiv(p, ep, a, ea, b, eb, prec) -> tuple:
    """``mpc_mpf_div``: the real p / (a + ib) as two (m, e) pairs."""
    wp = prec + 10
    mm, me = _trunc(*_add(a * a, ea + ea, b * b, eb + eb, wp), wp)
    return _div(a * p, ea + ep, mm, me, prec), _div(-(b * p), eb + ep, mm, me, prec)


def _cmp(ma: int, ea: int, mb: int, eb: int) -> int:
    """The sign of a - b, exactly: -1, 0 or 1."""
    if not mb:
        return (ma > 0) - (ma < 0)
    if not ma:
        return (mb < 0) - (mb > 0)
    if (ma < 0) != (mb < 0):
        return 1 if ma > 0 else -1
    # same sign: the higher leading bit is the larger magnitude
    ta = ea + ma.bit_length()
    tb = eb + mb.bit_length()
    if ta != tb:
        return 1 if (ta > tb) == (ma > 0) else -1
    d = ea - eb
    x = (ma << d) - mb if d >= 0 else ma - (mb << -d)
    return (x > 0) - (x < 0)


def _eq(ma: int, ea: int, mb: int, eb: int) -> bool:
    if not ma or not mb:
        return ma == mb
    if ea + ma.bit_length() != eb + mb.bit_length():
        return False
    d = ea - eb
    return (ma << d) == mb if d >= 0 else ma == (mb << -d)


def _mpf_tuple(m: int, e: int) -> tuple:
    """mpmath's canonical (sign, man, exp, bc) of m * 2**e: man odd, or
    ``fzero``."""
    if not m:
        return _FZERO
    sign = 0
    if m < 0:
        sign = 1
        m = -m
    z = _tz(m)
    if z:
        m >>= z
        e += z
    return (sign, m, e, m.bit_length())


def _finite(t: tuple) -> bool:
    """Whether an mpmath tuple is finite: only inf and nan have a zero
    mantissa and a nonzero exponent."""
    return bool(t[1]) or not t[2]


def _parts(t: tuple) -> tuple:
    """(m, e) of a finite mpmath tuple; a non-finite one is a ValueError."""
    if not _finite(t):
        raise ValueError("a non-finite value has no mantissa and exponent")
    sign, man, exp, _ = t
    return (-man if sign else man), exp


def _float(m: int, e: int) -> float:
    """``to_float`` at nearest: 53 bits, then ``math.ldexp``; an
    overflow is an infinity."""
    m, e = _round(m, e, 53)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.inf if m > 0 else -math.inf


class Scalars:
    """The scalar classes of one kernel, ``Real`` and ``Complex``, which
    round at the precision of ``ctx``, the kernel's private mpmath
    context, and the kernel members that build and measure them.

    What stays on mpmath runs on ``ctx``; ``set_prec`` changes the
    precision of both.  The operations read the precision when they
    run, so a value built at one precision and used at another rounds
    at the latter, as mpmath's do."""

    def __init__(self, ctx):
        prec = ctx.prec
        mpf_type, mpc_type = ctx.mpf, ctx.mpc
        make_mpf, make_mpc = ctx.make_mpf, ctx.make_mpc

        def set_prec(bits: int) -> None:
            nonlocal prec
            ctx.prec = bits
            prec = ctx.prec

        def real(me):
            """The real of an (m, e) pair."""
            r = _new(Real)
            r.m, r.e = me
            return r

        def cplx(re, im):
            """The complex of two (m, e) pairs."""
            z = _new(Complex)
            z.x, z.xe = re
            z.y, z.ye = im
            return z

        def wrap(v):
            """An mpmath result as a scalar of these classes; a non-finite
            value, or anything else, as it stands."""
            tv = type(v)
            if tv is mpf_type:
                if _finite(v._mpf_):
                    return real(_parts(v._mpf_))
            elif tv is mpc_type:
                re, im = v._mpc_
                if _finite(re) and _finite(im):
                    return cplx(_parts(re), _parts(im))
            return v

        class Real:
            """A real m * 2**e; see the module docstring."""

            __slots__ = ("m", "e")

            @property
            def _mpf_(s):
                return _mpf_tuple(s.m, s.e)

            def _mp(s):
                return make_mpf(_mpf_tuple(s.m, s.e))

            @property
            def real(s):
                return s

            @property
            def imag(s):
                return real((0, 0))

            def conjugate(s):
                return s

            def __add__(s, t):
                tt = type(t)
                if tt is Real:
                    return real(_sum(s.m, s.e, t.m, t.e, prec))
                if tt is int:
                    return real(_sum(s.m, s.e, t, 0, prec))
                if tt is Complex:
                    return cplx(_sum(t.x, t.xe, s.m, s.e, prec), (t.y, t.ye))
                return wrap(s._mp() + t)

            __radd__ = __add__

            def __sub__(s, t):
                tt = type(t)
                if tt is Real:
                    return real(_sum(s.m, s.e, -t.m, t.e, prec))
                if tt is int:
                    return real(_sum(s.m, s.e, -t, 0, prec))
                if tt is Complex:
                    return cplx(_sum(s.m, s.e, -t.x, t.xe, prec), _round(-t.y, t.ye, prec))
                return wrap(s._mp() - t)

            def __rsub__(s, t):
                if type(t) is int:
                    return real(_sum(t, 0, -s.m, s.e, prec))
                return wrap(t - s._mp())

            def __mul__(s, t):
                tt = type(t)
                if tt is Real:
                    return real(_round(s.m * t.m, s.e + t.e, prec))
                if tt is int:
                    return real(_round(s.m * t, s.e, prec))
                if tt is Complex:
                    m, e = s.m, s.e
                    return cplx(_round(t.x * m, t.xe + e, prec), _round(t.y * m, t.ye + e, prec))
                return wrap(s._mp() * t)

            __rmul__ = __mul__

            def __truediv__(s, t):
                tt = type(t)
                if tt is Real:
                    return real(_div(s.m, s.e, t.m, t.e, prec))
                if tt is int:
                    return real(_div(s.m, s.e, t, 0, prec))
                if tt is Complex:
                    return cplx(*_rdiv(s.m, s.e, t.x, t.xe, t.y, t.ye, prec))
                return wrap(s._mp() / t)

            def __rtruediv__(s, t):
                if type(t) is int:
                    return real(_div(t, 0, s.m, s.e, prec))
                return wrap(t / s._mp())

            def __pow__(s, t):
                m = s.m
                if type(t) is int and m > 0 and not m & (m - 1):
                    # 2**k to an int power: 2**(k*t), as mpf_pow_int gives it
                    return real((1, (s.e + m.bit_length() - 1) * t))
                return wrap(s._mp() ** t)

            def __rpow__(s, t):
                return wrap(t ** s._mp())

            def __neg__(s):
                return real(_round(-s.m, s.e, prec))

            def __abs__(s):
                return real(_round(abs(s.m), s.e, prec))

            def __bool__(s):
                return s.m != 0

            def __eq__(s, t):
                tt = type(t)
                if tt is Real:
                    return _eq(s.m, s.e, t.m, t.e)
                if tt is int:
                    return _eq(s.m, s.e, t, 0)
                if tt is Complex:
                    return not t.y and _eq(s.m, s.e, t.x, t.xe)
                return s._mp() == t

            def _sign_minus(s, t):
                """sign(s - t) for a real or int t; None for another type."""
                tt = type(t)
                if tt is Real:
                    return _cmp(s.m, s.e, t.m, t.e)
                if tt is int:
                    return _cmp(s.m, s.e, t, 0)
                return None

            def __lt__(s, t):
                c = s._sign_minus(t)
                return s._mp() < t if c is None else c < 0

            def __le__(s, t):
                c = s._sign_minus(t)
                return s._mp() <= t if c is None else c <= 0

            def __gt__(s, t):
                c = s._sign_minus(t)
                return s._mp() > t if c is None else c > 0

            def __ge__(s, t):
                c = s._sign_minus(t)
                return s._mp() >= t if c is None else c >= 0

            def __float__(s):
                return _float(s.m, s.e)

            def __complex__(s):
                return complex(s._mp())

            def __hash__(s):
                return libmp.mpf_hash(_mpf_tuple(s.m, s.e))

            def __str__(s):
                return str(s._mp())

            def __repr__(s):
                return repr(s._mp())

        class Complex:
            """A complex x * 2**xe + i y * 2**ye; see the module docstring."""

            __slots__ = ("x", "xe", "y", "ye")

            def _get_mpc(s):
                return _mpf_tuple(s.x, s.xe), _mpf_tuple(s.y, s.ye)

            def _set_mpc(s, parts):
                # mpmath's own operators fill a new complex of the right
                # operand's type through this
                (s.x, s.xe), (s.y, s.ye) = _parts(parts[0]), _parts(parts[1])

            _mpc_ = property(_get_mpc, _set_mpc)

            def _mp(s):
                return make_mpc(s._get_mpc())

            @property
            def real(s):
                return real((s.x, s.xe))

            @property
            def imag(s):
                return real((s.y, s.ye))

            def conjugate(s):
                return cplx((s.x, s.xe), _round(-s.y, s.ye, prec))

            def __add__(s, t):
                tt = type(t)
                if tt is Complex:
                    return cplx(_sum(s.x, s.xe, t.x, t.xe, prec), _sum(s.y, s.ye, t.y, t.ye, prec))
                if tt is Real:
                    return cplx(_sum(s.x, s.xe, t.m, t.e, prec), (s.y, s.ye))
                if tt is int:
                    return cplx(_sum(s.x, s.xe, t, 0, prec), (s.y, s.ye))
                return wrap(s._mp() + t)

            __radd__ = __add__

            def __sub__(s, t):
                tt = type(t)
                if tt is Complex:
                    return cplx(_sum(s.x, s.xe, -t.x, t.xe, prec), _sum(s.y, s.ye, -t.y, t.ye, prec))
                if tt is Real:
                    return cplx(_sum(s.x, s.xe, -t.m, t.e, prec), (s.y, s.ye))
                if tt is int:
                    return cplx(_sum(s.x, s.xe, -t, 0, prec), (s.y, s.ye))
                return wrap(s._mp() - t)

            def __rsub__(s, t):
                if type(t) is int:
                    return cplx(_sum(t, 0, -s.x, s.xe, prec), _round(-s.y, s.ye, prec))
                return wrap(t - s._mp())

            def __mul__(s, t):
                tt = type(t)
                if tt is Complex:
                    a, ea, b, eb = s.x, s.xe, s.y, s.ye
                    c, ec, d, ed = t.x, t.xe, t.y, t.ye
                    return cplx(_sum(a * c, ea + ec, -(b * d), eb + ed, prec),
                                _sum(a * d, ea + ed, b * c, eb + ec, prec))
                if tt is Real:
                    m, e = t.m, t.e
                elif tt is int:
                    m, e = t, 0
                else:
                    return wrap(s._mp() * t)
                return cplx(_round(s.x * m, s.xe + e, prec), _round(s.y * m, s.ye + e, prec))

            __rmul__ = __mul__

            def __truediv__(s, t):
                tt = type(t)
                if tt is Complex:
                    return cplx(*_cdiv(s.x, s.xe, s.y, s.ye, t.x, t.xe, t.y, t.ye, prec))
                if tt is Real:
                    m, e = t.m, t.e
                elif tt is int:
                    m, e = t, 0
                else:
                    return wrap(s._mp() / t)
                return cplx(_div(s.x, s.xe, m, e, prec), _div(s.y, s.ye, m, e, prec))

            def __rtruediv__(s, t):
                if type(t) is int:
                    return cplx(*_rdiv(t, 0, s.x, s.xe, s.y, s.ye, prec))
                return wrap(t / s._mp())

            def __pow__(s, t):
                return wrap(s._mp() ** t)

            def __rpow__(s, t):
                return wrap(t ** s._mp())

            def __neg__(s):
                return cplx(_round(-s.x, s.xe, prec), _round(-s.y, s.ye, prec))

            def __abs__(s):
                # mpf_hypot in one frame: the exact squares summed as _add
                # sums them at prec+4, truncated there, an integer root of
                # at least 2*prec+4 bits with a sticky bit, one rounding
                a, b = s.x, s.y
                if not b:
                    return real(_round(abs(a), s.xe, prec))
                if not a:
                    return real(_round(abs(b), s.ye, prec))
                wp = prec + 4
                a *= a
                b *= b
                ea = s.xe + s.xe
                eb = s.ye + s.ye
                d = ea - eb
                delta = d + a.bit_length() - b.bit_length()
                if delta > wp + 4:
                    m, e = _far(a, ea, b, eb, wp)
                elif delta < -4 - wp:
                    m, e = _far(b, eb, a, ea, wp)
                elif d >= 0:
                    m, e = (a << d) + b, eb
                else:
                    m, e = a + (b << -d), ea
                n = m.bit_length() - wp
                if n > 0:
                    m >>= n
                    e += n
                if e & 1:
                    m <<= 1
                    e -= 1
                k = 2 * prec + 4 - m.bit_length()
                if k > 0:
                    k += k & 1
                    m <<= k
                else:
                    k = 0
                r = _isqrt(m)
                if r * r != m:
                    r = (r << 1) | 1
                    k += 2
                e = (e - k) >> 1
                # r has at least prec+2 bits: q keeps the half bit
                n = r.bit_length() - prec
                q = r >> (n - 1)
                z = _new(Real)
                if q & 1 and (q & 2 or r & ((1 << (n - 1)) - 1)):
                    z.m = (q >> 1) + 1
                else:
                    z.m = q >> 1
                z.e = e + n
                return z

            def __bool__(s):
                return s.x != 0 or s.y != 0

            def __eq__(s, t):
                tt = type(t)
                if tt is Complex:
                    return _eq(s.x, s.xe, t.x, t.xe) and _eq(s.y, s.ye, t.y, t.ye)
                if tt is Real:
                    return not s.y and _eq(s.x, s.xe, t.m, t.e)
                if tt is int:
                    return not s.y and _eq(s.x, s.xe, t, 0)
                return s._mp() == t

            def __complex__(s):
                return complex(s._mp())

            def __hash__(s):
                return hash(s._mp())

            def __str__(s):
                return str(s._mp())

            def __repr__(s):
                return repr(s._mp())

        def exact(x):
            """(m, e) of a finite float, an int or a real of these classes,
            unrounded; None for any other value."""
            tx = type(x)
            if tx is float:
                if _isfinite(x):
                    n, d = x.as_integer_ratio()
                    return n, 1 - d.bit_length()
            elif tx is int:
                return x, 0
            elif tx is Real:
                return x.m, x.e
            return None

        def to_real(x):
            """``ctx.mpf(x)``: x rounded at the precision; a Fraction is
            its numerator divided by its denominator, each rounded
            first, as the kernel has always converted one."""
            me = exact(x)
            if me is not None:
                return real(_round(*me, prec))
            if getattr(x, "denominator", None) is not None:
                return to_real(x.numerator) / to_real(x.denominator)
            return wrap(mpf_type(x))

        def to_complex(re, im=0):
            """``ctx.mpc(to_real(re), to_real(im))``: a complex of two
            finite floats, ints or reals of these classes is built from
            their (m, e) pairs, each rounded once, as ``to_real`` rounds
            it; any other part takes the route through ``to_real``."""
            if type(re) is float and type(im) is float and _isfinite(re) and _isfinite(im):
                # the random draws' pair first, exact() inlined
                n, d = re.as_integer_ratio()
                u, v = im.as_integer_ratio()
                z = _new(Complex)
                z.x, z.xe = _round(n, 1 - d.bit_length(), prec)
                z.y, z.ye = _round(u, 1 - v.bit_length(), prec)
                return z
            x, y = exact(re), exact(im)
            if x is not None and y is not None:
                return cplx(_round(*x, prec), _round(*y, prec))
            x, y = to_real(re), to_real(im)
            if type(x) is Real and type(y) is Real:
                return cplx((x.m, x.e), (y.m, y.e))
            return mpc_type(x, y)

        def abs2(z):
            """|z|^2 as re^2 + im^2: exact squares, one rounding, no
            square root."""
            tz = type(z)
            if tz is Complex:
                x, y = z.x, z.y
                return real(_sum(x * x, z.xe + z.xe, y * y, z.ye + z.ye, prec))
            if tz is Real or not hasattr(z, "_mpc_"):
                return z * z
            re, im = z._mpc_
            return wrap(make_mpf(libmp.mpf_add(
                libmp.mpf_mul(re, re), libmp.mpf_mul(im, im), prec, libmp.round_nearest)))

        def abs_bound(z):
            """|re| + |im|, rounded once: abs(z) without its square root."""
            tz = type(z)
            if tz is Complex:
                return real(_sum(abs(z.x), z.xe, abs(z.y), z.ye, prec))
            if tz is Real or not hasattr(z, "_mpc_"):
                return abs(z)
            re, im = z._mpc_
            return wrap(make_mpf(libmp.mpf_add(
                libmp.mpf_abs(re), libmp.mpf_abs(im), prec, libmp.round_nearest)))

        def isfinite(z):
            return type(z) in own or ctx.isfinite(z)

        def on_mpmath(func):
            """``func``, a function of ``ctx``, on these scalars as the
            context's own mpmath values, with its result as a scalar of
            these classes where it is finite."""
            def call(*args):
                return wrap(func(*[a._mp() if type(a) in own else a for a in args]))
            return call

        mp_sqrt, mp_power = on_mpmath(ctx.sqrt), on_mpmath(ctx.power)

        def sqrt(x):
            """``ctx.sqrt(x)``: a positive real by ``_sqrt``, which rounds
            as ``mpf_sqrt`` does."""
            if type(x) is Real and x.m > 0:
                return real(_sqrt(x.m, x.e, prec))
            return mp_sqrt(x)

        def pow_positive(base, expo):
            """``ctx.power(base, expo)``: 2**k raised to an integral real
            n is 2**(k*n), exactly, as ``mpf_pow_int`` gives it for a
            mantissa of one; any other operands go to mpmath."""
            if type(base) is Real and type(expo) is Real:
                m, n, e = base.m, expo.m, expo.e
                if m > 0 and not m & (m - 1) and (e >= 0 or not n or _tz(n) >= -e):
                    n = n << e if e >= 0 else n >> -e
                    return real((1, (base.e + m.bit_length() - 1) * n))
            return mp_power(base, expo)

        own = (Real, Complex)
        self.set_prec, self.on_mpmath = set_prec, on_mpmath
        self.real, self.complex = to_real, to_complex
        self.abs2, self.abs_bound, self.isfinite = abs2, abs_bound, isfinite
        self.sqrt, self.pow_positive = sqrt, pow_positive
