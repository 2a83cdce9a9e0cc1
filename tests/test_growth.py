from fractions import Fraction

from weyldisc import asymptotic_class
from weyldisc.expr import parse_coefficient_expr as parse
from weyldisc.growth import (
    GrowthOrder,
    class_div,
    class_mul,
    class_sub,
    closure_contains,
    eventual_sign,
    nabla_class,
    order_cmp,
    order_of,
    poly_of,
    ratio_bounded,
    recip_sum_diverges,
    shift_poly,
)

F = Fraction


def cls(text):
    return asymptotic_class(parse(text))


def test_single_geometric_term():
    got = cls("4^t")
    assert got.terms == ((F(1), F(4), 0),)
    assert not got.sqrt_wrapped


def test_sum_of_geometric_terms():
    got = cls("2^t + 2^(-t)")
    assert set(got.terms) == {(F(1), F(2), 0), (F(1), F(1, 2), 0)}
    assert got.dominant == (F(1), F(2), 0)


def test_sqrt_wrapped_dominant():
    got = cls("sqrt(4^(2*t) + 4^t)")
    assert got.sqrt_wrapped
    assert got.dominant == (F(1), F(16), 0)


def test_affine_exponent_normalizes():
    assert cls("4^(t + 1)").terms == ((F(4), F(4), 0),)
    assert cls("2^(3*t - 1)").terms == ((F(1, 2), F(8), 0),)


def test_polynomial_times_geometric():
    got = cls("t^2 * 3^t - 5*t")
    assert set(got.terms) == {(F(1), F(3), 2), (F(-5), F(1), 1)}


def test_division_by_single_term():
    got = cls("(4^t + 2^t) / 2^t")
    assert set(got.terms) == {(F(1), F(2), 0), (F(1), F(1), 0)}


def test_unrecognized_forms():
    assert cls("t^t") is None
    assert cls("1/(1 + 2^t)") is None
    assert cls("sqrt(t) + 1") is None  # sqrt only at the top level
    assert cls("2^(t^2)") is None


def test_zero_normal_forms():
    assert cls("0").is_zero
    assert cls("2^t - 2^t").is_zero
    assert cls("0 * t").is_zero


def test_shift_and_nabla():
    poly = poly_of(parse("4^t + t^2"))
    shifted = shift_poly(poly)
    # f(t-1) = 4^t/4 + t^2 - 2t + 1
    assert shifted == {(F(4), 0): F(1, 4), (F(1), 2): F(1), (F(1), 1): F(-2), (F(1), 0): F(1)}
    grad = nabla_class(cls("4^t + t^2")).poly()
    assert grad == {(F(4), 0): F(3, 4), (F(1), 1): F(2), (F(1), 0): F(-1)}


def test_eventual_sign():
    sign, idx = eventual_sign(cls("4^t - 1000*t^3"), 0)
    assert sign == 1
    # the certified index really is past the last sign change
    poly = poly_of(parse("4^t - 1000*t^3"))
    from weyldisc.growth import exact_value
    assert exact_value(poly, idx) > 0
    assert eventual_sign(cls("t - 4^t"), 0)[0] == -1


def test_closure_membership_growing():
    # range of 4^t from t=-1: {1/4, 1, 4, 16, ...}
    got = cls("4^t")
    assert closure_contains(got, F(4), -1) is True
    assert closure_contains(got, F(1, 4), -1) is True
    assert closure_contains(got, F(3), -1) is False
    assert closure_contains(got, F(0), -1) is False  # 0 is not a limit


def test_closure_membership_decaying():
    got = cls("1 + 2^(-t)")
    assert closure_contains(got, F(1), 0) is True  # accumulation point
    assert closure_contains(got, F(2), 0) is True  # attained at t=0
    assert closure_contains(got, F(9, 8), 0) is True  # attained at t=3
    assert closure_contains(got, F(99, 100), 0) is False


def test_closure_membership_sqrt():
    got = cls("sqrt(4^(2*t))")
    assert closure_contains(got, F(4), 0) is True   # sqrt(16) at t=1
    assert closure_contains(got, F(-4), 0) is False  # sqrt is nonnegative


def test_ratio_bounded_decisions():
    p = order_of(cls("4^t"))
    c = order_of(cls("2^t * t^3"))
    assert ratio_bounded(c, p) is True
    assert ratio_bounded(p, c) is False
    same = order_of(cls("4^t * t"))
    assert ratio_bounded(same, p) is False  # extra t factor
    assert ratio_bounded(None, p) is True  # zero numerator


def test_ratio_bounded_with_sqrt_orders():
    half = order_of(cls("sqrt(4^(2*t) + 4^t)"))  # effective base 4
    four = order_of(cls("4^t"))
    assert order_cmp(half, four) == 0
    assert ratio_bounded(half, four) is True
    one = order_of(cls("1"))
    assert ratio_bounded(half, one) is False


def test_recip_sum_divergence_table():
    assert recip_sum_diverges(order_of(cls("1"))) is True        # sum 1
    assert recip_sum_diverges(order_of(cls("t"))) is True        # harmonic
    assert recip_sum_diverges(order_of(cls("t^2"))) is False
    assert recip_sum_diverges(order_of(cls("4^t"))) is False     # geometric
    assert recip_sum_diverges(order_of(cls("2^(-t)"))) is True   # terms blow up
    assert recip_sum_diverges(order_of(cls("sqrt(t)"))) is True  # power 1/2
    # sqrt(t^3): power 3/2 converges
    assert recip_sum_diverges(order_of(cls("sqrt(t^2 * t)"))) is False


def test_order_comparison_with_radical_bases():
    # sqrt(2)^t vs 3^(t/2)-ish orders must compare exactly
    a = GrowthOrder(((F(2), F(1, 2)),), F(0))
    b = GrowthOrder(((F(3), F(1, 2)),), F(0))
    assert order_cmp(a, b) == -1
    assert order_cmp(b, a) == 1
    c = GrowthOrder(((F(4), F(1, 2)),), F(0))
    d = GrowthOrder(((F(2), F(1)),), F(0))
    assert order_cmp(c, d) == 0


def test_negative_and_large_integer_powers():
    # a negative power inverts only a single t-free term
    assert cls("(t + 1)^(-1)") is None
    assert cls("t^(-1)") is None
    assert cls("(2^t)^(-2)").terms == ((F(1), F(1, 4), 0),)
    # integer powers stop at 64
    assert cls("t^64").terms == ((F(1), F(1), 64),)
    assert cls("t^65") is None
    assert cls("2^(-70)") is None


def test_unrecognized_operands_and_exponents():
    assert cls("t^t + 1") is None
    assert cls("2 * t^t") is None
    assert cls("t^t / 2") is None
    assert cls("(t^t)^2") is None
    assert cls("1 / (t - t)") is None  # zero divisor
    assert cls("2^(t/2)") is None  # non-integer exponent slope
    assert cls("0 / t").is_zero
    assert cls("t / t^2") is None  # negative t-power


def test_sqrt_of_unrecognized_or_eventually_negative():
    assert cls("sqrt(t^t)") is None
    assert cls("sqrt(1 - 4^t)") is None
    assert cls("sqrt(0)").is_zero and not cls("sqrt(0)").sqrt_wrapped


def test_eventual_sign_of_zero_and_sqrt_classes():
    assert eventual_sign(cls("2^t - 2^t"), 3) == (0, 3)
    assert eventual_sign(cls("0"), -2) == (0, 1)
    # sqrt(4^t - 100): positive from the radicand's domination index on
    assert eventual_sign(cls("sqrt(4^t - 100)"), 0) == (1, 4)
    assert eventual_sign(cls("4^t - 100"), 0) == (1, 4)


def test_ratio_over_a_zero_denominator_is_undecided():
    assert ratio_bounded(order_of(cls("1")), order_of(cls("0"))) is None
    assert ratio_bounded(order_of(cls("0")), order_of(cls("0"))) is True


def test_class_arithmetic():
    root = cls("sqrt(t + 1)")
    # a zero class gives zero, a sqrt class times itself its radicand
    assert class_mul(root, root) == cls("t + 1")
    assert class_mul(root, cls("0")).is_zero
    assert class_mul(root, cls("sqrt(t + 2)")) is None
    assert class_mul(root, cls("t")) is None
    assert class_mul(cls("2^t"), cls("t + 1")) == cls("t*2^t + 2^t")
    assert class_sub(root, cls("0")) == root
    assert class_sub(root, cls("1")) is None
    assert class_sub(cls("4^t"), cls("4^t")).is_zero
    assert class_sub(cls("0"), cls("t")) == cls("0 - t")
    assert class_div(cls("0"), root).is_zero
    assert class_div(cls("4^t + t*2^t"), cls("2^t")) == cls("2^t + t")
    assert class_div(cls("1"), cls("t")) is None
    assert class_div(cls("1"), cls("t + 1")) is None
    assert class_div(root, cls("2")) is None
    for op in (class_mul, class_sub, class_div):
        assert op(None, cls("1")) is None and op(cls("1"), None) is None
