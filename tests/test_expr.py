import math
import random
from fractions import Fraction

import pytest

from weyldisc import ExprCoefficient, ExprSyntaxError, PrecisionConfig
from weyldisc.errors import EvaluationError, NativeOverflowError
from weyldisc.expr import (
    Add,
    Div,
    Mul,
    Neg,
    Num,
    Pow,
    Sqrt,
    Sub,
    Var,
    parse_coefficient_expr as parse,
    real_power,
    real_sqrt,
    to_text,
)

BIG = PrecisionConfig()
NATIVE = PrecisionConfig(mode="native-float")


def test_power_of_t_shape():
    assert parse("4^t") == Pow(Num(Fraction(4)), Var())


def test_sum_of_powers_shape():
    assert parse("2^t + 2^(-t)") == Add(
        Pow(Num(Fraction(2)), Var()), Pow(Num(Fraction(2)), Neg(Var()))
    )


def test_sqrt_of_sum_shape():
    node = parse("sqrt(4^(2*t) + 4^t)")
    assert node == Sqrt(
        Add(Pow(Num(Fraction(4)), Mul(Num(Fraction(2)), Var())),
            Pow(Num(Fraction(4)), Var()))
    )


def test_unary_minus_binds_below_power():
    assert parse("-4^t") == Neg(Pow(Num(Fraction(4)), Var()))


def test_power_right_associative():
    assert parse("2^3^2") == Pow(Num(Fraction(2)), Pow(Num(Fraction(3)), Num(Fraction(2))))


def test_power_binds_tighter_than_mul():
    assert parse("4^2*t") == Mul(Pow(Num(Fraction(4)), Num(Fraction(2))), Var())


def test_decimal_literals_are_exact():
    assert parse("0.125") == Num(Fraction(1, 8))


def test_precedence_of_sub_and_div():
    assert parse("1 - 6/2") == Sub(Num(Fraction(1)), Div(Num(Fraction(6)), Num(Fraction(2))))


@pytest.mark.parametrize("text, offset_check", [
    ("", 0),
    ("4 +", 3),
    ("(1", 2),
    ("4 $ 2", 2),
    ("x + 1", 0),
    ("sqrt 4", 5),
    ("1 2", 2),
    (".5", 0),
])
def test_syntax_errors_carry_offsets(text, offset_check):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert err.value.offset == offset_check


def test_unknown_identifier_message():
    with pytest.raises(ExprSyntaxError, match="unknown identifier 'u'"):
        parse("u + 1")


def _value(text, t, precision=BIG):
    """The parsed coefficient's value at t on the precision's kernel."""
    return ExprCoefficient(parse(text)).value(t, precision.kernel)


def _eval_float(text, t, precision=BIG):
    return float(_value(text, t, precision))


def test_eval_integer_power():
    assert _eval_float("4^t", 3) == 64.0


def test_eval_symmetric_at_zero():
    assert _eval_float("2^t + 2^(-t)", 0) == 2.0


def test_eval_sqrt_example():
    assert _eval_float("sqrt(4^(2*t) + 4^t)", 1) == pytest.approx(math.sqrt(20), rel=1e-15)


def test_eval_negative_base_integer_exponent():
    assert _eval_float("(0 - 4)^t", 3) == -64.0
    assert _eval_float("(0 - 4)^t", 2) == 16.0


def test_eval_negative_t():
    assert _eval_float("4^t", -2) == 0.0625


def test_sqrt_of_negative_rejected():
    with pytest.raises(EvaluationError, match="negative"):
        _value("sqrt(0 - t)", 3, BIG)


def test_division_by_zero_rejected():
    with pytest.raises(EvaluationError, match="division by zero"):
        _value("1 / (t - 2)", 2, BIG)


def test_negative_base_fractional_power_rejected():
    with pytest.raises(EvaluationError):
        _value("(0 - 2)^0.5", 1, BIG)


def test_native_overflow_is_an_error_not_inf():
    with pytest.raises(NativeOverflowError):
        _value("4^t", 600, NATIVE)
    # comfortably representable values still work
    assert _eval_float("4^t", 3, NATIVE) == 64.0


def _random_ast(rng: random.Random, depth: int):
    if depth <= 0:
        return rng.choice([
            Num(Fraction(rng.randint(0, 9))),
            Num(Fraction(rng.randint(1, 999), 10 ** rng.randint(0, 3))),
            Var(),
        ])
    kind = rng.randrange(7)
    if kind == 0:
        return Add(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 1:
        return Sub(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 2:
        return Mul(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 3:
        return Div(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 4:
        return Pow(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 5:
        return Neg(_random_ast(rng, depth - 1))
    return Sqrt(_random_ast(rng, depth - 1))


def test_print_parse_round_trip_random():
    rng = random.Random(20260809)
    for _ in range(300):
        node = _random_ast(rng, rng.randint(1, 4))
        assert parse(to_text(node)) == node


@pytest.mark.parametrize("text", [
    "4^t", "2^t + 2^(-t)", "sqrt(4^(2*t) + 4^t)", "-(4^t)", "-4^t",
    "1 - 2*t/3 + t^2", "t^t^2", "1/(t + 1)/2", "2 * -t",
])
def test_round_trip_on_corpus(text):
    node = parse(text)
    assert parse(to_text(node)) == node


def _named(node, t, op, *args):
    """op(*args), an EvaluationError naming the node and t like a division."""
    try:
        return op(*args)
    except EvaluationError as err:
        raise type(err)(f"{err} in {to_text(node)} at t={t}") from None


def _tree_walk(node, t, kernel):
    """The one-point recursive evaluation that the window evaluator
    replaced, kept as the reference for its bits."""
    if isinstance(node, Num):
        return kernel.real(node.value)
    if isinstance(node, Var):
        return kernel.real(t)
    if isinstance(node, Neg):
        return -_tree_walk(node.arg, t, kernel)
    if isinstance(node, Sqrt):
        return _named(node, t, real_sqrt, kernel, _tree_walk(node.arg, t, kernel))
    if isinstance(node, Div):
        den = _tree_walk(node.right, t, kernel)
        if den == 0:
            raise EvaluationError(f"division by zero in {to_text(node)} at t={t}")
        return _tree_walk(node.left, t, kernel) / den
    if isinstance(node, Pow):
        return _named(
            node, t, real_power,
            kernel, _tree_walk(node.base, t, kernel), _tree_walk(node.exponent, t, kernel),
        )
    left, right = _tree_walk(node.left, t, kernel), _tree_walk(node.right, t, kernel)
    if isinstance(node, Add):
        return left + right
    return left - right if isinstance(node, Sub) else left * right


def _outcome(fn):
    """(True, the result) or (False, (error type, message))."""
    try:
        return True, fn()
    except Exception as err:  # every failure is compared, whatever its type
        return False, (type(err), str(err))


PRECISIONS = [BIG, PrecisionConfig(mantissa_bits=53), NATIVE]


@pytest.mark.parametrize("precision", PRECISIONS, ids=["mp256", "mp53", "native"])
def test_window_agrees_with_one_point_on_random_trees(precision):
    """On the round-trip corpus, a window evaluation has the bits of the
    one-point evaluations and of the replaced tree walk; where a point
    fails, the window fails with one of the points' errors."""
    rng = random.Random(20260809)
    k = precision.kernel
    ts = range(-2, 7)
    whole = 0
    for _ in range(300):
        node = _random_ast(rng, rng.randint(1, 4))
        coeff = ExprCoefficient(node)
        points = [_outcome(lambda: repr(coeff.value(t, k))) for t in ts]
        walked = [_outcome(lambda: repr(_tree_walk(node, t, k))) for t in ts]
        window = _outcome(lambda: list(map(repr, coeff.column(ts[0], ts[-1], k))))
        for point, walk in zip(points, walked):
            assert point == walk, to_text(node)
        if all(ok for ok, _ in points):
            assert window == (True, [value for _, value in points]), to_text(node)
            whole += 1
        else:
            assert not window[0], to_text(node)
            assert window[1] in [err for ok, err in points if not ok], to_text(node)
    assert whole >= 100


@pytest.mark.parametrize("text, first, last, precision, error, message, bad_t", [
    ("1/(t - 2)", 0, 5, BIG, EvaluationError, "division by zero in 1 / (t - 2) at t=2", 2),
    ("sqrt(0 - t + 3)", 0, 5, BIG, EvaluationError,
     "square root of negative value -1.0 in sqrt(0 - t + 3) at t=4", 4),
    ("sqrt(0 - t + 3)", 0, 5, NATIVE, EvaluationError,
     "square root of negative value -1.0 in sqrt(0 - t + 3) at t=4", 4),
    ("4^t", 0, 600, NATIVE, NativeOverflowError,
     "overflow at native-float precision: 4.0 ^ 512.0 in 4^t at t=512", 512),
    ("2^t * 2^t", 500, 520, NATIVE, NativeOverflowError,
     "value of 2^t * 2^t at t=512 is not finite at this precision", 512),
    # an infinite base is refused by the power too, so no later node can
    # turn it into a finite value
    ("(2^t * 2^t)^0.5", 500, 520, NATIVE, NativeOverflowError,
     "overflow at native-float precision: inf ^ 0.5 in (2^t * 2^t)^0.5 at t=512", 512),
    ("1 / (2^t * 2^t)^0.5", 500, 520, NATIVE, NativeOverflowError,
     "overflow at native-float precision: inf ^ 0.5 in (2^t * 2^t)^0.5 at t=512", 512),
    ("(0 - 2^t * 2^t)^1", 500, 520, NATIVE, NativeOverflowError,
     "overflow at native-float precision: inf ^ 1.0 in (0 - 2^t * 2^t)^1 at t=512", 512),
    # inf - inf is nan, which is neither positive nor negative
    ("(2^t * 2^t - 2^t * 2^t)^2", 500, 520, NATIVE, NativeOverflowError,
     "overflow at native-float precision: nan ^ 2.0 in (2^t * 2^t - 2^t * 2^t)^2 at t=512",
     512),
])
def test_window_error_is_the_one_point_error(text, first, last, precision, error,
                                             message, bad_t):
    """A window with a single failing node raises the type and message of
    the one-point evaluation at that node's first failing t."""
    coeff = ExprCoefficient(parse(text))
    k = precision.kernel
    with pytest.raises(error) as window:
        coeff.column(first, last, k)
    with pytest.raises(error) as point:
        coeff.value(bad_t, k)
    coeff.column(first, bad_t - 1, k)  # the points before it are fine
    assert str(window.value) == str(point.value) == message
    assert type(window.value) is type(point.value)
