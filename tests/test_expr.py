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
    """The parsed coefficient's value at t, inside the precision's context."""
    with precision.workprec():
        return ExprCoefficient(parse(text)).value(t, precision.kernel)


def _eval_float(text, t, precision=BIG):
    value = _value(text, t, precision)
    k = precision.kernel
    with precision.workprec():
        return float(k.to_mpf(value))


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
