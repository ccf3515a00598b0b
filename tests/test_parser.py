"""Expression grammar: worked inputs, error offsets, print/parse round-trips."""
import random

import pytest

from flataffine import UnknownVariableError
from flataffine.symcore import (
    ExprSyntaxError,
    ZeroDenominatorError,
    parse_expr,
)
from helpers import chart_xy, constant_value, random_rational_function


CH = chart_xy()


def test_cancellation_example():
    assert parse_expr("x*y^2/x", CH) == parse_expr("y^2", CH)


def test_paper_coefficient_example():
    f = parse_expr("(-x*y - y^3/x)", CH)
    assert str(f) == "(-x^2*y - y^3)/(x)"
    assert f == parse_expr("(-x^2*y - y^3)/x", CH)


def test_zero_denominator_example():
    with pytest.raises(ZeroDivisionError):
        parse_expr("1/(x - x)", CH)
    with pytest.raises(ZeroDenominatorError) as err:
        parse_expr("1/(x - x)", CH)
    assert err.value.offset == 1


def test_unknown_variable_names_offender():
    with pytest.raises(UnknownVariableError) as err:
        parse_expr("x + z", CH)
    assert err.value.variable == "z"


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x + ", CH)
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x $ y", CH)
    assert err.value.offset == 2


def test_implicit_multiplication_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("2x", CH)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x y", CH)


def test_exponent_must_be_literal():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x^-1", CH)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x^(2)", CH)


def test_unary_minus_binds_after_power():
    # '-' factor applies to the whole factor: -x^2 = -(x^2)
    assert parse_expr("-x^2", CH) == -parse_expr("x^2", CH)
    assert parse_expr("- - x", CH) == parse_expr("x", CH)
    # each '-' takes the power that follows it: --x^2^3 = -((-(x^2))^3)
    assert parse_expr("--x^2^3", CH) == -((-parse_expr("x^2", CH)) ** 3)


@pytest.mark.parametrize("signs", [5000, 5001])
def test_long_unary_minus_run(signs):
    x = parse_expr("x", CH)
    assert parse_expr("-" * signs + "x^2", CH) == (-1) ** signs * x ** 2
    assert parse_expr("y - " + "-" * signs + "(x)", CH) == \
        parse_expr("y", CH) - (-1) ** signs * x


def test_parenthesis_depth_cap():
    assert parse_expr("(" * 200 + "x" + ")" * 200, CH) == parse_expr("x", CH)
    assert parse_expr("-(" * 200 + "x" + ")" * 200, CH) == parse_expr("x", CH)
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("(" * 201 + "x" + ")" * 201, CH)
    assert err.value.offset == 200
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x + " + "( " * 5000 + "x" + ")" * 5000, CH)
    assert err.value.offset == 4 + 2 * 200


def test_power_caps():
    x, y = parse_expr("x", CH), parse_expr("y", CH)
    assert parse_expr("(x/y)^64", CH) == (x / y) ** 64
    assert parse_expr("-x^8^8", CH) == (-x ** 8) ** 8
    assert parse_expr("2^2048", CH) == 2 ** 2048
    refused = {"(x+y)^200/(x-y)^200": 6, "x^65": 2, "(x^2)^33": 6, "(1/(x*y))^33": 10,
               "--x^64^64": 7, "((9^64)^64)^64": 8, "2^4096": 2, "(x + 3^64)^64": 11,
               "x^" + "9" * 5000: 2}
    for source, offset in refused.items():
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(source, CH)
        assert err.value.offset == offset, source


def test_integer_literal_past_int_digit_limit():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x + " + "7" * 5000, CH)
    assert err.value.offset == 4


def test_rationals_via_division():
    f = parse_expr("3/4", CH)
    assert f.is_constant() and str(constant_value(f)) == "3/4"
    assert parse_expr("1/2*x", CH) == parse_expr("x/2", CH)


def test_multicharacter_variables():
    from flataffine import Chart
    gl = Chart("gl2", ("x11", "x12", "x21", "x22"))
    f = parse_expr("x11*x22 - x12*x21", gl)
    assert str(f) == "x11*x22 - x12*x21"
    assert parse_expr(str(f), gl) == f


def test_print_parse_round_trip_random():
    rng = random.Random(4242)
    for _ in range(30):
        f = random_rational_function(rng, CH)
        assert parse_expr(str(f), CH) == f


def test_round_trip_on_operation_outputs():
    sources = ["x", "y^3/x", "x + y^2/x", "-x*y - y^3/x", "(x^2+y^2)/(x*y)"]
    values = [parse_expr(s, CH) for s in sources]
    outputs = []
    for a in values:
        for b in values:
            outputs.append(a * b)
            outputs.append(a + b)
            outputs.append(a.diff("x"))
            if not b.is_zero():
                outputs.append(a / b)
    for f in outputs:
        assert parse_expr(str(f), CH) == f


def test_whitespace_insensitive():
    assert parse_expr(" x +\t y ", CH) == parse_expr("x+y", CH)
