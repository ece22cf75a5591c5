import numpy as np
import pytest

from channellab.errors import ParseError
from channellab.expressions import parse_expression


def fd(e, x, h=1e-6):
    return (e(x + h) - e(x - h)) / (2 * h)


@pytest.mark.parametrize(
    "text,x,value",
    [
        ("1 + 2*x", 3.0, 7.0),
        ("(1+abs(x))^0.5", -3.0, 2.0),
        ("2*(1+x)^0.5", 3.0, 4.0),
        ("exp(0*x)", 5.0, 1.0),
        ("sqrt(x)", 4.0, 2.0),
        ("-x^2", 2.0, -4.0),
        ("x**2 + 1", 3.0, 10.0),
        ("pi - pi + x", 1.5, 1.5),
        ("sin(x)/cos(x) - x*0", 0.0, 0.0),
        ("2^-1", 2.0, 0.5),
        ("x^2^3", 2.0, 256.0),
        ("x^-2^2", 2.0, 0.0625),
        ("--x", 3.0, 3.0),
        ("+x", 3.0, 3.0),
        (".5e1*x", 2.0, 10.0),
        ("2.", 5.0, 2.0),
        ("2*x^3/4", 2.0, 4.0),
        ("x+\n1", 2.0, 3.0),
        ("007*x", 2.0, 14.0),
        ("\u0663*x", 2.0, 6.0),  # NUMBER reads any Unicode digit
        ("-1", 3.0, -1.0),  # a bare number is a constant wall
        ("2.5", 3.0, 2.5),
    ],
)
def test_evaluation(text, x, value):
    e = parse_expression(text)
    assert float(e(x)) == pytest.approx(value, abs=1e-12)
    assert repr(e) == TREES[text]


# the simplified tree of each text above: '^' is right associative, binds
# tighter than unary minus and takes a unary exponent
TREES = {
    "1 + 2*x": "(1 + (2 * x))",
    "(1+abs(x))^0.5": "((1 + abs(x)) ^ 0.5)",
    "2*(1+x)^0.5": "(2 * ((1 + x) ^ 0.5))",
    "exp(0*x)": "1",
    "sqrt(x)": "sqrt(x)",
    "-x^2": "(0 - (x ^ 2))",
    "x**2 + 1": "((x ^ 2) + 1)",
    "pi - pi + x": "x",
    "sin(x)/cos(x) - x*0": "(sin(x) / cos(x))",
    "2^-1": "0.5",
    "x^2^3": "(x ^ 8)",
    "x^-2^2": "(x ^ -4)",
    "--x": "(0 - (0 - x))",
    "+x": "x",
    ".5e1*x": "(5 * x)",
    "2.": "2",
    "2*x^3/4": "((2 * (x ^ 3)) / 4)",
    "x+\n1": "(x + 1)",
    "007*x": "(7 * x)",
    "\u0663*x": "(3 * x)",
    "-1": "-1",
    "2.5": "2.5",
}


@pytest.mark.parametrize(
    "text", ["2*(1+x)^0.5", "exp(-x/4)", "x^3 - 2*x", "1/(1+x^2)", "tanh(x)",
             "log(1+x^2)", "sin(2*x)*cos(x)"]
)
def test_symbolic_derivatives_match_finite_differences(text):
    e = parse_expression(text)
    d1 = e.diff().simplified()
    d2 = d1.diff().simplified()
    xs = np.linspace(0.3, 2.7, 11)
    assert np.abs(d1(xs) - fd(e, xs)).max() < 1e-7
    assert np.abs(d2(xs) - fd(d1, xs)).max() < 1e-6


def test_abs_derivative_is_sign():
    e = parse_expression("abs(x)").diff().simplified()
    assert float(e(2.0)) == 1.0
    assert float(e(-2.0)) == -1.0


def test_vectorized_evaluation():
    e = parse_expression("(1+abs(x))^0.5")
    xs = np.array([-3.0, 0.0, 8.0])
    assert np.allclose(e(xs), [2.0, 1.0, 3.0])


@pytest.mark.parametrize(
    "bad", ["", "x +", "foo(x)", "x ^ x", "(1+x", "1 $ 2", "y + 1",
            # Python syntax that the grammar lacks
            "x % 2", "x // 2", "1 < x", "x if x else 1", "True", "1j", "0x10",
            "1_0*x", "[x]", "(x, 1)", "x.real", "abs(x, 1)", "sqrt(x=1)",
            "lambda: x", "x; 1", "e^x", "(sqrt)(x)", "sqrt(x,)", "x # 1",
            "\uff58 + 1",  # a fullwidth x, which Python's parser reads as x
            pytest.param("-" * 5000 + "x", id="5000 minus signs"),
            pytest.param("(" * 300 + "x" + ")" * 300, id="300 parentheses"),
            pytest.param("-" * 64 + "x", id="65 levels"),
            # constant powers that fold to no finite real number
            "2^2^2^2^2", "0^-1", "(-1)^0.5", "x + 10^400",
            # scenario values that are not text or a number
            pytest.param(True, id="bool"), pytest.param([1, 2], id="list"),
            pytest.param(None, id="none")]
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_expression(bad)

