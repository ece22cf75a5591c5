import ast

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


# the folded tree of each text above: '^' is right associative, binds
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


# the folded first and second derivative of each text
DERIVATIVES = {
    "2*(1+x)^0.5": ("(2 * (0.5 * ((1 + x) ^ -0.5)))",
                    "(2 * (0.5 * (-0.5 * ((1 + x) ^ -1.5))))"),
    "exp(-x/4)": ("(exp(((0 - x) / 4)) * -0.25)",
                  "((exp(((0 - x) / 4)) * -0.25) * -0.25)"),
    "x^3 - 2*x": ("((3 * (x ^ 2)) - 2)", "(3 * (2 * x))"),
    "1/(1+x^2)": (
        "((0 - (2 * x)) / ((1 + (x ^ 2)) * (1 + (x ^ 2))))",
        "(((-2 * ((1 + (x ^ 2)) * (1 + (x ^ 2)))) - ((0 - (2 * x)) * (((2 * x) "
        "* (1 + (x ^ 2))) + ((1 + (x ^ 2)) * (2 * x))))) / (((1 + (x ^ 2)) * "
        "(1 + (x ^ 2))) * ((1 + (x ^ 2)) * (1 + (x ^ 2)))))"),
    "tanh(x)": ("(1 - (tanh(x) * tanh(x)))",
                "(0 - (((1 - (tanh(x) * tanh(x))) * tanh(x)) + (tanh(x) * "
                "(1 - (tanh(x) * tanh(x))))))"),
    "log(1+x^2)": ("((1 / (1 + (x ^ 2))) * (2 * x))",
                   "((((0 - (2 * x)) / ((1 + (x ^ 2)) * (1 + (x ^ 2)))) * (2 * x)) "
                   "+ ((1 / (1 + (x ^ 2))) * 2))"),
    "sin(2*x)*cos(x)": (
        "(((cos((2 * x)) * 2) * cos(x)) + (sin((2 * x)) * (-1 * sin(x))))",
        "((((((-1 * sin((2 * x))) * 2) * 2) * cos(x)) + ((cos((2 * x)) * 2) * "
        "(-1 * sin(x)))) + (((cos((2 * x)) * 2) * (-1 * sin(x))) + (sin((2 * x)) "
        "* (-1 * cos(x)))))"),
}


@pytest.mark.parametrize("text", list(DERIVATIVES))
def test_symbolic_derivatives_match_finite_differences(text):
    e = parse_expression(text)
    d1 = e.diff()
    d2 = d1.diff()
    assert (repr(d1), repr(d2)) == DERIVATIVES[text]
    xs = np.linspace(0.3, 2.7, 11)
    assert np.abs(d1(xs) - fd(e, xs)).max() < 1e-7
    assert np.abs(d2(xs) - fd(d1, xs)).max() < 1e-6


def distinct_nodes(tree):
    seen, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(n for n in ast.iter_child_nodes(node) if isinstance(n, ast.expr))
    return len(seen)


def test_derivatives_share_repeated_subtrees():
    # tanh' = 1 - tanh(a)^2 names tanh(a) twice, so as a tree the second
    # derivative of a 63-deep tanh grows like a power of the depth; as a
    # graph it grows linearly, and each distinct node evaluates once
    depth = 63
    f2pp = parse_expression("tanh(" * depth + "x" + ")" * depth).diff().diff()
    assert distinct_nodes(f2pp.tree) <= 30 * depth
    assert np.isfinite(f2pp(np.linspace(-3.0, 3.0, 6776))).all()


def test_abs_derivative_is_sign():
    e = parse_expression("abs(x)").diff()
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
            # constant quotients that fold to no finite real number
            "1/0", "2+1/0*x",
            # constant calls that fold to no finite real number
            "log(0) + x", "exp(1000)*x", "2 + sqrt(-1)",
            # literals, sums, differences and products that are not finite
            "1e400*x", "1e308*10 + x", "1e308*10 - 1e308*10 + x",
            # scenario values that are not text or a number
            pytest.param(True, id="bool"), pytest.param([1, 2], id="list"),
            pytest.param(None, id="none")]
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_expression(bad)


@pytest.mark.parametrize("text, what", [
    ("log(0) + x", "log(0)"), ("exp(1000)*x", "exp(1000)"),
    ("2 + sqrt(-1)", "sqrt(-1)"),
    # the product overflows before sin is called, so sin(inf) is never
    # formed and the product is named
    pytest.param("x*sin(2^1023*2)", "8.98847e+307 * 2",
                 id="x*sin(2^1023*2)-sin(inf)"),
    ("1e400*x", "1e400"), ("1e308*10 - 1e308*10 + x", "1e+308 * 10"),
])
def test_non_finite_constant_call_names_the_call(text, what, recwarn):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert str(err.value) == f"{what} is not a finite real number"
    assert len(recwarn) == 0  # numpy's RuntimeWarning stays off stderr
