"""Tiny expression language for user-defined channel walls.

Grammar (infix, one free variable ``x``)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'x' | 'pi' | 'e' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := sqrt | exp | log | sin | cos | tanh | abs

Python's parser reads a wall and a wall stays a graph of Python syntax tree
nodes: ``x``, float constants, the five operators and calls of the grammar's
functions, nothing else.  Each node folds as it is built: constant parts
become their number and the operators' identity elements drop, so a literal
or a constant part that is no finite real number, such as ``1e400``,
``1e308*10``, ``0^-1``, ``1/0`` or ``log(0)``, is a :class:`ParseError`.
Walls differentiate symbolically, so user profiles come with closed-form
first and second derivatives; a derivative shares the subtrees it repeats,
builds the derivative of each once, and a call evaluates each distinct node
once, with numpy's functions and the five operators only.  ``abs``
differentiates to ``sign`` (the kink at 0 is the user's responsibility,
matching profiles like ``(1+abs(x))^0.5``).
"""

from __future__ import annotations

import ast
import math
import operator

import numpy as np

from .errors import ParseError

__all__ = ["parse_expression", "Expr"]

_NUMPY = {"sqrt": np.sqrt, "exp": np.exp, "log": np.log, "sin": np.sin,
          "cos": np.cos, "tanh": np.tanh, "abs": np.abs, "_sign": np.sign}
_FUNCS = _NUMPY.keys() - {"_sign"}  # abs's derivative, not in the grammar
_CONSTS = {"pi": math.pi, "e": math.e}
_SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}
_ARITHMETIC = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
               ast.Div: operator.truediv, ast.Pow: operator.pow}
# the right identity of each operator, a left one too for + and *
_IDENTITY = {ast.Add: 0.0, ast.Sub: 0.0, ast.Mult: 1.0, ast.Div: 1.0, ast.Pow: 1.0}
_ADD, _SUB, _MUL, _DIV, _POW = ast.Add(), ast.Sub(), ast.Mult(), ast.Div(), ast.Pow()
_MAX_DEPTH = 64  # second derivatives nest up to 9x deeper, within the recursion limit


def _num(value, text=None):
    """The constant ``value``; one that is no finite real number is a
    :class:`ParseError` naming it by ``text``."""
    value = float(value)
    if not math.isfinite(value):
        raise ParseError(f"{text} is not a finite real number")
    return ast.Constant(value)


def _call(name, arg):
    """``name(arg)``, folded to its number if ``arg`` is a constant."""
    if not isinstance(arg, ast.Constant):
        return ast.Call(ast.Name(name, ast.Load()), [arg], [])
    with np.errstate(all="ignore"):
        return _num(_NUMPY[name](arg.value), f"{name}({_show(arg)})")


def _bin(a, op, b):
    """``a op b``, folded: constant operands become their number and the
    operators' identity elements drop."""
    u, v = (n.value if isinstance(n, ast.Constant) else None for n in (a, b))
    kind = type(op)
    if kind is ast.Div and u == 0.0 and not v:  # 0/b and 0/0; 0/-1 folds to -0 below
        return _num(0.0)
    if u is not None and v is not None:
        try:  # 2^2^2^2^2 overflows, 0^-1 and 1/0 divide by 0, (-1)^0.5 is complex
            return _num(_ARITHMETIC[kind](u, v),
                        f"{_show(a)} {_SYMBOLS[kind]} {_show(b)}")
        except (ArithmeticError, TypeError):
            how = f"to the power {_show(b)}" if kind is ast.Pow else "divided by 0"
            raise ParseError(f"{_show(a)} {how} is not a finite real number") from None
    if kind is ast.Mult and 0.0 in (u, v):
        return _num(0.0)
    if kind is ast.Pow and v == 0.0:
        return _num(1.0)
    if v == _IDENTITY[kind]:
        return a
    if u == _IDENTITY[kind] and kind in (ast.Add, ast.Mult):
        return b
    return ast.BinOp(a, op, b)


# d/da of each function, for the chain rule, given a and the call node f(a)
_OUTER = {
    "sqrt": lambda a, f: _bin(_num(0.5), _DIV, f),
    "exp": lambda a, f: f,
    "log": lambda a, f: _bin(_num(1.0), _DIV, a),
    "sin": lambda a, f: _call("cos", a),
    "cos": lambda a, f: _bin(_num(-1.0), _MUL, _call("sin", a)),
    "tanh": lambda a, f: _bin(_num(1.0), _SUB, _bin(f, _MUL, f)),
    "abs": lambda a, f: _call("_sign", a),
    "_sign": lambda a, f: _num(0.0),
}


def _diff(node, memo):
    """The folded derivative of ``node`` in x; ``memo`` maps each node
    already differentiated to its derivative, so shared subtrees share it."""
    if node in memo:
        return memo[node]
    match node:
        case ast.Constant():
            d = _num(0.0)
        case ast.Name():
            d = _num(1.0)
        case ast.Call(ast.Name(name), [a]):
            d = _bin(_OUTER[name](a, node), _MUL, _diff(a, memo))
        case ast.BinOp(a, ast.Add() | ast.Sub() as op, b):
            d = _bin(_diff(a, memo), op, _diff(b, memo))
        case ast.BinOp(a, ast.Mult() | ast.Div() as op, b):
            da_b = _bin(_diff(a, memo), _MUL, b)
            a_db = _bin(a, _MUL, _diff(b, memo))
            d = (_bin(da_b, _ADD, a_db) if isinstance(op, ast.Mult)
                 else _bin(_bin(da_b, _SUB, a_db), _DIV, _bin(b, _MUL, b)))
        case ast.BinOp(a, ast.Pow(), ast.Constant(c)):
            # d/dx a^c = c * a^(c-1) * a'; the parser admits constant exponents only
            power = _bin(a, _POW, _num(c - 1.0))
            d = _bin(_bin(_num(c), _MUL, power), _MUL, _diff(a, memo))
    memo[node] = d
    return d


def _value(node, values, x):
    """``node`` at ``x``; ``values`` keeps each node computed in this call."""
    match node:
        case ast.Constant(value):
            return value
        case ast.Name():
            return x
    if node not in values:
        if isinstance(node, ast.Call):
            values[node] = _NUMPY[node.func.id](_value(node.args[0], values, x))
        else:
            values[node] = _ARITHMETIC[type(node.op)](
                _value(node.left, values, x), _value(node.right, values, x))
    return values[node]


def _show(node):
    """Fully parenthesised infix text, ``^`` for powers."""
    match node:
        case ast.Constant(value):
            return f"{value:g}"
        case ast.Name(name):
            return name
        case ast.Call(ast.Name(name), [a]):
            return f"{name}({_show(a)})"
        case ast.BinOp(a, op, b):
            return f"({_show(a)} {_SYMBOLS[type(op)]} {_show(b)})"


class Expr:
    """The folded syntax graph ``tree`` of a wall: evaluates on arrays,
    differentiates."""

    def __init__(self, tree):
        self.tree = tree

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if isinstance(self.tree, ast.Constant):  # one number, spread over x's shape
            return np.full_like(x, self.tree.value)
        return _value(self.tree, {}, x + 0.0)  # a copy, a numpy float if x is 0-d

    def diff(self):
        return Expr(_diff(self.tree, {}))

    def __repr__(self):
        return _show(self.tree)


def parse_expression(text):
    """Parse ``text`` into an :class:`Expr` with symbolic derivatives.

    Python's parser reads it, ``^`` as ``**`` (the grammar's precedence and
    right associativity); a node the grammar lacks is a :class:`ParseError`.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError(f"a wall must be an expression in x, got {text!r}")
    # as in the grammar, any Unicode digit is a digit, any whitespace separates
    # tokens and a NUMBER may start with zeros (a Python integer may not)
    src = " ".join("".join(str(int(c)) if c.isdecimal() else c for c in text).split())
    kept, lead = [], True
    for i, c in enumerate(src):
        kept.append("" if lead and c == "0" and src[i + 1:i + 2].isdigit() else c)
        lead = lead and c == "0" or not (c.isalnum() or c in "._")
    src = "".join(kept).replace("^", "**")
    # only the characters of the grammar's tokens; no rule accepts its ','
    if not src.isascii() or not all(c.isalnum() or c in "_.+-*/() " for c in src):
        raise ParseError(f"unexpected character in {text!r}")
    try:
        body = ast.parse(src, mode="eval").body
    except (SyntaxError, RecursionError):
        raise ParseError(f"cannot parse {text!r}") from None

    def build(node, depth):
        """The grammar's folded tree of ``node``: unary signs as ``0 - a``."""
        if depth > _MAX_DEPTH:
            raise ParseError(f"nesting deeper than {_MAX_DEPTH} in {text!r}")
        literal = src[node.col_offset:node.end_col_offset]
        match node:
            case ast.BinOp(left, op, right) if type(op) in _SYMBOLS:
                a, b = build(left, depth + 1), build(right, depth + 1)
                if type(op) is ast.Pow and not isinstance(b, ast.Constant):
                    raise ParseError(f"exponent must be a constant in {text!r}")
                return _bin(a, op, b)
            case ast.UnaryOp(ast.USub() | ast.UAdd() as op, operand):
                a = build(operand, depth + 1)
                return _bin(_num(0.0), _SUB, a) if isinstance(op, ast.USub) else a
            case ast.Constant(int() | float()) if set(literal) <= set("0123456789.eE+-"):
                return _num(literal, literal)  # not 0x10, 1_0 or True
            case ast.Name(name) if name == "x" or name in _CONSTS:
                return ast.Name("x", ast.Load()) if name == "x" else _num(_CONSTS[name])
            case ast.Call(ast.Name(name), [arg]) if name in _FUNCS and literal[0] != "(":
                return _call(name, build(arg, depth + 1))  # not '(sqrt)(x)'
        raise ParseError(f"{literal!r} is outside the grammar in {text!r}")

    return Expr(build(body, 1))
