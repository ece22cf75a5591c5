"""Tiny expression language for user-defined channel walls.

Grammar (infix, one free variable ``x``)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'x' | 'pi' | 'e' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := sqrt | exp | log | sin | cos | tanh | abs

Python's parser reads a wall and a wall stays a Python syntax tree: ``x``,
float constants, the five operators and calls of the grammar's functions,
nothing else.  Trees differentiate symbolically, so user profiles come with
closed-form first and second derivatives, and each is compiled once, on its
first evaluation, and evaluated on numpy arrays with no builtins in reach.
``abs`` differentiates to ``sign`` (the kink at 0 is the user's
responsibility, matching profiles like ``(1+abs(x))^0.5``).  Constant parts
fold at parse time; a constant power or quotient that folds to no finite
real number, such as ``0^-1`` or ``1/0``, is a :class:`ParseError`.
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
_ARITHMETIC = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv}
_ADD, _SUB, _MUL, _DIV, _POW = ast.Add(), ast.Sub(), ast.Mult(), ast.Div(), ast.Pow()
_MAX_DEPTH = 64  # second derivatives nest up to 9x deeper, within the recursion limit
# what a wall's code can read besides x
_GLOBALS = {"__builtins__": {}, **_NUMPY}


def _num(value):
    return ast.Constant(float(value))


def _call(name, arg):
    return ast.Call(ast.Name(name, ast.Load()), [arg], [])


# d/da of each function, for the chain rule
_OUTER = {
    "sqrt": lambda a: ast.BinOp(_num(0.5), _DIV, _call("sqrt", a)),
    "exp": lambda a: _call("exp", a),
    "log": lambda a: ast.BinOp(_num(1.0), _DIV, a),
    "sin": lambda a: _call("cos", a),
    "cos": lambda a: ast.BinOp(_num(-1.0), _MUL, _call("sin", a)),
    "tanh": lambda a: ast.BinOp(
        _num(1.0), _SUB, ast.BinOp(_call("tanh", a), _MUL, _call("tanh", a))),
    "abs": lambda a: _call("_sign", a),
    "_sign": lambda a: _num(0.0),
}


def _diff(node):
    """The derivative tree of ``node`` in x, unfolded."""
    match node:
        case ast.Constant():
            return _num(0.0)
        case ast.Name():
            return _num(1.0)
        case ast.Call(ast.Name(name), [a]):
            return ast.BinOp(_OUTER[name](a), _MUL, _diff(a))
        case ast.BinOp(a, ast.Add() | ast.Sub() as op, b):
            return ast.BinOp(_diff(a), op, _diff(b))
        case ast.BinOp(a, ast.Mult(), b):
            da_b, a_db = ast.BinOp(_diff(a), _MUL, b), ast.BinOp(a, _MUL, _diff(b))
            return ast.BinOp(da_b, _ADD, a_db)
        case ast.BinOp(a, ast.Div(), b):
            da_b, a_db = ast.BinOp(_diff(a), _MUL, b), ast.BinOp(a, _MUL, _diff(b))
            return ast.BinOp(ast.BinOp(da_b, _SUB, a_db), _DIV, ast.BinOp(b, _MUL, b))
        case ast.BinOp(a, ast.Pow(), ast.Constant(c)):
            # d/dx a^c = c * a^(c-1) * a'; the parser admits constant exponents only
            power = ast.BinOp(a, _POW, _num(c - 1.0))
            return ast.BinOp(ast.BinOp(_num(c), _MUL, power), _MUL, _diff(a))


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


def _fold(node):
    """Fold constant subtrees and drop the operators' identity elements."""
    if isinstance(node, ast.Call):
        name, arg = node.func.id, _fold(node.args[0])
        if isinstance(arg, ast.Constant):
            return _num(_NUMPY[name](arg.value))
        return node if arg is node.args[0] else _call(name, arg)
    if not isinstance(node, ast.BinOp):
        return node
    a, b = _fold(node.left), _fold(node.right)
    u, v = (n.value if isinstance(n, ast.Constant) else None for n in (a, b))
    kind = type(node.op)
    if kind is ast.Pow:
        if u is not None:
            try:  # 2^2^2^2^2 overflows, 0^-1 divides by zero, (-1)^0.5 is complex
                return _num(u ** v)
            except (ArithmeticError, TypeError):
                raise ParseError(f"{_show(a)} to the power {_show(b)} "
                                 "is not a finite real number") from None
        if v == 1.0:
            return a
        if v == 0.0:
            return _num(1.0)
    elif u is not None and v is not None and not (kind is ast.Div and v == 0.0):
        return _num(_ARITHMETIC[kind](u, v))
    elif kind is ast.Add:
        if u == 0.0:
            return b
        if v == 0.0:
            return a
    elif kind is ast.Sub:
        if v == 0.0:
            return a
    elif kind is ast.Mult:
        for w, other in ((u, b), (v, a)):
            if w == 0.0:
                return _num(0.0)
            if w == 1.0:
                return other
    elif u == 0.0:  # 0/b, 0/0 included
        return _num(0.0)
    elif u is not None and v == 0.0:
        raise ParseError(f"{_show(a)} divided by 0 is not a finite real number")
    elif v == 1.0:
        return a
    # a subtree folding leaves alone is kept, not copied: derivatives repeat large parts
    return node if a is node.left and b is node.right else ast.BinOp(a, node.op, b)


class Expr:
    """The syntax tree ``tree`` of a wall: evaluates on arrays, differentiates."""

    def __init__(self, tree):
        self.tree = tree
        self._code = None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self._code is None:
            body = ast.fix_missing_locations(ast.Expression(self.tree))
            self._code = compile(body, "<wall>", "eval")
        value = eval(self._code, _GLOBALS, {"x": x + 0.0})
        # a tree without x gives one number, spread over the shape of x
        return value if "x" in self._code.co_names else np.full_like(x, value)

    def diff(self):
        return Expr(_diff(self.tree))

    def simplified(self):
        return Expr(_fold(self.tree))

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
        """The grammar's tree of ``node``: unary signs as ``0 - a``, floats."""
        if depth > _MAX_DEPTH:
            raise ParseError(f"nesting deeper than {_MAX_DEPTH} in {text!r}")
        literal = src[node.col_offset:node.end_col_offset]
        match node:
            case ast.BinOp(left, op, right) if type(op) in _SYMBOLS:
                a, b = build(left, depth + 1), build(right, depth + 1)
                if type(op) is ast.Pow and not isinstance(b := _fold(b), ast.Constant):
                    raise ParseError(f"exponent must be a constant in {text!r}")
                return ast.BinOp(a, op, b)
            case ast.UnaryOp(ast.USub() | ast.UAdd() as op, operand):
                a = build(operand, depth + 1)
                return ast.BinOp(_num(0.0), _SUB, a) if isinstance(op, ast.USub) else a
            case ast.Constant(int() | float()) if set(literal) <= set("0123456789.eE+-"):
                return _num(literal)  # not 0x10, 1_0 or True
            case ast.Name(name) if name == "x" or name in _CONSTS:
                return ast.Name("x", ast.Load()) if name == "x" else _num(_CONSTS[name])
            case ast.Call(ast.Name(name), [arg]) if name in _FUNCS and literal[0] != "(":
                return _call(name, build(arg, depth + 1))  # not '(sqrt)(x)'
        raise ParseError(f"{literal!r} is outside the grammar in {text!r}")

    return Expr(_fold(build(body, 1)))
