"""Tiny expression language for user-defined channel walls.

Grammar (infix, one free variable ``x``)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'x' | 'pi' | 'e' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := sqrt | exp | log | sin | cos | tanh | abs

Expressions are parsed into small trees that evaluate on numpy arrays and
differentiate symbolically, so user profiles come with closed-form first and
second derivatives.  ``abs`` differentiates to ``sign`` (the kink at 0 is the
user's responsibility, matching profiles like ``(1+abs(x))^0.5``).
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .errors import ParseError

__all__ = ["parse_expression", "Expr"]


class Expr:
    """Base node: evaluates on scalars/arrays, differentiates to a new node."""

    def __call__(self, x):
        raise NotImplementedError

    def diff(self):
        raise NotImplementedError

    def simplified(self):
        return self


class Const(Expr):
    def __init__(self, value):
        self.value = float(value)

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value)

    def diff(self):
        return Const(0.0)

    def __repr__(self):
        return f"{self.value:g}"


class Var(Expr):
    def __call__(self, x):
        return np.asarray(x, dtype=float) + 0.0

    def diff(self):
        return Const(1.0)

    def __repr__(self):
        return "x"


class Binary(Expr):
    op = "?"

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __repr__(self):
        return f"({self.a!r} {self.op} {self.b!r})"


class Add(Binary):
    op = "+"

    def __call__(self, x):
        return self.a(x) + self.b(x)

    def diff(self):
        return Add(self.a.diff(), self.b.diff())

    def simplified(self):
        a, b = self.a.simplified(), self.b.simplified()
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value + b.value)
        if isinstance(a, Const) and a.value == 0.0:
            return b
        if isinstance(b, Const) and b.value == 0.0:
            return a
        return Add(a, b)


class Sub(Binary):
    op = "-"

    def __call__(self, x):
        return self.a(x) - self.b(x)

    def diff(self):
        return Sub(self.a.diff(), self.b.diff())

    def simplified(self):
        a, b = self.a.simplified(), self.b.simplified()
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value - b.value)
        if isinstance(b, Const) and b.value == 0.0:
            return a
        return Sub(a, b)


class Mul(Binary):
    op = "*"

    def __call__(self, x):
        return self.a(x) * self.b(x)

    def diff(self):
        return Add(Mul(self.a.diff(), self.b), Mul(self.a, self.b.diff()))

    def simplified(self):
        a, b = self.a.simplified(), self.b.simplified()
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value * b.value)
        for u, v in ((a, b), (b, a)):
            if isinstance(u, Const):
                if u.value == 0.0:
                    return Const(0.0)
                if u.value == 1.0:
                    return v
        return Mul(a, b)


class Div(Binary):
    op = "/"

    def __call__(self, x):
        return self.a(x) / self.b(x)

    def diff(self):
        return Div(
            Sub(Mul(self.a.diff(), self.b), Mul(self.a, self.b.diff())),
            Mul(self.b, self.b),
        )

    def simplified(self):
        a, b = self.a.simplified(), self.b.simplified()
        if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
            return Const(a.value / b.value)
        if isinstance(a, Const) and a.value == 0.0:
            return Const(0.0)
        if isinstance(b, Const) and b.value == 1.0:
            return a
        return Div(a, b)


class Pow(Binary):
    """a ^ b with b restricted to a constant exponent (keeps diff simple)."""

    op = "^"

    def __call__(self, x):
        return self.a(x) ** self.b.value

    def diff(self):
        # d/dx a^c = c * a^(c-1) * a'
        c = self.b.value
        return Mul(Mul(Const(c), Pow(self.a, Const(c - 1.0))), self.a.diff())

    def simplified(self):
        a, b = self.a.simplified(), self.b.simplified()
        if isinstance(a, Const):
            try:  # 2^2^2^2^2 overflows, 0^-1 divides by zero, (-1)^0.5 is complex
                return Const(a.value ** b.value)
            except (ArithmeticError, TypeError):
                raise ParseError(
                    f"{a!r} to the power {b!r} is not a finite real number") from None
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return Const(1.0)
        return Pow(a, b)


class Func(Expr):
    _TABLE = {
        "sqrt": (np.sqrt, lambda a: Div(Const(0.5), Func("sqrt", a))),
        "exp": (np.exp, lambda a: Func("exp", a)),
        "log": (np.log, lambda a: Div(Const(1.0), a)),
        "sin": (np.sin, lambda a: Func("cos", a)),
        "cos": (np.cos, lambda a: Mul(Const(-1.0), Func("sin", a))),
        "tanh": (np.tanh, lambda a: Sub(Const(1.0), Mul(Func("tanh", a), Func("tanh", a)))),
        "abs": (np.abs, lambda a: Func("_sign", a)),
        "_sign": (np.sign, lambda a: Const(0.0)),
    }

    def __init__(self, name, arg):
        self.name = name
        self.arg = arg

    def __call__(self, x):
        return self._TABLE[self.name][0](self.arg(x))

    def diff(self):
        outer = self._TABLE[self.name][1](self.arg)
        return Mul(outer, self.arg.diff())

    def simplified(self):
        arg = self.arg.simplified()
        if isinstance(arg, Const):
            return Const(float(self._TABLE[self.name][0](arg.value)))
        return Func(self.name, arg)

    def __repr__(self):
        return f"{self.name}({self.arg!r})"


_FUNCS = ("sqrt", "exp", "log", "sin", "cos", "tanh", "abs")
_CONSTS = {"pi": math.pi, "e": math.e}
_BINOPS = {ast.Add: Add, ast.Sub: Sub, ast.Mult: Mul, ast.Div: Div, ast.Pow: Pow}
_MAX_DEPTH = 64  # second derivatives nest up to 9x deeper, within the recursion limit


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
        if depth > _MAX_DEPTH:
            raise ParseError(f"nesting deeper than {_MAX_DEPTH} in {text!r}")
        literal = src[node.col_offset:node.end_col_offset]
        match node:
            case ast.BinOp(left, op, right) if type(op) in _BINOPS:
                a, b = build(left, depth + 1), build(right, depth + 1)
                if type(op) is ast.Pow and not isinstance(b := b.simplified(), Const):
                    raise ParseError(f"exponent must be a constant in {text!r}")
                return _BINOPS[type(op)](a, b)
            case ast.UnaryOp(ast.USub() | ast.UAdd() as op, operand):
                a = build(operand, depth + 1)
                return Sub(Const(0.0), a) if isinstance(op, ast.USub) else a
            case ast.Constant(int() | float()) if set(literal) <= set("0123456789.eE+-"):
                return Const(float(literal))  # not 0x10, 1_0 or True
            case ast.Name(name) if name == "x" or name in _CONSTS:
                return Var() if name == "x" else Const(_CONSTS[name])
            case ast.Call(ast.Name(name), [arg]) if name in _FUNCS and literal[0] != "(":
                return Func(name, build(arg, depth + 1))  # not '(sqrt)(x)'
        raise ParseError(f"{literal!r} is outside the grammar in {text!r}")

    return build(body, 1).simplified()
