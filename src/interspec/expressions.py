"""Minimal arithmetic expression grammar for symbols given as strings.

Grammar: +, -, *, /, ^ (or **), exp, sqrt, sin, cos, log, abs, numeric
constants, pi, e, and the imaginary unit i/j. Variables are declared per
call site (for instance ``n`` for diagonal symbols, ``n, m`` for banded
entries, ``x``/``t`` for functions on an interval). Evaluation is
vectorized over numpy arrays and is a pure function of its inputs.
"""

from __future__ import annotations

import ast
import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import SpecParseError

_FUNCTIONS = {
    "exp": np.exp,
    "sqrt": lambda z: np.sqrt(np.asarray(z, dtype=complex)),
    "sin": np.sin,
    "cos": np.cos,
    "log": np.log,
    "abs": np.abs,
}

_CONSTANTS = {"pi": math.pi, "e": math.e, "i": 1j, "j": 1j}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)


def _validate(node: ast.AST, variables: Sequence[str]) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body, variables)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        _validate(node.left, variables)
        _validate(node.right, variables)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
        _validate(node.operand, variables)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float, complex)):
            raise SpecParseError(f"non-numeric constant {node.value!r}")
    elif isinstance(node, ast.Name):
        if node.id not in variables and node.id not in _CONSTANTS:
            raise SpecParseError(f"unknown name {node.id!r} in expression")
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise SpecParseError("only exp/sqrt/sin/cos/log/abs calls are allowed")
        if node.keywords or len(node.args) != 1:
            raise SpecParseError("symbol functions take exactly one argument")
        _validate(node.args[0], variables)
    else:
        raise SpecParseError(f"disallowed syntax: {ast.dump(node, annotate_fields=False)[:60]}")


def compile_expression(source: str, variables: tuple[str, ...]) -> Callable[..., np.ndarray]:
    """Compile the string ``source`` into a vectorized callable of the named variables."""
    if not isinstance(source, str):
        raise SpecParseError(f"expression {source!r} is not a string")
    return _compile(source, variables)


@functools.lru_cache(maxsize=None)
def _compile(source: str, variables: tuple[str, ...]) -> Callable[..., np.ndarray]:
    text = source.replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise SpecParseError(f"cannot parse expression {source!r}: {exc}") from exc
    _validate(tree, variables)
    code = compile(tree, "<symbol>", "eval")
    namespace = {"__builtins__": {}}
    namespace.update(_FUNCTIONS)
    namespace.update(_CONSTANTS)

    def evaluate(*args: np.ndarray) -> np.ndarray:
        if len(args) != len(variables):
            raise TypeError(f"expression expects {len(variables)} argument(s)")
        local = dict(zip(variables, args))
        value = eval(code, namespace, local)  # noqa: S307 - AST is whitelisted above
        # an expression that reads only some variables still has their joint shape
        return np.asarray(value) + np.zeros(np.broadcast(*args).shape)

    evaluate.source = source  # type: ignore[attr-defined]
    return evaluate


def parse_complex(text: str) -> complex:
    """Parse a CLI complex literal of the form ``a+bi`` (also ``i``, ``2i``, ``-3``)."""
    cleaned = text.strip().replace("I", "i").replace(" ", "")
    if not cleaned:
        raise SpecParseError("empty complex literal")
    try:
        value = complex(cleaned.replace("i", "j"))
    except ValueError as exc:
        raise SpecParseError(f"cannot parse complex literal {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise SpecParseError(f"complex literal {text!r} is not finite")
    return value


def format_complex(z: complex) -> str:
    re, im = float(np.real(z)), float(np.imag(z))
    if im == 0.0:
        return repr(re)
    sign = "+" if im >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}i"
