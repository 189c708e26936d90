"""Safe evaluation of clause expressions.

The paper's clauses carry C expressions evaluated per process
(``sender(rank-1)``, ``sendwhen(rank%2==0)``). The static analyses
(:mod:`repro.core.analysis.dataflow`) evaluate those expressions for
every rank to recover the concrete communication pattern — the
"source and destination information ... incorporated into an analysis
framework" of Section I. Evaluation is sandboxed: the expression is
parsed to an AST and only arithmetic/comparison/boolean nodes and
whitelisted names are allowed.

Every analysis evaluates the same few expression texts once per rank,
so each distinct text is translated, parsed, validated and compiled
once (:func:`_compile`, a bounded LRU); a call then only checks the
names against its own bindings and runs the code object. ``**`` and
``<<`` compile to guarded helpers that refuse a result outside C's
64-bit ``int`` range before computing it, and arithmetic faults
(division by zero, overflow, a negative shift count) become
:class:`~repro.errors.PragmaSyntaxError` like any other unevaluable
expression — hostile input gets a diagnostic, never a hang or a
traceback.
"""

from __future__ import annotations

import ast
import functools
from types import CodeType
from typing import Any, NamedTuple

from repro.errors import PragmaSyntaxError

#: AST node types clause expressions may contain.
_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare,
    ast.Name, ast.Load, ast.Constant, ast.IfExp,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr, ast.BitXor,
    ast.USub, ast.UAdd, ast.Not, ast.Invert,
    ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
    ast.And, ast.Or,
)


def c_to_python(expr: str) -> str:
    """Translate the C operators clause expressions use to Python.

    Handles ``&&``, ``||`` and prefix ``!`` (but not ``!=``). Ternaries
    (``a ? b : c``) are not supported — the paper's examples never use
    them.
    """
    out: list[str] = []
    i = 0
    n = len(expr)
    while i < n:
        two = expr[i:i + 2]
        if two == "&&":
            out.append(" and ")
            i += 2
        elif two == "||":
            out.append(" or ")
            i += 2
        elif two == "!=":
            out.append("!=")
            i += 2
        elif expr[i] == "!":
            out.append(" not ")
            i += 1
        elif expr[i] == "?" or (expr[i] == ":" and ")" not in expr[i:]):
            raise PragmaSyntaxError(
                f"C ternary operator is not supported in clause "
                f"expressions: {expr!r}")
        else:
            out.append(expr[i])
            i += 1
    return "".join(out)


#: C ``int64_t`` range: the bound ``**`` and ``<<`` results are held to.
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def _check_int64(op: str, value: Any) -> Any:
    if isinstance(value, int) and not INT64_MIN <= value <= INT64_MAX:
        raise OverflowError(f"{op} result is outside the int64 range")
    return value


def _pow(base: Any, exp: Any) -> Any:
    """``base ** exp``, refusing an int result outside int64 — one far
    outside it before it is computed."""
    if isinstance(base, int) and isinstance(exp, int) and exp > 0 \
            and abs(base) > 1:
        # |base| >= 2**(bits-1), so |base**exp| >= 2**((bits-1)*exp).
        if (abs(base).bit_length() - 1) * exp > 63:
            raise OverflowError("** result is outside the int64 range")
    return _check_int64("**", base ** exp)


def _lshift(value: Any, count: Any) -> Any:
    """``value << count``, refusing a result outside int64 before it
    is computed."""
    if isinstance(value, int) and isinstance(count, int) and value \
            and count > 0 and value.bit_length() + count > 64:
        raise OverflowError("<< result is outside the int64 range")
    return _check_int64("<<", value << count)


# The helpers' names are not identifiers, so no clause variable (a C
# identifier) shadows them.
_GUARDS = {ast.Pow: "<pow>", ast.LShift: "<lshift>"}
_GLOBALS = {"__builtins__": {}, "<pow>": _pow, "<lshift>": _lshift}

#: Faults the evaluated code can raise (a negative shift count is a
#: ValueError, a float operand of a shift a TypeError).
_EVAL_FAULTS = (ZeroDivisionError, OverflowError, ValueError, TypeError)


class _Guard(ast.NodeTransformer):
    """Rewrite ``a ** b`` / ``a << b`` into calls of the guards."""

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        helper = _GUARDS.get(type(node.op))
        if helper is None:
            return node
        return ast.copy_location(ast.Call(
            func=ast.Name(id=helper, ctx=ast.Load()),
            args=[node.left, node.right], keywords=[]), node)


class _Compiled(NamedTuple):
    """The variable-independent outcome of compiling one expression.

    ``checked`` are the ``ast.Name`` ids in :func:`ast.walk` order up
    to the first unsupported node; every call checks them against its
    own bindings before raising ``error`` (a syntax or unsupported-node
    message) or running ``code``. ``names`` are all the ids, for
    :func:`free_names`, or ``None`` when the text does not parse.
    """

    code: CodeType | None
    checked: tuple[str, ...]
    names: frozenset[str] | None
    error: str = ""


@functools.lru_cache(maxsize=1024)
def _compile(expr: str) -> _Compiled:
    """Translate, parse, validate and compile ``expr`` once.

    Errors are returned as values: ``lru_cache`` does not cache a
    raised exception, and the unknown-name check must still run first
    on every call.
    """
    try:
        py = c_to_python(expr).strip()
    except PragmaSyntaxError as exc:
        return _Compiled(None, (), None, str(exc))
    try:
        tree = ast.parse(py, mode="eval")
    except SyntaxError as exc:
        return _Compiled(None, (), None,
                         f"cannot parse clause expression {expr!r}: "
                         f"{exc.msg}")
    nodes = list(ast.walk(tree))
    names = frozenset(n.id for n in nodes if isinstance(n, ast.Name))
    checked: list[str] = []
    for node in nodes:
        if not isinstance(node, _ALLOWED_NODES):
            return _Compiled(None, tuple(checked), names,
                             f"clause expression {expr!r} uses "
                             f"unsupported syntax "
                             f"({type(node).__name__})")
        if isinstance(node, ast.Name):
            checked.append(node.id)
    guarded = ast.fix_missing_locations(_Guard().visit(tree))
    return _Compiled(compile(guarded, "<clause>", "eval"),
                     tuple(checked), names)


def evaluate(expr: str, variables: dict[str, Any]) -> Any:
    """Evaluate a clause expression under the given variable bindings.

    >>> evaluate("(rank+1)%nprocs", {"rank": 3, "nprocs": 4})
    0
    >>> evaluate("rank%2==0 && rank>0", {"rank": 2})
    True
    """
    compiled = _compile(expr)
    for name in compiled.checked:
        if name not in variables:
            raise PragmaSyntaxError(
                f"clause expression {expr!r} references unknown name "
                f"{name!r}; known: {sorted(variables)}")
    if compiled.code is None:
        raise PragmaSyntaxError(compiled.error)
    try:
        return eval(compiled.code, _GLOBALS,  # noqa: S307 - sandboxed
                    dict(variables))
    except _EVAL_FAULTS as exc:
        raise PragmaSyntaxError(
            f"clause expression {expr!r} cannot be evaluated: "
            f"{exc}") from None


def free_names(expr: str) -> set[str]:
    """The variable names an expression references."""
    compiled = _compile(expr)
    if compiled.names is None:
        raise PragmaSyntaxError(compiled.error)
    return set(compiled.names)
