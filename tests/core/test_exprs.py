"""Safe clause-expression evaluation."""

import ast
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.core import exprs
from repro.core.exprs import c_to_python, evaluate, free_names
from repro.errors import PragmaSyntaxError


class TestCToPython:
    def test_logical_operators(self):
        assert c_to_python("a && b") == "a  and  b"
        assert c_to_python("a || b") == "a  or  b"

    def test_not_vs_not_equal(self):
        assert c_to_python("!a") == " not a"
        assert c_to_python("a != b") == "a != b"

    def test_ternary_rejected(self):
        with pytest.raises(PragmaSyntaxError):
            c_to_python("a ? b : c")


class TestEvaluate:
    @pytest.mark.parametrize("expr,vars,expected", [
        ("rank-1", {"rank": 3}, 2),
        ("(rank+1)%nprocs", {"rank": 3, "nprocs": 4}, 0),
        ("rank%2==0", {"rank": 2}, True),
        ("rank%2==0 && rank>0", {"rank": 0}, False),
        ("rank==0 || rank==nprocs-1", {"rank": 4, "nprocs": 5}, True),
        ("!(rank==1)", {"rank": 1}, False),
        ("2*size1", {"size1": 7}, 14),
    ])
    def test_expressions(self, expr, vars, expected):
        assert evaluate(expr, vars) == expected

    def test_unknown_name_rejected(self):
        with pytest.raises(PragmaSyntaxError, match="unknown name"):
            evaluate("rank + bogus", {"rank": 0})

    def test_function_calls_rejected(self):
        with pytest.raises(PragmaSyntaxError):
            evaluate("__import__('os')", {})

    def test_attribute_access_rejected(self):
        with pytest.raises(PragmaSyntaxError):
            evaluate("rank.__class__", {"rank": 1})

    def test_subscript_rejected(self):
        with pytest.raises(PragmaSyntaxError):
            evaluate("a[0]", {"a": [1]})

    def test_syntax_error_reported(self):
        with pytest.raises(PragmaSyntaxError, match="cannot parse"):
            evaluate("rank +", {"rank": 0})

    @given(st.integers(min_value=0, max_value=63),
           st.integers(min_value=1, max_value=64))
    def test_property_ring_expression_in_range(self, rank, nprocs):
        if rank >= nprocs:
            rank = rank % nprocs
        v = {"rank": rank, "nprocs": nprocs}
        nxt = evaluate("(rank+1)%nprocs", v)
        prev = evaluate("(rank-1+nprocs)%nprocs", v)
        assert 0 <= nxt < nprocs
        assert 0 <= prev < nprocs
        assert evaluate("(rank+1)%nprocs", {"rank": prev,
                                            "nprocs": nprocs}) == rank


class TestFreeNames:
    def test_names_extracted(self):
        assert free_names("(rank+1)%nprocs") == {"rank", "nprocs"}
        assert free_names("3+4") == set()
        assert free_names("a && !b") == {"a", "b"}


# ---------------------------------------------------------------------------
# Compile-once cache: equivalence with an uncached reference


def _reference_evaluate(expr, variables):
    """The uncached evaluator: translate, parse, check each node in
    ``ast.walk`` order (unsupported syntax and unknown names
    interleaved), compile, run."""
    py = c_to_python(expr).strip()
    try:
        tree = ast.parse(py, mode="eval")
    except SyntaxError as exc:
        raise PragmaSyntaxError(
            f"cannot parse clause expression {expr!r}: {exc.msg}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, exprs._ALLOWED_NODES):
            raise PragmaSyntaxError(
                f"clause expression {expr!r} uses unsupported syntax "
                f"({type(node).__name__})")
        if isinstance(node, ast.Name) and node.id not in variables:
            raise PragmaSyntaxError(
                f"clause expression {expr!r} references unknown name "
                f"{node.id!r}; known: {sorted(variables)}")
    try:
        return eval(compile(tree, "<clause>", "eval"),
                    {"__builtins__": {}}, dict(variables))
    except (ZeroDivisionError, OverflowError, ValueError,
            TypeError) as exc:
        raise PragmaSyntaxError(
            f"clause expression {expr!r} cannot be evaluated: "
            f"{exc}") from None


def _reference_free_names(expr):
    py = c_to_python(expr).strip()
    try:
        tree = ast.parse(py, mode="eval")
    except SyntaxError as exc:
        raise PragmaSyntaxError(
            f"cannot parse clause expression {expr!r}: {exc.msg}") from exc
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except PragmaSyntaxError as exc:
        return ("error", str(exc))


_NAMES = ("rank", "nprocs", "a", "b")
_atoms = st.one_of(
    st.sampled_from(_NAMES),
    st.integers(min_value=0, max_value=9).map(str),
    # Unsupported node kinds, some of them wrapping a name.
    st.sampled_from(["f(rank)", "a[0]", "rank.real", "[1]",
                     "(lambda: 1)()", "{b}"]),
)


def _combine(children):
    binary = st.sampled_from(["+", "-", "*", "/", "%", "==", "<", "!=",
                              "&&", "||", ">>", "&", "|", "^"])
    return st.one_of(
        st.tuples(children, binary, children).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(st.sampled_from(["!", "-", "~"]), children).map(
            lambda t: f"{t[0]}({t[1]})"),
    )


_expressions = st.recursive(_atoms, _combine, max_leaves=8)
# Syntax errors and the unsupported C ternary, around valid pieces.
_broken = st.one_of(
    _expressions.map(lambda e: e + " +"),
    _expressions.map(lambda e: "(" + e),
    _expressions.map(lambda e: e + " ? 1 : 0"),
)
_bindings = st.dictionaries(st.sampled_from(_NAMES),
                            st.integers(min_value=-3, max_value=5))


class TestCompileOnce:
    @given(st.one_of(_expressions, _broken), _bindings, _bindings)
    def test_cached_matches_uncached_reference(self, expr, first,
                                               second):
        # Two bindings per text: the second call is served by the
        # entry the first one compiled.
        for variables in (first, second):
            assert _outcome(evaluate, expr, variables) == \
                _outcome(_reference_evaluate, expr, variables)
            assert _outcome(free_names, expr) == \
                _outcome(_reference_free_names, expr)

    def test_unknown_name_before_later_unsupported_node(self):
        # Walk order: the Name ``x`` precedes the Call.
        with pytest.raises(PragmaSyntaxError, match="unknown name 'x'"):
            evaluate("x + f(1)", {})
        with pytest.raises(PragmaSyntaxError,
                           match=r"unsupported syntax \(Call\)"):
            evaluate("x + f(1)", {"x": 1})
        # The Call precedes its own argument names.
        with pytest.raises(PragmaSyntaxError,
                           match=r"unsupported syntax \(Call\)"):
            evaluate("f(x)", {})

    def test_cached_under_one_binding_rejected_under_another(self):
        expr = "(rank+stride)%nprocs"
        assert evaluate(expr, {"rank": 1, "stride": 2, "nprocs": 4}) == 3
        with pytest.raises(PragmaSyntaxError,
                           match="unknown name 'stride'"):
            evaluate(expr, {"rank": 1, "nprocs": 4})

    def test_free_names_ignores_unsupported_nodes(self):
        assert free_names("f(x) + y") == {"f", "x", "y"}
        with pytest.raises(PragmaSyntaxError, match="cannot parse"):
            free_names("rank +")

    def test_table_stays_at_its_bound(self):
        bound = exprs._compile.cache_info().maxsize
        assert bound is not None
        for i in range(bound + 50):
            assert evaluate(f"rank+{i}", {"rank": 1}) == i + 1
        assert exprs._compile.cache_info().currsize == bound

    def test_one_compile_per_distinct_text(self):
        exprs._compile.cache_clear()
        for rank in range(64):
            evaluate("(rank+1)%nprocs", {"rank": rank, "nprocs": 64})
            free_names("(rank+1)%nprocs")
        info = exprs._compile.cache_info()
        assert (info.misses, info.hits) == (1, 127)

    def test_rank_threads_share_the_table(self):
        # More threads than cores, switching as often as possible,
        # racing on the same uncompiled texts.
        exprs._compile.cache_clear()
        texts = [f"(rank*{k}+1)%nprocs" for k in range(200)]
        errors = []

        def worker(rank):
            try:
                for k, text in enumerate(texts):
                    got = evaluate(text, {"rank": rank, "nprocs": 7})
                    if got != (rank * k + 1) % 7:
                        errors.append((rank, text, got))
            except Exception as exc:  # pragma: no cover - reported
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(r,))
                       for r in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


# ---------------------------------------------------------------------------
# Hostile arithmetic: bounded ** and <<, faults as PragmaSyntaxError

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


class TestHostileArithmetic:
    # The probes of examples/pragmas/bad/ run in a subprocess under a
    # timeout (tests/lintserve/test_hostile_input.py); these exponents
    # stay cheap to compute should the guards ever regress.
    @pytest.mark.parametrize("expr,message", [
        ("(rank+7)**(10**5)%nprocs", "int64"),
        ("1<<(1<<20)", "int64"),
        ("(rank+1)/(rank-rank)", "division by zero"),
        ("rank%(rank-rank)", "by zero"),
        ("rank>>(0-1)", "negative shift count"),
        ("(rank/2)<<1", "unsupported operand"),
    ])
    def test_fault_is_a_pragma_error(self, expr, message):
        with pytest.raises(PragmaSyntaxError,
                           match=f"cannot be evaluated: .*{message}"):
            evaluate(expr, {"rank": 3, "nprocs": 8})

    @pytest.mark.parametrize("expr,expected", [
        ("2**62", 2 ** 62),
        ("(0-2)**63", INT64_MIN),
        ("(0-1)**(10**18)", 1),
        ("1**(10**18)", 1),
        ("2**(0-1)", 0.5),
        ("1<<62", 1 << 62),
        ("(0-1)<<63", INT64_MIN),
        ("0<<(1<<40)", 0),
        ("rank>>(1<<40)", 0),
    ])
    def test_in_range_results_unchanged(self, expr, expected):
        assert evaluate(expr, {"rank": 5}) == expected

    @pytest.mark.parametrize("expr", ["2**63", "1<<63", "(0-3)**40"])
    def test_just_outside_int64_rejected(self, expr):
        with pytest.raises(PragmaSyntaxError, match="int64"):
            evaluate(expr, {})

    @given(st.integers(min_value=-300, max_value=300),
           st.integers(min_value=0, max_value=200))
    def test_guards_agree_with_python_inside_int64(self, a, b):
        for expr, exact in (("a**b", a ** b), ("a<<b", a << b)):
            if INT64_MIN <= exact <= INT64_MAX:
                assert evaluate(expr, {"a": a, "b": b}) == exact
            else:
                with pytest.raises(PragmaSyntaxError, match="int64"):
                    evaluate(expr, {"a": a, "b": b})
