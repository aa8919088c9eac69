"""The jet kernels of the expression grammar bound to buffers of one
shape (profiles.Expr.bind): a bound tree has every bit of a one-shot
jet, at every order, when its buffers are reused, and on any shape; and
the g g' of a custom target, bound to its tree once at order 1, has every
bit of the product of its order-1 jet, for every tree and every s."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiwave.jets import Jet
from equiwave.profiles import (_METRICS, _OPERATORS, _TARGETS, _Tape, metric_profile,
                               parse_expr, target_profile)
from test_api import EVERY_OPERATOR

TINY = np.finfo(float).smallest_subnormal
# the values of s where a rule's arithmetic can part from the jet's:
# signed zeros, subnormals, infinities, NaN, and values past the
# overflow of exp, sinh and cosh
EDGES = [0.0, -0.0, TINY, -TINY, np.finfo(float).smallest_normal, 1.0, -1.0, 800.0, -800.0,
         1e300, -1e300, np.inf, -np.inf, np.nan]
S = np.array(EDGES + list(np.linspace(-3.0, 3.0, 25)))

# one tree per operator, over operands that reach its every branch
OPERATOR_TREES = {
    "+": ["+", "r", ["sin", "r"], -1.0],
    "*": ["*", ["cosh", "r"], "r", -0.0],
    "/": ["/", ["sin", "r"], ["+", "r", -1]],
    "pow": ["+", ["pow", ["+", "r", 1], 3], ["pow", "r", -1], ["pow", "r", 1.5]],
    "exp": ["exp", ["*", -1, "r"]],
    "sin": ["sin", ["*", 2, "r"]],
    "sinh": ["sinh", "r"],
    "cosh": ["cosh", "r"],
    "sqrt": ["sqrt", ["+", 1, ["*", -1, ["pow", "r", 2]]]],
    "cutoff": ["*", "r", ["cutoff", 0.05]],
    "sqrt_cutoff": ["*", "r", ["sqrt_cutoff", 0.5]],
}

NUMBERS = [0, 1, -1, 2, 0.0, -0.0, 2.5, -3.0, 1e300, TINY]
EXPONENTS = [0, 1, 2, 3, -1, -2, 0.0, -0.0, 0.5, 1.5, -0.5, 2.0, -1.0]
EPS = [0, 0.0, -0.0, 0.05, 1, -0.5, 700.0, TINY]
LEAVES = st.one_of(
    st.just("r"), st.sampled_from(NUMBERS),
    st.builds(lambda op, eps: [op, eps], st.sampled_from(["cutoff", "sqrt_cutoff"]),
              st.sampled_from(EPS)))


def _extend(children):
    return st.one_of(
        st.builds(lambda op, args: [op, *args], st.sampled_from(["+", "*"]),
                  st.lists(children, min_size=1, max_size=3)),
        st.builds(lambda a, b: ["/", a, b], children, children),
        st.builds(lambda a, p: ["pow", a, p], children, st.sampled_from(EXPONENTS)),
        st.builds(lambda op, a: [op, a], st.sampled_from(["exp", "sin", "sinh", "cosh", "sqrt"]),
                  children))


TREES = st.recursive(LEAVES, _extend, max_leaves=10)
VALUES = st.lists(st.one_of(st.sampled_from(EDGES), st.floats()), max_size=12)


def _jet_gg_prime(expr, s):
    """g g' as the product of the rows of the tree's order-1 jet."""
    with np.errstate(all="ignore"):
        j = expr.jet(s, 1)
        return np.multiply(j.value, j.derivative(1))


def _bind(expr, shape, order):
    """The tree bound at order to a tape of buffers of shape (Expr.bind),
    and the tree's rows on it."""
    tape = _Tape(Jet.variable(np.zeros(shape), order).taylor, keep=True)
    return tape, expr.bind(tape)


def _run(bound, s):
    """The rows of a bound tree, run at the centres s."""
    tape, rows = bound
    np.copyto(tape.r[0], s)
    with np.errstate(all="ignore"):
        tape.run()
    return rows


def _bound_pair(expr, s):
    """The tree's order-1 rows, bound to buffers of s's shape, at s."""
    return _run(_bind(expr, np.shape(s), 1), s)


def _assert_same_bits(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_every_operator_and_leaf_has_one_node():
    # an operator added to the grammar needs its one node, for every
    # order and both a one-shot jet and a bound run, and a tree here (and
    # in the property's strategy)
    assert set(OPERATOR_TREES) == set(_OPERATORS)
    for op, entry in _OPERATORS.items():
        assert len(entry) == 3 and callable(entry[2]), op
    for leaf in ("r", 2.5):
        assert callable(parse_expr(leaf).node)


# every built-in metric and target, and a tree of every operator
BUILT_IN = {**{f"metric {kind}": metric_profile(kind).expr
               for kind in _METRICS if kind != "custom"},
            **{f"target {kind}": target_profile(kind).expr
               for kind in _TARGETS if kind != "custom"},
            "EVERY_OPERATOR": parse_expr(EVERY_OPERATOR)}


@pytest.mark.parametrize("name", sorted(BUILT_IN))
def test_bound_kernels_have_the_bits_of_a_one_shot_jet(name):
    # the kernels bound once and run twice on the same buffers, and bound
    # to a strided view and to a (k, N) stack, give every bit of the
    # one-shot jet, NaN where it is NaN, at every order a profile takes
    expr, again = BUILT_IN[name], np.concatenate([S[::-1], [0.5]])[1:]
    with np.errstate(all="ignore"):
        for order in range(13):
            bound = _bind(expr, S.shape, order)
            for s in (S, again):
                for got, want in zip(_run(bound, s), expr.jet(s, order).taylor, strict=True):
                    _assert_same_bits(got, want)
            for s in (S[::2], np.stack([S, -S, again])):
                got = _run(_bind(expr, s.shape, order), s)
                want = expr.jet(s, order).taylor
                assert got.shape == want.shape
                _assert_same_bits(got.ravel(), want.ravel())


@pytest.mark.parametrize("op", sorted(OPERATOR_TREES))
def test_each_operator_has_the_bits_of_its_jet(op):
    target = target_profile("custom", expr=OPERATOR_TREES[op])
    gg_prime = target.gg_prime_fn
    _assert_same_bits(gg_prime(S, None), _jet_gg_prime(target.expr, S))
    # a (k, N) stack, and a strided view
    stack = np.stack([S, -S])
    _assert_same_bits(gg_prime(stack, None), _jet_gg_prime(target.expr, stack))
    _assert_same_bits(gg_prime(S[::2], None), _jet_gg_prime(target.expr, S[::2]))
    with np.errstate(all="ignore"):
        rows = target.expr.jet(S, 1).taylor
    for got, want in zip(_bound_pair(target.expr, S), rows):
        _assert_same_bits(got, want)


@settings(max_examples=400, deadline=None)
@given(tree=TREES, values=VALUES)
def test_bound_gg_prime_has_the_bits_of_the_jet(tree, values):
    target = target_profile("custom", expr=tree)
    s = np.array(EDGES + values)
    gg_prime = target.gg_prime_fn
    _assert_same_bits(gg_prime(s, None), _jet_gg_prime(target.expr, s))
    # the pair itself: g g' is NaN wherever a node's value is not finite,
    # so only the pair shows Jet.apply's NaN where exp overflows
    with np.errstate(all="ignore"):
        rows = target.expr.jet(s, 1).taylor
    for got, want in zip(_bound_pair(target.expr, s), rows):
        _assert_same_bits(got, want)
    # a second call of the shape reuses the buffers, here into out
    s = s[::-1].copy()
    out = np.empty_like(s)
    assert gg_prime(s, out) is out
    _assert_same_bits(out, _jet_gg_prime(target.expr, s))
