import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from borda_dynamics.weak_orders import (
    WeakOrder,
    antipode,
    borda_scores,
    enumerate_weak_orders,
    format_order,
    parse_order,
    project,
    weak_order,
)

from reference import fubini, margin_from_ties


def o(text, m=3):
    return parse_order(text, m)


# --- counting ----------------------------------------------------------------

def test_fubini_values():
    assert [fubini(m) for m in range(1, 7)] == [1, 3, 13, 75, 541, 4683]


def test_fubini_rejects_empty_domain():
    with pytest.raises(ValueError):
        fubini(0)
    with pytest.raises(ValueError):
        enumerate_weak_orders(0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_enumeration_length_matches_fubini(m):
    assert len(enumerate_weak_orders(m)) == fubini(m)


def _orders_by_surjection(m):
    # independent oracle: weak orders = surjections onto {0..k-1} read as levels
    found = set()
    for k in range(1, m + 1):
        for levels in product(range(k), repeat=m):
            if set(levels) == set(range(k)):
                found.add(tuple(tuple(a for a in range(m) if levels[a] == lev) for lev in range(k)))
    return found


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_enumeration_matches_surjection_oracle(m):
    assert {w.classes for w in enumerate_weak_orders(m)} == _orders_by_surjection(m)


def test_canonical_ids_are_positions():
    for m in (2, 3, 4):
        for i, w in enumerate(enumerate_weak_orders(m)):
            assert w.canonical_id == i


def test_weak_order_validation():
    with pytest.raises(ValueError):
        WeakOrder(((0,), (0, 1)))  # duplicate alternative
    with pytest.raises(ValueError):
        WeakOrder(((0,), (2,)))  # gap in indices
    with pytest.raises(ValueError):
        WeakOrder(((1, 0),))  # class not sorted
    with pytest.raises(ValueError):
        weak_order([[]])  # empty class
    assert weak_order([[1, 0], [2]]).classes == ((0, 1), (2,))


ORDER_REFUSALS = {
    "no-classes": (lambda: WeakOrder(()), "^weak order over an empty alternative set$"),
    "unknown-alternative": (lambda: o("x>y>z").class_index(3), "^unknown alternative 3$"),
    "m-7": (lambda: enumerate_weak_orders(7), r"^m=7 beyond supported desk scale \(max 6\)$"),
    "empty-class-text": (lambda: parse_order("x>()", 3), r"^empty class in 'x>\(\)'$"),
}


@pytest.mark.parametrize("call, message", ORDER_REFUSALS.values(), ids=ORDER_REFUSALS.keys())
def test_a_malformed_order_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# --- Borda scores and projection ----------------------------------------------

def test_borda_score_examples():
    assert borda_scores(o("x>y>z")) == (2, 1, 0)
    assert borda_scores(o("(xyz)")) == (1, 1, 1)
    assert borda_scores(o("(xy)>z")) == (Fraction(3, 2), Fraction(3, 2), 0)


def test_borda_scores_sum_is_constant():
    for m in (3, 4):
        total = Fraction(m * (m - 1), 2)
        for w in enumerate_weak_orders(m):
            assert sum(borda_scores(w)) == total


@pytest.mark.parametrize("m", [3, 4])
def test_projection_roundtrip_exhaustive(m):
    for w in enumerate_weak_orders(m):
        assert project(borda_scores(w)) == w


@pytest.mark.parametrize("m", [3, 4])
def test_borda_injective(m):
    scores = {borda_scores(w) for w in enumerate_weak_orders(m)}
    assert len(scores) == fubini(m)


def test_project_examples():
    assert project((2, 1, 0)) == o("x>y>z")
    assert project((1, 1, 1)) == o("(xyz)")
    assert project((Fraction(3, 2), 1, Fraction(1, 2))) == o("x>y>z")


def test_project_rejects_floats():
    with pytest.raises(TypeError):
        project((1.0, 0.5, 0.0))


# --- antipode -------------------------------------------------------------------

def test_antipode_examples():
    assert antipode(o("x>y>z")) == o("z>y>x")
    assert antipode(o("(xyz)")) == o("(xyz)")
    assert antipode(o("(xy)>z")) == o("z>(xy)")


@pytest.mark.parametrize("m", [3, 4])
def test_antipode_involution_and_score_identity(m):
    ones = tuple(m - 1 for _ in range(m))
    for w in enumerate_weak_orders(m):
        assert antipode(antipode(w)) == w
        flipped = borda_scores(antipode(w))
        assert tuple(a + b for a, b in zip(flipped, borda_scores(w))) == ones


# --- margins ---------------------------------------------------------------------

def pairwise_margin(scores):
    """Brute force: smallest gap over pairs split by the projection."""
    order = project(scores)
    gaps = [
        abs(Fraction(scores[a]) - Fraction(scores[b]))
        for a in range(len(scores))
        for b in range(a + 1, len(scores))
        if order.class_index(a) != order.class_index(b)
    ]
    return min(gaps, default=math.inf)


def test_margin_examples():
    assert margin_from_ties((2, 1, 0)) == 1
    assert margin_from_ties((Fraction(3, 2), Fraction(3, 2), 0)) == Fraction(3, 2)
    assert margin_from_ties((1, 1, 1)) == math.inf
    examples = [(2, 1, 0), (Fraction(3, 2), Fraction(3, 2), 0), (1, 1, 1), (5, Fraction(1, 3), 0, 5)]
    examples += [borda_scores(w) for w in enumerate_weak_orders(4)]
    for scores in examples:
        margin = margin_from_ties(scores)
        assert margin == pairwise_margin(scores)
        assert type(margin) is type(pairwise_margin(scores))


def test_margin_rejects_float_scores():
    with pytest.raises(TypeError):
        margin_from_ties((1.0, 0))


def test_margin_is_always_positive_on_borda_images():
    # separated alternatives have distinct scores, so the margin is never 0
    for w in enumerate_weak_orders(4):
        margin = margin_from_ties(borda_scores(w))
        assert margin == math.inf or margin > 0


# --- text format -----------------------------------------------------------------------

def test_format_examples():
    assert format_order(o("x>y>z")) == "x>y>z"
    assert str(o("(xy)>z")) == "(xy)>z"
    assert format_order(parse_order("(01)>2>(34)", 5)) == "(01)>2>(34)"


def test_parse_tolerates_whitespace():
    assert parse_order(" x > (y z) ", 3) == o("x>(yz)")


@pytest.mark.parametrize("text", ["", "x>y", "x>>z", "xy>z", "x>(y)z", "w>y>z"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_order(text, 3)


@given(st.integers(min_value=2, max_value=6).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(min_value=0, max_value=fubini(m) - 1))
))
def test_parse_format_roundtrip(case):
    m, idx = case
    w = enumerate_weak_orders(m)[idx]
    assert parse_order(format_order(w), m) == w
