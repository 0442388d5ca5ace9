"""Weak orders (total preorders) on a small set of alternatives.

A weak order is an ordered partition of the alternatives {0, ..., m-1} into
indifference classes, most preferred class first.  This module provides the
canonical enumeration of all weak orders, averaged Borda scores, the exact
projection from score vectors back to orders, antipodes, and a compact text
format ("x>(yz)", "(xyz)", ...).

All score arithmetic is exact (`fractions.Fraction`); score ties are decided
by equality, never by tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

#: Enumeration is exponential in m; everything here is meant for desk scale.
MAX_ALTERNATIVES = 6

_LETTERS = "xyzu"


def alternative_names(m: int) -> tuple[str, ...]:
    """Display names for alternatives: x, y, z, u when m <= 4, digits otherwise."""
    if m <= len(_LETTERS):
        return tuple(_LETTERS[:m])
    return tuple(str(i) for i in range(m))


@dataclass(frozen=True)
class WeakOrder:
    """An ordered partition of {0, ..., m-1}; classes[0] is most preferred.

    Alternatives inside a class are stored in increasing index order, so two
    weak orders are equal exactly when their class sequences are equal.
    """

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: list[int] = []
        for cls in self.classes:
            if not cls:
                raise ValueError("empty indifference class")
            if list(cls) != sorted(set(cls)):
                raise ValueError(f"class {cls} not in canonical (sorted) form")
            seen.extend(cls)
        m = len(seen)
        if m == 0:
            raise ValueError("weak order over an empty alternative set")
        if sorted(seen) != list(range(m)):
            raise ValueError(f"classes {self.classes} are not a partition of 0..{m - 1}")

    @property
    def m(self) -> int:
        return sum(len(c) for c in self.classes)

    @property
    def canonical_id(self) -> int:
        """Position of this order in the canonical enumeration of its state space."""
        return _index_map(self.m)[self.classes]

    @property
    def is_strict(self) -> bool:
        return all(len(c) == 1 for c in self.classes)

    def class_index(self, alternative: int) -> int:
        """0-based position of the class containing `alternative` (0 = best)."""
        for k, cls in enumerate(self.classes):
            if alternative in cls:
                return k
        raise ValueError(f"unknown alternative {alternative}")

    def __str__(self) -> str:
        return format_order(self)


def weak_order(classes: Iterable[Iterable[int]]) -> WeakOrder:
    """Build a WeakOrder from any iterable of classes, canonicalizing each class."""
    return WeakOrder(tuple(tuple(sorted(c)) for c in classes))


def _ordered_partitions(items: tuple[int, ...]):
    """Yield every ordered partition of `items` into nonempty classes."""
    if not items:
        yield ()
        return
    n = len(items)
    for mask in range(1, 1 << n):
        top = tuple(items[k] for k in range(n) if mask >> k & 1)
        rest = tuple(items[k] for k in range(n) if not mask >> k & 1)
        for tail in _ordered_partitions(rest):
            yield (top,) + tail


@lru_cache(maxsize=None)
def enumerate_weak_orders(m: int) -> tuple[WeakOrder, ...]:
    """All weak orders on m alternatives, in a fixed canonical order.

    The order is lexicographic over the class-sequence representation with
    sorted indices inside each class; `WeakOrder.canonical_id` is the position
    in this sequence.
    """
    if m < 1:
        raise ValueError("empty alternative domain: need m >= 1")
    if m > MAX_ALTERNATIVES:
        raise ValueError(f"m={m} beyond supported desk scale (max {MAX_ALTERNATIVES})")
    parts = sorted(_ordered_partitions(tuple(range(m))))
    return tuple(WeakOrder(p) for p in parts)


@lru_cache(maxsize=None)
def _index_map(m: int) -> dict[tuple[tuple[int, ...], ...], int]:
    return {w.classes: i for i, w in enumerate(enumerate_weak_orders(m))}


def _doubled_borda(order: WeakOrder) -> list[int]:
    """Twice the averaged Borda scores, as integers.  A class of c
    alternatives above `below` others averages the ranks below..below + c - 1:
    doubled, 2*below + c - 1."""
    below = order.m
    doubled = [0] * below
    for cls in order.classes:
        below -= len(cls)
        for a in cls:
            doubled[a] = 2 * below + len(cls) - 1
    return doubled


@lru_cache(maxsize=None)
def borda_scores(order: WeakOrder) -> tuple[Fraction, ...]:
    """Averaged Borda scores: top rank is m-1, tied alternatives share the
    average of the rank values their class occupies."""
    return tuple(Fraction(s, 2) for s in _doubled_borda(order))


def project(scores: Sequence[Fraction | int]) -> WeakOrder:
    """Sort alternatives by strictly decreasing score; exact ties become one class.

    Scores must be exact (int or Fraction); floats are rejected because tie
    decisions must never depend on a tolerance.
    """
    for s in scores:
        if isinstance(s, float):
            raise TypeError("projection requires exact scores (int or Fraction)")
    m = len(scores)
    order = sorted(range(m), key=lambda a: (-Fraction(scores[a]), a))
    classes: list[tuple[int, ...]] = []
    current = [order[0]]
    for a in order[1:]:
        if scores[a] == scores[current[-1]]:
            current.append(a)
        else:
            classes.append(tuple(sorted(current)))
            current = [a]
    classes.append(tuple(sorted(current)))
    return WeakOrder(tuple(classes))


def antipode(order: WeakOrder) -> WeakOrder:
    """Reverse the class sequence (complete reversal of all strict comparisons)."""
    return WeakOrder(tuple(reversed(order.classes)))


def format_order(order: WeakOrder) -> str:
    """Text form: classes separated by ">", ties concatenated in parentheses."""
    nm = alternative_names(order.m)
    parts = []
    for cls in order.classes:
        if len(cls) == 1:
            parts.append(nm[cls[0]])
        else:
            parts.append("(" + "".join(nm[a] for a in cls) + ")")
    return ">".join(parts)


def parse_order(text: str, m: int) -> WeakOrder:
    """Parse the text form produced by `format_order` (whitespace tolerated)."""
    index = {c: i for i, c in enumerate(alternative_names(m))}
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty order text")
    classes: list[list[int]] = []
    for token in compact.split(">"):
        if token.startswith("(") and token.endswith(")"):
            chars = token[1:-1]
        elif len(token) == 1 and not token.startswith("("):
            chars = token
        else:
            raise ValueError(f"malformed class token {token!r} in {text!r}")
        if not chars:
            raise ValueError(f"empty class in {text!r}")
        try:
            classes.append([index[c] for c in chars])
        except KeyError as exc:
            raise ValueError(f"unknown alternative name {exc.args[0]!r} in {text!r}") from None
    order = weak_order(classes)
    if order.m != m:
        raise ValueError(f"{text!r} names {order.m} alternatives, expected {m}")
    return order
