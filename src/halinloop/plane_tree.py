"""Rooted plane trees stored as child-count sequences.

A tree with vertices v(0) < v(1) < ... < v(n-1) in lexicographic
(depth-first) order is stored as the sequence of child counts
(k_{v(0)}, ..., k_{v(n-1)}).  This is exactly the step sequence of the
tree's encoding walk, so validity is a prefix condition on partial sums
of (k - 1).  Ulam-Harris labels are derived views and never stored;
parents, children and depths are derived once per tree and cached.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InvariantError, SizeGuardError

TREE_ENUM_GUARD = 12
MARKED_ENUM_GUARD = 10


def _check_code(code: tuple[int, ...]) -> None:
    if len(code) < 1:
        raise InvariantError("tree code must be non-empty")
    s = 0
    for i, k in enumerate(code):
        if k < 0:
            raise InvariantError("child counts must be non-negative")
        s += k - 1
        if s < 0 and i < len(code) - 1:
            raise InvariantError("code violates prefix positivity at %d" % i)
    if s != -1:
        raise InvariantError("code does not sum to n-1")


@dataclass(frozen=True)
class PlaneTree:
    """A rooted plane tree; ``code[i]`` is the child count of the i-th
    vertex in depth-first order."""

    code: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "code", tuple(map(int, self.code)))
        _check_code(self.code)

    @property
    def zeta(self) -> int:
        """Total number of vertices."""
        return len(self.code)

    @cached_property
    def _parents_depths(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        par = [-1] * self.zeta
        dep = [0] * self.zeta
        slots: list[int] = []  # one entry per unvisited child, deepest on top
        for i, k in enumerate(self.code):
            if i > 0:
                p = par[i] = slots.pop()
                dep[i] = dep[p] + 1
            slots += [i] * k
        return tuple(par), tuple(dep)

    @cached_property
    def _children(self) -> tuple[tuple[int, ...], ...]:
        ch: list[list[int]] = [[] for _ in range(self.zeta)]
        for v, p in enumerate(self.parents()):
            if p >= 0:
                ch[p].append(v)
        return tuple(map(tuple, ch))

    @cached_property
    def one_leaf_child(self) -> bool:
        """True when every internal vertex has exactly one leaf child."""
        # per open vertex: children still to come, negated once its leaf child is seen
        stack = [self.code[0]]
        for k in itertools.islice(self.code, 1, None):
            r = stack.pop()
            if k:
                if r == 1:
                    return False  # its last child, and no leaf child
                if r != -1:
                    stack.append(r - 1 if r > 0 else r + 1)
                stack.append(k)
            elif r < 0:
                return False  # a second leaf child
            elif r > 1:
                stack.append(1 - r)
        return True

    def parents(self) -> tuple[int, ...]:
        """Parent index per vertex (-1 for the root)."""
        return self._parents_depths[0]

    def children(self) -> tuple[tuple[int, ...], ...]:
        return self._children

    def depths(self) -> tuple[int, ...]:
        return self._parents_depths[1]

    def height(self) -> int:
        return max(self._parents_depths[1])

    def leaves(self) -> list[int]:
        """Leaf vertices in lexicographic order."""
        return [i for i, k in enumerate(self.code) if k == 0]

    def leaf_count(self) -> int:
        return self.code.count(0)

    def __str__(self) -> str:
        return format_tree(self)


@dataclass(frozen=True)
class MarkedTree:
    """A plane tree with one mark per vertex, ``0 <= mark <= k_v``."""

    shape: PlaneTree
    marks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "marks", tuple(int(m) for m in self.marks))
        if len(self.marks) != self.shape.zeta:
            raise InvariantError("need one mark per vertex")
        for m, k in zip(self.marks, self.shape.code):
            if not 0 <= m <= k:
                raise InvariantError("mark %d out of range for k=%d" % (m, k))

    def __str__(self) -> str:
        return format_marked(self)


def lukasiewicz(tree: PlaneTree) -> tuple[int, ...]:
    """The Lukasiewicz walk: partial sums of (child count - 1) from 0;
    it stays non-negative until its last step, to -1."""
    return (0, *itertools.accumulate(k - 1 for k in tree.code))


def enumerate_trees(n: int, force: bool = False):
    """All plane trees with n vertices (Catalan(n-1) of them)."""
    if n < 1:
        raise SizeGuardError("n must be >= 1")
    if n > TREE_ENUM_GUARD and not force:
        raise SizeGuardError("tree enumeration guarded at n <= %d" % TREE_ENUM_GUARD)

    def rec(prefix: list[int], walk: int, remaining: int):
        if remaining == 1:
            # the walk is back at 0 and the last vertex, a leaf, closes it
            yield PlaneTree((*prefix, 0))
            return
        # the walk stays >= 0 and can still come down to 0 by the last vertex
        for k in range(max(0, 1 - walk), remaining - walk):
            prefix.append(k)
            yield from rec(prefix, walk + k - 1, remaining - 1)
            prefix.pop()

    yield from rec([], 0, n)


def enumerate_marked(n: int, force: bool = False):
    """All marked trees with n vertices."""
    if n > MARKED_ENUM_GUARD and not force:
        raise SizeGuardError("marked enumeration guarded at n <= %d" % MARKED_ENUM_GUARD)
    for t in enumerate_trees(n, force=force):
        for marks in itertools.product(*(range(k + 1) for k in t.code)):
            yield MarkedTree(t, marks)


def marked_count_formula(n: int) -> int:
    """binom(3n-2, n-1)/n, the closed-form count of marked trees."""
    return math.comb(3 * n - 2, n - 1) // n


def format_tree(tree: PlaneTree) -> str:
    return " ".join(str(k) for k in tree.code)


def parse_tree(text: str) -> PlaneTree:
    return PlaneTree(tuple(int(tok) for tok in text.split()))


def format_marked(mt: MarkedTree) -> str:
    return " ".join("%d:%d" % (k, m) for k, m in zip(mt.shape.code, mt.marks))


def parse_marked(text: str) -> MarkedTree:
    ks, ms = [], []
    for tok in text.split():
        k, _, m = tok.partition(":")
        ks.append(int(k))
        ms.append(int(m))
    return MarkedTree(PlaneTree(tuple(ks)), tuple(ms))
