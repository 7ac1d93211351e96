"""Rooted plane trees stored as child-count sequences.

A tree with vertices v(0) < v(1) < ... < v(n-1) in lexicographic
(depth-first) order is stored as the sequence of child counts
(k_{v(0)}, ..., k_{v(n-1)}).  This is exactly the step sequence of the
tree's encoding walk, so validity is a prefix condition on partial sums
of (k - 1).  Both ways in check it: ``PlaneTree(code)`` (parsed text,
enumeration, the bijection) by a Python pass over the tuple, and
``check_rows`` (sampled batches, which ``PlaneTree.from_rows`` makes trees
and ``hll sample`` formats as text, building none) by one cumsum per batch.
Ulam-Harris labels are derived views and never stored; the int32 code
(``counts``) and the walk, subtree ends, depths and parents read off it
(``structure``) are derived once per tree and cached.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


def check_rows(rows: np.ndarray) -> np.ndarray:
    """A 2-D integer batch of codes as int64 rows, checked by one cumsum along the rows."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] == 0 or rows.dtype.kind not in "iu":
        raise InvariantError("need a 2-D integer batch of non-empty codes")
    rows = rows.astype(np.int64, copy=False)
    walk = np.cumsum(rows - 1, axis=1)
    if np.any(rows < 0) or np.any(walk[:, :-1] < 0) or np.any(walk[:, -1] != -1):
        raise InvariantError("a row is not the code of a tree")
    return rows


TreeStructure = namedtuple("TreeStructure", "walk tau depth parent")


@dataclass(frozen=True)
class PlaneTree:
    """A rooted plane tree; ``code[i]`` is the child count of the i-th
    vertex in depth-first order."""

    code: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "code", tuple(map(int, self.code)))
        _check_code(self.code)

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> list[PlaneTree]:
        """One tree per row of a 2-D integer array of codes, checked by ``check_rows``."""
        rows = check_rows(rows)
        trees = [object.__new__(cls) for _ in range(len(rows))]
        for tree, code in zip(trees, rows.tolist()):
            object.__setattr__(tree, "code", tuple(code))
        if len(trees) == 1:
            # a lone tree caches its row as counts instead of reading the
            # tuple back; the trees of a batch hold no array until asked
            k = rows[0].astype(np.int32)
            k.flags.writeable = False
            object.__setattr__(trees[0], "counts", k)
        return trees

    @property
    def zeta(self) -> int:
        """Total number of vertices."""
        return len(self.code)

    @cached_property
    def counts(self) -> np.ndarray:
        """The code as a read-only int32 array."""
        k = np.fromiter(self.code, np.int32, self.zeta)
        k.flags.writeable = False
        return k

    @cached_property
    def structure(self) -> TreeStructure:
        """(walk, tau, depth, parent) as read-only int32 arrays, read off
        the Lukasiewicz walk W_0 = 0, W_{j+1} = W_j + k_j - 1 (Le Gall, *Random
        trees and applications*, 2005); ``walk`` has n + 1 entries.  v's
        subtree is [v, tau_v), tau_v the first j > v with W_j = W_v - 1, so
        v's depth counts the u < v with tau_u > v.  Sorted stably by depth,
        siblings are consecutive and the first follows their parent.  Both
        sorts use the narrowest dtype that holds their keys (below height
        2^16 the depth sort is numpy's radix sort).
        """
        n, k = self.zeta, self.counts
        walk = np.zeros(n + 1, np.int32)
        np.cumsum(k - 1, out=walk[1:])
        # key_v - n finds the first j > v one level down; key[0] is j = n
        kt = np.min_scalar_type(-(int(walk.max()) + 2) * (n + 1)).type
        m = kt(n + 1)
        key = (walk.astype(kt) + kt(1)) * m + np.arange(n + 1, dtype=kt)
        key.sort()
        tau = np.empty(n, np.int32)
        tau[key[1:] % m] = key[np.searchsorted(key, key[1:] - kt(n))] % m
        del key
        depth = (np.arange(n) - np.cumsum(np.bincount(tau))[:n]).astype(np.int32)
        # non-root vertices by depth, in vertex order within a depth
        order = np.argsort(depth.astype(np.min_scalar_type(depth.max())), kind="stable")[1:]
        first = np.where(k[order - 1] > 0, np.arange(n - 1), 0)
        parent = np.full(n, -1, np.int32)
        parent[order] = order[np.maximum.accumulate(first)] - 1
        for a in (walk, tau, depth, parent):
            a.flags.writeable = False  # every reader of the cache shares them
        return TreeStructure(walk, tau, depth, parent)

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

    def height(self) -> int:
        return int(self.structure.depth.max())

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
    return tuple(tree.structure.walk.tolist())


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


def format_code(code) -> str:
    # one %-format per code: about twice as fast as joining str() of each count
    return ("%d " * len(code))[:-1] % tuple(code)


def format_tree(tree: PlaneTree) -> str:
    return format_code(tree.code)


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
