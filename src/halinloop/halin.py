"""Halin maps built from plane trees.

A plane tree in which every internal vertex has at least one leaf child
and leaves are ordered left-to-right by the contour gives rise to a
planar map: the tree edges, a cycle through the leaves in contour
order, and one half-edge hanging off the root inside the face that
follows the first child.  The maps of interest are those whose tree
satisfies the one-leaf-child rule: every internal vertex has exactly
one leaf child.  Such a map with tree on 2n vertices has n internal
vertices, n leaves and n bounded faces.

Deleting the leaves of such a tree leaves a plane tree on its n
internal vertices in which each vertex keeps the slot of its leaf among
its children: one marked corner per vertex.  Leaf deletion is a second
bijection onto marked plane trees, which proves the count; it is not
the paper's bijection (arXiv:2104.13364), the weak-dual
``bijection.phi`` whose degree law gives the pushforward.
``hstar_trees`` streams the trees in lexicographic code order by one
walk over code positions that offers only the child counts the rule can
still complete, not by filtering all plane trees on 2n vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import prod
from typing import Callable, Iterator

from .errors import InvariantError, SizeGuardError, UsageError
from .planar_map import PlanarMap
from .plane_tree import PlaneTree

HALIN_ENUM_GUARD = 10


def satisfies_hstar(tree: PlaneTree) -> bool:
    """True when every internal vertex has exactly one leaf child; cached
    on the tree, so ``build_halin``, ``validate`` and ``phi`` share it."""
    return tree.one_leaf_child


def hstar_trees(n: int, force: bool = False) -> Iterator[PlaneTree]:
    """Plane trees on 2n vertices with exactly one leaf child per
    internal vertex, in lexicographic code order, streamed: the trees of
    ``hstar_codes(n, force)``, which checks n and the size guard at the
    call."""
    return map(PlaneTree, hstar_codes(n, force))


def hstar_codes(n: int, force: bool = False) -> Iterator[tuple[int, ...]]:
    """The codes of ``hstar_trees(n, force)``, in the same order, with no
    tree built.

    One walk fills the code slot by slot, a leaf (0) first and then an
    internal vertex with 1, 2, ... children, offering only what the n
    internal vertices can still complete: the binom(3n-2, n-1)/n codes
    come out with no dead ends, and the first one without the rest.
    n and the size guard are checked at the call, before the first code.
    """
    if n < 1:
        raise UsageError("need n >= 1")
    if n > HALIN_ENUM_GUARD and not force:
        raise SizeGuardError(
            "enumeration of maps with %d internal vertices is too large; "
            "pass force to override" % n
        )

    def rec(
        code: tuple[int, ...], stack: tuple[int, ...], left: int, need: int
    ) -> Iterator[tuple[int, ...]]:
        # stack: per open vertex, children still to come, negated once its
        # leaf child is placed (as in PlaneTree.one_leaf_child); left:
        # internal vertices still to place; need: open slots that must hold one
        if not stack:
            yield code
            return
        rest, r = stack[:-1], stack[-1]
        if r > 0:  # the leaf child, while it is still to come
            yield from rec(code + (0,), rest + (1 - r,) if r > 1 else rest, left, need)
        if r != 1:  # an internal child, unless only the leaf is left
            if r != -1:
                rest += (r - 1 if r > 0 else r + 1,)
            # its c - 1 new slots must fit in the left - 1 vertices after it,
            # and while any are left, an open slot must remain for them
            for c in range(2 if need == 1 < left else 1, left - need + 2):
                yield from rec(code + (c,), rest + (c,), left - 1, need + c - 2)

    return rec((), (-1,), n, 1)  # a stand-in parent holds the root's slot


@dataclass(frozen=True)
class HalinMap:
    """A rooted plane tree together with the leaf cycle and half-edge.

    ``tree`` keeps the generating tree; ``map`` is the rotation system.
    ``outer_face`` is the unbounded face (the one the leaf cycle bounds
    from outside), ``root_face`` the bounded face containing the
    half-edge.
    """

    tree: PlaneTree
    map: PlanarMap

    @cached_property
    def outer_face(self) -> int:
        # the unbounded face is the orbit of the forward boundary darts
        return self.map.face_of[n_tree_darts(self.tree.zeta)]

    @cached_property
    def root_face(self) -> int:
        return self.map.face_of[self.map.half_edge_dart]

    def bounded_faces(self) -> list[int]:
        return [f for f in range(self.map.n_faces) if f != self.outer_face]

    def canonical(self) -> tuple:
        """Canonical form as a rooted map of the plane.

        The unbounded face is part of the structure: two Halin maps
        whose rotation systems agree on the sphere are still different
        objects when their unbounded faces differ.
        """
        return self.map.canonical(outer_face=self.outer_face)

    def weight(self, w: Callable[[int], Fraction | float]) -> Fraction | float:
        """Product of w(deg f) over bounded faces."""
        degs = self.map.face_degrees()
        return prod(w(degs[f]) for f in self.bounded_faces())

    @property
    def n_internal(self) -> int:
        return self.tree.zeta - self.tree.leaf_count()

    def validate(self) -> None:
        m = self.map
        m.check_euler()
        code, zeta, n = self.tree.code, self.tree.zeta, self.tree.leaf_count()
        if zeta != 2 * n or not satisfies_hstar(self.tree):
            raise InvariantError("tree violates the one-leaf-child rule")
        if m.n_edges != zeta - 1 + n:
            raise InvariantError("edge count mismatch")
        if m.n_faces != n + 1:
            raise InvariantError("face count mismatch")
        # internal vertices have degree k+1 (children plus up edge, or
        # plus half-edge at the root); leaves have degree 3.
        for v, orb in enumerate(m.vertices):
            expect = 3 if code[v] == 0 else code[v] + 1
            if len(orb) != expect:
                raise InvariantError(
                    "vertex %d degree %d, expected %d" % (v, len(orb), expect)
                )
        # every bounded face has degree at least four and shares exactly one
        # edge with the unbounded face, whose darts' twins count the shares
        shared = [0] * m.n_faces
        for d in m.faces[self.outer_face]:
            t = m.twin[d]
            if t != d:
                shared[m.face_of[t]] += 1
        degs = m.face_degrees()
        for f in self.bounded_faces():
            if degs[f] < 4:
                raise InvariantError("bounded face of degree %d" % degs[f])
            if shared[f] != 1:
                raise InvariantError(
                    "bounded face %d shares %d edges with the unbounded face"
                    % (f, shared[f])
                )


# -- dart layout ---------------------------------------------------------------
#
# Non-root vertex v has down dart 2(v-1) at its parent and up dart
# 2(v-1)+1 at itself.  Boundary edge i between consecutive leaves l_i,
# l_{i+1} (cyclically) has forward dart f_i = 2(zeta-1) + 2i at l_i and
# backward dart g_i = f_i + 1 at l_{i+1}; the half-edge dart comes last.
# Both darts of every edge but the half-edge differ in their lowest bit.


def n_tree_darts(zeta: int) -> int:
    """Number of tree darts, which is also the first boundary dart f_0."""
    return 2 * (zeta - 1)


def build_halin(tree: PlaneTree) -> HalinMap:
    """Assemble the rotation system for a tree of one-leaf-child type.

    Rotations (ccw): internal non-root vertex (up, c_1..c_k); root
    (c_1, h, c_2..c_k); leaf number i (up, g_{i-1}, f_i).  One walk over
    the code writes ``nxt``; it chains the root's children into the cycle
    (c_1..c_k), and h is spliced in after c_1 at the end.
    """
    code = tree.code
    zeta = len(code)
    if zeta < 2:
        raise UsageError("need at least one edge")
    if not satisfies_hstar(tree):
        raise InvariantError("tree violates the one-leaf-child rule")
    base = n_tree_darts(zeta)
    h = base + zeta  # zeta / 2 leaves, two boundary darts each
    nxt = [0] * (h + 1)
    g, f = h - 1, base  # g_{i-1} and f_i of the next leaf i, from g_{-1} = g_{lam-1}
    # per open vertex: last dart of its rotation so far (h stands in before
    # the root's first child), the dart its last child's down dart returns
    # to, children still to come
    stack = [[h, 0, code[0]]]
    for v in range(1, zeta):
        top = stack[-1]
        d = 2 * v - 2  # down(v)
        nxt[top[0]] = d
        if top[2] == 1:
            nxt[d] = top[1]
            stack.pop()
        else:
            top[0] = d
            top[2] -= 1
        u = d + 1  # up(v)
        k = code[v]
        if k:
            stack.append([u, u, k])
        else:
            nxt[u] = g
            nxt[g] = f
            nxt[f] = u
            g = f + 1
            f += 2
    nxt[h], nxt[0] = nxt[0], h
    twin = (*chain.from_iterable(zip(range(1, h, 2), range(0, h, 2))), h)  # d ^ 1, and h
    # rooted at the down dart of vertex 1, the root's first child
    m = PlanarMap(twin, tuple(nxt), 0, h)
    return HalinMap(tree, m)


def enumerate_halin(n: int, force: bool = False) -> Iterator[HalinMap]:
    for tree in hstar_trees(n, force=force):
        yield build_halin(tree)


def halin_count(n: int, force: bool = False) -> int:
    return sum(1 for _ in hstar_codes(n, force=force))
