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
its children: one marked corner per vertex, the correspondence behind
the paper's bijection with marked plane trees (arXiv:2104.13364).
``hstar_trees`` runs it backwards, building each tree from a marked
tree instead of filtering all plane trees on 2n vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Callable, Iterator

from .errors import InvariantError, SizeGuardError, UsageError
from .planar_map import PlanarMap
from .plane_tree import MarkedTree, PlaneTree, enumerate_marked

HALIN_ENUM_GUARD = 10


def satisfies_hstar(tree: PlaneTree) -> bool:
    """True when every internal vertex has exactly one leaf child."""
    code = tree.code
    children = tree.children()
    for v, k in enumerate(code):
        if k == 0:
            continue
        leaf_children = sum(1 for c in children[v] if code[c] == 0)
        if leaf_children != 1:
            return False
    return True


def _with_leaf_children(marked: MarkedTree) -> tuple[int, ...]:
    """Code of the tree in which every vertex v of ``marked`` gets k_v + 1
    children, a leaf in slot marks[v] and its own children in order
    around it."""
    code, marks, children = marked.shape.code, marked.marks, marked.shape.children()
    out: list[int] = []

    def emit(v: int) -> None:
        out.append(code[v] + 1)
        for j, c in enumerate(children[v]):
            if j == marks[v]:
                out.append(0)
            emit(c)
        if marks[v] == code[v]:
            out.append(0)

    emit(0)
    return tuple(out)


def hstar_trees(n: int, force: bool = False) -> Iterator[PlaneTree]:
    """Plane trees on 2n vertices with exactly one leaf child per
    internal vertex, in lexicographic code order.

    Each one is built from a marked tree on n vertices by giving every
    vertex a leaf child in its marked slot (arXiv:2104.13364); this is a
    bijection, so the binom(3n-2, n-1)/n trees come out without a search
    over the Catalan(2n-1) plane trees on 2n vertices.
    """
    if n < 1:
        raise UsageError("need n >= 1")
    if n > HALIN_ENUM_GUARD and not force:
        raise SizeGuardError(
            "enumeration of maps with %d internal vertices is too large; "
            "pass force to override" % n
        )
    for code in sorted(_with_leaf_children(mt) for mt in enumerate_marked(n, force=True)):
        yield PlaneTree(code)


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
        code = self.tree.code
        zeta = self.tree.zeta
        n = self.tree.leaf_count()
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
        degs = m.face_degrees()
        outer = self.outer_face
        for f in self.bounded_faces():
            # every bounded face has degree at least four
            if degs[f] < 4:
                raise InvariantError("bounded face of degree %d" % degs[f])
            # and shares exactly one edge with the unbounded face
            shared = sum(
                1
                for d in m.faces[f]
                if m.twin[d] != d and m.face_of[m.twin[d]] == outer
            )
            if shared != 1:
                raise InvariantError(
                    "bounded face %d shares %d edges with the unbounded face"
                    % (f, shared)
                )


# -- dart layout ---------------------------------------------------------------
#
# Non-root vertex v has down dart 2(v-1) at its parent and up dart
# 2(v-1)+1 at itself.  Boundary edge i between consecutive leaves l_i,
# l_{i+1} (cyclically) has forward dart f_i = 2(zeta-1) + 2i at l_i and
# backward dart g_i = f_i + 1 at l_{i+1}; the half-edge dart comes last.
# Both darts of every edge but the half-edge differ in their lowest bit.


def down(v: int) -> int:
    return 2 * (v - 1)


def up(v: int) -> int:
    return 2 * (v - 1) + 1


def other_dart(d: int) -> int:
    """The twin of a dart that is not the half-edge."""
    return d ^ 1


def dart_vertex(d: int) -> int:
    """The non-root vertex whose up edge carries tree dart d."""
    return d // 2 + 1


def n_tree_darts(zeta: int) -> int:
    """Number of tree darts, which is also the first boundary dart f_0."""
    return 2 * (zeta - 1)


def tree_rotations(tree: PlaneTree) -> list[list[int]]:
    """Counterclockwise tree darts around each vertex: the up dart (none
    at the root), then the down darts of the children."""
    return [
        ([up(v)] if v else []) + [down(c) for c in kids]
        for v, kids in enumerate(tree.children())
    ]


def rotations_to_nxt(rotations: list[list[int]], n_darts: int) -> list[int]:
    """The ``nxt`` permutation whose cycles are the given rotations."""
    nxt = [0] * n_darts
    for rot in rotations:
        for j, d in enumerate(rot):
            nxt[d] = rot[(j + 1) % len(rot)]
    return nxt


def build_halin(tree: PlaneTree) -> HalinMap:
    """Assemble the rotation system for a tree of one-leaf-child type.

    Rotations (ccw): internal non-root vertex (up, c_1..c_k); root
    (c_1, h, c_2..c_k); leaf number i (up, g_{i-1}, f_i).
    """
    zeta = tree.zeta
    if zeta < 2:
        raise UsageError("need at least one edge")
    if not satisfies_hstar(tree):
        raise InvariantError("tree violates the one-leaf-child rule")
    leaves = tree.leaves()
    lam = len(leaves)
    base = n_tree_darts(zeta)
    h = base + 2 * lam
    rotations = tree_rotations(tree)
    rotations[0].insert(1, h)
    for i, v in enumerate(leaves):
        rotations[v] += [base + 2 * ((i - 1) % lam) + 1, base + 2 * i]
    twin = [other_dart(d) for d in range(h)] + [h]
    # rooted at the down dart of vertex 1, the root's first child
    m = PlanarMap(tuple(twin), tuple(rotations_to_nxt(rotations, h + 1)), down(1), h)
    return HalinMap(tree, m)


def enumerate_halin(n: int, force: bool = False) -> Iterator[HalinMap]:
    for tree in hstar_trees(n, force=force):
        yield build_halin(tree)


def halin_count(n: int, force: bool = False) -> int:
    return sum(1 for _ in hstar_trees(n, force=force))
