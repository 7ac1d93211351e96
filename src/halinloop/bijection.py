"""Correspondence between Halin-type maps and corner-marked plane trees.

A map H built over a one-leaf-child tree has a weak dual D which is a
dissection of a polygon: one dual vertex per bounded face, one dual
edge per tree edge of the underlying tree.  Edges dual to leaf edges
form the outer polygon of D; edges dual to internal tree edges form a
tree T spanning the dual vertices.  Each non-root vertex of T carries
a mark recording in which corner of T its two polygon edges sit, and
the root mark records which edge of H is the root edge.  ``phi`` maps
the Halin map to the marked tree, ``phi_inverse`` reconstructs the map
by cutting the contour of T at the marked corners: the resulting
segments are the cells of the dissection, i.e. the internal vertices
of the reconstructed underlying tree.

Orientation conventions (rotation direction of the dual, scan
direction for children and marks, which side of the root edge carries
the root cell) were fixed by requiring exhaustive bijectivity and
round-trip identity over all instances with up to four bounded faces;
they are frozen below.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .errors import InvariantError
from .halin import (
    HalinMap,
    build_halin,
    dart_vertex,
    down,
    enumerate_halin,
    n_tree_darts,
    other_dart,
    rotations_to_nxt,
    satisfies_hstar,
    tree_rotations,
    up,
)
from .plane_tree import MarkedTree, PlaneTree, enumerate_trees

_LEAF = -1


def _face_cycles(H: HalinMap) -> tuple[dict[int, list[int]], dict[int, int]]:
    """Tree-dart cycles of each bounded face, and dart -> face index."""
    m = H.map
    ntree = n_tree_darts(H.tree.zeta)
    cycles: dict[int, list[int]] = {}
    for fi in range(m.n_faces):
        if fi == H.outer_face:
            continue
        cycles[fi] = [d for d in m.faces[fi] if d < ntree]
    return cycles, {d: fi for fi, cyc in cycles.items() for d in cyc}


def _root_rotation(cyc: list[int], internal: list[bool]) -> list[int]:
    """Rotation of the root dual vertex cut just after its polygon-dart
    pair, with the pair removed."""
    r = len(cyc)
    pair_at = None
    for i, d in enumerate(cyc):
        if not internal[d] and not internal[cyc[(i + 1) % r]]:
            pair_at = i
            break
    if pair_at is None:
        raise InvariantError("root face lacks an adjacent polygon-dart pair")
    j = (pair_at + 2) % r
    return (cyc[j:] + cyc[:j])[:-2]


def phi(H: HalinMap) -> MarkedTree:
    """Marked tree of a Halin map via its weak-dual dissection."""
    return phi_with_faces(H)[0]


def phi_with_faces(H: HalinMap) -> tuple[MarkedTree, tuple[int, ...]]:
    """The marked tree together with, for each tree vertex in
    lexicographic order, the index of the bounded face it is dual to."""
    if not satisfies_hstar(H.tree):
        raise InvariantError("map does not satisfy the one-leaf-child rule")
    m = H.map
    code = H.tree.code
    # dual to an internal tree edge, not to a polygon side
    internal = [code[dart_vertex(d)] != 0 for d in range(n_tree_darts(H.tree.zeta))]
    cycles, face_of_dart = _face_cycles(H)
    rot0 = _root_rotation(cycles[H.root_face], internal)

    out_code: list[int] = []
    out_marks: list[int] = []
    faces_pre: list[int] = []
    seen = {H.root_face}
    # iterative preorder over (face, rotation after the parent dart, is_root)
    work: list = [(H.root_face, rot0, True)]
    while work:
        face, rot, is_root = work.pop()
        faces_pre.append(face)
        children = [d for d in rot if internal[d]]
        out_code.append(len(children))
        if is_root:
            out_marks.append(0)  # placeholder, fixed below
        else:
            leaf_pos = [i for i, d in enumerate(rot) if not internal[d]]
            if len(leaf_pos) != 2 or leaf_pos[1] != leaf_pos[0] + 1:
                raise InvariantError("dual vertex without an adjacent polygon pair")
            out_marks.append(sum(1 for d in rot[: leaf_pos[0]] if internal[d]))
        for d in reversed(children):
            t = m.twin[d]
            cf = face_of_dart[t]
            if cf in seen:
                raise InvariantError("dual tree revisits a face")
            seen.add(cf)
            cyc = cycles[cf]
            p = cyc.index(t)
            work.append((cf, cyc[p + 1:] + cyc[:p], False))
    if len(out_code) != H.n_internal:
        raise InvariantError("dual tree does not span the bounded faces")

    # root mark: index of the child dual to the root edge, or 0 when the
    # root edge is a leaf edge
    rd = m.root_dart
    if internal[rd]:
        dual = rd if face_of_dart[rd] == H.root_face else m.twin[rd]
        children0 = [d for d in rot0 if internal[d]]
        out_marks[0] = children0.index(dual) + 1
    return MarkedTree(PlaneTree(tuple(out_code)), tuple(out_marks)), tuple(faces_pre)


def phi_inverse(marked: MarkedTree) -> HalinMap:
    """Halin map of a marked tree, by cutting the tree contour at the
    marked corners: the segments are the cells of the dissection, i.e.
    the internal vertices of the reconstructed underlying tree."""
    return phi_inverse_with_cells(marked)[0]


def phi_inverse_with_cells(marked: MarkedTree) -> tuple[HalinMap, tuple[int, ...]]:
    """Same as ``phi_inverse``, also returning for each vertex of the
    marked tree the internal vertex of the map carved out by its
    contour segment."""
    T = marked.shape
    marks = marked.marks
    code = T.code
    n = T.zeta
    if n == 1:
        return build_halin(PlaneTree((1, 0))), (0,)
    ch = T.children()
    nxt = rotations_to_nxt(tree_rotations(T), n_tree_darts(n))

    # contour of the tree: the single face of its embedding
    start = down(ch[0][0])
    contour = [start]
    d = nxt[other_dart(start)]
    while d != start:
        contour.append(d)
        d = nxt[other_dart(d)]

    # each vertex contributes one cut: the dart leaving its marked corner
    cuts: dict[int, int] = {}
    for v in range(n):
        k, m = code[v], marks[v]
        if v == 0:
            cuts[down(ch[0][0])] = v  # the wrap corner of the root
        elif k == 0 or m == k:
            cuts[up(v)] = v
        else:
            cuts[down(ch[v][m])] = v
    if len(cuts) != n:
        raise InvariantError("marked corners do not cut into cells")

    idx = [i for i, dd in enumerate(contour) if dd in cuts]
    segs: list[list[int]] = []
    for a, b in zip(idx, idx[1:] + [idx[0] + len(contour)]):
        segs.append([contour[i % len(contour)] for i in range(a, b)])
    cell_of = {dd: ci for ci, s in enumerate(segs) for dd in s}
    owner = [cuts[s[0]] for s in segs]  # tree vertex whose corner opens the cell

    # cyclic neighbour lists: adjacent cell per segment dart, then the
    # leaf child at the wrap
    rots = [[cell_of[other_dart(dd)] for dd in s] + [_LEAF] for s in segs]

    rm = marks[0]
    if rm == 0:
        root_cell = cell_of[down(ch[0][0])]
        first = _LEAF
    else:
        e = down(ch[0][rm - 1])
        root_cell, first = cell_of[other_dart(e)], cell_of[e]

    # iterative preorder over the cell tree
    out: list[int] = []
    internal_of = [0] * n  # map vertex of each cell, indexed by owner
    work: list = [("cell", root_cell, None)]
    while work:
        item = work.pop()
        if item[0] == "leaf":
            out.append(0)
            continue
        _, cell, entry = item
        internal_of[owner[cell]] = len(out)
        lst = rots[cell]
        if entry is None:
            p = lst.index(first)
            kids = lst[p:] + lst[:p]
        else:
            p = lst.index(entry)
            kids = lst[p + 1:] + lst[:p]
        out.append(len(kids))
        for x in reversed(kids):
            if x == _LEAF:
                work.append(("leaf",))
            else:
                work.append(("cell", x, cell))

    return build_halin(PlaneTree(tuple(out))), tuple(internal_of)


def pushforward_distribution(n: int, w: Callable[[int], Fraction]) -> dict:
    """Exact comparison of the weighted law of the tree shape against
    the conditioned branching-process law.

    Sums Boltzmann weights (product of w over bounded face degrees)
    over all maps with n bounded faces, grouped by the shape of the
    corresponding marked tree, and compares with the law of an
    offspring distribution mu(k) = a b^k (k+1) w(k+4) conditioned on
    total progeny n.  The conditioned law does not depend on a, b > 0,
    so unnormalized products are compared.  All arithmetic is exact.
    Both enumerations keep their size guards, so n > 10 raises
    SizeGuardError at once.
    """
    shape_mass: dict[tuple[int, ...], Fraction] = {}
    total = Fraction(0)
    for H in enumerate_halin(n):
        t = phi(H)
        wt = Fraction(H.weight(lambda k: Fraction(w(k))))
        shape_mass[t.shape.code] = shape_mass.get(t.shape.code, Fraction(0)) + wt
        total += wt
    if total == 0:
        raise InvariantError("partition function vanishes")
    pushed = {c: m / total for c, m in shape_mass.items()}

    gw_mass: dict[tuple[int, ...], Fraction] = {}
    gw_total = Fraction(0)
    for tree in enumerate_trees(n):
        mass = Fraction(1)
        for k in tree.code:
            mass *= (k + 1) * Fraction(w(k + 4))
        gw_mass[tree.code] = mass
        gw_total += mass
    gw = {c: m / gw_total for c, m in gw_mass.items()}

    keys = sorted(set(pushed) | set(gw))
    rows = []
    max_disc = Fraction(0)
    for c in keys:
        a = pushed.get(c, Fraction(0))
        b = gw.get(c, Fraction(0))
        rows.append({"shape": c, "pushforward": a, "conditioned": b})
        max_disc = max(max_disc, abs(a - b))
    return {"n": n, "rows": rows, "max_discrepancy": max_disc, "exact_match": max_disc == 0}
