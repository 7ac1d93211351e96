"""Correspondence between Halin-type maps and corner-marked plane trees.

A map H built over a one-leaf-child tree has a weak dual D which is a
dissection of a polygon: one dual vertex per bounded face, one dual
edge per tree edge of the underlying tree.  Edges dual to leaf edges
form the outer polygon of D; edges dual to internal tree edges form a
tree T spanning the dual vertices.  Each non-root vertex of T carries
a mark recording in which corner of T its two polygon edges sit, and
the root mark records which edge of H is the root edge.  ``phi`` maps
the Halin map to the marked tree by a walk that marks darts, labelling
faces only for ``phi_with_faces``; ``phi_inverse`` cuts the contour of
T at the marked corners into the cells of the dissection, the internal
vertices of the underlying tree, and builds its map.

The two pairings agree: the tree vertex dual to the face on the bounded
side of boundary edge i (leaf l_i to l_{i+1}) has the parent of l_i as
its cell.  ``_marked_vertex_of`` reads the lemma's vertex matching this
way; it equals the ``phi_inverse`` round trip, its test reference, on
every map with n <= 7 and on sampled maps up to n = 2048.

Orientation conventions (rotation direction of the dual, scan
direction for children and marks, which side of the root edge carries
the root cell) were fixed by requiring exhaustive bijectivity and
round-trip identity over all instances with up to four bounded faces;
they are frozen below.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from typing import Callable

from .errors import InvariantError
from .gw import _enumerated_law
from .experiments import sweep_trees
from .halin import HalinMap, build_halin, n_tree_darts, satisfies_hstar
from .plane_tree import MarkedTree, PlaneTree


def phi(H: HalinMap) -> MarkedTree:
    """Marked tree of a Halin map via its weak-dual dissection."""
    return _dual_walk(H)[0]


def phi_with_faces(H: HalinMap) -> tuple[MarkedTree, tuple[int, ...]]:
    """phi(H) and, for each of its vertices in lexicographic order, the bounded face dual to it."""
    marked, entered = _dual_walk(H)
    return marked, (H.root_face, *map(H.map.face_of.__getitem__, entered))


def _dual_walk(H: HalinMap) -> tuple[MarkedTree, list[int]]:
    """phi(H), and in preorder the darts through which the dual tree enters the
    other faces.  Darts, not faces, are marked: 1 unbounded, 2 root, 3 entered."""
    if not satisfies_hstar(H.tree):
        raise InvariantError("map does not satisfy the one-leaf-child rule")
    m = H.map
    twin, step, h = m.twin, m.face_nxt, m.half_edge_dart
    ntree = n_tree_darts(H.tree.zeta)
    # tree dart 2(v-1) or 2(v-1)+1 is dual to an internal tree edge (2)
    # or to a polygon side (1) as its lower end v is internal or a leaf;
    # the boundary darts and the half-edge are 0
    kind = [0] * m.n_darts
    kind[0:ntree:2] = kind[1:ntree:2] = [2 if k else 1 for k in H.tree.code[1:]]
    seen = bytearray(m.n_darts)
    d = ntree  # f_0, on the unbounded face
    while not seen[d]:
        seen[d], d = 1, step[d]

    # the root's rotation: the internal tree darts of its face from its
    # smallest dart on, cut just after the first adjacent pair of polygon darts
    root = seen[h] = seen[h] or 2  # 1 when the half-edge is on the unbounded face
    face, d = [h], step[h]
    while d != h:
        seen[d] = root
        face.append(d)
        d = step[d]
    i = face.index(min(face))
    cyc = [d for d in face[i:] + face[:i] if kind[d]]
    r = len(cyc)
    at = next((i for i in range(r) if kind[cyc[i]] == kind[cyc[(i + 1) % r]] == 1), None)
    if at is None:
        raise InvariantError("root face lacks an adjacent polygon-dart pair")
    rot0 = [d for d in cyc[at + 2:] + cyc[: at + 2] if kind[d] == 2]

    out_code, out_marks, entered = [len(rot0)], [0], []  # the root mark is set below
    # preorder over the dual tree: the stack holds the darts through
    # whose twins faces are entered.  A face entered at t lists its
    # children around the face from t on; its mark counts those before
    # its pair of polygon darts, which must be adjacent.
    work = rot0[::-1]
    while work:
        t = twin[work.pop()]
        if seen[t]:
            raise InvariantError("dual tree leaves the bounded faces" if seen[t] == 1
                                 else "dual tree revisits a face")
        seen[t] = 3
        kids, pair, d = [], [], step[t]  # pair: the children before each polygon dart
        while d != t:
            seen[d] = 3
            k = kind[d]
            if k == 2:
                kids.append(d)
            elif k:
                pair.append(len(kids))
            d = step[d]
        if len(pair) != 2 or pair[0] != pair[1]:
            raise InvariantError("dual vertex without an adjacent polygon pair")
        entered.append(t)
        out_code.append(len(kids))
        out_marks.append(pair[0])
        work += kids[::-1]
    if len(out_code) != H.n_internal:
        raise InvariantError("dual tree does not span the bounded faces")

    # root mark: index of the child dual to the root edge, or 0 when the
    # root edge is a leaf edge
    rd = m.root_dart
    if kind[rd] == 2:
        dual = rd if seen[rd] == root else twin[rd]
        out_marks[0] = rot0.index(dual) + 1
    return MarkedTree(PlaneTree(tuple(out_code)), tuple(out_marks)), entered


def _marked_vertex_of(H: HalinMap, faces: tuple[int, ...]) -> list[int]:
    """For every map vertex, the vertex of phi(H) it is matched with, from
    ``phi_with_faces(H)``'s faces: leaf l_i and its parent go to the
    vertex dual to the face of g_i, the bounded side of boundary edge i."""
    at = {f: v for v, f in enumerate(faces)}
    parents, face_of = H.tree.parents(), H.map.face_of
    out = [0] * H.tree.zeta
    g_darts = range(n_tree_darts(H.tree.zeta) + 1, H.map.n_darts, 2)  # g_0, g_1, ...
    for leaf, g in zip(H.tree.leaves(), g_darts):
        out[leaf] = out[parents[leaf]] = at[face_of[g]]
    return out


def phi_inverse(marked: MarkedTree) -> HalinMap:
    """Halin map of a marked tree: the map of ``_cut_contour``'s tree."""
    return build_halin(_cut_contour(marked))


def _cut_contour(marked: MarkedTree) -> PlaneTree:
    """Underlying tree of ``phi_inverse(marked)``: the segments of the tree
    contour cut at the marked corners are its internal vertices."""
    code, marks = marked.shape.code, marked.marks
    n = len(code)

    # the contour of the tree is its depth-first sequence of down and up
    # darts; tw[x] is the position of the other dart of the edge at x, and
    # start lists in order the positions whose dart leaves a marked corner,
    # each written once.  The root cuts at its wrap corner, before its first child.
    size = 2 * (n - 1)
    tw = [0] * size
    start = [0]
    root_pick = -1  # contour position of down(c_m) for the root mark m > 0
    x = 0
    # per open vertex: itself, its down position, its children to come,
    # and that count as its marked child comes (the root's child number m)
    stack = [[0, -1, code[0], code[0] - marks[0] + 1]]
    for v in range(1, n):
        top = stack[-1]
        left = top[2]
        top[2] = left - 1
        if left == top[3]:
            if top[0]:
                start.append(x)
            else:
                root_pick = x
        dv = x
        x += 1
        k = code[v]
        if k:
            stack.append([v, dv, k, k - marks[v]])
            continue
        # a leaf cuts at its up dart, and so does every vertex it closes
        # whose marked corner is its last
        start.append(x)
        tw[x], tw[dv] = dv, x
        x += 1
        while stack[-1][2] == 0 and len(stack) > 1:
            w, dw, _, _ = stack.pop()
            if marks[w] == code[w]:
                start.append(x)
            tw[x], tw[dw] = dw, x
            x += 1

    # the cells are the contour segments between consecutive cuts
    start.append(size)

    # preorder over the cell tree.  A cell's cyclic neighbours are one per
    # segment dart (through its twin), then its leaf child at the wrap; the
    # stack holds the positions through which cells are entered, -1 a leaf.
    if root_pick < 0:
        kids = [-1] + tw[: start[1]]
    else:
        y = tw[root_pick]
        c = bisect_right(start, y) - 1
        kids = tw[y : start[c + 1]] + [-1] + tw[start[c] : y]
    out = [len(kids)]
    rtw = tw[::-1]  # a reversed run of tw is one slice of rtw
    work = kids[::-1]
    while work:
        y = work.pop()
        if y < 0:
            out.append(0)
            continue
        c = bisect_right(start, y) - 1
        a, b = start[c], start[c + 1]
        out.append(b - a)
        work += rtw[size - y : size - a]  # tw[a:y] reversed
        work.append(-1)
        work += rtw[size - b : size - 1 - y]  # tw[y + 1:b] reversed

    return PlaneTree(tuple(out))


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
    SizeGuardError at once.  ``experiments.sweep_trees`` sums the masses
    per shape on every CPU, exactly, so no CPU count changes the result.
    """

    def shape_mass(tree: PlaneTree) -> Counter:
        H = build_halin(tree)
        return Counter({phi(H).shape.code: Fraction(H.weight(lambda k: Fraction(w(k))))})

    def add(a: Counter, b: Counter) -> Counter:
        a.update(b)  # adds b's masses to a's
        return a

    mass = sweep_trees(shape_mass, n, add=add)
    total = sum(mass.values(), Fraction(0))
    if total == 0:
        raise InvariantError("partition function vanishes")
    pushed = {c: m / total for c, m in mass.items()}

    gw = _enumerated_law(n, lambda k: (k + 1) * Fraction(w(k + 4)))

    keys = sorted(set(pushed) | set(gw))
    rows = []
    max_disc = Fraction(0)
    for c in keys:
        a = pushed.get(c, Fraction(0))
        b = gw.get(c, Fraction(0))
        rows.append({"shape": c, "pushforward": a, "conditioned": b})
        max_disc = max(max_disc, abs(a - b))
    return {"n": n, "rows": rows, "max_discrepancy": max_disc, "exact_match": max_disc == 0}
