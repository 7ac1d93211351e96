"""The one-pass Halin-map layer against the per-vertex-list construction
it replaced: rotations as lists per vertex, orbits by a plain walk, and
phi / phi^-1 over filtered face cycles, ``list.index`` and dicts."""

import numpy as np
import pytest
from conftest import _orbits_reference, map_orbits, tree_views

from halinloop.bijection import _marked_vertex_of, phi_inverse, phi_with_faces
from halinloop.gw import mu_from_weights, sample_conditioned, stable_mu
from halinloop.halin import build_halin, enumerate_halin
from halinloop.plane_tree import MarkedTree, PlaneTree, enumerate_marked

_LEAF = -1


def _down(v):
    return 2 * (v - 1)


def _up(v):
    return 2 * (v - 1) + 1


def _index_of(orbits, n):
    out = [0] * n
    for i, orb in enumerate(orbits):
        for d in orb:
            out[d] = i
    return tuple(out)


def _rotations_to_nxt_reference(rotations, n_darts):
    nxt = [0] * n_darts
    for rot in rotations:
        for j, d in enumerate(rot):
            nxt[d] = rot[(j + 1) % len(rot)]
    return nxt


def _tree_rotations_reference(tree):
    return [([_up(v)] if v else []) + [_down(c) for c in kids]
            for v, kids in enumerate(tree_views(tree)[1])]


def _build_reference(tree):
    """twin, nxt, root dart, half-edge dart and orbits of the Halin map
    of ``tree``, rotation lists first."""
    zeta = tree.zeta
    leaves = tree_views(tree)[2]
    lam = len(leaves)
    base = 2 * (zeta - 1)
    h = base + 2 * lam
    rotations = _tree_rotations_reference(tree)
    rotations[0].insert(1, h)
    for i, v in enumerate(leaves):
        rotations[v] += [base + 2 * ((i - 1) % lam) + 1, base + 2 * i]
    twin = tuple([d ^ 1 for d in range(h)] + [h])
    nxt = tuple(_rotations_to_nxt_reference(rotations, h + 1))
    vertices = _orbits_reference(nxt)[0]
    faces = _orbits_reference([nxt[twin[d]] for d in range(h + 1)])[0]
    face_of = _index_of(faces, h + 1)
    return {
        "twin": twin, "nxt": nxt, "root_dart": 0, "half_edge_dart": h,
        "vertices": vertices, "faces": faces,
        "vertex_of": _index_of(vertices, h + 1), "face_of": face_of,
        "outer_face": face_of[base],
    }


def _fields(H):
    m = H.map
    return {
        "twin": m.twin, "nxt": m.nxt, "root_dart": m.root_dart,
        "half_edge_dart": m.half_edge_dart, **dict(zip(("vertices", "faces"), map_orbits(m))),
        "vertex_of": m.vertex_of, "face_of": m.face_of, "outer_face": H.outer_face,
    }


def _phi_reference(tree, ref):
    """(code, marks, faces in preorder) of the marked tree of the map
    ``ref`` built over ``tree``."""
    code = tree.code
    twin, faces, face_of = ref["twin"], ref["faces"], ref["face_of"]
    ntree = 2 * (tree.zeta - 1)
    internal = [code[d // 2 + 1] != 0 for d in range(ntree)]
    outer = ref["outer_face"]
    root_face = face_of[ref["half_edge_dart"]]
    cycles = {f: [d for d in orb if d < ntree] for f, orb in enumerate(faces) if f != outer}
    face_of_dart = {d: f for f, cyc in cycles.items() for d in cyc}

    cyc = cycles[root_face]
    r = len(cyc)
    at = next(i for i, d in enumerate(cyc) if not internal[d] and not internal[cyc[(i + 1) % r]])
    j = (at + 2) % r
    rot0 = (cyc[j:] + cyc[:j])[:-2]

    out_code, out_marks, faces_pre = [], [], []
    seen = {root_face}
    work = [(root_face, rot0, True)]
    while work:
        face, rot, is_root = work.pop()
        faces_pre.append(face)
        children = [d for d in rot if internal[d]]
        out_code.append(len(children))
        if is_root:
            out_marks.append(0)
        else:
            leaf_pos = [i for i, d in enumerate(rot) if not internal[d]]
            assert len(leaf_pos) == 2 and leaf_pos[1] == leaf_pos[0] + 1
            out_marks.append(sum(1 for d in rot[: leaf_pos[0]] if internal[d]))
        for d in reversed(children):
            t = twin[d]
            cf = face_of_dart[t]
            assert cf not in seen
            seen.add(cf)
            c = cycles[cf]
            p = c.index(t)
            work.append((cf, c[p + 1:] + c[:p], False))
    rd = ref["root_dart"]
    if internal[rd]:
        dual = rd if face_of[rd] == root_face else twin[rd]
        out_marks[0] = [d for d in rot0 if internal[d]].index(dual) + 1
    return tuple(out_code), tuple(out_marks), tuple(faces_pre)


def _phi_inverse_reference(marked):
    """(tree code, internal_of) of the Halin map of ``marked``, by
    walking the contour through ``nxt`` and cutting it with dicts."""
    T, marks = marked.shape, marked.marks
    code, n = T.code, T.zeta
    if n == 1:
        return (1, 0), (0,)
    ch = tree_views(T)[1]
    nxt = _rotations_to_nxt_reference(_tree_rotations_reference(T), 2 * (n - 1))
    start = _down(ch[0][0])
    contour = [start]
    d = nxt[start ^ 1]
    while d != start:
        contour.append(d)
        d = nxt[d ^ 1]
    cuts = {}
    for v in range(n):
        k, m = code[v], marks[v]
        if v == 0:
            cuts[_down(ch[0][0])] = v
        elif k == 0 or m == k:
            cuts[_up(v)] = v
        else:
            cuts[_down(ch[v][m])] = v
    idx = [i for i, dd in enumerate(contour) if dd in cuts]
    segs = [[contour[i % len(contour)] for i in range(a, b)]
            for a, b in zip(idx, idx[1:] + [idx[0] + len(contour)])]
    cell_of = {dd: ci for ci, s in enumerate(segs) for dd in s}
    owner = [cuts[s[0]] for s in segs]
    rots = [[cell_of[dd ^ 1] for dd in s] + [_LEAF] for s in segs]
    rm = marks[0]
    if rm == 0:
        root_cell, first = cell_of[_down(ch[0][0])], _LEAF
    else:
        e = _down(ch[0][rm - 1])
        root_cell, first = cell_of[e ^ 1], cell_of[e]
    out = []
    internal_of = [0] * n
    work = [("cell", root_cell, None)]
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
            work.append(("leaf",) if x == _LEAF else ("cell", x, cell))
    return tuple(out), tuple(internal_of)


def _check_map(H):
    ref = _build_reference(H.tree)
    assert _fields(H) == ref
    marked, faces = phi_with_faces(H)
    assert (marked.shape.code, marked.marks, faces) == _phi_reference(H.tree, ref)


def _cells(H):
    """For each vertex of phi(H), the internal map vertex matched with it
    by ``_marked_vertex_of``."""
    match = _marked_vertex_of(H, phi_with_faces(H)[1])
    cells = [0] * H.n_internal
    for w, k in enumerate(H.tree.code):
        if k:
            cells[match[w]] = w
    return tuple(cells)


def _check_marked(mt):
    H = phi_inverse(mt)
    assert (H.tree.code, _cells(H)) == _phi_inverse_reference(mt)
    _check_map(H)


class TestAgainstReference:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_map(self, n):
        for H in enumerate_halin(n):
            _check_map(H)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_marked_tree(self, n):
        for mt in enumerate_marked(n):
            _check_marked(mt)

    @pytest.mark.parametrize("n", [64, 256, 2048])
    @pytest.mark.parametrize("alpha", [1.5, None])  # None: uniform weights
    def test_sampled(self, n, alpha):
        mu = stable_mu(alpha) if alpha else mu_from_weights(lambda k: 1.0)
        rng = np.random.default_rng([n, 9])
        for _ in range(3):
            shape = sample_conditioned(mu, n, rng)
            marks = rng.integers(0, np.asarray(shape.code) + 1)
            _check_marked(MarkedTree(shape, tuple(marks.tolist())))

    def test_single_edge_map(self):
        _check_map(build_halin(PlaneTree((1, 0))))
