"""The one-path versions of gh_exact, enumerate_trees, render(HalinMap),
hat_H, mark_uniformly, phi's dual walk, the lemma's vertex matching and
map_graph against the code they replaced, kept here as ``_reference``
functions, plus a brute-force GH on tiny spaces.  ``canonical_reference``
is the canonical form the tests compare rooted maps by."""

from bisect import bisect_right
from collections import Counter
from itertools import product

import numpy as np
import pytest

from halinloop.bijection import _marked_vertex_of, phi, phi_inverse, phi_with_faces
from halinloop.errors import BudgetExceededError, InvariantError, UsageError
from halinloop.experiments import mark_uniformly, render
from halinloop.gh_metric import FiniteMetricSpace, gh_exact
from halinloop.gw import mu_from_weights, sample_conditioned, stable_mu
from halinloop.halin import HalinMap, build_halin, enumerate_halin, hstar_trees, n_tree_darts, satisfies_hstar
from halinloop.looptree import (
    LoopGraph,
    _leaf_contraction,
    canonical_correspondence,
    halin_metric,
    hat_H,
    loop,
    map_graph,
)
from halinloop.plane_tree import MarkedTree, PlaneTree, enumerate_trees


def gh_exact_reference(x, y, budget=10**9):
    """Branch and bound with one loop for f: X -> Y and a mirrored one
    for g: Y -> X; returns the distance and the evaluations it used."""
    nx, ny = x.size, y.size
    dx, dy = x.dist, y.dist
    incumbent = max(x.diameter, y.diameter)
    u = np.full(nx, -1, dtype=int)
    v = np.full(ny, -1, dtype=int)
    evals = 0

    def rec(pos, cur):
        nonlocal incumbent, evals
        if cur >= incumbent:
            return
        if pos == nx + ny:
            incumbent = cur
            return
        if pos < nx:
            i = pos
            for c in range(ny):
                evals += 1
                if evals > budget:
                    raise BudgetExceededError("distortion evaluation budget exceeded")
                m = cur
                for j in range(i):
                    m = max(m, abs(dx[i, j] - dy[c, u[j]]))
                if m < incumbent:
                    u[i] = c
                    rec(pos + 1, m)
                u[i] = -1
        else:
            j = pos - nx
            for c in range(nx):
                evals += 1
                if evals > budget:
                    raise BudgetExceededError("distortion evaluation budget exceeded")
                m = cur
                for i in range(nx):
                    m = max(m, abs(dx[i, c] - dy[u[i], j]))
                    if m >= incumbent:
                        break
                else:
                    for jj in range(j):
                        m = max(m, abs(dx[c, v[jj]] - dy[j, jj]))
                        if m >= incumbent:
                            break
                if m < incumbent:
                    v[j] = c
                    rec(pos + 1, m)
                v[j] = -1

    rec(0, 0.0)
    return 0.5 * incumbent, evals


def gh_brute_force(x, y):
    """Half the least distortion of graph(f) with the transpose of
    graph(g), over every function pair f: X -> Y, g: Y -> X."""
    best = np.inf
    for f in product(range(y.size), repeat=x.size):
        for g in product(range(x.size), repeat=y.size):
            pairs = [*enumerate(f), *((a, b) for b, a in enumerate(g))]
            best = min(best, max(abs(x.dist[a, a2] - y.dist[b, b2])
                                 for a, b in pairs for a2, b2 in pairs))
    return 0.5 * best


def enumerate_trees_reference(n):
    """Every child count in range(remaining), filtered by the walk."""

    def rec(prefix, walk, remaining):
        if remaining == 0:
            if walk == -1:
                yield tuple(prefix)
            return
        for k in range(0, remaining):
            w = walk + k - 1
            if remaining > 1 and w < 0:
                continue
            if remaining == 1 and w != -1:
                continue
            if w > remaining - 2 and remaining > 1:
                continue
            prefix.append(k)
            yield from rec(prefix, w, remaining - 1)
            prefix.pop()

    yield from rec([], 0, n)


def canonical_reference(m, outer_face=None):
    """Darts relabelled by BFS from the root dart (a popped queue and a
    label dict): two maps are equal as rooted maps iff their forms agree.

    A rotation system only fixes the map on the sphere.  With
    ``outer_face`` the form also records which face is unbounded, which
    can separate maps that are isomorphic on the sphere: the form of a
    map of the plane."""
    order = {m.root_dart: 0}
    queue = [m.root_dart]
    while queue:
        d = queue.pop(0)
        for e in (m.nxt[d], m.twin[d]):
            if e not in order:
                order[e] = len(order)
                queue.append(e)
    inv = sorted(order, key=order.get)
    twin = tuple(order[m.twin[d]] for d in inv)
    nxt = tuple(order[m.nxt[d]] for d in inv)
    half = order[m.half_edge_dart] if m.half_edge_dart is not None else None
    form = (twin, nxt, 0, half)
    if outer_face is not None:
        form += (min(order[d] for d in m.faces[outer_face]),)
    return form


def render_halin_reference(H):
    """DOT text with the red edges found as the edges at the leaves."""
    m = H.map

    def edge_of(d):
        t = m.twin[d]
        return (d, t) if d < t else (t, d)

    boundary = {edge_of(d) for leaf in H.tree.leaves() for d in m.vertices[leaf]}
    lines = ["graph halin {"]
    lines += ["  %d;" % v for v in range(m.n_vertices)]
    for d, t in m.edges():
        style = ' [color="red"]' if (d, t) in boundary else ""
        lines.append("  %d -- %d%s;" % (m.vertex_of[d], m.vertex_of[t], style))
    for d in range(m.n_darts):
        if m.twin[d] == d:
            lines.append('  h [shape="point"];')
            lines.append('  %d -- h [style="dashed"];' % m.vertex_of[d])
    return "\n".join(lines + ["}"])


def map_graph_reference(m):
    """Vertex graph of a map by its darts: one edge per dart pair, from
    the vertex orbits, none for the half-edge."""
    return LoopGraph(m.n_vertices, tuple((m.vertex_of[d], m.vertex_of[t]) for d, t in m.edges()))


def hat_H_reference(H):
    """Leaf-contracted map metric with its edges re-derived from the tree:
    the tree edges between internal vertices, then the images of
    consecutive leaves around the leaf cycle when they differ."""
    internal, image = _leaf_contraction(H.tree)
    parents = H.tree.parents()
    edges = [(image[parents[v]], image[v]) for v in internal if v > 0]
    leaves = H.tree.leaves()
    lam = len(leaves)
    for i in range(lam):
        a, b = image[leaves[i]], image[leaves[(i + 1) % lam]]
        if a != b:
            edges.append((a, b))
    return LoopGraph(len(internal), tuple(edges)).metric_space(), internal


def phi_inverse_cells_reference(marked):
    """(tree code, cells) of the Halin map of ``marked``: phi_inverse with
    its cell bookkeeping, the round trip the lemma read its vertex
    matching from.  cells[v] is the internal map vertex carved out by the
    contour segment of marked-tree vertex v."""
    code, marks = marked.shape.code, marked.marks
    n = len(code)
    if n == 1:
        return (1, 0), (0,)
    size = 2 * (n - 1)
    tw = [0] * size
    cutter = [-1] * size
    cutter[0] = 0
    root_pick = -1
    x = 0
    stack = [[0, -1, code[0], code[0] - marks[0] + 1]]
    for v in range(1, n):
        top = stack[-1]
        left = top[2]
        top[2] = left - 1
        if left == top[3]:
            if top[0]:
                cutter[x] = top[0]
            else:
                root_pick = x
        dv = x
        x += 1
        k = code[v]
        if k:
            stack.append([v, dv, k, k - marks[v]])
            continue
        cutter[x] = v
        tw[x], tw[dv] = dv, x
        x += 1
        while stack[-1][2] == 0 and len(stack) > 1:
            w, dw, _, _ = stack.pop()
            if marks[w] == code[w]:
                cutter[x] = w
            tw[x], tw[dw] = dw, x
            x += 1
    start = [x for x, w in enumerate(cutter) if w >= 0] + [size]
    owner = [w for w in cutter if w >= 0]
    if root_pick < 0:
        kids = [-1] + tw[: start[1]]
    else:
        y = tw[root_pick]
        c = bisect_right(start, y) - 1
        kids = tw[y : start[c + 1]] + [-1] + tw[start[c] : y]
    out = [len(kids)]
    internal_of = [0] * n
    work = kids[::-1]
    while work:
        y = work.pop()
        if y < 0:
            out.append(0)
            continue
        c = bisect_right(start, y) - 1
        internal_of[owner[c]] = len(out)
        a, b = start[c], start[c + 1]
        out.append(b - a)
        work += tw[a:y][::-1]
        work.append(-1)
        work += tw[y + 1 : b][::-1]
    return tuple(out), tuple(internal_of)


def phi_with_faces_reference(H):
    """phi_with_faces with every face labelled: the root face's cycle is
    read from its smallest dart, and the checks compare face labels."""
    if not satisfies_hstar(H.tree):
        raise InvariantError("map does not satisfy the one-leaf-child rule")
    m = H.map
    twin, step, face_of = m.twin, m.face_nxt, m.face_of
    ntree = n_tree_darts(H.tree.zeta)
    kind = [0] * m.n_darts
    kind[0:ntree:2] = kind[1:ntree:2] = [2 if k else 1 for k in H.tree.code[1:]]
    outer, root_face = H.outer_face, H.root_face
    cyc = [d for d in m.faces[root_face] if kind[d]]
    r = len(cyc)
    at = next((i for i in range(r) if kind[cyc[i]] == kind[cyc[(i + 1) % r]] == 1), None)
    if at is None:
        raise InvariantError("root face lacks an adjacent polygon-dart pair")
    rot0 = [d for d in cyc[at + 2:] + cyc[: at + 2] if kind[d] == 2]
    out_code = [len(rot0)]
    out_marks = [0]
    faces_pre = [root_face]
    seen = bytearray(m.n_faces)
    seen[root_face] = 1
    work = rot0[::-1]
    while work:
        t = twin[work.pop()]
        f = face_of[t]
        if f == outer:
            raise InvariantError("dual tree leaves the bounded faces")
        if seen[f]:
            raise InvariantError("dual tree revisits a face")
        seen[f] = 1
        kids = []
        mark = polygon = 0
        d = step[t]
        while d != t:
            k = kind[d]
            if k == 2:
                kids.append(d)
            elif k:
                polygon += 1
                if polygon == 1:
                    mark = len(kids)
                elif len(kids) != mark:
                    polygon = 3
            d = step[d]
        if polygon != 2:
            raise InvariantError("dual vertex without an adjacent polygon pair")
        faces_pre.append(f)
        out_code.append(len(kids))
        out_marks.append(mark)
        work += kids[::-1]
    if len(out_code) != H.n_internal:
        raise InvariantError("dual tree does not span the bounded faces")
    rd = m.root_dart
    if kind[rd] == 2:
        dual = rd if face_of[rd] == root_face else twin[rd]
        out_marks[0] = rot0.index(dual) + 1
    return MarkedTree(PlaneTree(tuple(out_code)), tuple(out_marks)), tuple(faces_pre)


def vertex_matching_reference(H):
    """(matching, cells): each map vertex goes to the marked-tree vertex
    whose cell is its leaf-contraction image, through the round trip."""
    code, cells = phi_inverse_cells_reference(phi(H))
    assert code == H.tree.code
    owner = {w: v for v, w in enumerate(cells)}
    internal, image = _leaf_contraction(H.tree)
    return [owner[internal[i]] for i in image], cells


def canonical_pairs_reference(H):
    """canonical_correspondence's pairs: (hat_H index of cells[v], v) in v order."""
    _, cells = vertex_matching_reference(H)
    internal, _ = _leaf_contraction(H.tree)
    index = {w: i for i, w in enumerate(internal)}
    return tuple((index[w], v) for v, w in enumerate(cells))


def mark_uniformly_marks_reference(tree, rng):
    """One rng.integers call per vertex, in order."""
    return tuple(int(rng.integers(0, k + 1)) for k in tree.code)


def _l1_space(rng, n_points):
    pts = rng.integers(0, 4, size=(n_points, int(rng.integers(1, 4))))
    return FiniteMetricSpace(np.abs(pts[:, None] - pts[None]).sum(-1))


def _outcome(solver, x, y, budget):
    try:
        return solver(x, y, budget=budget)
    except BudgetExceededError as e:
        return str(e)


def _assert_same_as_reference(x, y, budgets):
    """Same distance, or the same error, at each budget and at the budget
    the search needs and one below it: the budget runs out at the same
    evaluation."""
    _, evals = gh_exact_reference(x, y)
    for budget in (*budgets, evals, evals - 1):
        want = _outcome(lambda x, y, budget: gh_exact_reference(x, y, budget)[0], x, y, budget)
        assert _outcome(gh_exact, x, y, budget) == want
    # the evaluation counter is the one budget: it is enough exactly when it
    # covers the evaluations the search makes
    assert isinstance(_outcome(gh_exact, x, y, evals), float)
    if evals:
        assert _outcome(gh_exact, x, y, evals - 1) == "distortion evaluation budget exceeded"


def _maps_to_compare():
    """Every map with n <= 6, and three sampled maps at each n in
    {50, 300, 2000}."""
    for n in range(1, 7):
        yield from enumerate_halin(n)
    rng = np.random.default_rng(10)
    for n in (50, 300, 2000):
        for mu in (mu_from_weights(lambda k: 1.0), stable_mu(1.5), stable_mu(1.2)):
            shape = sample_conditioned(mu, n, rng)
            yield phi_inverse(MarkedTree(shape, tuple(int(rng.integers(0, k + 1)) for k in shape.code)))


def _matching_maps():
    """Every map with n <= 7, and three sampled maps at each n in
    {10, 50, 500, 2048} under stable 1.5 and uniform weights."""
    for n in range(1, 8):
        yield from enumerate_halin(n)
    rng = np.random.default_rng(20)
    for n in (10, 50, 500, 2048):
        for mu in (stable_mu(1.5), mu_from_weights(lambda k: 1.0)):
            for _ in range(3):
                shape = sample_conditioned(mu, n, rng)
                yield phi_inverse(MarkedTree(shape, tuple(int(rng.integers(0, k + 1)) for k in shape.code)))


class TestGHExact:
    def test_matches_reference_on_every_small_map(self):
        for n in range(1, 5):
            for H in enumerate_halin(n):
                x, y = halin_metric(H), loop(phi(H).shape).metric_space()
                _assert_same_as_reference(x, y, (10**8,))

    def test_matches_reference_on_random_spaces(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            x = _l1_space(rng, int(rng.integers(1, 6)))
            y = _l1_space(rng, int(rng.integers(1, 6)))
            _assert_same_as_reference(x, y, (10, 100, 1000))

    def test_matches_brute_force_on_tiny_spaces(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            spaces = []
            for _ in range(2):
                pts = rng.normal(size=(int(rng.integers(1, 4)), 2))
                spaces.append(FiniteMetricSpace(np.linalg.norm(pts[:, None] - pts[None], axis=-1)))
            x, y = spaces
            assert gh_exact(x, y) == pytest.approx(gh_brute_force(x, y), abs=1e-12)


def test_enumerate_trees_matches_reference():
    for n in range(1, 13):
        assert [t.code for t in enumerate_trees(n)] == list(enumerate_trees_reference(n))


def test_render_matches_reference():
    for H in _maps_to_compare():
        assert render(H) == render_halin_reference(H)


def test_map_graph_matches_reference():
    """The graph read off the tree is the dart walk's, edge for edge in
    the same order, on every map with n <= 7 and on sampled stable-1.5
    and uniform maps with n from 1,000 to 16,384."""
    maps = [H for n in range(1, 8) for H in enumerate_halin(n)]
    rng = np.random.default_rng(26)
    for n in (1000, 4096, 16384):
        for mu in (stable_mu(1.5), mu_from_weights(lambda k: 1.0)):
            shape = sample_conditioned(mu, n, rng)
            maps.append(phi_inverse(MarkedTree(shape, tuple(rng.integers(0, shape.counts + 1).tolist()))))
    assert len(maps) == 4787 + 6
    for H in maps:
        assert map_graph(H.tree) == map_graph_reference(H.map)


@pytest.mark.parametrize("code", [(2, 0, 0), (1, 1, 0), (2, 0, 2, 0, 0), (0,)])
def test_map_graph_refuses_what_build_halin_refuses(code):
    """A tree with no Halin map raises as build_halin does: InvariantError
    off the one-leaf-child rule, UsageError with no edge."""
    tree = PlaneTree(code)
    with pytest.raises((InvariantError, UsageError)) as want:
        build_halin(tree)
    with pytest.raises(want.type, match=str(want.value)):
        map_graph(tree)


def test_hat_H_matches_reference():
    # FiniteMetricSpace's triangle check is cubic: the n = 2000 maps take minutes
    for H in (H for H in _maps_to_compare() if H.n_internal <= 300):
        space, internal = hat_H(H)
        want, want_internal = hat_H_reference(H)
        assert internal == want_internal
        assert np.array_equal(space.dist, want.dist)


def test_mark_uniformly_matches_reference():
    """The same marks, and the generator left in the same state, on
    trees whose child counts span small and large bounds."""
    mus = (mu_from_weights(lambda k: 1.0), stable_mu(1.5), stable_mu(1.2))
    for i, n in enumerate((1, 2, 7, 50, 10_000)):
        tree = sample_conditioned(mus[i % 3], n, i)
        rng, ref = np.random.default_rng(i), np.random.default_rng(i)
        assert mark_uniformly(tree, rng).marks == mark_uniformly_marks_reference(tree, ref)
        assert rng.bit_generator.state == ref.bit_generator.state


def _phi_outcome(phi_of, H):
    try:
        return phi_of(H)
    except InvariantError as e:
        return str(e)


def test_phi_matches_reference():
    """The dart-marking walk gives phi_with_faces' value, and phi its
    marked tree, on every map with n <= 7 and on sampled maps up to
    n = 2048."""
    for H in _matching_maps():
        want = phi_with_faces_reference(H)
        assert phi(H) == want[0]
        assert phi_with_faces(H) == want


def test_phi_matches_reference_on_mismatched_maps():
    """On the map of one tree read with another, the walk gives the
    reference's value or raises its InvariantError: for distinct
    one-leaf-child trees of the same size, n <= 5, with the outcomes
    pinned per message, and for a tree read on the map of a larger one."""
    trees = {n: list(hstar_trees(n)) for n in range(1, 6)}
    maps = {n: [build_halin(t).map for t in ts] for n, ts in trees.items()}
    outcomes = Counter()
    for n_a in range(1, 6):
        for n_b in range(n_a, 6):
            for a in trees[n_a]:
                for b, m in zip(trees[n_b], maps[n_b]):
                    if a == b:
                        continue
                    want = _phi_outcome(phi_with_faces_reference, HalinMap(a, m))
                    assert _phi_outcome(phi_with_faces, HalinMap(a, m)) == want
                    assert _phi_outcome(phi, HalinMap(a, m)) == (want if isinstance(want, str) else want[0])
                    if n_a == n_b:
                        outcomes[want if isinstance(want, str) else "ok"] += 1
    assert outcomes == {
        "root face lacks an adjacent polygon-dart pair": 10_435,
        "dual vertex without an adjacent polygon pair": 8_808,
        "dual tree does not span the bounded faces": 1_060,
        "dual tree revisits a face": 99,
        "ok": 818,
    }
    # the n = 6 pairs (indices into hstar_trees(6)) whose revisit shows only
    # because every dart of an entered face is marked, not just the dart
    # that entered it
    trees = list(hstar_trees(6))
    for i, j in ((19, 331), (19, 572), (72, 331), (72, 572), (305, 331), (305, 572),
                 (328, 331), (328, 572), (493, 526), (562, 331), (562, 572)):
        H = HalinMap(trees[i], build_halin(trees[j]).map)
        assert _phi_outcome(phi, H) == _phi_outcome(phi_with_faces_reference, H) == "dual tree revisits a face"


def test_vertex_matching_matches_round_trip():
    """The matching read off phi's faces, and the cells it gives (the
    internal vertex matched with each marked-tree vertex), equal the
    phi_inverse round trip's."""
    for H in _matching_maps():
        match = _marked_vertex_of(H, phi_with_faces(H)[1])
        want, want_cells = vertex_matching_reference(H)
        assert match == want
        cells = [0] * H.n_internal
        for w, k in enumerate(H.tree.code):
            if k:
                cells[match[w]] = w
        assert tuple(cells) == want_cells


def test_canonical_correspondence_matches_reference():
    # hat_H's cubic metric check makes the n = 7 sweep and n >= 500 slow
    for H in _matching_maps():
        if H.n_internal != 7 and H.n_internal <= 50:
            assert canonical_correspondence(H)[2].pairs == canonical_pairs_reference(H)


def test_single_edge_map_matching():
    H = phi_inverse(MarkedTree(PlaneTree((0,)), (0,)))
    assert _marked_vertex_of(H, phi_with_faces(H)[1]) == [0, 0]
