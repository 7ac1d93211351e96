"""Looptrees of plane trees and the contracted/shifted comparison spaces.

``loop`` replaces each internal vertex's star by a cycle: vertex v with
children v1..vk gains edges (v,v1), (v,vk) and (vi,vi+1); for k = 1 the
edge (v,v1) is doubled.  The edge multiset is kept as stated even
though multiplicities never change distances.

``hat_H`` contracts every leaf edge of the underlying tree of a Halin
map, giving a metric on its internal vertices.  ``hat_L`` shifts the
subtrees on the root loop of the looptree according to the root mark:
the last subtree re-attaches at the root, the subtrees past the mark
move one slot onward, and the freed slot keeps the bare attachment
vertex.  These are the two spaces whose canonical vertex
identification has distortion at most twice the tree height.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import InvariantError, SizeGuardError, UsageError
from .gh_metric import Correspondence, FiniteMetricSpace
from .halin import HalinMap, require_hstar
from .plane_tree import MarkedTree, PlaneTree

_MATRIX_GUARD = 4_096


@dataclass(frozen=True)
class LoopGraph:
    """An undirected unit-length multigraph on vertices 0..n-1, and its
    graph metric."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def _csr(self):
        # symmetric adjacency; loops are dropped since they never
        # shorten a path
        from scipy import sparse

        ends = np.fromiter(chain.from_iterable(self.edges), np.int64, 2 * len(self.edges)).reshape(-1, 2)
        ends = ends[ends[:, 0] != ends[:, 1]]
        rows, cols = ends.ravel(), ends[:, ::-1].ravel()
        return sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(self.n, self.n)).tocsr()

    def distances_from(self, sources) -> np.ndarray:
        """Hop distances from each source, one ``_bfs`` row per source, in
        the order of ``sources``; raises UsageError on a disconnected graph."""
        return np.stack([self._bfs(s) for s in np.atleast_1d(sources).tolist()])

    def _bfs(self, source: int) -> np.ndarray:
        """Hop distances from source, by one C breadth-first search;
        raises UsageError on a disconnected graph.  The adjacency is
        symmetric, so the directed search sees every edge from both ends.

        The distances are read off the BFS tree by pointer jumping: after
        k rounds each vertex holds its distance to its 2^k-th ancestor,
        or to the source, which every vertex has reached once the last
        vertex of the BFS order, a deepest one, has."""
        from scipy.sparse.csgraph import breadth_first_order

        order, pred = breadth_first_order(self._csr, source, directed=True, return_predecessors=True)
        if order.size < self.n:
            raise UsageError("graph is disconnected")
        pred[source] = source
        up = pred.astype(np.intp)
        d = np.ones(self.n, np.intp)
        d[source] = 0
        while up[order[-1]] != source:
            d += d[up]
            up = up[up]
        return d

    def all_distances(self) -> np.ndarray:
        if self.n > _MATRIX_GUARD:
            raise SizeGuardError("distance matrix for %d vertices" % self.n)
        return self.distances_from(np.arange(self.n))

    def metric_space(self) -> FiniteMetricSpace:
        return FiniteMetricSpace(self.all_distances())

    def diameter(self) -> int:
        """Exact diameter by iFUB (Crescenzi et al., *On computing the
        diameter of real-world undirected graphs*, TCS 514, 2013) with
        the per-vertex eccentricity bounds of Takes and Kosters
        (*Determining the diameter of small world networks*, CIKM 2011).

        A double sweep gives a lower bound lb and a central root; the
        vertices are then swept one BFS level at a time from the
        deepest.  A pair farther apart than 2i has an end deeper than
        level i, whose eccentricity is at most lb, so once 2i <= lb lb
        is the diameter.  Every sweep from s lowers the upper bound
        hi(u) = min(hi(u), ecc(s) + d(s, u)); a vertex with hi(u) <= lb
        needs no sweep of its own, since its eccentricity is already at
        most lb.  Raises UsageError on a disconnected graph.
        """
        lb, hi = 0, np.full(self.n, self.n)

        def sweep(s: int) -> np.ndarray:
            nonlocal lb
            d = self._bfs(s)
            ecc = int(d.max())
            lb = max(lb, ecc)
            np.minimum(hi, ecc + d, out=hi)
            return d

        # double sweep: far vertex from an arbitrary start, then its
        # farthest partner; root the level structure between them
        a = int(sweep(0).argmax())
        da = sweep(a)
        b = int(da.argmax())
        dab = int(da[b])
        db = sweep(b)
        on_path = np.nonzero((da + db == dab) & (da == dab // 2))[0]
        dr = sweep(int(on_path[0]) if on_path.size else a)
        # level lv is by_level[ends[lv - 1]:ends[lv]], ascending vertex id
        by_level = np.argsort(dr, kind="stable")
        ends = np.cumsum(np.bincount(dr)).tolist()
        for lv in range(len(ends) - 1, 0, -1):
            if 2 * lv <= lb:
                break
            level = by_level[ends[lv - 1] : ends[lv]]
            for u in level[hi[level] > lb].tolist():
                if hi[u] > lb:  # hi may have fallen since the filter
                    sweep(u)
        return lb


def _cycle_edges(edges: list, hub: int, ring) -> None:
    """Append the cycle hub, ring[0], ..., ring[-1], hub: the two hub
    edges first, then consecutive ring members (a doubled edge when the
    ring has one member)."""
    edges.append((hub, ring[0]))
    edges.append((hub, ring[-1]))
    edges.extend(zip(ring, ring[1:]))


def loop(tree: PlaneTree) -> LoopGraph:
    """Looptree: each sibling block forms a cycle through the parent."""
    edges: list[tuple[int, int]] = []
    for v, kids in enumerate(tree.children()):
        if kids:
            _cycle_edges(edges, v, kids)
    g = LoopGraph(tree.zeta, tuple(edges))
    expect = sum(k + 1 for k in tree.code if k >= 1)
    if len(g.edges) != expect:
        raise InvariantError("looptree edge count mismatch")
    return g


def _range_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(values[lo[i]:hi[i]]) for every i; every range must be non-empty.

    Sparse-table queries built one doubling at a time, so memory stays
    linear: at level j, m[p] = max(values[p : p + 2**j]), and a range
    whose length has floor(log2) = j is covered by two such windows.
    """
    level = (np.frexp(hi - lo)[1] - 1).astype(np.int8)
    order = np.argsort(level, kind="stable")
    bounds = np.searchsorted(level[order], np.arange(int(level.max()) + 2))
    out = np.empty(lo.size, values.dtype)
    m = values
    for j in range(bounds.size - 1):
        idx = order[bounds[j] : bounds[j + 1]]
        out[idx] = np.maximum(m[lo[idx]], m[hi[idx] - (1 << j)])
        if j + 2 < bounds.size:
            m = np.maximum(m[: -(1 << j)], m[1 << j :])
    return out


def loop_diameter(tree: PlaneTree) -> int:
    """Exact looptree diameter from the Lukasiewicz walk, on arrays.

    A looptree is a tree of cycles glued at vertices, so the farthest
    pair appears inside some cycle: it maximizes a_s + d + a_t over
    positions s, t at cyclic distance d on the cycle, where a_p is the
    hanging height below position p (position 0 is the cycle's owner,
    with a_0 = 0).  Following the looptree coding by the Lukasiewicz
    walk W (Curien-Kortchemski, *Random stable looptrees*, EJP 19,
    2014), every quantity is read off the tree's ``structure``: W, the
    subtree ends tau (v's subtree is [v, tau_v)) and the parents.

    - child j of p sits at position r_j = W_p + k_p - W_j on p's cycle
      and is min(r_j, k_p + 1 - r_j) steps from p; a cumulative sum of
      these steps over [v, tau_v) gives the loop depth D;
    - the hanging height is max D[v:tau_v) - D_v;
    - with the cycles laid end to end in an array a, lb = max(a_p +
      a_{p+1}) + 1 is a realised distance: adjacent entries are one step
      apart, or (last position, next owner) with a = 0 at the owner, the
      value of the last position with its own owner;
    - no pair on a cycle of length L beats 2 max(a) + floor(L/2); only
      cycles whose bound exceeds lb take the two range maxima per
      position t, the short way round, s in [t - floor(L/2), t - 1], and
      the long way round, s <= t - ceil(L/2).

    The range maxima are sparse-table queries (Bender and Farach-Colton,
    *The LCA problem revisited*, LATIN 2000), so the whole computation
    is a fixed set of numpy passes plus O(log n) doubling passes, with
    no Python loop over vertices or cycles.
    """
    n = tree.zeta
    if n == 1:
        return 0
    # int32 arrays, the local ones deleted once used: peak memory matters at n = 2^20
    i32 = np.int32
    walk, tau, par = tree.structure.walk, tree.structure.tau, tree.structure.parent[1:]
    k = tree.counts
    kp = k[par]
    rank = walk[par] + kp - walk[1:n]
    step = np.minimum(rank, kp + 1 - rank)
    del kp
    # float64 sums of integers below 2^53 are exact
    delta = np.bincount(tau[1:], weights=-step, minlength=n + 1)[:n]
    delta[1:] += step
    depth = np.cumsum(delta).astype(i32)
    del delta, step
    internal = np.flatnonzero(k).astype(i32)
    hang = np.zeros(n, i32)
    hang[internal] = _range_max(depth, internal, tau[internal]) - depth[internal]
    del depth
    size = k[internal] + 1
    start = np.zeros(n, i32)
    start[internal] = np.cumsum(size, dtype=i32) - size
    a = np.zeros(int(size.sum()), i32)
    a[start[par] + rank] = hang[1:]
    lb = int((a[1:] + a[:-1]).max()) + 1
    keep = 2 * np.maximum.reduceat(a, start[internal]) + size // 2 > lb
    if not keep.any():
        return lb
    start, size = start[internal][keep], size[keep]
    seg_start = np.repeat(np.cumsum(size, dtype=i32) - size, size)
    seg_len = np.repeat(size, size)
    pos = np.arange(seg_start.size, dtype=i32)
    a = a[np.repeat(start, size) - seg_start + pos]
    del k, par, rank, hang, start, internal, size, keep
    x = a - pos
    y = a + pos
    del a
    # short way round: a_s - s + a_t + t over s in [t - floor(L/2), t - 1]
    t = np.flatnonzero(pos > seg_start).astype(i32)
    lo = np.maximum(seg_start[t], t - seg_len[t] // 2)
    best = int((_range_max(x, lo, t) + y[t]).max())
    # long way round: a_s + s + a_t - t + L over s <= t - ceil(L/2)
    half = (seg_len + 1) // 2
    t = np.flatnonzero(pos - seg_start >= half).astype(i32)
    hi = t - half[t] + 1
    return max(lb, best, int((_range_max(y, seg_start[t], hi) + x[t] + seg_len[t]).max()))


def map_graph(tree: PlaneTree) -> LoopGraph:
    """Vertex graph of the Halin map of a one-leaf-child tree, read off
    the tree with no rotation system: the tree edges (parent(v), v) for
    v = 1..zeta-1, then the leaf cycle (l_i, l_{i+1 mod lambda}) in code
    order; the half-edge has none.  These are the edges of
    ``build_halin(tree).map`` in dart order (``halin``'s dart layout);
    tests alone check the two against each other.  Raises as
    ``build_halin`` does on a tree with no Halin map."""
    require_hstar(tree)
    leaves = tree.leaves()
    edges = (*zip(tree.parents()[1:], range(1, tree.zeta)), *zip(leaves, leaves[1:] + leaves[:1]))
    return LoopGraph(tree.zeta, edges)


def halin_metric(H: HalinMap) -> FiniteMetricSpace:
    """Graph metric of the map itself (tree plus boundary edges; the
    half-edge carries no length)."""
    return map_graph(H.tree).metric_space()


def _leaf_contraction(tree: PlaneTree) -> tuple[tuple[int, ...], list[int]]:
    """Internal vertex ids, and for every vertex the index of its image
    among them once each leaf edge is contracted into the parent."""
    code = tree.code
    parents = tree.parents()
    internal = tuple(v for v in range(tree.zeta) if code[v] > 0)
    index = {v: i for i, v in enumerate(internal)}
    return internal, [index[v] if code[v] > 0 else index[parents[v]] for v in range(tree.zeta)]


def hat_H(H: HalinMap) -> tuple[FiniteMetricSpace, tuple[int, ...]]:
    """Graph metric of the map with every leaf edge of its underlying
    tree contracted into the parent, on the internal vertices; returns
    (space, internal vertex ids)."""
    internal, image = _leaf_contraction(H.tree)
    edges = tuple((image[a], image[b]) for a, b in map_graph(H.tree).edges if image[a] != image[b])
    return LoopGraph(len(internal), edges).metric_space(), internal


def hat_L(marked: MarkedTree) -> FiniteMetricSpace:
    """Root-shifted looptree metric on the vertex set of the tree."""
    ch = marked.shape.children()
    u = ch[0]
    edges: list[tuple[int, int]] = []
    for v, kids in enumerate(ch):
        if kids and v:
            _cycle_edges(edges, 0 if u and v == u[-1] else v, kids)
    if u:
        # the last root subtree moves into slot s, the ones after it shift on
        s = min(marked.marks[0] + 1, len(u))
        _cycle_edges(edges, 0, u[: s - 1] + (u[-1],) + u[s - 1 : -1])
    return LoopGraph(marked.shape.zeta, tuple(edges)).metric_space()


def check_lemma_bound(H: HalinMap, exact: bool | None = None) -> dict:
    """Compare the map metric against the looptree of its marked tree.

    The target bound is height + 3/2.  In exact mode (the default for
    small maps) the Gromov-Hausdorff distance is computed by branch and
    bound and checked against the bound.  Otherwise it is sandwiched
    between ``gh_lower_bound`` and half the distortion of the map sending
    each map vertex to its match in phi(H), read off ``phi_with_faces``
    by ``bijection._marked_vertex_of`` with no second map: the composition
    of the leaf-contraction, canonical and root-shift correspondences, so
    at most the sum of their distortions.  Any map onto the marked-tree
    vertices is a correspondence, so ``upper`` bounds GH regardless.
    """
    from .bijection import _marked_vertex_of, phi_with_faces
    from .gh_metric import distortion, gh_exact, gh_lower_bound

    marked, faces = phi_with_faces(H)
    height = marked.shape.height()
    bound = height + 1.5
    Hs = halin_metric(H)
    L = loop(marked.shape).metric_space()
    if exact is None:
        exact = H.n_internal <= 4
    out = {"n": H.n_internal, "height": height, "bound": bound,
           "gh": None, "lower": None, "upper": None, "ok": None}
    if exact:
        out["gh"] = g = gh_exact(Hs, L, budget=10**8)
        out["ok"] = g <= bound + 1e-9
        return out

    f = Correspondence(tuple(enumerate(_marked_vertex_of(H, faces))))
    out["upper"] = 0.5 * distortion(f, Hs, L)
    out["lower"] = gh_lower_bound(Hs, L)
    out["ok"] = out["upper"] <= bound + 1e-9
    return out


def canonical_correspondence(
    H: HalinMap,
) -> tuple[FiniteMetricSpace, FiniteMetricSpace, Correspondence]:
    """The vertex identification between the leaf-contracted map metric
    and the root-shifted looptree of its marked tree: each marked-tree
    vertex v is matched with its cell, the internal map vertex whose leaf
    child l_i has the face dual to v on the bounded side of boundary
    edge i (``bijection._marked_vertex_of``); the pairs come in v order."""
    from .bijection import _marked_vertex_of, phi_with_faces

    marked, faces = phi_with_faces(H)
    match = _marked_vertex_of(H, faces)
    hh, internal = hat_H(H)
    pairs = sorted(((i, match[w]) for i, w in enumerate(internal)), key=lambda p: p[1])
    return hh, hat_L(marked), Correspondence(tuple(pairs))
