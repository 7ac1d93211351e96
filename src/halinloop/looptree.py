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

import numpy as np

from .errors import InvariantError, SizeGuardError, UsageError
from .gh_metric import Correspondence, FiniteMetricSpace
from .halin import HalinMap
from .planar_map import PlanarMap
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

        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        ends = ends[ends[:, 0] != ends[:, 1]]
        rows, cols = ends.ravel(), ends[:, ::-1].ravel()
        return sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(self.n, self.n)).tocsr()

    def distances_from(self, sources) -> np.ndarray:
        """BFS distances from each source; rows follow ``sources``."""
        from scipy.sparse.csgraph import dijkstra

        d = dijkstra(self._csr, unweighted=True, directed=False, indices=sources)
        if np.any(np.isinf(d)):
            raise UsageError("graph is disconnected")
        return np.atleast_2d(d)

    def all_distances(self) -> np.ndarray:
        if self.n > _MATRIX_GUARD:
            raise SizeGuardError("distance matrix for %d vertices" % self.n)
        return self.distances_from(np.arange(self.n))

    def metric_space(self) -> FiniteMetricSpace:
        return FiniteMetricSpace(self.all_distances())

    def diameter(self) -> int:
        """Exact diameter by iFUB (Crescenzi et al., *On computing the
        diameter of real-world undirected graphs*, TCS 514, 2013).

        A double sweep gives a lower bound lb and a central root; the
        vertices are then swept one BFS level at a time from the
        deepest.  A pair farther apart than 2i has an end deeper than
        level i, whose eccentricity is already in lb, so once 2i <= lb
        lb is the diameter.  Raises UsageError on a disconnected graph.
        """
        # double sweep: far vertex from an arbitrary start, then its
        # farthest partner; root the level structure between them
        d0 = self.distances_from([0])[0]
        a = int(d0.argmax())
        da = self.distances_from([a])[0]
        b = int(da.argmax())
        lb = int(da[b])
        db = self.distances_from([b])[0]
        mid_level = lb // 2
        on_path = np.nonzero((da + db == lb) & (da == mid_level))[0]
        root = int(on_path[0]) if on_path.size else a
        dr = self.distances_from([root])[0].astype(int)
        # vertices grouped by level, ascending vertex id within a level
        levels = np.split(np.argsort(dr, kind="stable"), np.cumsum(np.bincount(dr))[:-1])
        for lv in range(len(levels) - 1, -1, -1):
            if 2 * lv <= lb:
                break
            batch = levels[lv]
            for s in range(0, len(batch), 64):
                ecc = self.distances_from(batch[s : s + 64]).max(axis=1)
                lb = max(lb, int(ecc.max()))
            if 2 * lv <= lb:
                break
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
    2014), every quantity is read off W and the parent array:

    - v's subtree is [v, tau_v), tau_v the first j > v with
      W_j = W_v - 1, found for all v by one sort and one binary search;
    - child j of p sits at position r_j = W_p + k_p - W_j on p's cycle
      and is min(r_j, k_p + 1 - r_j) steps from p; a cumulative sum of
      these steps over [v, tau_v) gives the loop depth D;
    - the hanging height is max D[v:tau_v) - D_v;
    - with the cycles laid end to end, the pair maximum splits into the
      short way round, s in [t - floor(L/2), t - 1], and the long way
      round, s <= t - ceil(L/2), each a range maximum per position t.

    The three range maxima are sparse-table queries (Bender and
    Farach-Colton, *The LCA problem revisited*, LATIN 2000), so the
    whole computation is a fixed set of numpy passes plus O(log n)
    doubling passes, with no Python loop over vertices or cycles.
    """
    n = tree.zeta
    if n == 1:
        return 0
    # int32 arrays, each deleted once used: peak memory matters at n = 2^20
    i32 = np.int32
    k = np.fromiter(tree.code, i32, n)
    walk = np.zeros(n + 1, i32)
    np.cumsum(k - 1, out=walk[1:])
    # keys sort by (walk, index); v's query key, its own key minus n,
    # lands on the first j > v one level down; key[0] is j = n
    key = (walk + np.int64(1)) * (n + 1) + np.arange(n + 1)
    key.sort()
    tau = np.empty(n, i32)
    tau[key[1:] % (n + 1)] = key[np.searchsorted(key, key[1:] - n)] % (n + 1)
    del key
    par = np.fromiter(tree.parents(), i32, n)[1:]
    kp = k[par]
    rank = walk[par] + kp - walk[1:n]
    step = np.minimum(rank, kp + 1 - rank)
    del kp, walk
    # float64 sums of integers below 2^53 are exact
    delta = np.bincount(tau[1:], weights=-step, minlength=n + 1)[:n]
    delta[1:] += step
    depth = np.cumsum(delta).astype(i32)
    del delta, step
    internal = np.flatnonzero(k).astype(i32)
    hang = np.zeros(n, i32)
    hang[internal] = _range_max(depth, internal, tau[internal]) - depth[internal]
    del depth, tau
    size = k[internal] + 1
    start = np.zeros(n, i32)
    start[internal] = np.cumsum(size, dtype=i32) - size
    a = np.zeros(int(size.sum()), i32)
    a[start[par] + rank] = hang[1:]
    seg_start = np.repeat(start[internal], size)
    seg_len = np.repeat(size, size)
    del k, par, rank, hang, start, internal, size
    pos = np.arange(a.size, dtype=i32)
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
    return max(best, int((_range_max(y, seg_start[t], hi) + x[t] + seg_len[t]).max()))


def map_graph(m: PlanarMap) -> LoopGraph:
    """Vertex graph of a map: one edge per dart pair, none for the
    half-edge."""
    edges = tuple((m.vertex_of[d], m.vertex_of[t]) for d, t in m.edges())
    return LoopGraph(m.n_vertices, edges)


def halin_metric(H: HalinMap) -> FiniteMetricSpace:
    """Graph metric of the map itself (tree plus boundary edges; the
    half-edge carries no length)."""
    return map_graph(H.map).metric_space()


def _leaf_contraction(tree: PlaneTree) -> tuple[tuple[int, ...], list[int]]:
    """Internal vertex ids, and for every vertex the index of its image
    among them once each leaf edge is contracted into the parent."""
    code = tree.code
    parents = tree.parents()
    internal = tuple(v for v in range(tree.zeta) if code[v] > 0)
    index = {v: i for i, v in enumerate(internal)}
    return internal, [index[v] if code[v] > 0 else index[parents[v]] for v in range(tree.zeta)]


def hat_H(H: HalinMap) -> tuple[FiniteMetricSpace, tuple[int, ...]]:
    """Metric on the internal vertices of the underlying tree after
    contracting every leaf edge; returns (space, internal vertex ids)."""
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
    bound and checked against the bound.  Otherwise a triangle-chain
    upper bound is reported: half the sum of the distortions of the
    leaf-contraction, canonical, and root-shift correspondences.
    """
    from .bijection import phi
    from .gh_metric import distortion, gh_exact, gh_lower_bound

    marked = phi(H)
    T = marked.shape
    height = T.height()
    bound = height + 1.5
    Hs = halin_metric(H)
    L = loop(T).metric_space()
    if exact is None:
        exact = H.n_internal <= 4
    out = {
        "n": H.n_internal,
        "height": height,
        "bound": bound,
        "gh": None,
        "lower": None,
        "upper": None,
        "ok": None,
    }
    if exact:
        g = gh_exact(Hs, L, budget=10**8)
        out["gh"] = g
        out["ok"] = g <= bound + 1e-9
        return out

    hh, hl, R = _canonical_correspondence(H, marked)
    contract = Correspondence(tuple(enumerate(_leaf_contraction(H.tree)[1])))
    ident = Correspondence(tuple((i, i) for i in range(L.size)))
    out["upper"] = 0.5 * (
        distortion(contract, Hs, hh)
        + distortion(R, hh, hl)
        + distortion(ident, L, hl)
    )
    out["lower"] = gh_lower_bound(Hs, L)
    out["ok"] = out["upper"] <= bound + 1e-9
    return out


def canonical_correspondence(
    H: HalinMap,
) -> tuple[FiniteMetricSpace, FiniteMetricSpace, Correspondence]:
    """The vertex identification between the leaf-contracted map metric
    and the root-shifted looptree of its marked tree: each marked-tree
    vertex is matched with the internal map vertex carved out by its
    contour segment."""
    from .bijection import phi

    return _canonical_correspondence(H, phi(H))


def _canonical_correspondence(
    H: HalinMap, marked: MarkedTree
) -> tuple[FiniteMetricSpace, FiniteMetricSpace, Correspondence]:
    """``canonical_correspondence`` given the marked tree phi(H)."""
    from .bijection import phi_inverse_with_cells

    H2, internal_of = phi_inverse_with_cells(marked)
    if H2.tree.code != H.tree.code:
        raise InvariantError("map does not round-trip through its marked tree")
    hh, internal = hat_H(H)
    index = {v: i for i, v in enumerate(internal)}
    hl = hat_L(marked)
    pairs = []
    for v, w in enumerate(internal_of):
        if H.tree.code[w] == 0:
            raise InvariantError("cell vertex is a leaf")
        pairs.append((index[w], v))
    return hh, hl, Correspondence(tuple(pairs))
