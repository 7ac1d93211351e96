from collections import deque

import numpy as np
import pytest
from conftest import _allow_cpus
from hypothesis import given
from hypothesis import strategies as st

from halinloop.bijection import phi, phi_inverse
from halinloop.errors import SizeGuardError, UsageError
from halinloop.experiments import ScalingRunConfig, scaling_run
from halinloop.gh_metric import Correspondence, distortion, gh_exact
from halinloop.gw import cycle_rotation, mu_from_weights, sample_conditioned, stable_mu
from halinloop.halin import build_halin, enumerate_halin
from halinloop.looptree import (
    LoopGraph,
    canonical_correspondence,
    check_lemma_bound,
    halin_metric,
    hat_H,
    hat_L,
    loop,
    loop_diameter,
    map_graph,
)
from halinloop.plane_tree import MarkedTree, PlaneTree, enumerate_marked, enumerate_trees


class TestLoopConstruction:
    def test_single_vertex(self):
        g = loop(PlaneTree((0,)))
        assert g.n == 1
        assert g.edges == ()

    def test_star_becomes_cycle(self):
        g = loop(PlaneTree((3, 0, 0, 0)))
        assert g.n == 4
        assert len(g.edges) == 4
        assert g.distances_from([0])[0][2] == 2  # across the 4-cycle

    def test_unary_path_gives_double_edges(self):
        g = loop(PlaneTree((1, 1, 0)))
        assert sorted(g.edges) == [(0, 1), (0, 1), (1, 2), (1, 2)]
        assert g.distances_from([0])[0][2] == 2

    def test_edge_count_formula(self):
        for n in range(1, 9):
            for t in enumerate_trees(n):
                g = loop(t)
                assert g.n == t.zeta
                assert len(g.edges) == sum(k + 1 for k in t.code if k >= 1)

    def test_loop_distance_bounded_by_cycle_half_lengths(self):
        # crossing the cycle at vertex p costs at most floor((k_p+1)/2),
        # so summing that along the tree path bounds the loop distance
        for t in enumerate_trees(7):
            g = loop(t)
            d_loop = g.all_distances()
            parents, code = t.parents(), t.code

            def up_cost(x):
                # moving from x to its parent stays on the parent's cycle
                return (code[parents[x]] + 1) // 2

            for u in range(t.zeta):
                for v in range(t.zeta):
                    au, pu = {u: 0}, u
                    while parents[pu] != -1:
                        au[parents[pu]] = au[pu] + up_cost(pu)
                        pu = parents[pu]
                    w, down = v, 0
                    while w not in au:
                        down += up_cost(w)
                        w = parents[w]
                    assert d_loop[u][v] <= au[w] + down

    def test_star_distance_sandwich(self):
        for k in range(1, 21):
            t = PlaneTree((k,) + (0,) * k)
            g = loop(t)
            d = g.all_distances()
            for i in range(1, k + 1):
                assert d[0][i] == min(i, k + 1 - i)


def _sampled_graphs(n, count, seed):
    """The map and the looptree of count uniformly marked trees with n
    vertices (uniform offspring weights)."""
    mu = mu_from_weights(lambda k: 1.0)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        shape = sample_conditioned(mu, n, rng)
        marks = tuple(int(rng.integers(0, k + 1)) for k in shape.code)
        yield map_graph(phi_inverse(MarkedTree(shape, marks)).tree)
        yield loop(shape)


@st.composite
def _connected_multigraphs(draw):
    """A random tree on n <= 60 vertices, in a shuffled order, plus extra
    edges, loops and repeated edges."""
    n = draw(st.integers(1, 60))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    perm = draw(st.permutations(range(n)))
    edges = [(perm[p], perm[v]) for v, p in enumerate(parents, 1)]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=n))
    edges += draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    return LoopGraph(n, tuple(draw(st.permutations(edges))))


class TestDistances:
    def test_cycle_diameters(self):
        assert loop(PlaneTree((3, 0, 0, 0))).diameter() == 2  # C4
        assert loop(PlaneTree((5, 0, 0, 0, 0, 0))).diameter() == 3  # C6

    def test_adjacency_drops_loops_and_counts_multi_edges(self):
        g = LoopGraph(3, ((0, 1), (1, 1), (1, 2), (0, 1)))
        assert g._csr.toarray().tolist() == [[0, 2, 0], [2, 0, 1], [0, 1, 0]]
        assert g.all_distances().tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        assert LoopGraph(1, ()).diameter() == 0

    def test_disconnected_rejected(self):
        g = LoopGraph(3, ((0, 1),))
        with pytest.raises(UsageError):
            g.all_distances()
        with pytest.raises(UsageError):
            g.diameter()

    def test_matrix_size_guard(self):
        g = LoopGraph(5000, tuple((i, i + 1) for i in range(4999)))
        with pytest.raises(SizeGuardError):
            g.all_distances()

    def test_ifub_agrees_with_all_pairs(self):
        mu = mu_from_weights(lambda k: 1.0)
        rng = np.random.default_rng(2)
        for _ in range(10):
            t = sample_conditioned(mu, int(rng.integers(10, 200)), rng)
            g = loop(t)
            assert g.diameter() == _all_pairs_diameter(g)

    @pytest.mark.parametrize("n, edges, diam", [
        (1, (), 0),
        (2, ((0, 1),), 1),
        (2, ((0, 1), (1, 0), (0, 1)), 1),  # a tripled edge
        (3, ((0, 1), (1, 2)), 2),
        (3, ((1, 0), (1, 2), (2, 0)), 1),
        (3, ((0, 1), (0, 1), (1, 2), (1, 2), (2, 2)), 2),  # doubled edges and a loop
        (4, ((0, 1), (0, 1), (1, 2), (2, 3), (2, 3)), 3),
    ])
    def test_small_graphs_and_multi_edges(self, n, edges, diam):
        g = LoopGraph(n, edges)
        assert g.diameter() == _all_pairs_diameter(g) == diam

    def test_every_small_map_and_looptree(self):
        for n in range(1, 6):
            for H in enumerate_halin(n):
                for g in (map_graph(H.tree), loop(phi(H).shape)):
                    assert g.diameter() == _all_pairs_diameter(g)

    @pytest.mark.parametrize("n", [32, 64, 256])
    def test_sampled_maps(self, n):
        # the sizes that used to take an all-pairs branch (up to 512 vertices)
        for g in _sampled_graphs(n, 5, [6, n]):
            assert g.diameter() == _all_pairs_diameter(g)

    @given(_connected_multigraphs())
    def test_diameter_matches_all_pairs_property(self, g):
        assert g.diameter() == _all_pairs_diameter(g)

    def test_directed_search_matches_undirected(self):
        # _csr holds both directions of every edge
        from scipy.sparse.csgraph import dijkstra

        for n in (8, 50, 300):
            for g in _sampled_graphs(n, 3, [9, n]):
                d = g.distances_from(np.arange(g.n))
                assert np.array_equal(d, dijkstra(g._csr, unweighted=True, directed=False))
                for s in (0, g.n // 2, g.n - 1):
                    assert np.array_equal(g._bfs(s), d[s])

    def test_pinned_map_diameters_at_16384(self, monkeypatch):
        # the map-paired cells of `hll exp scaling --sizes 16384 --samples 20
        # --seed 42 --map-diameter-max-n 100000`, recorded by iFUB without
        # the per-vertex bounds (up to 8,465 sources per map); each map now
        # takes at most 100 traversals
        sweeps = []
        bfs, diameter = LoopGraph._bfs, LoopGraph.diameter

        def counted_bfs(self, source):
            sweeps[-1] += 1
            return bfs(self, source)

        def counted_diameter(self):
            sweeps.append(0)
            return diameter(self)

        _allow_cpus(monkeypatch, 1)  # the counts stay in this process
        monkeypatch.setattr(LoopGraph, "_bfs", counted_bfs)
        monkeypatch.setattr(LoopGraph, "diameter", counted_diameter)
        cfg = ScalingRunConfig(sizes=(16384,), samples_per_size=20, seed=42, map_diameter_max_n=100_000)
        assert [r["diam_map"] for r in scaling_run(cfg)["rows"]] == [
            889, 463, 672, 704, 375, 635, 553, 585, 645, 533,
            491, 532, 785, 437, 549, 633, 378, 708, 487, 653,
        ]
        assert len(sweeps) == 20 and max(sweeps) <= 100, sweeps


def _all_pairs_diameter(g):
    """Reference: the largest BFS distance over all sources, in chunks
    of at most 2^22 distances."""
    best = 0
    chunk = max(1, (1 << 22) // g.n)
    for s in range(0, g.n, chunk):
        best = max(best, int(g.distances_from(np.arange(s, min(g.n, s + chunk))).max()))
    return best


def _loop_diameter_reference(tree):
    """Reference: one cycle at a time in postorder, with a sliding-window
    maximum of (a_s - s) over the doubled position array."""
    code = tree.code
    ch = tree.children()
    h = [0] * tree.zeta
    best = 0
    for v in range(tree.zeta - 1, -1, -1):
        k = code[v]
        if k == 0:
            continue
        L = k + 1
        a = [0] + [h[c] for c in ch[v]]
        h[v] = max(min(i, L - i) + a[i] for i in range(1, L))
        W = L // 2
        dbl = a + a
        window = deque()  # indices with decreasing a[s] - s
        for t in range(1, 2 * L):
            s = t - 1
            val = dbl[s] - s
            while window and dbl[window[-1]] - window[-1] <= val:
                window.pop()
            window.append(s)
            while window[0] < t - W:
                window.popleft()
            best = max(best, dbl[t % L] + t + dbl[window[0]] - window[0])
    return best


def _pruned_query_sizes(tree):
    """Query counts of loop_diameter's range maxima, from the per-cycle
    position arrays: one hang query per internal vertex, then, only if
    some cycle's bound 2 max(a) + floor(L/2) exceeds the best adjacent
    pair, L - 1 short-way and floor(L/2) long-way queries per such cycle."""
    code, ch = tree.code, tree.children()
    h = [0] * tree.zeta
    cycles = {}
    for v in range(tree.zeta - 1, -1, -1):
        if code[v]:
            L = code[v] + 1
            a = cycles[v] = [0] + [h[c] for c in ch[v]]
            h[v] = max(min(i, L - i) + a[i] for i in range(1, L))
    flat = [x for v in sorted(cycles) for x in cycles[v]]
    lb = max(x + y for x, y in zip(flat, flat[1:])) + 1
    kept = [len(a) for a in cycles.values() if 2 * max(a) + len(a) // 2 > lb]
    sizes = [len(cycles)]
    return sizes + [sum(L - 1 for L in kept), sum(L // 2 for L in kept)] if kept else sizes


def _bfs_diameter(tree):
    return _all_pairs_diameter(loop(tree))


# adversarial codes with n vertices: extreme cycle lengths and depths
_SHAPES = {
    "path": lambda n: (1,) * (n - 1) + (0,),
    "star": lambda n: (n - 1,) + (0,) * (n - 1),
    # each spine vertex: a leaf, then the rest of the spine
    "binary_comb": lambda n: (2, 0) * ((n - 2) // 2) + (1, 0),
    # a path ending in a star
    "broom": lambda n: (1,) * (n // 2) + (n - n // 2 - 1,) + (0,) * (n - n // 2 - 1),
    # each spine vertex: leaf, spine, leaf
    "caterpillar": lambda n: (3, 0) * ((n - 1) // 3) + (0,) * ((n - 1) // 3 + 1),
}


@st.composite
def _trees(draw):
    """A uniform-ish count list summing to n - 1, rotated into a tree."""
    n = draw(st.integers(1, 60))
    boxes = draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1))
    counts = np.bincount(np.array(boxes, dtype=np.int64), minlength=n)
    return PlaneTree(tuple(cycle_rotation(counts).tolist()))


class TestLoopDiameter:
    def test_matches_reference_exhaustive(self):
        for n in range(1, 11):
            for t in enumerate_trees(n):
                assert loop_diameter(t) == _loop_diameter_reference(t)

    @pytest.mark.parametrize("n", [300, 1000, 5000])
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9, None])  # None: uniform weights
    def test_matches_reference_sampled(self, alpha, n):
        mu = stable_mu(alpha) if alpha else mu_from_weights(lambda k: 1.0)
        rng = np.random.default_rng([n, int(10 * (alpha or 0))])
        for _ in range(5):
            t = sample_conditioned(mu, n, rng)
            assert loop_diameter(t) == _loop_diameter_reference(t)

    @pytest.mark.parametrize("name", sorted(_SHAPES))
    def test_adversarial_shapes(self, name):
        t = PlaneTree(_SHAPES[name](4096))
        assert t.zeta == 4096
        assert loop_diameter(t) == _loop_diameter_reference(t) == loop(t).diameter()

    @pytest.mark.parametrize("alpha", [1.2, 1.5, None])  # None: uniform weights
    def test_matches_reference_at_2_16(self, alpha):
        # nearly every cycle is ruled out by the linear bound here
        mu = stable_mu(alpha) if alpha else mu_from_weights(lambda k: 1.0)
        t = sample_conditioned(mu, 2**16, np.random.default_rng([16, int(10 * (alpha or 0))]))
        assert loop_diameter(t) == _loop_diameter_reference(t)

    @pytest.mark.parametrize("name", sorted(_SHAPES))
    def test_adversarial_shapes_at_2_16(self, name):
        # the star's (W, j) keys need int64
        t = PlaneTree(_SHAPES[name](2**16))
        assert loop_diameter(t) == _loop_diameter_reference(t)

    def test_range_maxima_only_on_cycles_the_bound_keeps(self, monkeypatch):
        # a kept cycle whose bound only ties the best adjacent pair shows
        # here as extra queries, though the diameter stays the same
        import halinloop.looptree as lt

        seen, range_max = [], lt._range_max

        def counted(values, lo, hi):
            seen.append(lo.size)
            return range_max(values, lo, hi)

        monkeypatch.setattr(lt, "_range_max", counted)
        mu = stable_mu(1.5)
        rng = np.random.default_rng(8)
        trees = [t for n in range(2, 9) for t in enumerate_trees(n)]
        trees += [sample_conditioned(mu, n, rng) for n in (100, 1000, 5000) for _ in range(3)]
        for t in trees:
            seen.clear()
            loop_diameter(t)
            assert seen == _pruned_query_sizes(t), t.code
        seen.clear()
        assert loop_diameter(PlaneTree((2, 0, 0))) == 1 and seen == [1]  # a triangle: no pair query

    @given(_trees())
    def test_matches_bfs_property(self, t):
        assert loop_diameter(t) == _bfs_diameter(t)

    def test_exhaustive_small(self):
        for n in range(1, 9):
            for t in enumerate_trees(n):
                assert loop_diameter(t) == _bfs_diameter(t)

    def test_random_medium(self):
        mu = mu_from_weights(lambda k: 1.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = sample_conditioned(mu, int(rng.integers(5, 300)), rng)
            assert loop_diameter(t) == _bfs_diameter(t)


class TestContractedSpace:
    def test_single_face_is_a_point(self):
        space, internal = hat_H(build_halin(PlaneTree((1, 0))))
        assert space.size == 1
        assert internal == (0,)

    def test_two_faces_two_points_at_distance_one(self):
        for H in enumerate_halin(2):
            space, _ = hat_H(H)
            assert space.size == 2
            assert space.dist[0][1] == 1

    def test_contraction_bound_exhaustive(self):
        for n in range(1, 4):
            for H in enumerate_halin(n):
                space, _ = hat_H(H)
                assert gh_exact(halin_metric(H), space) <= 2 + 1e-9


class TestShiftedLooptree:
    def test_single_vertex(self):
        assert hat_L(MarkedTree(PlaneTree((0,)), (0,))).size == 1

    def test_unary_root_both_marks(self):
        for m in (0, 1):
            space = hat_L(MarkedTree(PlaneTree((1, 0)), (m, 0)))
            assert space.size == 2
            assert space.dist[0][1] == 1

    def test_vertex_set_is_preserved(self):
        t = PlaneTree((2, 0, 1, 0))
        for marks in ((0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 1, 0)):
            assert hat_L(MarkedTree(t, marks)).size == t.zeta

    def test_shift_bound_exhaustive(self):
        for n in range(1, 4):
            for mt in enumerate_marked(n):
                H = phi_inverse(mt)
                t = phi(H)
                assert gh_exact(loop(t.shape).metric_space(), hat_L(t)) <= 0.5 + 1e-9


class TestCanonicalCorrespondence:
    def test_distortion_bound_exhaustive(self):
        for n in range(1, 6):
            for H in enumerate_halin(n):
                t = phi(H)
                hh, hl, R = canonical_correspondence(H)
                assert distortion(R, hh, hl) <= 2 * t.shape.height() + 1e-9

    def test_distortion_bound_random(self):
        mu = mu_from_weights(lambda k: 1.0)
        rng = np.random.default_rng(17)
        for _ in range(20):
            shape = sample_conditioned(mu, 50, rng)
            marks = tuple(int(rng.integers(0, k + 1)) for k in shape.code)
            H = phi_inverse(MarkedTree(shape, marks))
            hh, hl, R = canonical_correspondence(H)
            assert distortion(R, hh, hl) <= 2 * shape.height() + 1e-9


def _chain_upper(H):
    """The three-link upper bound that bounds mode composes into one
    correspondence: half the summed distortions of the leaf-contraction,
    canonical and root-shift correspondences."""
    hh, hl, R = canonical_correspondence(H)
    _, internal = hat_H(H)
    index = {v: i for i, v in enumerate(internal)}
    parents = H.tree.parents()
    contract = Correspondence(tuple((x, index[x if k else parents[x]]) for x, k in enumerate(H.tree.code)))
    L = loop(phi(H).shape).metric_space()
    ident = Correspondence(tuple((v, v) for v in range(L.size)))
    return 0.5 * (distortion(contract, halin_metric(H), hh) + distortion(R, hh, hl)
                  + distortion(ident, L, hl))


class TestLemmaBound:
    def test_exact_small(self):
        for n in range(1, 4):
            for H in enumerate_halin(n):
                r = check_lemma_bound(H)
                assert r["gh"] is not None
                assert r["ok"]

    def test_smallest_map_values(self):
        r = check_lemma_bound(build_halin(PlaneTree((1, 0))))
        assert r["gh"] == pytest.approx(0.5)
        assert r["bound"] == pytest.approx(1.5)

    def test_bound_mode_on_larger_map(self):
        mu = mu_from_weights(lambda k: 1.0)
        rng = np.random.default_rng(4)
        shape = sample_conditioned(mu, 40, rng)
        marks = tuple(int(rng.integers(0, k + 1)) for k in shape.code)
        H = phi_inverse(MarkedTree(shape, marks))
        r = check_lemma_bound(H)
        assert r["gh"] is None
        assert r["upper"] is not None and r["lower"] is not None
        assert r["lower"] <= r["upper"] + 1e-9
        assert r["ok"]

    def test_bounds_mode_computes_phi_once(self, monkeypatch):
        """Bounds mode and canonical_correspondence read the vertex matching
        off one phi_with_faces and build no second map."""
        import halinloop.bijection as bijection
        import halinloop.halin as halin

        rng = np.random.default_rng(5)
        shape = sample_conditioned(mu_from_weights(lambda k: 1.0), 10, rng)
        marks = tuple(int(rng.integers(0, k + 1)) for k in shape.code)
        H = phi_inverse(MarkedTree(shape, marks))
        calls = {"phi_with_faces": 0, "phi_inverse": 0, "build_halin": 0}
        for module, name in ((bijection, "phi_with_faces"), (bijection, "phi_inverse"),
                             (bijection, "build_halin"), (halin, "build_halin")):
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        assert check_lemma_bound(H, exact=False)["upper"] is not None
        assert calls == {"phi_with_faces": 1, "phi_inverse": 0, "build_halin": 0}
        canonical_correspondence(H)
        assert calls == {"phi_with_faces": 2, "phi_inverse": 0, "build_halin": 0}

    def test_upper_never_above_chain_exhaustive(self):
        for n in range(1, 6):
            for H in enumerate_halin(n):
                assert check_lemma_bound(H, exact=False)["upper"] <= _chain_upper(H)

    def test_upper_never_above_chain_random(self):
        mu = mu_from_weights(lambda k: 1.0)
        rng = np.random.default_rng(17)
        for _ in range(20):
            shape = sample_conditioned(mu, 50, rng)
            marks = tuple(int(rng.integers(0, k + 1)) for k in shape.code)
            H = phi_inverse(MarkedTree(shape, marks))
            assert check_lemma_bound(H, exact=False)["upper"] <= _chain_upper(H)

    def test_sandwich_holds_exhaustive(self):
        # upper equals the exact distance on every map at n = 3 and on 18
        # of 30 at n = 4; the three-link chain did on 3 and 2
        tight = {}
        for n in range(1, 5):
            for H in enumerate_halin(n):
                g = check_lemma_bound(H, exact=True)["gh"]
                r = check_lemma_bound(H, exact=False)
                assert r["lower"] <= g <= r["upper"]
                tight[n] = tight.get(n, 0) + (g == r["upper"])
        assert tight[3] == 7 and tight[4] == 18

    @pytest.mark.parametrize("n, lower, upper", [(10, 0.5, 1.5), (20, 1.5, 3.5)])
    def test_bounds_are_pinned(self, n, lower, upper):
        # fixed maps with n internal vertices, so that these pin the bounds
        # and not the sampler
        code, marks = {
            10: ((6, 0, 0, 1, 0, 1, 0, 1, 0, 0), (0, 0, 0, 1, 0, 1, 0, 0, 0, 0)),
            20: ((4, 1, 0, 1, 0, 1, 0, 1, 1, 1, 2, 1, 1, 0, 1, 3, 0, 0, 1, 0),
                 (4, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 1, 0)),
        }[n]
        H = phi_inverse(MarkedTree(PlaneTree(code), marks))
        r = check_lemma_bound(H, exact=False)
        assert (r["lower"], r["upper"]) == (lower, upper)
