import tracemalloc
from itertools import product

import numpy as np
import pytest

from halinloop.bijection import phi, phi_inverse
from halinloop.errors import BudgetExceededError, InvariantError, UsageError
from halinloop.gh_metric import (
    Correspondence,
    FiniteMetricSpace,
    distortion,
    gh_exact,
    gh_lower_bound,
)
from halinloop.gw import mu_from_weights, sample_conditioned
from halinloop.halin import enumerate_halin
from halinloop.looptree import LoopGraph, halin_metric, loop
from halinloop.plane_tree import MarkedTree


def cycle_space(n: int) -> FiniteMetricSpace:
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d[i, j] = min(abs(i - j), n - abs(i - j))
    return FiniteMetricSpace(d)


def point() -> FiniteMetricSpace:
    return FiniteMetricSpace(np.zeros((1, 1)))


def two_points(d: float) -> FiniteMetricSpace:
    return FiniteMetricSpace(np.array([[0.0, d], [d, 0.0]]))


class TestMetricValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(InvariantError):
            FiniteMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InvariantError):
            FiniteMetricSpace(np.array([[1.0]]))

    def test_triangle_violation_rejected(self):
        d = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
        with pytest.raises(InvariantError):
            FiniteMetricSpace(d)
        # path metrics with one pair pushed 1e-6 beyond its shortest route,
        # at and past 256 points
        for n in (256, 257, 400):
            d = np.abs(np.subtract.outer(np.arange(float(n)), np.arange(float(n))))
            FiniteMetricSpace(d)
            d[3, 200] = d[200, 3] = 197 + 1e-6
            with pytest.raises(InvariantError):
                FiniteMetricSpace(d)

    def test_256_point_check_stays_small(self):
        # the triangle check keeps O(n^2) temporaries: an n x n x n tensor
        # at 256 points alone would take 134 MB.  numpy reports its buffers
        # to tracemalloc; ru_maxrss of a subprocess would not do, as on
        # Linux it starts from the parent's size at fork
        d = np.abs(np.subtract.outer(np.arange(256.0), np.arange(256.0)))
        tracemalloc.start()
        try:
            FiniteMetricSpace(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_graph_metric_of_edges(self):
        s = LoopGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0))).metric_space()
        assert np.array_equal(s.dist, cycle_space(4).dist)

    def test_disconnected_graph_has_no_metric(self):
        with pytest.raises(UsageError):
            LoopGraph(3, ((0, 1),)).metric_space()


class TestCorrespondence:
    def test_identity_distortion_zero(self):
        s = cycle_space(5)
        r = Correspondence(tuple((i, i) for i in range(5)))
        assert distortion(r, s, s) == 0
        assert 0.5 * distortion(r, s, s) == 0

    def test_forced_pair_distortion(self):
        r = Correspondence(((0, 0), (0, 1)))
        assert distortion(r, point(), two_points(3.0)) == 3.0

    def test_monotone_under_inclusion(self):
        x, y = cycle_space(4), cycle_space(3)
        small = Correspondence(((0, 0), (1, 1), (2, 2), (3, 0)))
        big = Correspondence(small.pairs + ((0, 2), (3, 1)))
        assert distortion(small, x, y) <= distortion(big, x, y)

    def test_non_surjective_rejected(self):
        with pytest.raises(UsageError):
            distortion(Correspondence(((0, 0),)), two_points(1.0), point())


class TestExactGH:
    def test_identical_spaces(self):
        s = cycle_space(5)
        assert gh_exact(s, s) == 0

    def test_point_vs_two_points(self):
        assert gh_exact(point(), two_points(3.0)) == pytest.approx(1.5)

    def test_symmetry(self):
        x, y = cycle_space(4), cycle_space(6)
        assert gh_exact(x, y) == pytest.approx(gh_exact(y, x))

    def test_diameter_gap_lower_bound_holds(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            x = LoopGraph(nx, tuple((i, i + 1) for i in range(nx - 1))).metric_space()
            y = LoopGraph(ny, tuple((i, i + 1) for i in range(ny - 1))).metric_space()
            assert gh_exact(x, y) >= 0.5 * abs(x.diameter - y.diameter) - 1e-12

    def test_triangle_inequality_spot_check(self):
        spaces = [cycle_space(3), cycle_space(4), two_points(2.0)]
        g = {
            (i, j): gh_exact(spaces[i], spaces[j])
            for i in range(3)
            for j in range(3)
        }
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert g[i, j] <= g[i, k] + g[k, j] + 1e-9

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            gh_exact(cycle_space(12), cycle_space(13), budget=10)


def _lower_bound_reference(x, y, seed=0):
    """gh_lower_bound with no ranks and no chunks: each sampled triple's
    full 3 x 3 block against those of all |y|^3 point triples at once."""
    lb = 0.5 * abs(x.diameter - y.diameter)
    ex, ey = np.sort(x.eccentricities), np.sort(y.eccentricities)
    h1 = max(float(np.abs(ey - e).min()) for e in ex)
    h2 = max(float(np.abs(ex - e).min()) for e in ey)
    lb = max(lb, 0.5 * max(h1, h2))
    rng = np.random.default_rng(seed)
    if x.size >= 3:
        ys = np.array(list(product(range(y.size), repeat=3)))
        dy = y.dist[ys[:, :, None], ys[:, None, :]]
        for _ in range(200):
            sub = rng.choice(x.size, size=3, replace=False)
            dx = x.dist[np.ix_(sub, sub)]
            lb = max(lb, 0.5 * float(np.abs(dx - dy).max(axis=(1, 2)).min()))
    return lb


class TestBounds:
    def test_identical_spaces_bounds(self):
        s = cycle_space(6)
        assert gh_lower_bound(s, s) == 0
        ident = Correspondence(tuple((i, i) for i in range(6)))
        assert 0.5 * distortion(ident, s, s) == 0

    def test_c4_vs_c6(self):
        lb = gh_lower_bound(cycle_space(4), cycle_space(6))
        assert lb >= 0.5  # half the diameter gap

    @pytest.mark.parametrize("empty_first", [True, False])
    def test_empty_space_is_usage_error(self, empty_first):
        empty = FiniteMetricSpace(np.zeros((0, 0)))
        spaces = (empty, cycle_space(4)) if empty_first else (cycle_space(4), empty)
        with pytest.raises(UsageError, match="empty metric space"):
            gh_lower_bound(*spaces)

    def test_lower_bound_below_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = cycle_space(int(rng.integers(3, 7)))
            y = cycle_space(int(rng.integers(3, 7)))
            assert gh_lower_bound(x, y) <= gh_exact(x, y) + 1e-9

    def test_certificate_matches_reference_on_small_maps(self):
        for n in range(1, 5):
            for H in enumerate_halin(n):
                x, y = halin_metric(H), loop(phi(H).shape).metric_space()
                assert gh_lower_bound(x, y) == _lower_bound_reference(x, y)
                assert gh_lower_bound(y, x) == _lower_bound_reference(y, x)

    @pytest.mark.parametrize("n", [10, 20])
    def test_certificate_matches_reference_on_sampled_maps(self, n):
        # the benchmark's rule: first draw from seed [s, n], uniform weights,
        # marks drawn in one vector
        for s in range(3):
            rng = np.random.default_rng([s, n])
            shape = sample_conditioned(mu_from_weights(lambda k: 1.0), n, rng)
            marks = rng.integers(0, np.asarray(shape.code) + 1)
            H = phi_inverse(MarkedTree(shape, tuple(marks.tolist())))
            x, y = halin_metric(H), loop(shape).metric_space()
            assert gh_lower_bound(x, y) == _lower_bound_reference(x, y)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_certificate_matches_reference_on_real_valued_spaces(self, seed):
        # points in the plane against points on a line: nearly every distance
        # distinct, so deduplication removes little, and the triples often
        # beat the eccentricities; 16 to 24 points make 2 to 4 chunks of
        # triples, and against itself x has lb = 0, so a sample drops out
        # only on an exact match
        rng = np.random.default_rng([seed, 11])
        for (nx, px), (ny, dy, py) in (((8, 2), (16, 1, 1)), ((8, 2), (24, 1, 1)), ((10, 2), (20, 2, 1))):
            x, y = _point_space(rng, nx, 2, px), _point_space(rng, ny, dy, py)
            for a, b in ((x, y), (y, x), (x, x)):
                assert gh_lower_bound(a, b, seed=seed) == _lower_bound_reference(a, b, seed=seed)

    @pytest.mark.parametrize("n", [40, 80])
    def test_certificate_temporaries_stay_under_the_stated_bound(self, n):
        # the docstring's 40 MiB, whatever the sizes: the triples of y go
        # through fixed chunks, and nothing is kept across them but the
        # per-sample minimum
        x = _point_space(np.random.default_rng(0), n, 2, 2)
        tracemalloc.start()
        try:
            gh_lower_bound(x, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20, peak


def _point_space(rng, n, dim, p):
    pts = rng.random((n, dim))
    return FiniteMetricSpace(np.linalg.norm(pts[:, None] - pts[None], ord=p, axis=-1))
