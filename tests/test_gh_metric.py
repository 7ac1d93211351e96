import numpy as np
import pytest

from halinloop.errors import BudgetExceededError, InvariantError, UsageError
from halinloop.gh_metric import (
    Correspondence,
    FiniteMetricSpace,
    distortion,
    gh_exact,
    gh_lower_bound,
)
from halinloop.looptree import LoopGraph


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


class TestBounds:
    def test_identical_spaces_bounds(self):
        s = cycle_space(6)
        assert gh_lower_bound(s, s) == 0
        ident = Correspondence(tuple((i, i) for i in range(6)))
        assert 0.5 * distortion(ident, s, s) == 0

    def test_c4_vs_c6(self):
        lb = gh_lower_bound(cycle_space(4), cycle_space(6))
        assert lb >= 0.5  # half the diameter gap

    def test_lower_bound_below_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = cycle_space(int(rng.integers(3, 7)))
            y = cycle_space(int(rng.integers(3, 7)))
            assert gh_lower_bound(x, y) <= gh_exact(x, y) + 1e-9
