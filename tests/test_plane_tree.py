import math
from functools import cached_property

import numpy as np
import pytest

from halinloop.bijection import phi, phi_inverse
from halinloop.errors import InvariantError, SizeGuardError
from halinloop.gw import mu_from_weights, sample_conditioned
from halinloop.looptree import loop_diameter
from halinloop.plane_tree import (
    MarkedTree,
    PlaneTree,
    enumerate_marked,
    enumerate_trees,
    format_marked,
    format_tree,
    lukasiewicz,
    marked_count_formula,
    parse_marked,
    parse_tree,
)


def _code_of_walk(walk):
    """Child counts from walk steps: k = step + 1."""
    return tuple(b - a + 1 for a, b in zip(walk, walk[1:]))


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


class TestPlaneTree:
    def test_single_vertex(self):
        t = PlaneTree((0,))
        assert t.zeta == 1
        assert t.height() == 0
        assert t.leaves() == [0]

    def test_structure_of_hand_example(self):
        # root -> (a -> (leaf, leaf), leaf)
        t = PlaneTree((2, 2, 0, 0, 0))
        assert t.parents() == (-1, 0, 1, 1, 0)
        assert t.children() == ((1, 4), (2, 3), (), (), ())
        assert t.depths() == (0, 1, 2, 2, 1)
        assert t.height() == 2
        assert t.leaf_count() == 3

    def test_structure_is_derived_once_per_tree(self, monkeypatch):
        t = PlaneTree((2, 2, 0, 0, 0))
        assert t.children() is t.children()
        assert isinstance(t.children(), tuple)
        assert all(isinstance(c, tuple) for c in t.children())

        derived = []  # keeps each tree alive, so ids stay distinct
        parents = PlaneTree.__dict__["_parents_depths"].func

        def counting(self):
            derived.append(self)
            return parents(self)

        prop = cached_property(counting)
        prop.__set_name__(PlaneTree, "_parents_depths")
        monkeypatch.setattr(PlaneTree, "_parents_depths", prop)
        rng = np.random.default_rng(5)
        shape = sample_conditioned(mu_from_weights(lambda k: 1.0), 40, rng)
        marked = MarkedTree(shape, tuple(int(rng.integers(0, k + 1)) for k in shape.code))
        H = phi_inverse(marked)
        H.validate()
        assert phi(H) == marked
        loop_diameter(marked.shape)
        # the map layer walks codes only; loop_diameter derives the shape's parents
        assert len(derived) == len({id(t) for t in derived}) == 1

    @pytest.mark.parametrize(
        "code",
        [(), (1,), (0, 0), (2, 0), (3, 0, 0, 0, 0), (-1,)],
    )
    def test_invalid_codes_rejected(self, code):
        with pytest.raises(InvariantError):
            PlaneTree(code)

    def test_lukasiewicz_roundtrip_exhaustive(self):
        for n in range(1, 8):
            for t in enumerate_trees(n):
                walk = lukasiewicz(t)
                assert walk[0] == 0
                assert walk[-1] == -1
                assert min(walk[:-1]) >= 0
                assert PlaneTree(_code_of_walk(walk)) == t

    def test_lukasiewicz_values_example(self):
        assert lukasiewicz(PlaneTree((2, 1, 0, 0))) == (0, 1, 1, 0, -1)

    @pytest.mark.parametrize(
        "values",
        [(0,), (0, 0), (1, 0, -1), (0, -1, -1), (0, 2, -1), (0, -2)],
    )
    def test_invalid_paths_rejected(self, values):
        # a walk that is not an excursion from 0 to -1 has steps that are
        # not a tree code, so PlaneTree rejects them
        with pytest.raises(InvariantError):
            PlaneTree(_code_of_walk(values))


class TestEnumeration:
    def test_tree_counts_are_catalan(self):
        for n in range(1, 9):
            assert sum(1 for _ in enumerate_trees(n)) == catalan(n - 1)

    def test_trees_are_distinct(self):
        seen = set(t.code for t in enumerate_trees(7))
        assert len(seen) == catalan(6)

    def test_marked_counts_match_formula(self):
        # 1, 2, 7, 30, 143 for n = 1..5
        expected = [1, 2, 7, 30, 143]
        for n, e in zip(range(1, 6), expected):
            assert marked_count_formula(n) == e
            assert sum(1 for _ in enumerate_marked(n)) == e

    def test_size_guards(self):
        with pytest.raises(SizeGuardError):
            list(enumerate_trees(13))
        with pytest.raises(SizeGuardError):
            list(enumerate_marked(11))
        with pytest.raises(SizeGuardError):
            list(enumerate_trees(0))


class TestMarkedTree:
    def test_mark_range_enforced(self):
        with pytest.raises(InvariantError):
            MarkedTree(PlaneTree((1, 0)), (2, 0))
        with pytest.raises(InvariantError):
            MarkedTree(PlaneTree((1, 0)), (0,))

    def test_format_parse_roundtrip(self):
        for n in range(1, 6):
            for mt in enumerate_marked(n):
                assert parse_marked(format_marked(mt)) == mt

    def test_tree_format_parse_roundtrip(self):
        for t in enumerate_trees(6):
            assert parse_tree(format_tree(t)) == t
