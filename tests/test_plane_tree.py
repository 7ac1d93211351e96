import math
from functools import cached_property

import numpy as np
import pytest

from halinloop.bijection import phi, phi_inverse
from halinloop.errors import InvariantError, SizeGuardError
from halinloop import plane_tree
from halinloop.gw import (
    _size_law,
    cycle_rotation,
    mu_from_weights,
    sample_conditioned,
    sample_conditioned_many,
    stable_mu,
)
from halinloop.halin import enumerate_halin
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
        assert t.structure.depth.tolist() == [0, 1, 2, 2, 1]
        assert t.structure.tau.tolist() == [5, 4, 3, 4, 5]
        assert t.height() == 2
        assert t.leaf_count() == 3

    def test_structure_is_derived_once_per_tree(self, monkeypatch):
        t = PlaneTree((2, 2, 0, 0, 0))
        assert t.children() is t.children()
        assert isinstance(t.children(), tuple)
        assert all(isinstance(c, tuple) for c in t.children())

        derived = self._count_derivations(monkeypatch)
        rng = np.random.default_rng(5)
        shape = sample_conditioned(mu_from_weights(lambda k: 1.0), 40, rng)
        marked = MarkedTree(shape, tuple(int(rng.integers(0, k + 1)) for k in shape.code))
        H = phi_inverse(marked)
        H.validate()
        assert phi(H) == marked
        loop_diameter(marked.shape)
        # the map layer walks codes only; loop_diameter derives the shape's structure
        assert len(derived) == len({id(t) for t in derived}) == 1

    def test_map_layer_derives_no_structure(self, monkeypatch):
        derived = self._count_derivations(monkeypatch)
        maps = list(enumerate_halin(5))
        for H in maps:
            H.validate()
            assert phi_inverse(phi(H)).tree == H.tree
        assert len(maps) == 143 and derived == []

    @staticmethod
    def _count_derivations(monkeypatch) -> list:
        """Trees whose ``structure`` is derived from now on; the list keeps
        each tree alive, so ids stay distinct."""
        derived = []
        structure = PlaneTree.__dict__["structure"].func

        def counting(self):
            derived.append(self)
            return structure(self)

        prop = cached_property(counting)
        prop.__set_name__(PlaneTree, "structure")
        monkeypatch.setattr(PlaneTree, "structure", prop)
        return derived

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


_LAWS = {"uniform": lambda: mu_from_weights(lambda k: 1.0), "stable1.5": lambda: stable_mu(1.5)}


class TestFromRows:
    @pytest.mark.parametrize(
        "rows",
        [
            [[4, -1, 2, 0, 0, 0]],  # a negative entry, the walk otherwise an excursion
            [[2, 0, 1]],  # prefixes >= 0, but the sum is n - 1 = 2 + 1
            [[0, 3, 0, 0]],  # the sum is n - 1, but the walk dips below 0 first
            [[1, 0], [1, 1]],  # one bad row fails the batch
            [1, 0],  # 1-D
            np.zeros((3, 0), np.int64),  # no columns
            [[1.0, 0.0]],  # not integers
        ],
    )
    def test_invalid_batches_rejected(self, rows):
        with pytest.raises(InvariantError):
            PlaneTree.from_rows(np.array(rows))

    @pytest.mark.parametrize("law", sorted(_LAWS))
    @pytest.mark.parametrize("n", [2, 4, 64, 4096])
    def test_trees_equal_tuple_built_trees(self, law, n):
        count = 3 if n == 4096 else 50
        rows = cycle_rotation(_size_law(_LAWS[law](), n).sample_counts(count, np.random.default_rng(n)))
        trees = PlaneTree.from_rows(rows)
        assert len(trees) == count
        for tree, row in zip(trees, rows.tolist()):
            ref = PlaneTree(tuple(row))
            assert tree == ref and hash(tree) == hash(ref) and type(tree.code[0]) is int
            assert tree.counts.tolist() == row
            for got, want in zip(tree.structure, ref.structure):
                assert np.array_equal(got, want) and got.dtype == want.dtype
            assert tree.height() == ref.height()
            assert loop_diameter(tree) == loop_diameter(ref)

    @pytest.mark.parametrize("law", sorted(_LAWS))
    def test_sampler_never_runs_the_tuple_check(self, monkeypatch, law):
        def refuse(code):
            raise AssertionError("tuple check on a sampled tree")

        monkeypatch.setattr(plane_tree, "_check_code", refuse)
        for n, count in ((2, 10), (4, 20_000), (64, 100), (4096, 2)):
            assert len(sample_conditioned_many(_LAWS[law](), n, count, n)) == count

    def test_counts_are_cached_and_read_only(self):
        for tree in (PlaneTree((2, 1, 0, 0)), *PlaneTree.from_rows(np.array([[2, 1, 0, 0]]))):
            k = tree.counts
            assert k is tree.counts and k.dtype == np.int32 and k.tolist() == [2, 1, 0, 0]
            with pytest.raises(ValueError):
                k[0] = 5

    def test_one_row_batch_hands_its_row_over_as_counts(self):
        # a lone tree gets its counts from the row, a copy of it; the trees
        # of a larger batch hold no array until asked
        rows = np.array([[2, 1, 0, 0]])
        (tree,) = PlaneTree.from_rows(rows)
        assert "counts" in tree.__dict__ and tree.counts.flags.owndata
        rows[0, 0] = 7
        assert tree.counts.tolist() == [2, 1, 0, 0]
        for tree in PlaneTree.from_rows(np.array([[2, 1, 0, 0], [1, 1, 1, 0]])):
            assert "counts" not in tree.__dict__


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
