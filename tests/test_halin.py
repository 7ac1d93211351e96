from fractions import Fraction

import pytest

from halinloop.errors import SizeGuardError, UsageError
from halinloop.halin import (
    HalinMap,
    build_halin,
    enumerate_halin,
    halin_count,
    hstar_codes,
    hstar_trees,
    satisfies_hstar,
)
from halinloop.plane_tree import PlaneTree, enumerate_marked, enumerate_trees

COUNTS = {1: 1, 2: 2, 3: 7, 4: 30, 5: 143}


def _hstar_reference(n):
    """The one-leaf-child trees found by filtering every plane tree on 2n
    vertices, in the order enumerate_trees yields them."""
    for tree in enumerate_trees(2 * n, force=True):
        if tree.leaf_count() == n and satisfies_hstar(tree):
            yield tree


def _hstar_sorted_reference(n):
    """The codes of the one-leaf-child trees built from every marked tree
    on n vertices by a leaf in each marked slot, then sorted: the pipeline
    hstar_trees replaced with one lexicographic walk."""

    def with_leaf_children(marked):
        out = []
        todo = [False]  # what is still to come, last first: a leaf (True) or a subtree
        for k, m in zip(marked.shape.code, marked.marks):
            todo.pop()  # this vertex's subtree
            out.append(k + 1)
            todo += [False] * (k - m) + [True] + [False] * m
            while todo and todo[-1]:
                todo.pop()
                out.append(0)
        return tuple(out)

    return sorted(with_leaf_children(mt) for mt in enumerate_marked(n, force=True))


class TestOneLeafChildRule:
    def test_accepts_valid_trees(self):
        assert satisfies_hstar(PlaneTree((1, 0)))
        assert satisfies_hstar(PlaneTree((2, 0, 1, 0)))
        assert satisfies_hstar(PlaneTree((2, 1, 0, 0)))

    def test_rejects_trees_without_leaf_child(self):
        assert not satisfies_hstar(PlaneTree((1, 1, 0)))

    def test_rejects_trees_with_two_leaf_children(self):
        assert not satisfies_hstar(PlaneTree((2, 0, 0)))

    def test_hstar_trees_have_n_leaves_on_2n_vertices(self):
        for n in range(1, 5):
            for t in hstar_trees(n):
                assert t.zeta == 2 * n
                assert t.leaf_count() == n

    def test_hstar_trees_match_filter_in_order(self):
        for n in range(1, 7):
            assert [t.code for t in hstar_trees(n)] == [t.code for t in _hstar_reference(n)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_hstar_trees_match_sorted_marked_pipeline(self, n):
        assert [t.code for t in hstar_trees(n)] == _hstar_sorted_reference(n)

    def test_hstar_codes_are_the_trees_codes_checked_at_the_call(self):
        for n in range(1, 7):
            assert list(hstar_codes(n)) == [t.code for t in hstar_trees(n)]
        for walk in (hstar_codes, hstar_trees):
            with pytest.raises(SizeGuardError):
                walk(11)  # before the first code is asked for
            with pytest.raises(UsageError):
                walk(0)

    def test_hstar_trees_stream_past_any_full_enumeration(self):
        # about 6.4 * 10^29 trees at n = 40: only a generator reaches the first
        assert next(hstar_trees(40, force=True)).code == (2, 0) * 39 + (1, 0)


class TestEnumeration:
    def test_counts(self):
        for n, c in COUNTS.items():
            assert halin_count(n) == c
            assert sum(1 for _ in enumerate_halin(n)) == c

    def test_maps_are_distinct(self):
        forms = [H.canonical() for H in enumerate_halin(5)]
        assert len(set(forms)) == COUNTS[5]

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            list(enumerate_halin(11))
        with pytest.raises(UsageError):
            list(enumerate_halin(0))


class TestStructure:
    def test_build_is_a_function_of_the_code(self):
        """Two builds of a code give equal rotation systems, so a round
        trip that gives back the tree gives back the map."""
        for n in range(1, 7):
            for code in hstar_codes(n):
                assert build_halin(PlaneTree(code)).map == build_halin(PlaneTree(code)).map

    def test_validate_all_small(self):
        for n in range(1, 6):
            for H in enumerate_halin(n):
                H.validate()

    def test_counts_of_parts(self):
        for n in range(1, 6):
            for H in enumerate_halin(n):
                zeta = H.tree.zeta
                assert zeta == 2 * n
                assert H.n_internal == n
                assert H.map.n_edges == zeta - 1 + n
                assert len(H.bounded_faces()) == n

    def test_boundary_vertices_have_degree_three(self):
        for n in range(1, 6):
            for H in enumerate_halin(n):
                for leaf in H.tree.leaves():
                    assert len(H.map.vertices[leaf]) == 3

    def test_face_degrees_smallest_maps(self):
        H1 = build_halin(PlaneTree((1, 0)))
        assert sorted(H1.map.face_degrees()) == [1, 4]
        degs = {
            tuple(sorted(H.map.face_degrees())) for H in enumerate_halin(2)
        }
        assert degs == {(2, 4, 5)}

    def test_root_face_contains_half_edge(self):
        for n in range(1, 5):
            for H in enumerate_halin(n):
                h = H.map.half_edge_dart
                assert h in H.map.faces[H.root_face]
                assert H.root_face != H.outer_face

    def test_build_rejects_bad_trees(self):
        with pytest.raises(Exception):
            build_halin(PlaneTree((1, 1, 0)))


class TestWeights:
    def test_uniform_weight_is_one(self):
        for H in enumerate_halin(3):
            assert H.weight(lambda k: Fraction(1)) == 1

    def test_weight_is_product_over_bounded_faces(self):
        for H in enumerate_halin(3):
            degs = H.map.face_degrees()
            expect = Fraction(1)
            for f in H.bounded_faces():
                expect *= Fraction(1, degs[f])
            assert H.weight(lambda k: Fraction(1, k)) == expect
