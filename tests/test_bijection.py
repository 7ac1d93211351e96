from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from halinloop.bijection import (
    _marked_vertex_of,
    phi,
    phi_inverse,
    phi_with_faces,
    pushforward_distribution,
)
from halinloop.gw import cycle_rotation, mu_from_weights, sample_conditioned
from halinloop.halin import enumerate_halin, satisfies_hstar
from halinloop.plane_tree import MarkedTree, PlaneTree, enumerate_marked


@st.composite
def _marked_trees(draw):
    """A count list summing to n - 1 rotated into a tree, then one mark
    per vertex in [0, k_v]."""
    n = draw(st.integers(1, 60))
    boxes = draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1))
    counts = np.bincount(np.array(boxes, dtype=np.int64), minlength=n)
    tree = PlaneTree(tuple(cycle_rotation(counts).tolist()))
    marks = draw(st.tuples(*(st.integers(0, k) for k in tree.code)))
    return MarkedTree(tree, marks)


class TestBijectivity:
    def test_exhaustive_bijection(self):
        for n in range(1, 6):
            images = {}
            for H in enumerate_halin(n):
                t = phi(H)
                key = (t.shape.code, t.marks)
                assert key not in images, "collision at n=%d" % n
                images[key] = H
            targets = {(mt.shape.code, mt.marks) for mt in enumerate_marked(n)}
            assert set(images) == targets

    def test_roundtrip_map_to_tree_to_map(self):
        for n in range(1, 6):
            for H in enumerate_halin(n):
                H2 = phi_inverse(phi(H))
                assert H2.tree == H.tree
                assert H2.map == H.map

    def test_roundtrip_tree_to_map_to_tree(self):
        for n in range(1, 6):
            for mt in enumerate_marked(n):
                assert phi(phi_inverse(mt)) == mt

    def test_random_roundtrips(self):
        mu = mu_from_weights(lambda k: 1.0)
        rng = np.random.default_rng(11)
        for n in (10, 50):
            for _ in range(25):
                shape = sample_conditioned(mu, n, rng)
                marks = tuple(int(rng.integers(0, k + 1)) for k in shape.code)
                mt = MarkedTree(shape, marks)
                H = phi_inverse(mt)
                H.validate()
                assert phi(H) == mt

    @given(_marked_trees())
    def test_roundtrip_property(self, mt):
        H = phi_inverse(mt)
        H.validate()
        assert satisfies_hstar(H.tree)
        assert phi(H) == mt


class TestDegreeLaw:
    def test_marks_in_range_by_construction(self):
        for n in range(1, 5):
            for H in enumerate_halin(n):
                phi(H)  # MarkedTree validates 0 <= m <= k

    def test_face_degrees_match_arities_plus_four(self):
        for n in range(1, 6):
            for H in enumerate_halin(n):
                t, faces = phi_with_faces(H)
                degs = H.map.face_degrees()
                for v, f in enumerate(faces):
                    assert degs[f] == t.shape.code[v] + 4

    def test_faces_listed_are_the_bounded_faces(self):
        for n in range(1, 5):
            for H in enumerate_halin(n):
                _, faces = phi_with_faces(H)
                assert sorted(faces) == sorted(H.bounded_faces())


class TestCells:
    def test_cells_are_distinct_internal_vertices(self):
        from test_map_reference import _cells, _phi_inverse_reference

        for n in range(1, 6):
            for mt in enumerate_marked(n):
                H = phi_inverse(mt)
                match = _marked_vertex_of(H, phi_with_faces(H)[1])
                for leaf, p in enumerate(H.tree.parents()):
                    if not H.tree.code[leaf]:
                        assert match[leaf] == match[p]
                cells = _cells(H)
                assert len(set(cells)) == len(cells) == n
                for v in cells:
                    assert H.tree.code[v] > 0
                assert cells == _phi_inverse_reference(mt)[1]


class TestPushforward:
    def test_uniform_weights_n3_exact(self):
        rep = pushforward_distribution(3, lambda k: Fraction(1))
        assert rep["exact_match"]
        assert rep["max_discrepancy"] == 0
        masses = {r["shape"]: r["pushforward"] for r in rep["rows"]}
        assert masses[(2, 0, 0)] + masses[(1, 1, 0)] == 1
        # branching masses are proportional to prod(k_v + 1): 4 vs 3
        assert masses[(1, 1, 0)] == Fraction(4, 7)
        assert masses[(2, 0, 0)] == Fraction(3, 7)

    def test_degree_weights_n4_exact(self):
        rep = pushforward_distribution(4, lambda k: Fraction(1, k))
        assert rep["exact_match"]
        assert rep["max_discrepancy"] == 0
