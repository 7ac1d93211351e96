import json

import pytest
from conftest import map_orbits
from test_fold_reference import canonical_reference

from halinloop.errors import InvariantError
from halinloop.halin import build_halin, enumerate_halin
from halinloop.planar_map import PlanarMap
from halinloop.plane_tree import PlaneTree


def smallest_map() -> PlanarMap:
    # n=1 Halin map: tree edge, boundary self-loop at the leaf, half-edge
    return build_halin(PlaneTree((1, 0))).map


class TestValidation:
    def test_twin_must_be_involution(self):
        with pytest.raises(InvariantError):
            PlanarMap((1, 2, 0), (0, 1, 2), 0)

    @pytest.mark.parametrize("twin", [(-3, 0), (-1, 0), (2, 0)])
    def test_twin_out_of_range_is_not_an_involution(self, twin):
        with pytest.raises(InvariantError, match="twin is not an involution"):
            PlanarMap(twin, (0, 1), 0)

    def test_fixed_point_must_be_half_edge(self):
        with pytest.raises(InvariantError):
            PlanarMap((0, 1), (1, 0), 0)

    def test_nxt_must_be_permutation(self):
        with pytest.raises(InvariantError):
            PlanarMap((1, 0), (0, 0), 0)

    def test_connected_non_injective_nxt_rejected(self):
        # every dart is reached through twin, but nxt sends both darts to 1
        with pytest.raises(InvariantError, match="nxt is not a permutation"):
            PlanarMap((1, 0), (1, 1), 0)
        m = list(enumerate_halin(3))[3].map
        for d in range(m.n_darts):
            for e in range(m.n_darts):
                if m.nxt[d] != m.nxt[e]:
                    nxt = list(m.nxt)
                    nxt[d] = m.nxt[e]
                    with pytest.raises(InvariantError):
                        PlanarMap(m.twin, nxt, m.root_dart, m.half_edge_dart)

    @pytest.mark.parametrize("half", [5, 2, -1])
    def test_half_edge_dart_out_of_range(self, half):
        with pytest.raises(InvariantError, match="half-edge dart out of range"):
            PlanarMap((1, 0), (0, 1), 0, half)

    def test_disconnected_darts_rejected(self):
        # two separate loops at two separate vertices
        with pytest.raises(InvariantError):
            PlanarMap((1, 0, 3, 2), (1, 0, 3, 2), 0)

    def test_empty_map(self):
        # every map the package builds has an edge; the edgeless one is rejected
        with pytest.raises(InvariantError, match="root dart out of range"):
            PlanarMap((), (), -1)


class TestOrbitsAndEuler:
    def test_smallest_map_structure(self):
        m = smallest_map()
        assert m.n_vertices == 2
        assert m.n_edges == 2  # tree edge + boundary loop; half-edge not counted
        assert sorted(m.face_degrees()) == [1, 4]
        m.check_euler()

    def test_euler_on_all_small_maps(self):
        for n in range(1, 6):
            for H in enumerate_halin(n):
                H.map.check_euler()

    def test_euler_violation_rejected(self):
        # one vertex with two interleaved loops: a map on the torus
        m = PlanarMap((1, 0, 3, 2), (2, 3, 1, 0), 0)
        assert (m.n_vertices, m.n_edges, m.n_faces) == (1, 2, 1)
        with pytest.raises(InvariantError):
            m.check_euler()

    def test_face_of_and_vertex_of_consistent(self):
        m = smallest_map()
        vertices, faces = map_orbits(m)
        for fi, orb in enumerate(faces):
            for d in orb:
                assert m.face_of[d] == fi
        for vi, orb in enumerate(vertices):
            for d in orb:
                assert m.vertex_of[d] == vi


class TestSerialization:
    def test_json_roundtrip(self):
        for n in range(1, 5):
            for H in enumerate_halin(n):
                m = H.map
                obj = json.loads(m.to_json())
                assert obj["darts"] == m.n_darts
                assert PlanarMap(obj["twin"], obj["next"], obj["root_dart"],
                                 obj["half_edge_dart"]) == m

    def test_canonical_separates_small_maps(self):
        for n in range(1, 5):
            forms = [canonical_reference(H.map, H.outer_face) for H in enumerate_halin(n)]
            assert len(set(forms)) == len(forms)

    def test_sphere_canonical_is_coarser_than_plane_canonical(self):
        # without the unbounded-face marker the rotation system only
        # determines the map on the sphere, and two pairs of size-4
        # maps collide there
        sphere = {canonical_reference(H.map) for H in enumerate_halin(4)}
        plane = {canonical_reference(H.map, H.outer_face) for H in enumerate_halin(4)}
        assert len(plane) == 30
        assert len(sphere) == 28
