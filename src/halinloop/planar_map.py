"""Rotation-system representation of rooted maps on the sphere.

Darts are dense integers 0..D-1.  ``twin`` is an involution pairing the
two darts of each edge; an optional half-edge dart is its own twin.
``nxt`` gives the counterclockwise order of darts around their origin
vertex.  Faces are the orbits of d -> nxt[twin[d]]; with this
orientation the orbit through d traverses the face on the left of d.
The half-edge contributes exactly one side to the face containing it
and is excluded from the edge count.  Vertices and faces are held as
orbit labels, each dart's orbit numbered by its smallest dart, with the
orbit sizes as degrees: a walk labels small maps, one C
``connected_components`` call large ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantError


@dataclass(frozen=True)
class PlanarMap:
    twin: tuple[int, ...]
    nxt: tuple[int, ...]
    root_dart: int
    half_edge_dart: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "twin", tuple(self.twin))
        object.__setattr__(self, "nxt", tuple(self.nxt))
        self._validate()

    # -- structural checks -------------------------------------------------

    def _validate(self) -> None:
        d = self.n_darts
        if not 0 <= self.root_dart < d:
            raise InvariantError("root dart out of range")
        twin, nxt, half = self.twin, self.nxt, self.half_edge_dart
        if len(nxt) != d or min(nxt) < 0 or max(nxt) >= d:
            raise InvariantError("nxt is not a permutation")
        for i, t in enumerate(twin):
            if not 0 <= t < d or twin[t] != i:
                raise InvariantError("twin is not an involution")
            if t == i and i != half:
                raise InvariantError("fixed point of twin that is not the half-edge")
        if half is not None and not 0 <= half < d:
            raise InvariantError("half-edge dart out of range")
        if half is not None and twin[half] != half:
            raise InvariantError("half-edge dart must be its own twin")
        # connectivity: <twin, nxt> acts transitively on darts; each pop walks
        # a whole nxt-orbit, queues the twins along it and must close where it
        # began, so once every dart is seen the orbits show nxt is a permutation
        seen = bytearray(d)
        stack = [0]
        while stack:
            x = start = stack.pop()
            while not seen[x]:
                seen[x] = 1
                stack.append(twin[x])
                x = nxt[x]
            if x != start:
                raise InvariantError("nxt is not a permutation")
        if 0 in seen:
            raise InvariantError("dart set is not connected")

    @property
    def n_darts(self) -> int:
        return len(self.twin)

    @property
    def n_edges(self) -> int:
        """Edges, not counting the half-edge."""
        return (self.n_darts - (1 if self.half_edge_dart is not None else 0)) // 2

    # -- orbits -------------------------------------------------------------

    @cached_property
    def face_nxt(self) -> tuple[int, ...]:
        """The permutation d -> nxt[twin[d]], whose orbits are the faces."""
        return tuple(map(self.nxt.__getitem__, self.twin))

    @cached_property
    def vertex_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Each dart's vertex, an orbit of nxt, and the vertex degrees."""
        return _orbit_labels(self.nxt)

    @cached_property
    def face_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Each dart's face, an orbit of ``face_nxt``, and the face degrees."""
        return _orbit_labels(self.face_nxt)

    @cached_property
    def vertex_of(self) -> tuple[int, ...]:
        return tuple(self.vertex_labels[0].tolist())

    @cached_property
    def face_of(self) -> tuple[int, ...]:
        return tuple(self.face_labels[0].tolist())

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_labels[1])

    @property
    def n_faces(self) -> int:
        return len(self.face_labels[1])

    def face_degrees(self) -> list[int]:
        return self.face_labels[1].tolist()

    def check_euler(self) -> None:
        if self.n_vertices - self.n_edges + self.n_faces != 2:
            raise InvariantError(
                "Euler formula violated: V=%d E=%d F=%d"
                % (self.n_vertices, self.n_edges, self.n_faces)
            )

    # -- edge helpers --------------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        return [(d, t) for d, t in enumerate(self.twin) if d < t]

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "darts": self.n_darts,
                "twin": list(self.twin),
                "next": list(self.nxt),
                "root_dart": self.root_dart,
                "half_edge_dart": self.half_edge_dart,
            }
        )


# from about this many darts one C connected_components call beats the walk: on
# Halin maps (2 cores) they tie at 1,500-2,400, and 12,287 take 1.3 ms against 0.65
ORBIT_LABEL_MIN_DARTS = 2048


def _orbit_labels(perm) -> tuple[np.ndarray, np.ndarray]:
    """Each element's cycle in a permutation, cycles numbered in the order of
    their smallest elements, and the cycle sizes, read-only: by a walk, or by
    the weak components of d -> perm[d], which scipy numbers the same way."""
    d = len(perm)
    if d < ORBIT_LABEL_MIN_DARTS:
        of, k = [-1] * d, 0
        for x, label in enumerate(of):
            if label < 0:
                while of[x] < 0:
                    of[x], x = k, perm[x]
                k += 1
        labels = np.array(of, np.intp)
    else:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        g = csr_matrix((np.ones(d, np.int8), np.fromiter(perm, np.int32, d), np.arange(d + 1, dtype=np.int32)), (d, d))
        labels = connected_components(g, connection="weak")[1]
    sizes = np.bincount(labels)
    labels.flags.writeable = sizes.flags.writeable = False
    return labels, sizes
