"""Rotation-system representation of rooted maps on the sphere.

Darts are dense integers 0..D-1.  ``twin`` is an involution pairing the
two darts of each edge; an optional half-edge dart is its own twin.
``nxt`` gives the counterclockwise order of darts around their origin
vertex.  Faces are the orbits of d -> nxt[twin[d]]; with this
orientation the orbit through d traverses the face on the left of d.
The half-edge contributes exactly one side to the face containing it
and is excluded from the edge count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

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
    def _vertex_orbits(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        return _orbits(self.nxt)

    @cached_property
    def _face_orbits(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        return _orbits(self.face_nxt)

    @cached_property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of nxt: the darts around each vertex, ccw."""
        return self._vertex_orbits[0]

    @cached_property
    def vertex_of(self) -> tuple[int, ...]:
        return self._vertex_orbits[1]

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of ``face_nxt``; each orbit lists the darts whose left
        side is that face, in traversal order."""
        return self._face_orbits[0]

    @cached_property
    def face_of(self) -> tuple[int, ...]:
        return self._face_orbits[1]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def face_degrees(self) -> list[int]:
        return [len(f) for f in self.faces]

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


def _orbits(perm) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The cycles of a permutation, each from its smallest element and
    numbered in that order, and the cycle of each element."""
    of = [-1] * len(perm)
    out = []
    for start, k in enumerate(of):
        if k >= 0:
            continue
        k = len(out)
        orb = []
        d = start
        while of[d] < 0:
            of[d] = k
            orb.append(d)
            d = perm[d]
        out.append(tuple(orb))
    return tuple(out), tuple(of)
