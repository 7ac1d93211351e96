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
        if d == 0:
            # the edgeless single-vertex map
            if self.root_dart != -1 or self.half_edge_dart is not None:
                raise InvariantError("empty map must have root_dart == -1")
            return
        twin, nxt, half = self.twin, self.nxt, self.half_edge_dart
        if sorted(nxt) != list(range(d)):
            raise InvariantError("nxt is not a permutation")
        for i, t in enumerate(twin):
            if not 0 <= t < d or twin[t] != i:
                raise InvariantError("twin is not an involution")
            if t == i and i != half:
                raise InvariantError("fixed point of twin that is not the half-edge")
        if half is not None and twin[half] != half:
            raise InvariantError("half-edge dart must be its own twin")
        if not 0 <= self.root_dart < d:
            raise InvariantError("root dart out of range")
        # connectivity: <twin, nxt> acts transitively on darts; each pop
        # walks a whole nxt-orbit and queues the twins along it
        seen = bytearray(d)
        stack = [0]
        while stack:
            x = stack.pop()
            while not seen[x]:
                seen[x] = 1
                stack.append(twin[x])
                x = nxt[x]
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

    # -- canonical form / serialization ---------------------------------------

    def canonical(self, outer_face: int | None = None) -> tuple:
        """Relabel darts by BFS from the root dart; two maps are equal as
        rooted maps iff their canonical tuples agree.

        A rotation system only fixes the map on the sphere.  Pass
        ``outer_face`` to compare as maps of the plane: the canonical
        tuple then also records which face is unbounded, which can
        separate maps that are isomorphic on the sphere.
        """
        if not self.twin:
            return ((), (), -1, None)
        # inv lists the darts in BFS order, so it is the inverse labelling
        order = [-1] * self.n_darts
        order[self.root_dart] = 0
        inv = [self.root_dart]
        for d in inv:
            for e in (self.nxt[d], self.twin[d]):
                if order[e] < 0:
                    order[e] = len(inv)
                    inv.append(e)
        twin = tuple(order[self.twin[d]] for d in inv)
        nxt = tuple(order[self.nxt[d]] for d in inv)
        half = order[self.half_edge_dart] if self.half_edge_dart is not None else None
        form = (twin, nxt, 0, half)
        if outer_face is not None:
            form += (min(order[d] for d in self.faces[outer_face]),)
        return form

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
    numbered in that order, and the cycle of each element; the empty
    permutation has one empty cycle (the single-vertex map)."""
    if not perm:
        return ((),), ()
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
