"""Hypothesis runs derandomized with no deadline, so property tests draw
the same examples on every run and never fail on a slow host.  The
helpers below let a test choose how many CPUs the fork runner sees,
count its forks, read a tree's parents, children and leaves as Python
tuples and lists, and list a map's vertex and face orbits."""

import os

from hypothesis import settings

settings.register_profile("halinloop", derandomize=True, deadline=None, database=None)
settings.load_profile("halinloop")


def _allow_cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


def _count_forks(monkeypatch):
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    return forks


def tree_views(tree):
    """(parents, children, leaves) of a plane tree, from
    ``structure.parent``: the parent per vertex (-1 for the root), the
    tuple of children per vertex and the leaves, each in vertex order."""
    parents = tuple(tree.structure.parent.tolist())
    children = [[] for _ in parents]
    for v, p in enumerate(parents[1:], 1):
        children[p].append(v)
    return parents, tuple(map(tuple, children)), [v for v, c in enumerate(children) if not c]


def _orbits_reference(perm):
    """The cycles of a permutation, each from its smallest element and
    numbered in that order, and the cycle of each element: the orbit walk
    that labelled a map's vertices and faces before ``_orbit_labels``."""
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


def map_orbits(m):
    """(vertices, faces) of a planar map: the orbits of ``nxt`` (the darts
    around each vertex, ccw) and of ``face_nxt`` (the darts whose left side
    is each face, in traversal order), numbered as ``vertex_of`` and ``face_of``."""
    return _orbits_reference(m.nxt)[0], _orbits_reference(m.face_nxt)[0]
