"""Hypothesis runs derandomized with no deadline, so property tests draw
the same examples on every run and never fail on a slow host.  The
helpers below let a test choose how many CPUs the fork runner sees,
count its forks, and read a tree's parents, children and leaves as
Python tuples and lists."""

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
