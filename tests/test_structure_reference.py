"""``PlaneTree.structure`` against the code it replaced, kept here as a
``_reference`` function: the Python slot stack that gave parents and
depths."""

from itertools import accumulate

import numpy as np
import pytest

from halinloop.gw import mu_from_weights, sample_conditioned, stable_mu
from halinloop.plane_tree import PlaneTree, enumerate_trees, lukasiewicz


def parents_depths_reference(code):
    """Parent and depth per vertex from a stack holding one entry per
    unvisited child, deepest on top."""
    par = [-1] * len(code)
    dep = [0] * len(code)
    slots = []
    for i, k in enumerate(code):
        if i > 0:
            p = par[i] = slots.pop()
            dep[i] = dep[p] + 1
        slots += [i] * k
    return tuple(par), tuple(dep)


def _assert_matches_reference(tree):
    par, dep = parents_depths_reference(tree.code)
    assert tuple(tree.structure.parent.tolist()) == par
    assert tree.structure.depth.tolist() == list(dep)
    assert tree.height() == max(dep)
    assert lukasiewicz(tree) == (0, *accumulate(k - 1 for k in tree.code))


def test_structure_matches_reference_on_every_small_tree():
    for n in range(1, 11):
        for tree in enumerate_trees(n):
            _assert_matches_reference(tree)


@pytest.mark.parametrize("n", [64, 1024, 2**16])
@pytest.mark.parametrize("law", ["uniform", "stable 1.5", "stable 1.2"])
def test_structure_matches_reference_on_sampled_trees(n, law):
    mu = mu_from_weights(lambda k: 1.0) if law == "uniform" else stable_mu(float(law.split()[1]))
    for s in range(2 if n == 2**16 else 10):
        _assert_matches_reference(sample_conditioned(mu, n, np.random.default_rng([s, n])))


@pytest.mark.parametrize(
    "code",
    [(1,) * 69_999 + (0,), (2,) + (1,) * 69_997 + (0, 0), (2**16 - 1,) + (0,) * (2**16 - 1)],
    ids=["path 70000", "path and leaf 70000", "star 2^16"],
)
def test_structure_matches_reference_at_the_dtype_edges(code):
    # heights near 70,000 need a uint32 depth sort: in uint16 the end of
    # the forked path would sort between the root's two children, and
    # the leaf would be read as its sibling; the star's (W, j) keys need int64
    _assert_matches_reference(PlaneTree(code))
