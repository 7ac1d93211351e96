"""Halin maps, marked plane trees, looptrees and Gromov-Hausdorff tooling.

A Halin map is built from a plane tree in which every internal vertex
has exactly one leaf child, by joining consecutive leaves into a cycle
and attaching a dangling half-edge at the root.  Such maps with n
bounded faces are in bijection with marked plane trees with n vertices;
the package implements the bijection in both directions, exact and
sampled Boltzmann-weighted distributions via size-conditioned branching
processes with stable tails, looptree metrics, and exact/bounded
Gromov-Hausdorff distance computations.
"""

__version__ = "1.0.0"

from .bijection import (
    phi,
    phi_inverse,
    phi_with_faces,
    pushforward_distribution,
)
from .errors import BudgetExceededError, InvariantError, SizeGuardError, UsageError
from .experiments import ScalingRunConfig, lukasiewicz_profile, render, scaling_run
from .gh_metric import (
    Correspondence,
    FiniteMetricSpace,
    distortion,
    gh_exact,
    gh_lower_bound,
)
from .gw import (
    OffspringDistribution,
    b_n,
    b_n_of,
    exact_conditioned_masses,
    mu_from_weights,
    sample_conditioned,
    sample_conditioned_many,
    stable_mu,
)
from .halin import HalinMap, build_halin, enumerate_halin, halin_count, satisfies_hstar
from .looptree import (
    LoopGraph,
    canonical_correspondence,
    check_lemma_bound,
    halin_metric,
    hat_H,
    hat_L,
    loop,
    loop_diameter,
)
from .plane_tree import (
    MarkedTree,
    PlaneTree,
    enumerate_marked,
    enumerate_trees,
    lukasiewicz,
    marked_count_formula,
)
from .planar_map import PlanarMap

__all__ = [name for name in dir() if not name.startswith("_")]
