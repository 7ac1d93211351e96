"""Finite metric spaces, correspondences and Gromov-Hausdorff distance.

The exact GH solver minimizes the distortion over correspondences of
the form graph(f) union transpose(graph(g)) for function pairs
f: X -> Y, g: Y -> X.  This is sufficient: any correspondence R
contains such a union R' (pick one partner per point), R' is itself a
correspondence, and distortion is monotone under inclusion, so the
minimum over function pairs equals the infimum over all
correspondences.  The search is branch-and-bound with a running
incumbent and an evaluation budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, InvariantError, UsageError

_SLACK = 1e-9
_TEMP_FLOATS = 2**21  # the temporaries of the triangle check and of one certificate chunk


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Finite distances, checked to be a metric within a 1e-9 slack.  The
    triangle check is exact, through temporaries of max(2^21, n^2) floats:
    about 0.4 s at 512 points, 4 s at 1024 and 40-60 s at 2048 (2 cores)."""

    dist: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", d)
        n = len(d)
        if d.shape != (n, n):
            raise InvariantError("distance matrix must be square")
        if not np.isfinite(d).all():
            raise InvariantError("distances must be finite")
        if np.any(np.abs(np.diag(d)) > _SLACK) or np.any(d < -_SLACK):
            raise InvariantError("distances must be non-negative with zero diagonal")
        if np.any(np.abs(d - d.T) > _SLACK):
            raise InvariantError("distance matrix must be symmetric")
        via = np.full_like(d, np.inf)
        step = max(1, _TEMP_FLOATS // max(n * n, 1))
        for k in range(0, n, step):  # min over k of d[i, k] + d[k, j], step k at a time
            np.minimum(via, np.min(d[:, k : k + step, None] + d[None, k : k + step], axis=1), out=via)
        if np.any(d > via + _SLACK):
            raise InvariantError("triangle inequality violated")

    @property
    def size(self) -> int:
        return len(self.dist)

    @cached_property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.size else 0.0

    @cached_property
    def eccentricities(self) -> np.ndarray:
        return self.dist.max(axis=1)


@dataclass(frozen=True)
class Correspondence:
    pairs: tuple[tuple[int, int], ...]

    def validate(self, x: FiniteMetricSpace, y: FiniteMetricSpace) -> None:
        left = {p[0] for p in self.pairs}
        right = {p[1] for p in self.pairs}
        if left != set(range(x.size)) or right != set(range(y.size)):
            raise UsageError("correspondence projections are not surjective")


def distortion(r: Correspondence, x: FiniteMetricSpace, y: FiniteMetricSpace) -> float:
    """sup over pairs of pairs of |d_X - d_Y|."""
    r.validate(x, y)
    idx, jdx = np.array(r.pairs).T
    dx = x.dist[np.ix_(idx, idx)]
    dy = y.dist[np.ix_(jdx, jdx)]
    return float(np.abs(dx - dy).max())


def gh_lower_bound(x: FiniteMetricSpace, y: FiniteMetricSpace, seed: int | None = 0) -> float:
    """Valid lower bounds: half the Hausdorff distance between the
    eccentricity sets (at least half the diameter gap), and randomized
    certificates from 200 sampled triples of x: any correspondence
    matches each triple somewhere, so the best match bounds the
    distortion below.

    A triple is matched through d(a,b), d(a,c) and d(b,c), the full
    3 x 3 block on a symmetric matrix with a zero diagonal; on a CSV
    matrix that is so only within the 1e-9 slack, the bound can come
    out up to 1e-9 below a comparison of full blocks.  y's |y|^3 triples
    go in chunks of 2^21 // (200 x 3), deduplicated by value ranks within
    a chunk, and a sample already matched within the first term drops out.
    Beyond copies of the distance matrices, one call's temporaries stay
    under 40 MiB whatever |x| and |y|.
    """
    if x.size == 0 or y.size == 0:
        raise UsageError("empty metric space")
    gap = np.abs(x.eccentricities[:, None] - y.eccentricities)
    lb = 0.5 * max(float(gap.min(axis=1).max()), float(gap.min(axis=0).max()))
    rng = np.random.default_rng(seed)
    if x.size < 3:
        return lb
    subs = np.array([rng.choice(x.size, size=3, replace=False) for _ in range(200)])
    tx = x.dist[subs[:, [0, 0, 1]], subs[:, [1, 2, 2]]]
    values = np.unique(y.dist)
    nv, ny = len(values), y.size
    if nv**3 >= 2**63:
        raise UsageError("too many distinct distances for the triple certificate")
    rank = np.searchsorted(values, y.dist).ravel()
    best = np.full(len(tx), np.inf)
    step = _TEMP_FLOATS // tx.size
    for start in range(0, ny**3, step):
        live = best > 2 * lb  # the others can no longer raise the bound
        if not live.any():
            break
        ab, c = np.divmod(np.arange(start, min(start + step, ny**3)), ny)
        a, b = np.divmod(ab, ny)
        keys = np.unique((rank[ab] * nv + rank[a * ny + c]) * nv + rank[b * ny + c])
        ty = values[np.stack([keys // (nv * nv), keys // nv % nv, keys % nv])]
        gap = np.abs(tx[live, :, None] - ty).max(axis=1)
        best[live] = np.minimum(best[live], gap.min(axis=1))
    return max(lb, 0.5 * float(best.max()))


def gh_exact(x: FiniteMetricSpace, y: FiniteMetricSpace, budget: int = 10**9) -> float:
    """Exact Gromov-Hausdorff distance by branch-and-bound over pairs
    of functions f: X -> Y, g: Y -> X.

    The correspondence grows one pair (a, b) at a time: (i, f(i)) for
    the points of X, then (g(j), j) for the points of Y.  A pair costs
    its worst |d_X(a, a') - d_Y(b, b')| over the pairs already fixed,
    read as d_X(a, .) and d_Y(b, .); on a CSV matrix symmetric only
    within the 1e-9 slack, the distance can come out up to 2e-9 away
    from one read the other way round.
    """
    nx, ny = x.size, y.size
    if nx == 0 or ny == 0:
        raise UsageError("empty metric space")
    dx, dy = x.dist.tolist(), y.dist.tolist()
    # incumbent: everything matched to one point on each side
    incumbent = max(x.diameter, y.diameter)
    pairs: list[tuple[int, int]] = []
    evals = 0

    def rec(pos: int, cur: float) -> None:
        nonlocal incumbent, evals
        if cur >= incumbent:
            return
        if pos == nx + ny:
            incumbent = cur
            return
        candidates = [(pos, c) for c in range(ny)] if pos < nx else [(c, pos - nx) for c in range(nx)]
        for a, b in candidates:
            evals += 1
            if evals > budget:
                raise BudgetExceededError("distortion evaluation budget exceeded")
            ra, rb = dx[a], dy[b]
            m = cur
            for a2, b2 in pairs:
                m = max(m, abs(ra[a2] - rb[b2]))
                if m >= incumbent:
                    break
            if m < incumbent:
                pairs.append((a, b))
                rec(pos + 1, m)
                pairs.pop()

    rec(0, 0.0)
    return 0.5 * incumbent
