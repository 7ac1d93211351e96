"""Offspring distributions and exact size-conditioned tree sampling.

Two families are provided: distributions induced by face weights,
mu(k) = a b^k (k+1) w(k+4) with a, b solved for criticality, and the
power-law family mu(k) = k^(-1-alpha) / zeta(alpha) whose tails lie in
the domain of attraction of an alpha-stable law.  Conditioned sampling
draws offspring counts (k_1, ..., k_n) i.i.d. from mu conditioned on
summing to n-1 and applies the cycle lemma: exactly one cyclic
rotation of the step sequence (k_i - 1) is a valid Lukasiewicz path.

The conditioning splits the sum recursively (Devroye 2012): the n
items halve into blocks of ceil(m/2) and floor(m/2) items, and a
block's total is shared between its halves by the exact conditional
law, read from partial-sum tables P_m built once per (mu, n) by FFT.
The split runs one depth at a time over a chunk of trees, one numpy
pass per block size, so a batch costs about log2(n) passes.  Tree i of
a chunk reads its own n-1 uniforms, so sample_conditioned_many gives
the trees repeated sample_conditioned calls would, from the same seed.

The split law is only as good as the tables.  Against direct
convolution (n = 1024 and 4096, alpha = 1.5 and uniform weights) their
absolute error stays below 1e-15, so the relative error of an entry
grows as its mass shrinks: entries under about 1e-9 can be off by more
than 1e-6, and the smallest ones by any factor or flushed to 0.  A
split whose window rests on such entries is drawn from a distorted law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import UsageError
from .plane_tree import PlaneTree

# items (trees x n) held by one call of _SizeLaw.sample_counts
_CHUNK_ITEMS = 1 << 16
# mu_from_weights searches b in (0, _B_TOP), just inside the radius of convergence 1
_B_TOP = 1 - 1e-12


@dataclass(frozen=True)
class OffspringDistribution:
    """Probability mass function on {0, 1, 2, ...} with mean one."""

    name: str
    pmf_func: Callable[[int], float]
    mean: float
    alpha: float | None = None
    tail_constant: float | None = None
    params: dict = field(default_factory=dict)

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        return self.pmf_func(k)

    def table(self, kmax: int) -> np.ndarray:
        """mu(0..kmax) as an array."""
        return np.array([self.pmf(k) for k in range(kmax + 1)], dtype=float)

    def validate(self) -> None:
        total = float(np.sum(self.table(100_000)))
        if self.alpha is not None:
            from scipy.special import zeta

            # add the exact power-law tail beyond the probe window
            total += self.tail_constant * float(zeta(1 + self.alpha, 100_001))
        if abs(total - 1.0) > 1e-12:
            raise UsageError("pmf does not sum to 1 (got %.15f)" % total)
        if not self.pmf(1) < 1:
            raise UsageError("degenerate distribution with mu(1) = 1")
        if abs(self.mean - 1.0) > 1e-10:
            raise UsageError("distribution is not critical (mean %.12f)" % self.mean)


def mu_from_weights(w: Callable[[int], float]) -> OffspringDistribution:
    """Critical offspring distribution mu(k) = a b^k (k+1) w(k+4).

    a is forced by normalization; b is solved by bisection on (0, 1),
    taking the radius of convergence to be 1, so the mean is one.  The
    mean is strictly increasing in b there, so a critical b inside the
    radius either exists or the supremum of the mean stays below one,
    which is reported as an error.
    """

    def sums(b: float) -> tuple[float, float]:
        s = m = 0.0
        bk = 1.0
        for k in range(200_000):
            term = bk * (k + 1) * w(k + 4)
            s += term
            m += k * term
            bk *= b
            if k > 100 and s > 0 and term < 1e-17 * s:
                break
        return s, m

    def mean_at(b: float) -> float:
        s, m = sums(b)
        if s <= 0 or not math.isfinite(s):
            raise UsageError("weight sequence vanishes on all reachable degrees")
        return m / s

    lo, hi = 0.0, _B_TOP
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    b = 0.5 * (lo + hi)
    s, m = sums(b)
    # the probe at the radius can take 200,000 terms, so it runs only
    # when the bisection did not reach a critical b
    if m / s < 1.0 - 1e-13:
        sup = mean_at(_B_TOP)
        if sup < 1.0:
            raise UsageError(
                "no critical b inside the radius of convergence "
                "(supremum of the mean is %.6f < 1)" % sup
            )
    a = 1.0 / s

    def pmf(k: int, a=a, b=b) -> float:
        return a * b**k * (k + 1) * w(k + 4)

    return OffspringDistribution(
        name="weights", pmf_func=pmf, mean=m / s, params={"a": a, "b": b}
    )


def stable_mu(alpha: float) -> OffspringDistribution:
    """Power-law offspring law mu(k) = k^(-1-alpha)/zeta(alpha), k >= 1.

    The constant forces mean one; mu(0) = 1 - zeta(1+alpha)/zeta(alpha)
    is positive for alpha in (1,2).  The tail index alpha places the
    law in the domain of attraction of an alpha-stable distribution.
    """
    if not 1.0 < alpha < 2.0:
        raise UsageError("alpha must lie in (1, 2)")
    from scipy.special import zeta

    za = float(zeta(alpha, 1))
    za1 = float(zeta(1 + alpha, 1))
    c = 1.0 / za
    mu0 = 1.0 - za1 / za

    def pmf(k: int, c=c, mu0=mu0, alpha=alpha) -> float:
        if k == 0:
            return mu0
        return c * float(k) ** (-1.0 - alpha)

    return OffspringDistribution(
        name="stable", pmf_func=pmf, mean=1.0, alpha=alpha, tail_constant=c,
        params={"alpha": alpha, "c": c},
    )


def b_n(alpha: float, c: float, n: int) -> float:
    """Scaling constant (n / (c |Gamma(-alpha)|))^(1/alpha) for the
    power-law family (constant slowly-varying part)."""
    if not 1.0 < alpha < 2.0:
        raise UsageError("alpha must lie in (1, 2)")
    if n < 1:
        raise UsageError("need n >= 1")
    g = abs(math.gamma(-alpha))
    return (n / (c * g)) ** (1.0 / alpha)


def b_n_of(mu: OffspringDistribution, n: int) -> float:
    if mu.alpha is None or mu.tail_constant is None:
        raise UsageError("scaling constant requires a power-law tail")
    return b_n(mu.alpha, mu.tail_constant, n)


# ---------------------------------------------------------------------------
# conditioned sampling


def _head_table(mu: OffspringDistribution, n: int) -> np.ndarray:
    """mu truncated to {0..n-1} and renormalized; exact for the
    conditional law since any k > n-1 is incompatible with the sum."""
    p = mu.table(n - 1)
    t = p.sum()
    if t <= 0:
        raise UsageError("empty support after truncation")
    return p / t


class _SizeLaw:
    """What conditioning on n vertices needs from mu, built once per
    (mu, n): whether n is a possible size, and the partial-sum pmf
    tables P_m = law of k_1+...+k_m truncated to [0, n-1], built from
    the head table by doubling with FFT convolutions."""

    def __init__(self, mu: OffspringDistribution, n: int):
        self.n = n
        p = _head_table(mu, n)
        support = np.nonzero(p > 0)[0]
        g = int(np.gcd.reduce(support[support > 0])) if np.any(support > 0) else 0
        self.possible = bool(p[0] > 0 and g != 0 and (n - 1) % g == 0)
        self.tables: dict[int, np.ndarray] = {1: p}
        if not self.possible:
            return
        need, level = set(), {n}
        while level:
            need |= level
            level = {h for m in level if m > 1 for h in ((m + 1) // 2, m // 2)}
        for m in sorted(need - {1}):
            pa, pb = self.tables[(m + 1) // 2], self.tables[m // 2]
            size = 1 << (len(pa) + len(pb) - 2).bit_length()
            fa = np.fft.rfft(pa, size)
            fb = fa if pb is pa else np.fft.rfft(pb, size)
            conv = np.fft.irfft(fa * fb, size)[:n]
            np.clip(conv, 0.0, None, out=conv)
            self.tables[m] = conv

    def sample_counts(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """count rows (k_1..k_n), each with k_i iid ~ p given sum == n-1.

        A block of m >= 2 items splits into a left block of ceil(m/2)
        items, whose share of the block total is drawn from its exact
        conditional law, and a right block of floor(m/2).  All blocks of
        one size at one depth, across all rows, are drawn in one pass.
        Row i reads uniforms [i(n-1), (i+1)(n-1)), one per split in the
        preorder of a depth-first recursion, so the stream of a seed does
        not depend on the order of the passes or on the chunking.
        """
        n = self.n
        out = np.empty(count * n, dtype=np.int64)
        u = rng.random(count * (n - 1))
        rows = np.arange(count)
        # block size -> (totals, uniform indices, first items) at this depth
        level = {n: (np.full(count, n - 1), rows * (n - 1), rows * n)}
        while level:
            deeper: dict[int, list] = {}
            for m, (s, off, pos) in level.items():
                if m == 1:
                    out[pos] = s
                    continue
                a, b = (m + 1) // 2, m // 2
                sa = self._left_shares(a, b, s, u[off])
                deeper.setdefault(a, []).append((sa, off + 1, pos))
                deeper.setdefault(b, []).append((s - sa, off + a, pos + a))
            level = {m: tuple(map(np.concatenate, zip(*kids))) for m, kids in deeper.items()}
        return out.reshape(count, n)

    def _left_shares(self, a: int, b: int, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        """For blocks of a + b items with totals s, the left a-block's
        share of each, chosen by inverting its conditional cdf at u."""
        pa, pb = self.tables[a], self.tables[b]
        lo = np.maximum(0, s - (len(pb) - 1))
        hi = np.minimum(s, len(pa) - 1)
        width = hi - lo + 1
        if np.any(width <= 0):
            raise UsageError("size outside the support of the total progeny")
        # the windows pa[i] * pb[s - i], i in [lo, hi], laid end to end
        start = np.cumsum(width) - width
        i = np.arange(int(width.sum())) + np.repeat(lo - start, width)
        w = pa[i] * pb[np.repeat(s, width) - i]
        tot = np.add.reduceat(w, start)
        if not np.all(tot > 0):
            raise UsageError("size outside the support of the total progeny")
        # each window is normalised to mass one before the running sum, so
        # a window keeps its resolution however much mass precedes it
        cdf = np.cumsum(w / np.repeat(tot, width))
        base = np.concatenate(([0.0], cdf[start[1:] - 1]))
        k = np.searchsorted(cdf, base + u, side="right") - start
        return np.minimum(lo + k, hi)


_size_laws: dict[tuple, _SizeLaw] = {}


def _size_law(mu: OffspringDistribution, n: int) -> _SizeLaw:
    key = (mu.name, tuple(sorted(mu.params.items())), n)
    if key not in _size_laws:
        if len(_size_laws) > 8:
            _size_laws.clear()
        _size_laws[key] = _SizeLaw(mu, n)
    return _size_laws[key]


def cycle_rotation(ks: np.ndarray) -> np.ndarray:
    """The unique cyclic rotation of the offspring sequence whose step
    sequence (k_i - 1) is a valid Lukasiewicz path; a 2-D array is
    rotated row by row."""
    ks = np.asarray(ks)
    walk = np.cumsum(np.asarray(ks, dtype=np.int64) - 1, axis=-1)
    if np.any(walk[..., -1] != -1):
        raise UsageError("offspring counts do not sum to n - 1")
    cut = np.argmin(walk, axis=-1)[..., None] + 1
    return np.take_along_axis(ks, (np.arange(ks.shape[-1]) + cut) % ks.shape[-1], axis=-1)


def sample_conditioned_many(
    mu: OffspringDistribution, n: int, count: int, seed: int | np.random.Generator | None = None
) -> list[PlaneTree]:
    """count trees with the branching-process law conditioned on n
    vertices: the trees count calls of sample_conditioned would draw
    from one generator, and that generator is left in the same state.
    The split sampler draws them in chunks of about 2^16 items."""
    if n < 1:
        raise UsageError("need n >= 1")
    if count < 0:
        raise UsageError("need count >= 0")
    if n == 1:
        return [PlaneTree((0,))] * count
    law = _size_law(mu, n)
    if not law.possible:
        raise UsageError("size %d is outside the support of the total progeny" % n)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    chunk = max(1, _CHUNK_ITEMS // n)
    return [
        PlaneTree(tuple(code))
        for done in range(0, count, chunk)
        for code in cycle_rotation(law.sample_counts(min(chunk, count - done), rng)).tolist()
    ]


def sample_conditioned(
    mu: OffspringDistribution, n: int, seed: int | np.random.Generator | None = None
) -> PlaneTree:
    """One tree with the branching-process law conditioned on n vertices."""
    return sample_conditioned_many(mu, n, 1, seed)[0]


def exact_conditioned_masses(mu: OffspringDistribution, n: int) -> dict[tuple[int, ...], float]:
    """Exact conditional probabilities of every shape with n vertices,
    by enumeration; usable as a goodness-of-fit reference for small n."""
    from .plane_tree import enumerate_trees

    masses = {}
    for t in enumerate_trees(n):
        m = 1.0
        for k in t.code:
            m *= mu.pmf(k)
        masses[t.code] = m
    total = sum(masses.values())
    if total <= 0:
        raise UsageError("size outside the support of the total progeny")
    return {c: m / total for c, m in masses.items()}
