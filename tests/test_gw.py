import hashlib
import math

import numpy as np
import pytest
from scipy.special import zeta

from halinloop.errors import SizeGuardError, UsageError
from halinloop.gw import (
    OffspringDistribution,
    b_n,
    b_n_of,
    cycle_rotation,
    exact_conditioned_masses,
    mu_from_weights,
    sample_conditioned,
    sample_conditioned_many,
    stable_mu,
)


class TestWeightsFamily:
    def test_uniform_weights_give_geometric_type_law(self):
        # critical member of mu(k) = a b^k (k+1): a = 4/9, b = 1/3
        mu = mu_from_weights(lambda k: 1.0)
        assert mu.params["a"] == pytest.approx(4 / 9, abs=1e-10)
        assert mu.params["b"] == pytest.approx(1 / 3, abs=1e-10)
        for k in range(6):
            assert mu.pmf(k) == pytest.approx((4 / 9) * (1 / 3) ** k * (k + 1), rel=1e-9)
        mu.validate()

    def test_mean_is_one(self):
        mu = mu_from_weights(lambda k: 1.0 / (k * k))
        ks = np.arange(0, 4000)
        p = mu.table(3999)
        assert float(p.sum()) == pytest.approx(1.0, abs=1e-9)
        assert float((ks * p).sum()) == pytest.approx(1.0, abs=1e-9)

    def test_solution_is_pinned(self):
        # a, b and the mean, bit for bit, as the solver has always returned them
        for w, a, b, mean in (
            (lambda k: 1.0, 0.44444444444444425, 0.3333333333333335, 1.0000000000000002),
            (lambda k: 1.0 / (k * k), 7.436914276426204, 0.47215596894208633, 0.9999999999999998),
        ):
            mu = mu_from_weights(w)
            assert (mu.params["a"], mu.params["b"], mu.mean) == (a, b, mean)

    def test_subcritical_weights_rejected(self):
        # rapidly decaying support cannot reach mean one
        with pytest.raises(UsageError):
            mu_from_weights(lambda k: 1.0 if k == 4 else 0.0)


class TestStableFamily:
    def test_pmf_values(self):
        mu = stable_mu(1.5)
        c = 1.0 / float(zeta(1.5, 1))
        assert mu.tail_constant == pytest.approx(c)
        assert mu.pmf(0) == pytest.approx(1.0 - float(zeta(2.5, 1)) / float(zeta(1.5, 1)))
        assert mu.pmf(7) == pytest.approx(c * 7.0 ** -2.5)
        mu.validate()

    def test_alpha_range(self):
        for bad in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(UsageError):
                stable_mu(bad)

    def test_scaling_constant(self):
        mu = stable_mu(1.5)
        expect = (10**6 / (mu.tail_constant * abs(math.gamma(-1.5)))) ** (1 / 1.5)
        assert b_n_of(mu, 10**6) == pytest.approx(expect)
        assert b_n(1.5, mu.tail_constant, 10**6) == pytest.approx(expect)

    def test_scaling_requires_tail(self):
        with pytest.raises(UsageError):
            b_n_of(mu_from_weights(lambda k: 1.0), 100)


class TestCycleRotation:
    def test_explicit_example(self):
        # rotated so the walk stays non-negative until the final step
        out = cycle_rotation(np.array([0, 2, 0, 2, 0]))
        s = 0
        for i, k in enumerate(out):
            s += k - 1
            assert s >= 0 or i == len(out) - 1
        assert s == -1

    def test_rotation_is_unique_valid_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            ks = rng.integers(0, 4, size=n)
            ks[-1] = 0
            if ks.sum() != n - 1:
                continue
            valid = []
            for r in range(n):
                rot = np.concatenate([ks[r:], ks[:r]])
                walk = np.cumsum(rot - 1)
                if walk[-1] == -1 and (walk[:-1] >= 0).all():
                    valid.append(tuple(rot))
            assert len(valid) == 1
            assert tuple(cycle_rotation(ks)) == valid[0]

    def test_bad_sum_rejected(self):
        with pytest.raises(UsageError):
            cycle_rotation(np.array([1, 1, 1]))


class TestConditionedSampler:
    def test_sizes_and_determinism(self):
        mu = stable_mu(1.5)
        for n in (1, 2, 17, 300):
            t1 = sample_conditioned(mu, n, 5)
            t2 = sample_conditioned(mu, n, 5)
            assert t1 == t2
            assert t1.zeta == n

    def test_generator_state_advances(self):
        mu = mu_from_weights(lambda k: 1.0)
        rng = np.random.default_rng(1)
        trees = {sample_conditioned(mu, 30, rng).code for _ in range(10)}
        assert len(trees) > 1

    def test_split_sampler_agrees_with_rejection_in_law(self):
        # same conditional law from the sampler and from plain rejection
        # on the sum, compared via a coarse statistic (root child count)
        mu = mu_from_weights(lambda k: 1.0)
        n, reps = 40, 3000
        roots_rej = np.array(
            [code[0] for code in _rejection_draws(mu, n, reps, np.random.default_rng(2))]
        )
        roots_split = np.array(
            [t.code[0] for t in sample_conditioned_many(mu, n, reps, np.random.default_rng(3))]
        )
        from scipy.stats import ks_2samp

        assert ks_2samp(roots_rej, roots_split).pvalue > 0.001

    def test_impossible_sizes_rejected(self):
        mu = mu_from_weights(lambda k: 1.0 if k % 2 == 0 else 0.0)
        sample_conditioned(mu, 5, 0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(UsageError):
            sample_conditioned(mu, 6, rng)
        with pytest.raises(UsageError):
            sample_conditioned_many(mu, 6, 10, rng)
        assert rng.bit_generator.state == state  # raised before any uniform
        assert sample_conditioned_many(mu, 5, 0, rng) == []
        assert rng.bit_generator.state == state
        with pytest.raises(UsageError):
            sample_conditioned_many(mu, 5, -1, rng)

    def test_rare_size_draws_its_only_tree(self):
        # n = 4 needs three 1s among four counts: about one row in 2.5e17
        # of i.i.d. counts hits, but the split reaches it every time
        mu = OffspringDistribution(
            name="rare", pmf_func=lambda k: {0: 1 - 1e-6, 1: 1e-6}.get(k, 0.0), mean=1e-6,
            params={"eps": 1e-6},
        )
        assert sample_conditioned(mu, 4, 0).code == (1, 1, 1, 0)
        assert [t.code for t in sample_conditioned_many(mu, 4, 5, 0)] == [(1, 1, 1, 0)] * 5


class TestExactMasses:
    def test_masses_sum_to_one(self):
        mu = stable_mu(1.5)
        masses = exact_conditioned_masses(mu, 5)
        assert sum(masses.values()) == pytest.approx(1.0)

    def test_enumeration_is_size_guarded(self):
        with pytest.raises(SizeGuardError):
            exact_conditioned_masses(mu_from_weights(lambda k: 1.0), 13)

    def test_geometric_type_masses_n4(self):
        # mu(k) proportional to (1/3)^k (k+1); conditional masses on the
        # 5 shapes with 4 vertices are the normalized products
        mu = mu_from_weights(lambda k: 1.0)
        masses = exact_conditioned_masses(mu, 4)
        weights = {
            (3, 0, 0, 0): 4,
            (2, 1, 0, 0): 3 * 2,
            (2, 0, 1, 0): 3 * 2,
            (1, 2, 0, 0): 2 * 3,
            (1, 1, 1, 0): 2 * 2 * 2,
        }
        total = sum(weights.values())
        for code, w in weights.items():
            assert masses[code] == pytest.approx(w / total, rel=1e-9)

    def test_sampler_matches_masses_chi_square(self):
        from scipy.stats import chisquare

        mu = mu_from_weights(lambda k: 1.0)
        masses = exact_conditioned_masses(mu, 4)
        codes = sorted(masses)
        counts = {c: 0 for c in codes}
        reps = 4000
        for tree in sample_conditioned_many(mu, 4, reps, np.random.default_rng(7)):
            counts[tree.code] += 1
        stat = chisquare(
            [counts[c] for c in codes], [reps * masses[c] for c in codes]
        )
        assert stat.pvalue > 0.01


def _stack_split_counts(tables, n_items, total, rng):
    """Reference: the depth-first split, one block and one uniform at a
    time, left block before right."""
    out = np.empty(n_items, dtype=np.int64)
    pos = 0
    stack = [(n_items, total)]
    while stack:
        m, s = stack.pop()
        if m == 1:
            out[pos] = s
            pos += 1
            continue
        a, b = (m + 1) // 2, m // 2
        pa, pb = tables.tables[a], tables.tables[b]
        lo, hi = max(0, s - (len(pb) - 1)), min(s, len(pa) - 1)
        w = pa[lo : hi + 1] * pb[s - hi : s - lo + 1][::-1]
        cdf = np.cumsum(w)
        sa = min(hi, lo + int(np.searchsorted(cdf, rng.random() * w.sum(), side="right")))
        stack.append((b, s - sa))
        stack.append((a, sa))
    return out


def _sum_law(p, m, n):
    """P(k_1 + ... + k_m = s) for s < n, by direct convolution powers."""
    out = np.zeros(n)
    out[0] = 1.0
    base = p
    while m:
        if m & 1:
            out = np.convolve(out, base)[:n]
        m >>= 1
        if m:
            base = np.convolve(base, base)[:n]
    return out


def _root_degree_law(mu, n):
    """Exact P(k_root = k | |T| = n), k = 0..n-1 (Otter-Dwass):
    n mu(k) k / (n-1) * P(S_{n-1} = n-1-k) / P(S_n = n-1)."""
    p = mu.table(n - 1)
    k = np.arange(n)
    s_prev = _sum_law(p, n - 1, n)
    s_n = _sum_law(p, n, n)
    return n * p * k / (n - 1) * s_prev[n - 1 - k] / s_n[n - 1]


_FAMILIES = {
    "stable1.1": lambda: stable_mu(1.1),
    "stable1.5": lambda: stable_mu(1.5),
    "uniform": lambda: mu_from_weights(lambda k: 1.0),
}


def _rejection_draws(mu, n, k, rng):
    """Reference law: k draws by plain rejection on the sum, the sampler
    once used at n <= 256 (rows of i.i.d. counts from mu truncated to
    {0..n-1}, the first row summing to n-1 kept), each rotated by the
    cycle lemma."""
    p = mu.table(n - 1)
    p = p / p.sum()
    batch = max(64, 4 * n)
    codes = []
    for _ in range(k):
        while True:
            ks = rng.choice(n, size=(batch, n), p=p)
            hit = np.nonzero(ks.sum(axis=1) == n - 1)[0]
            if hit.size:
                ks = ks[hit[0]]
                break
        cut = int(np.argmin(np.cumsum(ks - 1))) + 1
        codes.append(tuple(np.concatenate([ks[cut:], ks[:cut]]).tolist()))
    return codes


class TestBatchedSampler:
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 64, 256, 257, 300])
    def test_same_stream_as_single_draws(self, monkeypatch, family, n):
        # chunks of 64 items, so that a few draws span three chunks; each
        # reference draw is the depth-first split, one uniform at a time
        import halinloop.gw as gw

        monkeypatch.setattr(gw, "_CHUNK_ITEMS", 64)
        mu = _FAMILIES[family]()
        k = 2 * max(1, 64 // n) + 1
        r1, r2 = np.random.default_rng((n, 5)), np.random.default_rng((n, 5))
        if n == 1:
            want = [(0,)] * k
        else:
            tables = gw._size_law(mu, n)
            want = [tuple(cycle_rotation(_stack_split_counts(tables, n, n - 1, r1)).tolist())
                    for _ in range(k)]
        assert [t.code for t in sample_conditioned_many(mu, n, k, r2)] == want
        assert r1.bit_generator.state == r2.bit_generator.state


class TestSplitSampler:
    @pytest.mark.parametrize("family", ["stable1.5", "uniform"])
    @pytest.mark.parametrize("n", [4, 7, 40, 256, 300, 1024, 4096])
    def test_root_degree_matches_exact_law(self, family, n):
        from scipy.stats import chisquare

        mu = _FAMILIES[family]()
        law = _root_degree_law(mu, n)
        assert law.sum() == pytest.approx(1.0, abs=1e-9)
        reps = 2000
        rng = np.random.default_rng((n, 11))
        roots = np.array([t.code[0] for t in sample_conditioned_many(mu, n, reps, rng)])
        # bins [edge_j, edge_{j+1}) over degrees, each expecting >= 5 draws
        expected = reps * law
        edges, acc = [0], 0.0
        for k in range(n):
            acc += expected[k]
            if acc >= 5:
                edges.append(k + 1)
                acc = 0.0
        edges[-1] = n
        exp_b = np.add.reduceat(expected, edges[:-1])
        obs_b = np.histogram(roots, bins=edges)[0]
        assert exp_b.min() >= 5 and len(edges) > 3
        assert chisquare(obs_b, exp_b * reps / exp_b.sum()).pvalue >= 1e-3

    def test_stream_is_pinned(self):
        # digests of the codes drawn by the split path; a change here
        # means every seed now gives other trees
        pins = (
            (stable_mu(1.5), 300, 1, "e9c68c28ca203895c42cf2793de2c0d0e4c2ac4b654a75bd100062036f220a98"),
            (stable_mu(1.5), 4096, 2, "1fba4535ce177a646c7480d1b9f19abbcb3505b64f9c2287c69390f75cb731fb"),
            (
                mu_from_weights(lambda k: 1.0),
                1024,
                3,
                "34d1e3cbed0b8fb93577db841adda263cadc351f5f3c968e866eb32408fa12a0",
            ),
        )
        for mu, n, seed, digest in pins:
            code = sample_conditioned(mu, n, seed).code
            assert hashlib.sha256(",".join(map(str, code)).encode()).hexdigest() == digest

    def test_level_split_matches_depth_first_reference(self):
        import halinloop.gw as gw

        for family in sorted(_FAMILIES):
            mu = _FAMILIES[family]()
            for n in (2, 3, 7, 64, 257, 1000):
                tables = gw._size_law(mu, n)
                for seed in range(5):
                    r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = tables.sample_counts(1, r1)[0]
                    want = _stack_split_counts(tables, n, n - 1, r2)
                    assert np.array_equal(got, want), (family, n, seed)
                    assert r1.random() == r2.random()

    def test_periodic_law(self):
        mu = mu_from_weights(lambda k: 1.0 if k % 2 == 0 else 0.0)
        tree = sample_conditioned(mu, 301, 0)
        assert tree.zeta == 301
        assert all(k % 2 == 0 for k in tree.code)
        with pytest.raises(UsageError):
            sample_conditioned(mu, 302, 0)
