import hashlib
import math

import numpy as np
import pytest
from scipy.special import zeta

from halinloop import gw
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

    @pytest.mark.parametrize("w", [lambda k: 1.0, lambda k: 1.0 / (k * k), lambda k: float(k)],
                             ids=["one", "inverse-square", "linear"])
    def test_bisection_stops_at_its_fixed_point(self, w):
        # the same a, b and mean, bit for bit, as all 200 halvings, from
        # about a quarter of the probes: each probe reads w(4) once
        def sums(b):  # mu_from_weights's series, term for term
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

        lo, hi = 0.0, gw._B_TOP
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            s, m = sums(mid)
            lo, hi = (mid, hi) if m / s < 1.0 else (lo, mid)
        b = 0.5 * (lo + hi)
        s, m = sums(b)

        probes = []

        def counted(k):
            if k == 4:
                probes.append(k)
            return w(k)

        mu = mu_from_weights(counted)
        assert (mu.params["a"], mu.params["b"], mu.mean) == (1.0 / s, b, m / s)
        assert len(probes) < 60, len(probes)

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

    def test_one_row_rotates_as_in_a_batch(self):
        # a single row (1-D or one-row 2-D) is cut by slices, a batch by a
        # modular index; both give the same rows, the cut at n included
        rows = np.array([[0, 2, 0, 2, 0], [2, 0, 2, 0, 0], [4, 0, 0, 0, 0], [0, 0, 1, 3, 0]])
        batch = cycle_rotation(rows)
        for row, want in zip(rows, batch):
            assert np.array_equal(cycle_rotation(row), want)
            assert np.array_equal(cycle_rotation(row[None]), want[None])


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

    @pytest.mark.parametrize("tilted_first", [True, False])
    def test_laws_sharing_name_and_params_keep_their_own_tables(self, tilted_first):
        # these weights solve to the uniform weights' (a, b) to the last bit,
        # yet give (1, 1, 1, 0) mass 0.494 at n = 4 against 0.267
        w2 = {4: 0.9, 5: 1.3, 6: 0.7}
        laws = [mu_from_weights(lambda k: w2.get(k, 1.0)), mu_from_weights(lambda k: 1.0)]
        assert laws[0].params == laws[1].params
        for mu in laws if tilted_first else laws[::-1]:
            counts = {}
            for t in sample_conditioned_many(mu, 4, 20_000, 0):
                counts[t.code] = counts.get(t.code, 0) + 1
            for code, mass in exact_conditioned_masses(mu, 4).items():
                assert abs(counts.get(code, 0) / 20_000 - mass) < 0.02, (code, mass)

    def test_stable_laws_are_one_object_per_alpha(self):
        assert stable_mu(1.5) is stable_mu(1.5) and stable_mu(1.5) is not stable_mu(1.2)


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
            # sizes where the top depths invert their windows one at a time
            (stable_mu(1.5), 65536, 4, "d71010432422e5083ccf29eea91bfb03fbeb6355a554ff329df65cbc57bc54da"),
            (stable_mu(1.5), 65536, 5, "e9206709eb887ec03b2ce627cea74aa31bf978712cb453fb765b3a44aab790a8"),
            (
                mu_from_weights(lambda k: 1.0),
                16384,
                6,
                "77e298a4c40bb77b9e9d7ad3b4d399b5c7eb26844989b44bfcf3bc6b909e7999",
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

    @staticmethod
    def _check_against_reference(family, n, seed):
        import halinloop.gw as gw

        tables = gw._size_law(_FAMILIES[family](), n)
        r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        got = tables.sample_counts(1, r1)[0]
        assert np.array_equal(got, _stack_split_counts(tables, n, n - 1, r2))
        assert r1.random() == r2.random()

    @pytest.mark.parametrize("family", ["stable1.5", "uniform"])
    @pytest.mark.parametrize("n", [4096, 65536])
    def test_level_split_matches_reference_where_totals_repeat(self, family, n):
        # at these sizes thousands of deep blocks share a handful of totals
        self._check_against_reference(family, n, n)

    def test_level_split_matches_reference_where_one_window_dwarfs_the_rest(self, monkeypatch):
        # stable 1.1, seed 0, n = 2^16: one total of about 18,400-21,500
        # among 16-154 distinct totals at every depth below the root, so
        # passes taken window by window and passes laid end to end both
        # carry one very long window among many short ones
        import halinloop.gw as gw

        mixed = set()
        left_shares = gw._SizeLaw._left_shares

        def spy(law, a, b, s, u):
            t = np.unique(s)
            width = np.minimum(t, len(law.tables[a]) - 1) - np.maximum(0, t - (len(law.tables[b]) - 1)) + 1
            if len(t) >= 16 and width.max() >= width.sum() / 4:
                mixed.add(bool(width.sum() >= gw._WIDE_WINDOW * (len(t) - 1)))
            return left_shares(law, a, b, s, u)

        monkeypatch.setattr(gw._SizeLaw, "_left_shares", spy)
        self._check_against_reference("stable1.1", 65536, 0)
        assert mixed == {True, False}

    def test_wide_pass_allocates_no_long_temporaries(self):
        # the root pass at n = 2^16 builds its one window in the law's own
        # buffer: no n-long float64 array (8n bytes) is allocated per call
        import tracemalloc

        import halinloop.gw as gw

        n = 65536
        law = gw._size_law(stable_mu(1.5), n)
        args = ((n + 1) // 2, n // 2, np.array([n - 1]), np.array([0.5]))
        law._left_shares(*args)
        tracemalloc.start()
        try:
            law._left_shares(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n, peak

    @pytest.mark.parametrize("n, count", [(4, 20_000), (64, 1500), (4096, 16)])
    def test_default_chunks_match_reference_rows(self, n, count):
        # rows of one chunk share their totals, the n = 4 top total across
        # all 16,384 rows of a chunk; at n = 4096 the 16 rows of one chunk
        # share one root window, inverted once for all of them
        import halinloop.gw as gw

        mu = stable_mu(1.5)
        tables = gw._size_law(mu, n)
        r1, r2 = np.random.default_rng((n, 9)), np.random.default_rng((n, 9))
        want = [tuple(cycle_rotation(_stack_split_counts(tables, n, n - 1, r1)).tolist())
                for _ in range(count)]
        assert [t.code for t in sample_conditioned_many(mu, n, count, r2)] == want
        assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("n", [7, 300, 65536])
    def test_tables_own_their_memory(self, n):
        # a view of the FFT output would pin a buffer twice the table's size
        import halinloop.gw as gw

        tables = gw._size_law(stable_mu(1.5), n).tables
        assert len(tables) > 1
        for m, table in tables.items():
            assert table.shape == (n,) and table.flags.owndata, m

    def test_zero_mass_total_among_valid_ones_raises(self, monkeypatch):
        import halinloop.gw as gw

        mu = mu_from_weights(lambda k: 1.0 if k % 2 == 0 else 0.0)
        law = gw._size_law(mu, 301)
        u = np.full(5, 0.5)
        assert np.all(law._left_shares(1, 1, np.array([0, 2, 4, 2, 6]), u) % 2 == 0)
        with pytest.raises(UsageError):
            law._left_shares(1, 1, np.array([0, 2, 3, 2, 6]), u)
        # blocks of 2 x 1,024 items at n = 4097: windows 2,001 and 2,003
        # wide are taken one at a time, where both checks hold too
        law = gw._size_law(mu, 4097)
        by_window = []
        shares = gw._SizeLaw._shares_by_window
        monkeypatch.setattr(
            gw._SizeLaw, "_shares_by_window", lambda *a: by_window.append(1) or shares(*a)
        )
        u = np.full(3, 0.5)
        assert np.all(law._left_shares(1024, 1024, np.array([2000, 2002, 2000]), u) % 2 == 0)
        assert len(by_window) == 1
        with pytest.raises(UsageError):  # an odd total has no mass
            law._left_shares(1024, 1024, np.array([2000, 2001, 2000]), u)
        assert len(by_window) == 2
        with pytest.raises(UsageError):  # 8,193 > 2 * 4,096 leaves an empty window
            law._left_shares(1024, 1024, np.array([2000, 8193, 2000]), u)

    def test_periodic_law(self):
        mu = mu_from_weights(lambda k: 1.0 if k % 2 == 0 else 0.0)
        tree = sample_conditioned(mu, 301, 0)
        assert tree.zeta == 301
        assert all(k % 2 == 0 for k in tree.code)
        with pytest.raises(UsageError):
            sample_conditioned(mu, 302, 0)
