"""End-to-end acceptance checks.

Each test prints a single ``[PASS] criterion N`` / ``[FAIL] criterion N``
line so the suite output doubles as an acceptance report.  Run with
``pytest -s tests/test_acceptance.py`` to see the lines inline.
"""

import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
from scipy import stats

from halinloop.bijection import (
    phi,
    phi_inverse,
    phi_with_faces,
    pushforward_distribution,
)
from halinloop.gh_metric import distortion, gh_exact
from halinloop.gw import (
    exact_conditioned_masses,
    mu_from_weights,
    sample_conditioned,
    sample_conditioned_many,
    stable_mu,
)
from halinloop.halin import enumerate_halin, halin_count
from halinloop.looptree import (
    canonical_correspondence,
    check_lemma_bound,
    halin_metric,
    hat_H,
    hat_L,
    loop,
)
from halinloop.plane_tree import (
    MarkedTree,
    enumerate_marked,
    enumerate_trees,
    lukasiewicz,
)
from halinloop.experiments import ScalingRunConfig, scaling_run

EXPECTED_COUNTS = {1: 1, 2: 2, 3: 7, 4: 30, 5: 143}


@contextmanager
def report(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}", file=sys.stderr)
        raise
    print(f"[PASS] criterion {num}: {desc}")


def test_criterion_1_counting_identity():
    with report(1, "counts agree three ways for n=1..5"):
        t0 = time.monotonic()
        for n, expect in EXPECTED_COUNTS.items():
            by_enum = sum(1 for _ in enumerate_halin(n))
            by_weights = sum(
                math.prod(k + 1 for k in t.code) for t in enumerate_trees(n)
            )
            by_formula = halin_count(n)
            assert by_enum == by_weights == by_formula == expect, n
        assert math.comb(3 * 5 - 2, 5 - 1) // 5 == 143
        assert time.monotonic() - t0 < 10.0


def _random_marked(rng, n, mu):
    tree = sample_conditioned(mu, n, rng)
    marks = tuple(int(rng.integers(0, k + 1)) for k in tree.code)
    return MarkedTree(tree, marks)


def test_criterion_2_bijection():
    with report(2, "bijection exhaustive n<=5 and 10^3 round trips at n=10,50,200"):
        for n in range(1, 6):
            images = {phi(H) for H in enumerate_halin(n)}
            assert len(images) == EXPECTED_COUNTS[n]
            assert images == set(enumerate_marked(n))
            for m in images:
                assert phi(phi_inverse(m)) == m
        mu = mu_from_weights(lambda k: 1.0)
        rng = np.random.default_rng(20260826)
        for n in (10, 50, 200):
            for _ in range(1000):
                m = _random_marked(rng, n, mu)
                H = phi_inverse(m)
                assert phi(H) == m
                assert phi_inverse(phi(H)).tree.code == H.tree.code


def test_criterion_3_degree_law():
    with report(3, "mark capacity equals face degree minus 4 for all faces, n<=5"):
        for n in range(1, 6):
            for H in enumerate_halin(n):
                marked, faces = phi_with_faces(H)
                assert len(faces) == marked.shape.zeta
                for v, f in enumerate(faces):
                    assert marked.shape.code[v] == len(H.map.faces[f]) - 4


def test_criterion_4_pushforward_exact():
    with report(4, "n=4 uniform-weight pushforward equals the exact offspring law"):
        result = pushforward_distribution(4, lambda k: Fraction(1))
        a, b = Fraction(4, 9), Fraction(1, 3)
        rows = result["rows"]
        norm = sum(
            math.prod(a * b**k * (k + 1) for k in row["shape"]) for row in rows
        )
        assert result["max_discrepancy"] == 0
        for row in rows:
            cond = math.prod(a * b**k * (k + 1) for k in row["shape"]) / norm
            assert row["pushforward"] == cond  # exact rational identity


def test_criterion_5_gh_bounds():
    with report(5, "metric comparison bounds: exact n<=3, distortion at n=50"):
        t0 = time.monotonic()
        for n in range(1, 4):
            for H in enumerate_halin(n):
                res = check_lemma_bound(H, exact=True)
                assert res["gh"] is not None
                assert res["gh"] <= res["bound"] + 1e-9 and res["ok"]
                marked = phi(H)
                height = marked.shape.height()
                hm = halin_metric(H)
                hh, _ = hat_H(H)
                lg = loop(marked.shape).metric_space()
                ll = hat_L(marked)
                assert gh_exact(hm, hh) <= 2.0 + 1e-9
                assert gh_exact(lg, ll) <= 0.5 + 1e-9
                hh2, ll2, corr = canonical_correspondence(H)
                assert distortion(corr, hh2, ll2) <= 2.0 * height + 1e-9
        mu = mu_from_weights(lambda k: 1.0)
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = _random_marked(rng, 50, mu)
            H = phi_inverse(m)
            hh2, ll2, corr = canonical_correspondence(H)
            assert distortion(corr, hh2, ll2) <= 2.0 * m.shape.height() + 1e-9
        assert time.monotonic() - t0 < 300.0


def _chi_square_pvalue(mu, seed, samples):
    exact = exact_conditioned_masses(mu, 4)
    shapes = sorted(exact)
    idx = {s: i for i, s in enumerate(shapes)}
    counts = np.zeros(len(shapes))
    for tree in sample_conditioned_many(mu, 4, samples, np.random.default_rng(seed)):
        counts[idx[tree.code]] += 1
    expected = samples * np.array([exact[s] for s in shapes])
    return stats.chisquare(counts, expected).pvalue


def test_criterion_6_sampler_exactness():
    with report(6, "chi-square vs exact conditional masses, 10^5 samples x 10 seeds"):
        for mu in (stable_mu(1.5), mu_from_weights(lambda k: 1.0)):
            passing = sum(
                _chi_square_pvalue(mu, seed, 100_000) > 0.01 for seed in range(10)
            )
            assert passing >= 9, passing


def test_criterion_7_scaling_exponents():
    with report(7, "diameter scaling slope and height decay at alpha=1.5"):
        t0 = time.monotonic()
        cfg = ScalingRunConfig(
            sizes=tuple(2**k for k in range(10, 17)),
            samples_per_size=200,
            seed=42,
            alpha=1.5,
            map_diameter_max_n=0,
        )
        result = scaling_run(cfg)
        summary = result["summary"]
        slope = summary["slope"]
        assert 1 / 1.5 - 0.1 <= slope <= 1 / 1.5 + 0.1, slope
        assert summary["height_decay_ratio"] < 0.5, summary["height_decay_ratio"]
        assert time.monotonic() - t0 < 600.0


def test_criterion_8_invariant_sweep():
    with report(8, "structural invariants hold on every constructed object"):
        violations = []

        def sweep_tree(tree):
            walk = lukasiewicz(tree)
            if walk[0] != 0 or walk[-1] != -1:
                violations.append(("lukasiewicz-endpoints", tree.code))
            if min(walk[:-1]) < 0:
                violations.append(("lukasiewicz-positivity", tree.code))

        def sweep_map(H):
            m = H.map
            try:
                H.validate()  # Euler, one shared boundary edge per face, planarity
            except Exception as exc:
                violations.append(("map-invariant", str(exc)))
            boundary = {m.vertex_of[d] for d in m.faces[H.outer_face]}
            for v in boundary:
                if len(m.vertices[v]) != 3:
                    violations.append(("boundary-degree", (H.tree.code, v)))

        for z in range(1, 9):
            for tree in enumerate_trees(z):
                sweep_tree(tree)
        for n in range(1, 6):
            for H in enumerate_halin(n):
                sweep_tree(H.tree)
                sweep_map(H)
        mu = stable_mu(1.5)
        rng = np.random.default_rng(8)
        for n in (10, 50, 200):
            for _ in range(20):
                tree = sample_conditioned(mu, n, rng)
                sweep_tree(tree)
                marks = tuple(int(rng.integers(0, k + 1)) for k in tree.code)
                sweep_map(phi_inverse(MarkedTree(tree, marks)))
        assert violations == [], violations[:10]
