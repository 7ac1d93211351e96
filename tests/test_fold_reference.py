"""The one-path versions of gh_exact, enumerate_trees, PlanarMap.canonical
and render(HalinMap) against the two-branch code they replaced, kept here
as ``_reference`` functions, plus a brute-force GH on tiny spaces."""

from itertools import product

import numpy as np
import pytest

from halinloop.bijection import phi, phi_inverse
from halinloop.errors import BudgetExceededError
from halinloop.experiments import render
from halinloop.gh_metric import FiniteMetricSpace, gh_exact
from halinloop.gw import mu_from_weights, sample_conditioned, stable_mu
from halinloop.halin import enumerate_halin
from halinloop.looptree import halin_metric, loop
from halinloop.plane_tree import MarkedTree, enumerate_trees


def gh_exact_reference(x, y, budget=10**9):
    """Branch and bound with one loop for f: X -> Y and a mirrored one
    for g: Y -> X; returns the distance and the evaluations it used."""
    nx, ny = x.size, y.size
    est = float(ny) ** nx * float(nx) ** ny
    if est > budget * 64:
        raise BudgetExceededError("search space %.2e exceeds budget; use bounds instead" % est)
    dx, dy = x.dist, y.dist
    incumbent = max(x.diameter, y.diameter)
    u = np.full(nx, -1, dtype=int)
    v = np.full(ny, -1, dtype=int)
    evals = 0

    def rec(pos, cur):
        nonlocal incumbent, evals
        if cur >= incumbent:
            return
        if pos == nx + ny:
            incumbent = cur
            return
        if pos < nx:
            i = pos
            for c in range(ny):
                evals += 1
                if evals > budget:
                    raise BudgetExceededError("distortion evaluation budget exceeded")
                m = cur
                for j in range(i):
                    m = max(m, abs(dx[i, j] - dy[c, u[j]]))
                if m < incumbent:
                    u[i] = c
                    rec(pos + 1, m)
                u[i] = -1
        else:
            j = pos - nx
            for c in range(nx):
                evals += 1
                if evals > budget:
                    raise BudgetExceededError("distortion evaluation budget exceeded")
                m = cur
                for i in range(nx):
                    m = max(m, abs(dx[i, c] - dy[u[i], j]))
                    if m >= incumbent:
                        break
                else:
                    for jj in range(j):
                        m = max(m, abs(dx[c, v[jj]] - dy[j, jj]))
                        if m >= incumbent:
                            break
                if m < incumbent:
                    v[j] = c
                    rec(pos + 1, m)
                v[j] = -1

    rec(0, 0.0)
    return 0.5 * incumbent, evals


def gh_brute_force(x, y):
    """Half the least distortion of graph(f) with the transpose of
    graph(g), over every function pair f: X -> Y, g: Y -> X."""
    best = np.inf
    for f in product(range(y.size), repeat=x.size):
        for g in product(range(x.size), repeat=y.size):
            pairs = [*enumerate(f), *((a, b) for b, a in enumerate(g))]
            best = min(best, max(abs(x.dist[a, a2] - y.dist[b, b2])
                                 for a, b in pairs for a2, b2 in pairs))
    return 0.5 * best


def enumerate_trees_reference(n):
    """Every child count in range(remaining), filtered by the walk."""

    def rec(prefix, walk, remaining):
        if remaining == 0:
            if walk == -1:
                yield tuple(prefix)
            return
        for k in range(0, remaining):
            w = walk + k - 1
            if remaining > 1 and w < 0:
                continue
            if remaining == 1 and w != -1:
                continue
            if w > remaining - 2 and remaining > 1:
                continue
            prefix.append(k)
            yield from rec(prefix, w, remaining - 1)
            prefix.pop()

    yield from rec([], 0, n)


def canonical_reference(m, outer_face=None):
    """BFS from the root dart with a popped queue and a label dict."""
    order = {m.root_dart: 0}
    queue = [m.root_dart]
    while queue:
        d = queue.pop(0)
        for e in (m.nxt[d], m.twin[d]):
            if e not in order:
                order[e] = len(order)
                queue.append(e)
    inv = sorted(order, key=order.get)
    twin = tuple(order[m.twin[d]] for d in inv)
    nxt = tuple(order[m.nxt[d]] for d in inv)
    half = order[m.half_edge_dart] if m.half_edge_dart is not None else None
    form = (twin, nxt, 0, half)
    if outer_face is not None:
        form += (min(order[d] for d in m.faces[outer_face]),)
    return form


def render_halin_reference(H):
    """DOT text with the red edges found as the edges at the leaves."""
    m = H.map

    def edge_of(d):
        t = m.twin[d]
        return (d, t) if d < t else (t, d)

    boundary = {edge_of(d) for leaf in H.tree.leaves() for d in m.vertices[leaf]}
    lines = ["graph halin {"]
    lines += ["  %d;" % v for v in range(m.n_vertices)]
    for d, t in m.edges():
        style = ' [color="red"]' if (d, t) in boundary else ""
        lines.append("  %d -- %d%s;" % (m.vertex_of[d], m.vertex_of[t], style))
    for d in range(m.n_darts):
        if m.twin[d] == d:
            lines.append('  h [shape="point"];')
            lines.append('  %d -- h [style="dashed"];' % m.vertex_of[d])
    return "\n".join(lines + ["}"])


def _l1_space(rng, n_points):
    pts = rng.integers(0, 4, size=(n_points, int(rng.integers(1, 4))))
    return FiniteMetricSpace(np.abs(pts[:, None] - pts[None]).sum(-1))


def _outcome(solver, x, y, budget):
    try:
        return solver(x, y, budget=budget)
    except BudgetExceededError as e:
        return str(e)


def _assert_same_as_reference(x, y, budgets):
    """Same distance, or the same error, at each budget and at the budget
    the search needs and one below it: the budget runs out at the same
    evaluation."""
    _, evals = gh_exact_reference(x, y)
    for budget in (*budgets, evals, evals - 1):
        want = _outcome(lambda x, y, budget: gh_exact_reference(x, y, budget)[0], x, y, budget)
        assert _outcome(gh_exact, x, y, budget) == want


def _maps_to_compare():
    """Every map with n <= 6, and three sampled maps at each n in
    {50, 300, 2000}."""
    for n in range(1, 7):
        yield from enumerate_halin(n)
    rng = np.random.default_rng(10)
    for n in (50, 300, 2000):
        for mu in (mu_from_weights(lambda k: 1.0), stable_mu(1.5), stable_mu(1.2)):
            shape = sample_conditioned(mu, n, rng)
            yield phi_inverse(MarkedTree(shape, tuple(int(rng.integers(0, k + 1)) for k in shape.code)))


class TestGHExact:
    def test_matches_reference_on_every_small_map(self):
        for n in range(1, 5):
            for H in enumerate_halin(n):
                x, y = halin_metric(H), loop(phi(H).shape).metric_space()
                _assert_same_as_reference(x, y, (10**8,))

    def test_matches_reference_on_random_spaces(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            x = _l1_space(rng, int(rng.integers(1, 6)))
            y = _l1_space(rng, int(rng.integers(1, 6)))
            _assert_same_as_reference(x, y, (10, 100, 1000))

    def test_matches_brute_force_on_tiny_spaces(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            spaces = []
            for _ in range(2):
                pts = rng.normal(size=(int(rng.integers(1, 4)), 2))
                spaces.append(FiniteMetricSpace(np.linalg.norm(pts[:, None] - pts[None], axis=-1)))
            x, y = spaces
            assert gh_exact(x, y) == pytest.approx(gh_brute_force(x, y), abs=1e-12)


def test_enumerate_trees_matches_reference():
    for n in range(1, 13):
        assert [t.code for t in enumerate_trees(n)] == list(enumerate_trees_reference(n))


def test_canonical_and_render_match_reference():
    for H in _maps_to_compare():
        m = H.map
        assert m.canonical() == canonical_reference(m)
        assert H.canonical() == canonical_reference(m, H.outer_face)
        assert render(H) == render_halin_reference(H)

