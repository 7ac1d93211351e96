"""The benchmark's three closed-loop workloads: ``scaling``, ``maps``, ``exact``.

Each workload is built by its ``SETUPS`` entry, which does what a user
pays before the first op (building the offspring law and the fixed
inputs).  It then hands out ops one cycle at a time; a cycle is the
smallest set of ops with the workload's stated mix (equal samples per
size, or every command once), so the runner only stops between cycles.
``Op.run`` is timed; ``Op.check`` runs untimed after it.  Every library
call goes through its module attribute (``gw.sample_conditioned``), so
the tracer's wrappers and a test's monkeypatches both take effect.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.stats import chisquare

from halinloop import bijection, cli, experiments, gw, looptree, plane_tree

PARAMS = {
    # the sizes of `hll exp scaling` for the paper's 1/alpha claim; 2^17..2^20
    # are left out so that one cycle stays near 3 s on two cores
    "scaling": {
        "sizes": [4096, 8192, 16384, 32768, 65536],
        "samples_per_size": 1,
        "alpha": 1.5,
        "bfs_check_n": 4096,
        "bfs_check_trees": 3,
        "setup_probes": 3,
    },
    # straddles both n = 256 switches: rejection vs split sampler (n <= 256)
    # and all-pairs BFS vs iFUB (2n = 512 map vertices)
    "maps": {
        "sizes": [64, 256, 512, 1024, 2048],
        "setup_probes": 3,
    },
    "exact": {
        "roundtrip_n": 7,
        "roundtrip_total": 3876,
        "pushforward_n": 6,
        "lemma_cli_n": 4,
        "lemma_cli_total": 30,
        "sample_n": 4,
        "sample_count": 20000,
        "alpha": 1.5,
        # bounds-mode lemma checks on fixed maps: the first draw at each n
        # from seed lemma_map_seed, whatever the workload seed.  One such
        # check costs 0.06-22 s depending on the map (gh_lower_bound stops
        # early or not), so a seed-drawn map set would make ops_per_s
        # measure the draw rather than the code.
        "lemma_sizes": [10, 20, 30, 50],
        "lemma_map_seed": 0,
        "chi2_p_floor": 1e-6,
        "setup_probes": 3,
    },
}


class CheckFailed(Exception):
    """An op's output is wrong."""


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _seed_int(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None] = lambda value: None
    count: int = 1  # ops completed by one call (rows, for scaling)


@dataclass
class Workload:
    cycle: Callable[[int], list[Op]]
    post_checks: list[tuple[str, Callable[[], None]]] = field(default_factory=list)
    lemma_gaps: list[float] = field(default_factory=list)


# -- scaling --------------------------------------------------------------------


def setup_scaling(p: dict, seed: int, tmpdir: str) -> Workload:
    sizes = tuple(p["sizes"])
    spp = p["samples_per_size"]
    mu = gw.stable_mu(p["alpha"])

    def check_rows(res: dict) -> None:
        rows = res["rows"]
        _check(len(rows) == len(sizes) * spp, "scaling_run returned %d rows" % len(rows))
        for r in rows:
            _check(r["diam_loop"] >= r["height"], "diam_loop < height at n=%d" % r["n"])
            _check(r["max_jump"] <= r["n"] - 1, "max_jump > n-1 at n=%d" % r["n"])

    def cycle(i: int) -> list[Op]:
        cfg = experiments.ScalingRunConfig(
            sizes=sizes,
            samples_per_size=spp,
            seed=_seed_int(seed, 1, i),
            alpha=p["alpha"],
            map_diameter_max_n=0,
        )
        return [Op("scaling_run", lambda: experiments.scaling_run(cfg), check_rows, len(sizes) * spp)]

    rng = np.random.default_rng([seed, 2])

    def bfs_check() -> None:
        tree = gw.sample_conditioned(mu, p["bfs_check_n"], rng)
        fast = looptree.loop_diameter(tree)
        bfs = looptree.loop(tree).diameter()
        _check(fast == bfs, "loop_diameter %d != BFS diameter %d" % (fast, bfs))

    return Workload(cycle, [("loop_diameter_vs_bfs", bfs_check)] * p["bfs_check_trees"])


# -- maps -----------------------------------------------------------------------


def map_op(mu, n: int, rng: np.random.Generator) -> None:
    """Sample, mark, phi_inverse + validate, phi round trip, and the map vs
    looptree diameter bound; this is scaling_run's paired-map cell plus
    the bijection round trip."""
    tree = gw.sample_conditioned(mu, n, rng)
    marks = rng.integers(0, np.asarray(tree.code) + 1)
    marked = plane_tree.MarkedTree(tree, tuple(marks.tolist()))
    H = bijection.phi_inverse(marked)
    H.validate()
    _check(bijection.phi(H) == marked, "phi(phi_inverse(t)) != t at n=%d" % n)
    m = H.map
    edges = tuple((m.vertex_of[d], m.vertex_of[t]) for d, t in m.edges())
    d_map = looptree.LoopGraph(m.n_vertices, edges).diameter()
    d_loop = looptree.loop_diameter(tree)
    height = tree.height()
    _check(abs(d_map - d_loop) <= 2 * height + 3,
           "map diameter %d vs looptree %d beyond 2*%d+3 at n=%d" % (d_map, d_loop, height, n))


def setup_maps(p: dict, seed: int, tmpdir: str) -> Workload:
    mu = gw.mu_from_weights(lambda k: 1.0)
    rng = np.random.default_rng([seed, 3])

    def cycle(i: int) -> list[Op]:
        return [Op("map_n%d" % n, lambda n=n: map_op(mu, n, rng)) for n in p["sizes"]]

    return Workload(cycle)


# -- exact ----------------------------------------------------------------------


def lemma_maps(mu, sizes, seed: int) -> list:
    maps = []
    for n in sizes:
        rng = np.random.default_rng([seed, n])
        tree = gw.sample_conditioned(mu, n, rng)
        marks = rng.integers(0, np.asarray(tree.code) + 1)
        maps.append(bijection.phi_inverse(plane_tree.MarkedTree(tree, tuple(marks.tolist()))))
    return maps


def setup_exact(p: dict, seed: int, tmpdir: str) -> Workload:
    mu_uniform = gw.mu_from_weights(lambda k: 1.0)
    maps = lemma_maps(mu_uniform, p["lemma_sizes"], p["lemma_map_seed"])
    wl = Workload(cycle=None)

    def command(label: str, argv: list[str], check_payload) -> Op:
        out = os.path.join(tmpdir, label + ".json")

        def run():
            return cli.run(argv + ["--format", "json", "--out", out])

        def check(rc):
            _check(rc == 0, "%s exited %s" % (label, rc))
            with open(out) as f:
                check_payload(json.load(f))
            os.unlink(out)

        return Op(label, run, check)

    def roundtrip_ok(payload):
        total = p["roundtrip_total"]
        _check(payload["ok"] == payload["total"] == total,
               "round trip %s/%s, expected %d/%d" % (payload["ok"], payload["total"], total, total))

    def pushforward_ok(payload):
        _check(payload["exact_match"] is True, "pushforward is not an exact match")

    def lemma_cli_ok(payload):
        reports = payload["reports"]
        _check(len(reports) == p["lemma_cli_total"], "gh lemma checked %d maps" % len(reports))
        _check(all(r["ok"] for r in reports), "gh lemma bound fails on some map")

    def sample_ok(mu):
        def check(payload):
            counts = Counter(tuple(int(k) for k in s.split()) for s in payload["samples"])
            exact = gw.exact_conditioned_masses(mu, p["sample_n"])
            _check(set(counts) <= set(exact), "sampled a shape outside the support")
            shapes = sorted(exact)
            total = sum(counts.values())
            _check(total == p["sample_count"], "got %d samples" % total)
            pval = chisquare([counts[c] for c in shapes], [total * exact[c] for c in shapes]).pvalue
            _check(pval >= p["chi2_p_floor"], "chi-square p=%.3g below the floor" % pval)

        return check

    def lemma_op(H) -> Op:
        def check(rep):
            _check(rep["ok"] is True, "lemma bound fails at n=%d" % rep["n"])
            _check(rep["lower"] <= rep["upper"] <= rep["bound"] + 1e-9,
                   "lower %s <= upper %s <= bound %s fails" % (rep["lower"], rep["upper"], rep["bound"]))
            wl.lemma_gaps.append(rep["upper"] - rep["lower"])

        return Op("lemma_n%d" % H.n_internal, lambda: looptree.check_lemma_bound(H, exact=False), check)

    def cycle(i: int) -> list[Op]:
        n = str(p["sample_n"])
        count = str(p["sample_count"])
        return [
            command("bij_roundtrip", ["bij", "roundtrip", "-n", str(p["roundtrip_n"]), "--exhaustive"],
                    roundtrip_ok),
            command("bij_pushforward", ["bij", "pushforward", "-n", str(p["pushforward_n"])],
                    pushforward_ok),
            command("gh_lemma", ["gh", "lemma", "-n", str(p["lemma_cli_n"]), "--exhaustive"],
                    lemma_cli_ok),
            command("sample_uniform",
                    ["sample", "-n", n, "--samples", count, "--seed", str(_seed_int(seed, 4, i))],
                    sample_ok(mu_uniform)),
            command("sample_stable",
                    ["sample", "-n", n, "--samples", count, "--seed", str(_seed_int(seed, 5, i)),
                     "--alpha", str(p["alpha"])],
                    sample_ok(gw.stable_mu(p["alpha"]))),
        ] + [lemma_op(H) for H in maps]

    wl.cycle = cycle
    return wl


# each takes (params, seed, tmpdir); only exact writes files, under tmpdir
SETUPS = {"scaling": setup_scaling, "maps": setup_maps, "exact": setup_exact}
