"""Scaling experiments for size-conditioned trees and their looptrees.

``scaling_run`` samples trees of the stable law with tail index alpha
(``stable_mu``), conditioned on n vertices, over a grid of sizes and
records height, looptree diameter and the largest offspring number,
all alongside the normalization b_n = (n / (c |Gamma(-alpha)|))^(1/alpha).
Up to ``map_diameter_max_n`` vertices the map of a uniformly marked
tree (``mark_uniformly``, shared with ``hll sample --as-map``) is
paired with its looptree: its exact diameter (``LoopGraph.diameter``,
iFUB) must lie within twice the height plus three of the looptree
diameter, or the run raises InvariantError.  The summary reports the
log-log regression slope of the median looptree diameter against n,
which should sit near 1/alpha, and the decay of the normalized height,
which should vanish.

Determinism: every (size, sample) cell draws from its own seed derived
from the run seed, so results are byte-identical regardless of
evaluation order.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InvariantError, SizeGuardError, UsageError
from .gw import b_n_of, stable_mu
from .halin import HalinMap, n_tree_darts
from .looptree import LoopGraph, loop_diameter, map_graph
from .plane_tree import MarkedTree, PlaneTree, lukasiewicz

_RENDER_GUARD = 5_000
_MAP_DIAMETER_MAX_N = 10_000


@dataclass(frozen=True)
class ScalingRunConfig:
    sizes: tuple[int, ...]
    samples_per_size: int = 200
    seed: int = 0
    alpha: float = 1.5
    map_diameter_max_n: int = _MAP_DIAMETER_MAX_N

    def __post_init__(self):
        if not self.sizes or any(n < 2 for n in self.sizes):
            raise UsageError("sizes must be at least 2")
        if len(set(self.sizes)) != len(self.sizes):
            raise UsageError("sizes must be distinct")
        if self.samples_per_size < 1:
            raise UsageError("samples_per_size must be positive")
        if not (self.alpha and 1 < self.alpha < 2):
            raise UsageError("alpha must lie in (1, 2)")


def _cells(cfg: ScalingRunConfig) -> Iterator[tuple[int, float, int, int, np.random.Generator, PlaneTree]]:
    """The grid's cells in order, as (n, b_n, sample, cell seed, rng,
    tree): the tree is drawn from the cell's own generator, which the
    caller may go on drawing from."""
    from .gw import sample_conditioned

    mu = stable_mu(cfg.alpha)
    for n in cfg.sizes:
        bn = b_n_of(mu, n)
        for sample in range(cfg.samples_per_size):
            ss = np.random.SeedSequence([cfg.seed, n, sample])
            rng = np.random.default_rng(ss)
            tree = sample_conditioned(mu, n, rng)
            if tree.zeta != n or sum(tree.code) != n - 1:
                raise InvariantError("sampled code is not a valid tree of size n")
            yield n, bn, sample, int(ss.generate_state(1)[0]), rng, tree


def scaling_run(cfg: ScalingRunConfig) -> dict:
    """Run the experiment grid; returns rows, per-size medians and the
    regression summary."""
    rows: list[dict] = []
    for n, bn, sample, cell_seed, rng, tree in _cells(cfg):
        row = {
            "n": n,
            "seed": cell_seed,
            "sample": sample,
            "height": tree.height(),
            "diam_loop": loop_diameter(tree),
            "max_jump": max(tree.code),
            "b_n": bn,
        }
        if n <= cfg.map_diameter_max_n:
            row["diam_map"] = _paired_map_diameter(tree, rng, row)
        rows.append(row)
    return {"config": _config_dict(cfg), "rows": rows, "summary": _summarize(rows, cfg)}


def mark_uniformly(tree: PlaneTree, rng: np.random.Generator) -> tuple[MarkedTree, HalinMap]:
    """Uniform marks for tree, one draw from rng per vertex in order,
    and the validated map the marked tree gives under phi_inverse."""
    from .bijection import phi_inverse

    marked = MarkedTree(tree, tuple(int(rng.integers(0, k + 1)) for k in tree.code))
    H = phi_inverse(marked)
    H.validate()
    return marked, H


def _paired_map_diameter(tree: PlaneTree, rng: np.random.Generator, row: dict) -> int:
    diam = map_graph(mark_uniformly(tree, rng)[1].map).diameter()
    if abs(diam - row["diam_loop"]) > 2 * row["height"] + 3:
        raise InvariantError("map and looptree diameters differ beyond the bound")
    return diam


def _summarize(rows: list[dict], cfg: ScalingRunConfig) -> dict:
    from scipy.stats import linregress

    sizes = sorted({r["n"] for r in rows})
    per_size = {}
    for n in sizes:
        sub = [r for r in rows if r["n"] == n]
        bn = sub[0]["b_n"]
        per_size[n] = {
            "b_n": bn,
            "median_diam_loop": float(np.median([r["diam_loop"] for r in sub])),
            "median_height": float(np.median([r["height"] for r in sub])),
            "median_height_over_b_n": float(np.median([r["height"] / bn for r in sub])),
            "median_max_jump_over_b_n": float(np.median([r["max_jump"] / bn for r in sub])),
        }
    out = {"per_size": per_size}
    if len(sizes) >= 2:
        xs = np.log([float(n) for n in sizes])
        ys = np.log([per_size[n]["median_diam_loop"] for n in sizes])
        fit = linregress(xs, ys)
        out["slope"] = float(fit.slope)
        out["slope_ci95"] = [
            float(fit.slope - 1.96 * fit.stderr),
            float(fit.slope + 1.96 * fit.stderr),
        ]
        first, last = sizes[0], sizes[-1]
        out["height_decay_ratio"] = (
            per_size[last]["median_height_over_b_n"]
            / per_size[first]["median_height_over_b_n"]
            if per_size[first]["median_height_over_b_n"]
            else 0.0
        )
    out["expected_slope"] = 1.0 / cfg.alpha
    return out


def lukasiewicz_profile(cfg: ScalingRunConfig) -> dict:
    """Normalized excursion functionals (running maximum, largest jump,
    value before the final step) per size, with Kolmogorov-Smirnov
    distances between consecutive sizes reported as a stability check."""
    from scipy.stats import ks_2samp

    stats: dict[int, dict[str, list[float]]] = {}
    for n, bn, _, _, _, tree in _cells(cfg):
        walk = lukasiewicz(tree)
        acc = stats.setdefault(n, {"max_w": [], "max_jump": [], "pre_final": []})
        acc["max_w"].append(max(walk) / bn)
        acc["max_jump"].append(max(tree.code) / bn)
        acc["pre_final"].append(walk[-2] / bn)
    sizes = sorted(stats)
    ks = []
    for a, b in zip(sizes, sizes[1:]):
        ks.append(
            {
                "sizes": [a, b],
                **{
                    key: float(ks_2samp(stats[a][key], stats[b][key]).statistic)
                    for key in ("max_w", "max_jump", "pre_final")
                },
            }
        )
    summary = {
        n: {k: {"median": float(np.median(v)), "iqr": float(np.subtract(*np.percentile(v, [75, 25])))}
            for k, v in acc.items()}
        for n, acc in stats.items()
    }
    return {"config": _config_dict(cfg), "per_size": summary, "ks_consecutive": ks}


# -- rendering ----------------------------------------------------------------


def render(obj) -> str:
    """Deterministic DOT text for a tree, looptree or Halin map."""
    if isinstance(obj, MarkedTree):
        obj = obj.shape
    if isinstance(obj, PlaneTree):
        _guard(obj.zeta)
        parents = obj.parents()
        lines = ["graph tree {"]
        lines += ["  %d;" % v for v in range(obj.zeta)]
        lines += ["  %d -- %d;" % (parents[v], v) for v in range(1, obj.zeta)]
        return "\n".join(lines + ["}"])
    if isinstance(obj, LoopGraph):
        _guard(obj.n)
        lines = ["graph looptree {"]
        lines += ["  %d;" % v for v in range(obj.n)]
        lines += ["  %d -- %d;" % e for e in sorted(obj.edges)]
        return "\n".join(lines + ["}"])
    if isinstance(obj, HalinMap):
        m, code = obj.map, obj.tree.code
        _guard(m.n_vertices)
        base = n_tree_darts(obj.tree.zeta)
        lines = ["graph halin {"]
        lines += ["  %d;" % v for v in range(m.n_vertices)]
        for d, t in m.edges():
            # red: the leaf cycle, and the tree edge above each leaf d // 2 + 1
            style = ' [color="red"]' if d >= base or code[d // 2 + 1] == 0 else ""
            lines.append("  %d -- %d%s;" % (m.vertex_of[d], m.vertex_of[t], style))
        lines.append('  h [shape="point"];')
        lines.append('  %d -- h [style="dashed"];' % m.vertex_of[m.half_edge_dart])
        return "\n".join(lines + ["}"])
    raise UsageError("cannot render object of type %s" % type(obj).__name__)


def _guard(size: int) -> None:
    if size > _RENDER_GUARD:
        raise SizeGuardError("object of size %d is too large to render" % size)


# -- output helpers -----------------------------------------------------------

_CSV_COLUMNS = ("n", "seed", "sample", "height", "diam_loop", "max_jump", "b_n")


def rows_to_csv(rows: Sequence[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in rows:
        writer.writerow([r["n"], r["seed"], r["sample"], r["height"],
                         r["diam_loop"], r["max_jump"], "%.10g" % r["b_n"]])
    return buf.getvalue()


def atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_dict(cfg: ScalingRunConfig) -> dict:
    return {**asdict(cfg), "sizes": list(cfg.sizes)}
