"""Scaling experiments for size-conditioned trees and their looptrees.

``scaling_run`` samples trees of the stable law with tail index alpha
(``stable_mu``), conditioned on n vertices, over a grid of sizes and
records height, looptree diameter and the largest offspring number,
all alongside the normalization b_n = (n / (c |Gamma(-alpha)|))^(1/alpha).
Up to ``map_diameter_max_n`` vertices the map of a uniformly marked
tree (``mark_uniformly``, shared with ``hll sample --as-map``) is
paired with its looptree: its exact diameter (``LoopGraph.diameter``,
iFUB with per-vertex eccentricity bounds) must lie within twice the
height plus three of the looptree diameter, or the run raises
InvariantError.  A paired cell builds no map: it reads the map's graph
off the tree that ``bijection._cut_contour`` gives (``map_graph``).
The summary reports the log-log regression slope of the median
looptree diameter against n, which should sit near 1/alpha, and the
decay of the normalized height, which should vanish.

Determinism and cores: every (size, sample) cell draws from its own
seed derived from the run seed, so results are byte-identical
regardless of evaluation order.  The cells run on the CPUs the process
may use (``os.sched_getaffinity``; ``taskset`` limits them), one
forked worker per CPU up to one per cell, and the rows come back in
grid order with the same bytes at any CPU count.  Each size's split
tables are built once, in the calling process, before the fork; the
workers read them copy-on-write.  ``sweep_trees`` runs the exhaustive
sweeps over maps on the same workers, one map in W to each.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
import signal
import tempfile
from dataclasses import asdict, dataclass
from functools import partial, reduce
from itertools import islice
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvariantError, SizeGuardError, UsageError
from .gw import _size_law, b_n_of, sample_conditioned, stable_mu
from .halin import HalinMap, hstar_codes
from .looptree import LoopGraph, loop_diameter, map_graph
from .plane_tree import MarkedTree, PlaneTree, marked_count_formula

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


def _run_cells(cfg: ScalingRunConfig, cell: Callable) -> list:
    """cell(n, b_n, sample, cell seed, rng, tree) for every cell of the
    grid, in grid order; the tree is drawn from the cell's own
    generator, which cell may go on drawing from.

    The cells are split largest n first over W = min(CPUs this process
    may use, cells) workers: this process and W - 1 forked children,
    which read the split tables built here before the fork and pipe
    their results back."""
    mu = stable_mu(cfg.alpha)
    laws = [_size_law(mu, n) for n in cfg.sizes]  # held, so cached, until the workers are done
    bns = {n: b_n_of(mu, n) for n in cfg.sizes}
    grid = [(n, sample) for n in cfg.sizes for sample in range(cfg.samples_per_size)]

    def run_cell(n_sample: tuple[int, int]):
        n, sample = n_sample
        ss = np.random.SeedSequence([cfg.seed, n, sample])
        rng = np.random.default_rng(ss)
        tree = sample_conditioned(mu, n, rng)  # checked by PlaneTree.from_rows
        return cell(n, bns[n], sample, int(ss.generate_state(1)[0]), rng, tree)

    shares = _largest_first([n for n, _ in grid], _worker_count(len(grid)))
    rows = _in_workers(run_cell, lambda share: ((i, grid[i]) for i in share), shares)
    del laws
    return rows


def sweep_trees(job: Callable[[PlaneTree], object], n: int, force: bool = False,
                exhaustive: bool = True, add: Callable | None = None) -> object:
    """[job(tree) for tree in hstar_trees(n, force)], or for its first
    tree alone unless exhaustive, on min(CPUs, trees) workers as
    _run_cells runs its cells: worker w of W walks every code and builds
    the trees w, w + W, ... alone.  With add, the results' sum by add,
    each worker sending back its own, so nothing is held per map."""
    codes = hstar_codes(n, force=force)  # checks n and the size guard before any fork
    count = marked_count_formula(n) if exhaustive else 1
    workers = _worker_count(count)
    out = _in_workers(job, lambda share: ((i, PlaneTree(c)) for i, c in enumerate(islice(codes, count))
                                          if i % workers in share), [[w] for w in range(workers)], add)
    return reduce(add, out) if add else out


def _worker_count(cells: int) -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), cells)


def _largest_first(sizes: list[int], workers: int) -> list[list[int]]:
    """Cell indices per worker, each share in grid order: largest size
    first, each cell to the worker with the least total size so far
    (LPT scheduling); worker 0 takes the largest cell."""
    shares: list[list[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        w = loads.index(min(loads))  # ties go to the lowest worker
        shares[w].append(i)
        loads[w] += sizes[i]
    return [sorted(share) for share in shares]


def _in_workers(job: Callable, items: Callable[[list[int]], Iterable[tuple[int, object]]],
                shares: list[list[int]], add: Callable | None = None) -> list:
    """job(x) for every (index, x) of items(share), in index order, or with
    add their sum by add per process: shares[0] here, each other in a
    forked child that pipes back its pickled results.  A share that
    cannot have a process of its own runs here too.  A share stops at its
    first failure; the lowest failing index raises here, whichever worker
    had it.  Every child is reaped before this returns or raises."""

    def run(share: list[int]) -> list[tuple[int, object]]:
        out = []
        for i, x in items(share):
            try:
                r = job(x)
            except Exception as e:  # handed to the caller's process, raised there
                out.append((i, e))
                break
            if add and out:
                out[-1] = (out[-1][0], add(out[-1][1], r))
            else:
                out.append((i, r))
        return out

    children: list[tuple[int, int, int]] = []  # (worker, pid, read end of its pipe)
    here, payloads, statuses = list(shares[0]), {}, {}
    try:
        for w, share in enumerate(shares[1:], 1):
            try:
                children.append((w, *_fork(run, share)))
            except OSError:  # out of processes or descriptors
                here += share
        out = run(sorted(here))
        for w, _, r in children:
            with open(r, "rb", closefd=False) as f:
                payloads[w] = f.read()
    finally:
        for w, pid, r in children:
            if w not in payloads:  # this process is raising: stop the child
                os.kill(pid, signal.SIGKILL)
            os.close(r)
            statuses[w] = os.waitpid(pid, 0)[1]
    for w, pid, _ in children:
        code = os.waitstatus_to_exitcode(statuses[w])
        if code:
            how = "was killed by signal %d" % -code if code < 0 else "exited with status %d" % code
            raise InvariantError("worker %d (pid %d) %s and sent no results" % (w, pid, how))
        out += pickle.loads(payloads[w])  # written by this program's own child
    results = dict(out)
    failed = [i for i, r in results.items() if isinstance(r, Exception)]
    if failed:
        raise results[min(failed)]
    return [results[i] for i in sorted(results)]


def _fork(run: Callable[[list[int]], list], share: list[int]) -> tuple[int, int]:
    """(pid, read end of its pipe) of a forked child that writes
    run(share), pickled, to the pipe.  The child never returns: it ends
    in os._exit, so it neither unwinds into the caller's stack nor
    flushes the stdio buffers it shares with this process."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as f:
                f.write(pickle.dumps(run(share), pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def scaling_run(cfg: ScalingRunConfig) -> dict:
    """Run the experiment grid; returns rows, per-size medians and the
    regression summary."""
    rows = _run_cells(cfg, partial(_scaling_row, cfg.map_diameter_max_n))
    return {"config": _config_dict(cfg), "rows": rows, "summary": _summarize(rows, cfg)}


def _scaling_row(map_diameter_max_n: int, n: int, bn: float, sample: int, cell_seed: int,
                 rng: np.random.Generator, tree: PlaneTree) -> dict:
    row = {
        "n": n,
        "seed": cell_seed,
        "sample": sample,
        "height": tree.height(),
        "diam_loop": loop_diameter(tree),
        "max_jump": int(tree.counts.max()),
        "b_n": bn,
    }
    if n <= map_diameter_max_n:
        row["diam_map"] = _paired_map_diameter(tree, rng, row)
    return row


def mark_uniformly(tree: PlaneTree, rng: np.random.Generator) -> MarkedTree:
    """Uniform marks for tree, one draw from rng per vertex in order.
    No map is built here: a paired cell reads its graph off the cut
    tree, and ``hll sample --as-map`` builds and validates it."""
    return MarkedTree(tree, tuple(rng.integers(0, tree.counts + 1).tolist()))


def _paired_map_diameter(tree: PlaneTree, rng: np.random.Generator, row: dict) -> int:
    from .bijection import _cut_contour

    # the graph of phi_inverse's map, read off its tree: no rotation system is built
    diam = map_graph(_cut_contour(mark_uniformly(tree, rng))).diameter()
    if abs(diam - row["diam_loop"]) > 2 * row["height"] + 3:
        raise InvariantError("map and looptree diameters differ beyond the bound")
    return diam


def _summarize(rows: list[dict], cfg: ScalingRunConfig) -> dict:
    from scipy.special import stdtrit

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
        # least squares as scipy.stats.linregress fits it, r clamped to [-1, 1]
        ssxm, ssxym, _, ssym = np.cov(xs, ys, bias=1).flat
        slope = ssxym / ssxm
        out["slope"] = float(slope)
        dof = len(sizes) - 2  # residual degrees of freedom; two sizes leave none
        # flat medians: r is 0/0, but the fit has no residual, so 1 - r**2 is 0
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0) if ssym else 1.0
        half = stdtrit(dof, 0.975) * np.sqrt((1 - r**2) * ssym / ssxm / dof) if dof else None
        out["slope_ci95"] = None if half is None else [float(slope - half), float(slope + half)]
        first, last = sizes[0], sizes[-1]
        out["height_decay_ratio"] = (
            per_size[last]["median_height_over_b_n"]
            / per_size[first]["median_height_over_b_n"]
            if per_size[first]["median_height_over_b_n"]
            else 0.0
        )
    out["expected_slope"] = 1.0 / cfg.alpha
    return out


def _ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, the largest gap between the
    empirical cdfs over the pooled sample: the exact rational rounded once,
    as scipy.stats.ks_2samp gives it in its exact mode."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    ia, ib = np.searchsorted(a, pooled, side="right"), np.searchsorted(b, pooled, side="right")
    return float(np.abs(ia * len(b) - ib * len(a)).max() / (len(a) * len(b)))


def lukasiewicz_profile(cfg: ScalingRunConfig) -> dict:
    """Normalized excursion functionals (running maximum, largest jump,
    value before the final step) per size, with Kolmogorov-Smirnov
    distances between consecutive sizes reported as a stability check."""
    keys = ("max_w", "max_jump", "pre_final")
    stats: dict[int, dict[str, list[float]]] = {}
    for n, functionals in _run_cells(cfg, _excursion_functionals):
        acc = stats.setdefault(n, {key: [] for key in keys})
        for key, value in zip(keys, functionals):
            acc[key].append(value)
    sizes = sorted(stats)
    ks = [{"sizes": [a, b], **{key: _ks_statistic(stats[a][key], stats[b][key]) for key in keys}}
          for a, b in zip(sizes, sizes[1:])]
    summary = {n: {k: {"median": float(np.median(v)),
                       "iqr": float(np.subtract(*np.percentile(v, [75, 25])))} for k, v in acc.items()}
               for n, acc in stats.items()}
    return {"config": _config_dict(cfg), "per_size": summary, "ks_consecutive": ks}


def _excursion_functionals(n: int, bn: float, sample: int, cell_seed: int,
                           rng: np.random.Generator, tree: PlaneTree) -> tuple[int, tuple[float, ...]]:
    walk = tree.structure.walk
    return n, (int(walk.max()) / bn, int(tree.counts.max()) / bn, int(walk[-2]) / bn)


# -- rendering ----------------------------------------------------------------


def render(obj) -> str:
    """Deterministic DOT text for a tree, looptree or Halin map."""
    if isinstance(obj, PlaneTree):
        parents = obj.structure.parent.tolist()
        return _dot("tree", obj.zeta, ["%d -- %d;" % (parents[v], v) for v in range(1, obj.zeta)])
    if isinstance(obj, LoopGraph):
        return _dot("looptree", obj.n, ["%d -- %d;" % tuple(e) for e in sorted(obj.edges.tolist())])
    if isinstance(obj, HalinMap):
        code = obj.tree.code
        # red: the leaf cycle, and the tree edge above each leaf; the
        # half-edge hangs off the root
        lines = ["%d -- %d%s;" % (u, v, ' [color="red"]' if code[u] == 0 or code[v] == 0 else "")
                 for u, v in map_graph(obj.tree).edges.tolist()]
        lines += ['h [shape="point"];', '0 -- h [style="dashed"];']
        return _dot("halin", obj.tree.zeta, lines)
    raise UsageError("cannot render object of type %s" % type(obj).__name__)


def _dot(name: str, n: int, lines: list[str]) -> str:
    """DOT graph name on the vertices 0..n-1 with the given edge lines."""
    if n > _RENDER_GUARD:
        raise SizeGuardError("object of size %d is too large to render" % n)
    body = ["  %d;" % v for v in range(n)] + ["  " + x for x in lines]
    return "\n".join(["graph %s {" % name, *body, "}"])


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
