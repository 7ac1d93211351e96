import json
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import _allow_cpus, _count_forks

from halinloop.cli import EXIT_OK, EXIT_USAGE, run
from halinloop.errors import SizeGuardError, UsageError
from halinloop.experiments import (
    ScalingRunConfig,
    _summarize,
    atomic_write,
    lukasiewicz_profile,
    render,
    rows_to_csv,
    scaling_run,
    sweep_trees,
)
from halinloop.halin import build_halin, enumerate_halin, hstar_trees
from halinloop.looptree import loop
from halinloop.plane_tree import PlaneTree


class TestConfig:
    def test_rejects_empty_sizes(self):
        with pytest.raises(UsageError):
            ScalingRunConfig(sizes=())

    @pytest.mark.parametrize("sizes", [(1, 2), (4, 4), (16, 32, 16)])
    def test_rejects_size_one_and_repeated_sizes(self, sizes):
        # a size-1 tree has log diameter -inf, and a repeated size would
        # be summarised as one size
        with pytest.raises(UsageError):
            ScalingRunConfig(sizes=sizes)

    def test_rejects_bad_alpha(self):
        with pytest.raises(UsageError):
            ScalingRunConfig(sizes=(10,), alpha=2.5)

    def test_config_echo_has_no_weights(self):
        # the offspring law is always stable_mu(alpha)
        res = scaling_run(ScalingRunConfig(sizes=(8,), samples_per_size=1, seed=0))
        assert sorted(res["config"]) == [
            "alpha", "map_diameter_max_n", "samples_per_size", "seed", "sizes"]


class TestScalingRun:
    def test_rows_and_columns(self):
        cfg = ScalingRunConfig(sizes=(16, 32), samples_per_size=5, seed=0)
        res = scaling_run(cfg)
        assert len(res["rows"]) == 10
        for row in res["rows"]:
            assert row["height"] >= 1
            assert row["diam_loop"] >= 1
            assert row["max_jump"] >= 1
            assert row["b_n"] > 0
            # paired map diameter within the comparison window
            assert abs(row["diam_map"] - row["diam_loop"]) <= 2 * row["height"] + 3

    def test_determinism_bytes(self):
        cfg = ScalingRunConfig(sizes=(32,), samples_per_size=6, seed=9)
        a = rows_to_csv(scaling_run(cfg)["rows"])
        b = rows_to_csv(scaling_run(cfg)["rows"])
        assert a == b
        header = a.splitlines()[0]
        assert header == "n,seed,sample,height,diam_loop,max_jump,b_n"

    def test_seed_changes_output(self):
        base = ScalingRunConfig(sizes=(32,), samples_per_size=6, seed=9)
        other = ScalingRunConfig(sizes=(32,), samples_per_size=6, seed=10)
        assert rows_to_csv(scaling_run(base)["rows"]) != rows_to_csv(
            scaling_run(other)["rows"]
        )

    def test_summary_has_slope_and_decay(self):
        cfg = ScalingRunConfig(
            sizes=(64, 256), samples_per_size=10, seed=3, map_diameter_max_n=0
        )
        s = scaling_run(cfg)["summary"]
        # two sizes leave the fit no residual degree of freedom
        assert "slope" in s and s["slope_ci95"] is None
        assert s["expected_slope"] == pytest.approx(1 / 1.5)
        assert s["height_decay_ratio"] > 0

    def test_slope_interval_uses_the_t_quantile(self):
        from scipy.stats import linregress

        cfg = ScalingRunConfig(
            sizes=(64, 256, 1024), samples_per_size=5, seed=42, map_diameter_max_n=0
        )
        s = scaling_run(cfg)["summary"]
        xs = np.log([64.0, 256.0, 1024.0])
        ys = np.log([s["per_size"][n]["median_diam_loop"] for n in (64, 256, 1024)])
        fit = linregress(xs, ys)
        lo, hi = s["slope_ci95"]
        assert (lo + hi) / 2 == pytest.approx(s["slope"])
        # one residual degree of freedom: t_{0.975, 1} = 12.706
        assert (hi - lo) / 2 == pytest.approx(12.7062047 * fit.stderr)

    @pytest.mark.parametrize(
        "medians",
        [
            [3.0, 7.0, 12.0, 40.0],  # a noisy line
            [2.0, 4.0, 8.0, 16.0],  # exact: r rounds to 1 and is clamped
            [9.0, 4.0, 2.0],  # falling
            [5.0, 5.0, 5.0, 5.0, 5.0],  # flat: r is undefined, the interval has width 0
            [1.0, 3.0],  # two sizes: no interval
        ],
    )
    def test_fit_is_linregress_bit_for_bit(self, medians):
        from scipy.stats import linregress, t as t_dist

        sizes = [2**(4 + i) for i in range(len(medians))]
        rows = [{"n": n, "b_n": 1.0, "diam_loop": d, "height": 1, "max_jump": 1}
                for n, d in zip(sizes, medians)]
        s = _summarize(rows, ScalingRunConfig(sizes=tuple(sizes)))
        fit = linregress(np.log([float(n) for n in sizes]), np.log(medians))
        assert s["slope"] == float(fit.slope)
        dof = len(sizes) - 2
        if not dof:
            assert s["slope_ci95"] is None
            return
        half = t_dist.ppf(0.975, dof) * fit.stderr
        want = [float(fit.slope - half), float(fit.slope + half)]
        if len(set(medians)) == 1:
            # flat: linregress leaves r and stderr NaN, the fit has no residual
            want = [float(fit.slope)] * 2
        assert s["slope_ci95"] == want

    def test_scaling_run_leaves_scipy_stats_unloaded(self):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(run.__code__.co_filename))}
        code = ("import sys; from halinloop.cli import run; "
                "assert run(['exp', 'scaling', '--sizes', '64,128,256', '--samples', '5']) == 0; "
                "assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded'")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr

    def test_csv_written_atomically(self, tmp_path, capsys):
        # The CLI is the one writer of run files; it goes through atomic_write.
        out = str(tmp_path / "run.csv")
        argv = ["exp", "scaling", "--sizes", "16", "--samples", "3", "--seed", "1"]
        assert run(argv + ["--format", "csv", "--out", out]) == EXIT_OK
        capsys.readouterr()
        res = scaling_run(ScalingRunConfig(sizes=(16,), samples_per_size=3, seed=1))
        assert open(out).read() == rows_to_csv(res["rows"])
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]


class TestProfile:
    def test_profile_stats(self):
        cfg = ScalingRunConfig(sizes=(32, 64), samples_per_size=15, seed=2)
        res = lukasiewicz_profile(cfg)
        for n, stats in res["per_size"].items():
            assert stats["max_jump"]["iqr"] >= 0
            assert stats["max_w"]["median"] > 0
        assert len(res["ks_consecutive"]) == 1
        ks = res["ks_consecutive"][0]
        for key in ("max_w", "max_jump", "pre_final"):
            assert 0 <= ks[key] <= 1


class TestWorkers:
    # the cells run on forked workers, one per allowed CPU up to one per cell

    def test_same_bytes_at_every_worker_count(self, monkeypatch):
        configs = [
            # sizes 16 and 64 are map-paired: each cell goes on drawing marks
            ScalingRunConfig(sizes=(16, 64, 200), samples_per_size=3, seed=4, map_diameter_max_n=64),
            ScalingRunConfig(sizes=(32,), samples_per_size=6, seed=9),  # test_determinism_bytes'
        ]

        def outputs():
            return [json.dumps(f(cfg), sort_keys=True)
                    for cfg in configs for f in (scaling_run, lukasiewicz_profile)]

        _allow_cpus(monkeypatch, 1)
        want = outputs()
        for k in (2, 3):
            with monkeypatch.context() as m:
                _allow_cpus(m, k)
                forks = _count_forks(m)
                assert outputs() == want
                # min(CPUs, cells) workers, this process one of them
                assert len(forks) == 4 * (k - 1)
        with monkeypatch.context() as m:
            _allow_cpus(m, 2)

            def no_process():
                raise BlockingIOError(11, "Resource temporarily unavailable")

            m.setattr(os, "fork", no_process)  # each share runs here instead
            assert outputs() == want

    def test_sweep_takes_each_tree_once(self, monkeypatch):
        codes = [t.code for t in hstar_trees(5)]
        for k in (1, 2, 3):
            with monkeypatch.context() as m:
                _allow_cpus(m, k)
                assert sweep_trees(lambda t: t.code, 5) == codes
                # summed per worker, then over the workers: each tree once
                assert sorted(sweep_trees(lambda t: [t.code], 5, add=lambda a, b: a + b)) == codes
                assert sweep_trees(lambda t: t.code, 5, exhaustive=False) == codes[:1]

    def test_one_cell_forks_nothing(self, monkeypatch, capsys):
        def fork():
            pytest.fail("a one-cell grid forked")

        _allow_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", fork)
        scaling_run(ScalingRunConfig(sizes=(64,), samples_per_size=1))
        assert run(["exp", "scaling", "--sizes", "64", "--samples", "1"]) == EXIT_OK
        capsys.readouterr()

    def test_tables_built_once_before_the_fork(self, monkeypatch):
        # a grid of more sizes than the cache keeps on its own: each size's
        # tables are built once, here, and no worker builds any
        from halinloop import gw

        parent, built = os.getpid(), []
        real = gw._SizeLaw.__init__

        def init(self, mu, n):
            if os.getpid() != parent:
                raise AssertionError("a worker built the tables of n=%d" % n)
            built.append(n)
            real(self, mu, n)

        monkeypatch.setattr(gw, "_size_laws", type(gw._size_laws)())
        monkeypatch.setattr(gw, "_recent_laws", type(gw._recent_laws)(maxlen=gw._recent_laws.maxlen))
        monkeypatch.setattr(gw._SizeLaw, "__init__", init)
        _allow_cpus(monkeypatch, 2)
        sizes = tuple(range(40, 50))
        cfg = ScalingRunConfig(sizes=sizes, samples_per_size=2, seed=1, map_diameter_max_n=0)
        assert len(scaling_run(cfg)["rows"]) == 20
        assert sorted(built) == list(sizes)


class TestRender:
    def test_tree_dot(self):
        dot = render(PlaneTree((3, 0, 0, 0)))
        assert dot.startswith("graph tree {")
        assert "0 -- 3;" in dot

    def test_looptree_dot_is_c4(self):
        dot = render(loop(PlaneTree((3, 0, 0, 0))))
        for e in ("0 -- 1;", "1 -- 2;", "2 -- 3;", "0 -- 3;"):
            assert e in dot

    def test_halin_dot_has_half_edge_and_boundary(self):
        dot = render(build_halin(PlaneTree((1, 0))))
        assert "h [shape=" in dot
        assert "color=" in dot

    def test_render_is_stable_across_small_maps(self):
        texts = {render(H) for H in enumerate_halin(3)}
        assert len(texts) == 7  # distinct maps render to distinct DOT

    def test_size_guard(self):
        big = PlaneTree((5001,) + (0,) * 5001)
        with pytest.raises(SizeGuardError):
            render(big)

    def test_unknown_format_rejected(self):
        # DOT is the only render format; the CLI refuses any other
        assert run(["render", "tree", "--tree", "0", "--format", "svg"]) == EXIT_USAGE
        with pytest.raises(UsageError):
            render(object())


class TestAtomicWrite:
    def test_replaces_content(self, tmp_path):
        p = str(tmp_path / "x.txt")
        atomic_write(p, "one")
        atomic_write(p, "two")
        assert open(p).read() == "two"
