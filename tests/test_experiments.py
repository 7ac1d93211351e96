import json
import os

import numpy as np
import pytest

from halinloop.cli import EXIT_OK, EXIT_USAGE, run
from halinloop.errors import SizeGuardError, UsageError
from halinloop.experiments import (
    ScalingRunConfig,
    atomic_write,
    lukasiewicz_profile,
    render,
    rows_to_csv,
    scaling_run,
)
from halinloop.halin import build_halin, enumerate_halin
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
        assert "slope" in s and len(s["slope_ci95"]) == 2
        assert s["expected_slope"] == pytest.approx(1 / 1.5)
        assert s["height_decay_ratio"] > 0

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
