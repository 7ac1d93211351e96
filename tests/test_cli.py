import argparse
import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from conftest import _allow_cpus, _count_forks
from hypothesis import given
from hypothesis import strategies as st

import halinloop
from halinloop import gw, halin
from halinloop.cli import EXIT_BUDGET, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, _build_parser, run
from halinloop.errors import BudgetExceededError, InvariantError, UsageError
from halinloop.experiments import ScalingRunConfig, rows_to_csv, scaling_run
from halinloop.plane_tree import PlaneTree, format_tree


_PINNED_STDOUT = [
    (["sample", "-n", "6", "--samples", "50", "--as-map"],
     "2b0cf93cfed3c4bfbe967ed49c4eec2ccd5f305ceacb03655e48e3f5c58b69f3"),
    (["exp", "lukasiewicz", "--sizes", "64,128", "--samples", "20", "--seed", "3",
      "--format", "json"],
     "e5a5fa276b33b2898bd650cadc665e5bf0999446d5fbef48ed48234b05d433ff"),
    (["exp", "scaling", "--sizes", "1024,4096,65536", "--samples", "5", "--seed", "42",
      "--format", "csv"],
     "71c564188dc7b1a2defb7b00f039b624187b52b1ea8984939ba47d5aebfa0789"),
    (["exp", "scaling", "--sizes", "64,256,1024", "--samples", "5", "--seed", "42",
      "--format", "json"],
     "efa77c9944d951fd6b33a93621ac422a5258bc4c9f7e3f25dba4bd4c5ef8f8a8"),
    (["enumerate", "-n", "7"],
     "c279d53cb6d796bec587d8daaa94045f675ebb697e4c15070a98a9bd54b6bf5e"),
    (["enumerate", "-n", "6", "--format", "json"],
     "d41a4a923c0b9521c7ca926099ec6a0489f094ce48ad38f98bd017ead8591e2c"),
    (["gh", "lemma", "-n", "4", "--exhaustive", "--format", "json"],
     "3d9f7b55a0709b0d909f9f558224b3d1c5dce480370f80074a5e27b65fd23868"),
    # the looptree and graph outputs, pinned before edges became int32 arrays
    (["loop", "--tree", "2 1 2 0 0 3 0 0 0", "--format", "json"],
     "184e482f1b6006fb4f86b6f0c5a84e912f9b331eb458dfb0b4f87d88130be5c0"),
    (["render", "looptree", "--tree", "2 1 2 0 0 3 0 0 0", "--format", "dot"],
     "b05ecc66a81665fe16982d32b7bcd951a69d43927d8b39fb543adfbfa58a3977"),
    (["render", "tree", "--tree", "2 1 2 0 0 3 0 0 0", "--format", "dot"],
     "c3dfac8e06cb409e17330fa5156250516d95cb7130e6a51c4813a3db5e1b55db"),
    (["render", "halin", "--tree", "4 2 1 0 0 1 0 0 1 0", "--format", "dot"],
     "93fe952ddce2e2f1257717c477d98545848b53aa6dfade21353f62a636f8efc1"),
    (["loop", "--tree", "1 1 0", "--format", "json"],
     "75f030faffca37b7d0103e5c8d5240dc79129a8c5cff36fc6c0032ce2ef8df30"),
]


# the exhaustive sweeps' --format json output, pinned before they ran on
# forked workers
_PINNED_SWEEPS = [
    (["bij", "roundtrip", "-n", "6", "--exhaustive"],
     "458d338b1bc9fd069fadef6ddbf4a3cee1b6ddb21573ad1f103729f7fa1d6105"),
    (["bij", "roundtrip", "-n", "7", "--exhaustive"],
     "5bd89b60e4e90ced94ca1f848e4384a71f04b5173c853fbdc724c6eb92b9d068"),
    (["bij", "pushforward", "-n", "5"],
     "4de2c36ad009803d135824b3eb3644cf50e3b3019f345583631abf86094409d9"),
    (["bij", "pushforward", "-n", "6"],
     "058d0c5ac489ee67e04331a8be767f987b4d35fccfd0cc93f1310f05a480a8ce"),
    (["gh", "lemma", "-n", "4", "--exhaustive"],
     "3d9f7b55a0709b0d909f9f558224b3d1c5dce480370f80074a5e27b65fd23868"),
]


def _parsers(parser, path=""):
    """(path, parser) of this parser and of every command and action
    under it; a path is the argv words that reach the parser."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sp in action.choices.items():
                yield from _parsers(sp, (path + " " + name).lstrip())


# the parsers that run a handler: every command, or every action of a
# command that has actions, such as "bij phi"
_LEAVES = {path: sp for path, sp in _parsers(_build_parser())
           if not any(isinstance(a, argparse._SubParsersAction) for a in sp._actions)}


@pytest.fixture
def no_child_left():
    """This process's pid; afterwards this is still the test's process,
    and it has no child left, reaped or not."""
    here = os.getpid()
    yield here
    assert os.getpid() == here
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch, no_child_left):
    """no_child_left, with two CPUs allowed: a worker is any pid but this."""
    _allow_cpus(monkeypatch, 2)
    return no_child_left


def _no_fork():
    pytest.fail("forked")


@pytest.fixture
def map_work(monkeypatch):
    """Counts, on one CPU, of the rotation systems built, their orbit
    walks (vertex or face labels), the Halin maps validated and the map
    diameters taken."""
    from halinloop import planar_map
    from halinloop.halin import HalinMap
    from halinloop.looptree import LoopGraph
    from halinloop.planar_map import PlanarMap

    calls = {"PlanarMap": 0, "_orbit_labels": 0, "validate": 0, "diameter": 0}

    def counted(key, real):
        def call(*a):
            calls[key] += 1
            return real(*a)

        return call

    monkeypatch.setattr(PlanarMap, "__post_init__", counted("PlanarMap", PlanarMap.__post_init__))
    monkeypatch.setattr(planar_map, "_orbit_labels", counted("_orbit_labels", planar_map._orbit_labels))
    monkeypatch.setattr(HalinMap, "validate", counted("validate", HalinMap.validate))
    monkeypatch.setattr(LoopGraph, "diameter", counted("diameter", LoopGraph.diameter))
    _allow_cpus(monkeypatch, 1)
    return calls


@pytest.fixture
def capout(capsys):
    def go(argv, expect=EXIT_OK):
        code = run(argv)
        out = capsys.readouterr().out
        assert code == expect, out
        return out

    return go


class TestEnumerate:
    def test_count_only(self, capout):
        assert capout(["enumerate", "-n", "3", "--count-only"]).strip() == "7"

    def test_listing(self, capout):
        out = capout(["enumerate", "-n", "2"])
        lines = out.strip().splitlines()
        assert lines[0] == "2"
        assert len(lines) == 3

    def test_json_format(self, capout):
        obj = json.loads(capout(["enumerate", "-n", "4", "--count-only", "--format", "json"]))
        assert obj["count"] == 30
        assert obj["config"]["n"] == 4  # resolved config is echoed

    def test_guard_is_usage_error(self, capout):
        capout(["enumerate", "-n", "99"], expect=EXIT_USAGE)

    def test_force_overrides_guard(self, capout, monkeypatch):
        monkeypatch.setattr(halin, "HALIN_ENUM_GUARD", 3)
        capout(["enumerate", "-n", "4", "--count-only"], expect=EXIT_USAGE)
        assert capout(["enumerate", "-n", "4", "--count-only", "--force"]).strip() == "30"
        obj = json.loads(capout(["enumerate", "-n", "4", "--force", "--format", "json"]))
        assert obj["count"] == len(obj["maps"]) == 30
        assert obj["config"]["force"] is True


class TestBuild:
    def test_text_is_the_map_json(self, capout):
        assert json.loads(capout(["build", "--tree", "1 0"]))["darts"] == 5


class TestBijection:
    def test_roundtrip_exhaustive(self, capout):
        out = capout(["bij", "roundtrip", "-n", "4", "--exhaustive"])
        assert out.strip() == "30/30 OK"

    def test_roundtrip_builds_one_map_per_tree(self, capout, map_work):
        """The n = 4 round trip builds one rotation system per tree (its
        constructor checks it), and phi labels no face or vertex."""
        assert capout(["bij", "roundtrip", "-n", "4", "--exhaustive"]).strip() == "30/30 OK"
        assert map_work == {"PlanarMap": 30, "_orbit_labels": 0, "validate": 0, "diameter": 0}

    def test_phi_inv_are_inverse(self, capout):
        marked = capout(["bij", "phi", "--tree", "2 0 1 0"]).strip()
        tree = capout(["bij", "inv", "--marked", marked]).strip()
        assert tree == "2 0 1 0"

    def test_pushforward(self, capout):
        assert "exact match" in capout(["bij", "pushforward", "-n", "3"])

    def test_pushforward_keeps_enumeration_guard(self, capout):
        t0 = time.monotonic()
        capout(["bij", "pushforward", "-n", "11"], expect=EXIT_USAGE)
        assert time.monotonic() - t0 < 1.0

    def test_pushforward_rejects_force(self, capout, capsys):
        assert run(["bij", "pushforward", "-n", "2", "--force"]) == EXIT_USAGE
        assert "unrecognized arguments: --force" in capsys.readouterr().err
        obj = json.loads(capout(["bij", "pushforward", "-n", "2", "--format", "json"]))
        assert obj["exact_match"] is True
        assert "force" not in obj["config"]

    def test_bad_marked_tree_is_usage_error(self, capout):
        capout(["bij", "inv", "--marked", "nonsense"], expect=EXIT_USAGE)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_roundtrip_names_the_first_failing_tree(self, capsys, monkeypatch,
                                                           no_child_left, cpus):
        # phi_inverse's contour cut gives a wrong tree for trees 3 and 4 of
        # the 7 at n = 3; on two CPUs a worker has tree 3 and this process tree 4
        from halinloop import bijection
        from halinloop.halin import hstar_trees
        from halinloop.plane_tree import format_tree

        trees = list(hstar_trees(3))
        real = bijection._cut_contour

        def cut_contour(marked):
            tree = real(marked)
            return trees[0] if tree.code in (trees[3].code, trees[4].code) else tree

        monkeypatch.setattr(bijection, "_cut_contour", cut_contour)
        _allow_cpus(monkeypatch, cpus)
        assert run(["bij", "roundtrip", "-n", "3", "--exhaustive"]) == EXIT_INVARIANT
        assert capsys.readouterr() == (
            "", "error (invariant): round trip fails on the map of tree '%s'\n" % format_tree(trees[3]))

    def test_failed_pushforward_exits_invariant(self, capsys, monkeypatch):
        from halinloop import bijection

        monkeypatch.setattr(bijection, "_enumerated_law", lambda n, w: {})
        assert run(["bij", "pushforward", "-n", "3"]) == EXIT_INVARIANT
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "pushforward differs from the conditioned law" in err


class TestGH:
    def test_lemma_smallest(self, capout):
        out = capout(["gh", "lemma", "-n", "1"])
        assert out.strip() == "GH=0.5, bound=1.5, OK"

    def test_lemma_exhaustive(self, capout):
        out = capout(["gh", "lemma", "-n", "2", "--exhaustive"])
        assert out.count("OK") == 2

    def test_exact_from_csv(self, capout, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        np.savetxt(a, np.zeros((1, 1)), delimiter=",")
        np.savetxt(b, np.array([[0.0, 3.0], [3.0, 0.0]]), delimiter=",")
        out = capout(["gh", "exact", "--a", str(a), "--b", str(b)])
        assert "GH=1.5" in out

    def test_bounds_from_csv(self, capout, tmp_path):
        from halinloop.gh_metric import FiniteMetricSpace, gh_lower_bound

        spaces = []
        for n in (4, 6):
            ring = np.arange(n)
            gap = np.abs(np.subtract.outer(ring, ring))
            spaces.append(FiniteMetricSpace(np.minimum(gap, n - gap).astype(float)))
            np.savetxt(tmp_path / ("c%d.csv" % n), spaces[-1].dist, delimiter=",")
        out = json.loads(capout(["gh", "bounds", "--a", str(tmp_path / "c4.csv"),
                                 "--b", str(tmp_path / "c6.csv"), "--seed", "7", "--format", "json"]))
        assert out["lower"] == gh_lower_bound(*spaces, seed=7) == 0.5
        assert out["config"]["seed"] == 7

    def test_budget_exit_code(self, capout, tmp_path):
        d = np.abs(np.subtract.outer(np.arange(12.0), np.arange(12.0)))
        a = tmp_path / "a.csv"
        np.savetxt(a, d, delimiter=",")
        capout(
            ["gh", "exact", "--a", str(a), "--b", str(a), "--budget", "10"],
            expect=EXIT_BUDGET,
        )

    def test_negative_budget_is_usage_error(self, capout, tmp_path):
        d = np.abs(np.subtract.outer(np.arange(12.0), np.arange(12.0)))
        a = tmp_path / "a.csv"
        np.savetxt(a, d, delimiter=",")
        argv = ["gh", "exact", "--a", str(a), "--b", str(a), "--budget"]
        capout(argv + ["-1"], expect=EXIT_USAGE)
        capout(argv + ["0"], expect=EXIT_BUDGET)

    def test_budget_default_is_the_one_in_help(self):
        import re

        exact = _LEAVES["gh exact"]
        stated = re.search(r"default (\d+)", " ".join(exact.format_help().split())).group(1)
        assert exact.get_default("budget") == int(stated)

    def test_missing_file_is_usage_error(self, capout):
        capout(["gh", "exact", "--a", "/no/such.csv", "--b", "/no/such.csv"],
               expect=EXIT_USAGE)

    def test_missing_csv_flag_is_usage_error(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("0,1\n1,0\n")
        for action in ("exact", "bounds"):
            for argv, flag in ((["--b", str(a)], "a"), (["--a", str(a)], "b")):
                assert run(["gh", action] + argv) == EXIT_USAGE
                out, err = capsys.readouterr()
                assert out == "" and "Traceback" not in err
                assert err.endswith("error: the following arguments are required: --%s\n" % flag)

    def test_empty_csv_is_one_usage_line(self, tmp_path):
        # numpy warns on a file with no data; the warning must not reach stderr
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(halinloop.__file__))}
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        for action in ("exact", "bounds"):
            out = subprocess.run([sys.executable, "-m", "halinloop.cli", "gh", action,
                                  "--a", str(empty), "--b", str(empty)],
                                 env=env, capture_output=True, text=True, timeout=120)
            assert (out.returncode, out.stdout) == (EXIT_USAGE, "")
            assert out.stderr == "error (usage): no data in --a %s\n" % empty

    def test_malformed_csv_is_usage_error(self, capout, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("0,1\n1,zero\n")
        for action in ("exact", "bounds"):
            capout(["gh", action, "--a", str(a), "--b", str(a)], expect=EXIT_USAGE)

    def test_non_metric_csv_is_usage_error(self, capout, tmp_path):
        # well-formed numbers that are not a metric: asymmetric, then a
        # triangle-inequality violation, then not square
        for i, text in enumerate(("0,1\n2,0\n", "0,1,5\n1,0,1\n5,1,0\n", "0,1,2\n1,0,1\n")):
            a = tmp_path / ("a%d.csv" % i)
            a.write_text(text)
            for action in ("exact", "bounds"):
                capout(["gh", action, "--a", str(a), "--b", str(a)], expect=EXIT_USAGE)

    @pytest.mark.parametrize("text", ["0,nan\nnan,0\n", "0,inf\ninf,0\n"])
    def test_non_finite_csv_is_one_usage_line(self, capsys, tmp_path, text):
        # a RuntimeWarning on the way fails the test (filterwarnings in pyproject.toml)
        a, ok = tmp_path / "a.csv", tmp_path / "ok.csv"
        a.write_text(text)
        ok.write_text("0,1\n1,0\n")
        for action in ("exact", "bounds"):
            assert run(["gh", action, "--a", str(a), "--b", str(ok)]) == EXIT_USAGE
            assert capsys.readouterr() == ("", "error (usage): distances must be finite\n")

    def test_large_non_metric_csv_is_usage_error(self, capout, tmp_path):
        # the triangle check is exact past 256 points too
        d = np.abs(np.subtract.outer(np.arange(257.0), np.arange(257.0)))
        d[3, 200] = d[200, 3] = 198
        a = tmp_path / "a.csv"
        np.savetxt(a, d, delimiter=",")
        for action in ("exact", "bounds"):
            capout(["gh", action, "--a", str(a), "--b", str(a)], expect=EXIT_USAGE)

    def test_failed_lemma_exits_invariant(self, capsys, monkeypatch):
        from halinloop import looptree

        real = looptree.check_lemma_bound
        monkeypatch.setattr(looptree, "check_lemma_bound", lambda H: {**real(H), "ok": False})
        assert run(["gh", "lemma", "-n", "2", "--exhaustive"]) == EXIT_INVARIANT
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "lemma bound fails on the map of tree '" in err


class TestSampleAndMu:
    def test_sample_deterministic_via_seed_flag(self, capout):
        a = capout(["sample", "-n", "12", "--samples", "2", "--seed", "3"])
        b = capout(["sample", "-n", "12", "--samples", "2", "--seed", "3"])
        assert a == b

    def test_hll_seed_env(self, capout, monkeypatch):
        monkeypatch.setenv("HLL_SEED", "77")
        a = capout(["sample", "-n", "12"])
        b = capout(["sample", "-n", "12", "--seed", "77"])
        assert a == b

    def test_sample_as_map(self, capout):
        out = capout(["sample", "-n", "6", "--samples", "1", "--seed", "0", "--as-map"])
        assert ":" in out  # marked-tree format

    def test_sample_as_map_validates_one_map_per_sample(self, capout, map_work):
        capout(["sample", "-n", "6", "--samples", "4", "--seed", "0", "--as-map"])
        assert map_work["PlanarMap"] == map_work["validate"] == 4

    @pytest.mark.parametrize("argv, digest", [
        (["-n", "4", "--samples", "2000", "--seed", "11"],
         "3649a6f4e7c6e2e9ee0b81ba0ed1aaa1172aeb66c73306de6e57e71617f6c146"),
        (["-n", "4", "--samples", "2000", "--seed", "11", "--alpha", "1.5"],
         "e5404e97918317fd2d49eb92f1be5017e0baff4b200926c20f0361e22638b4a0"),
        (["-n", "300", "--samples", "3", "--seed", "11"],
         "76cbbe2575e6f62581736348eaacbbc8f5b2a65718c2df0af8f7aee8c3585ab5"),
        (["-n", "6", "--samples", "50", "--seed", "11", "--as-map"],
         "a5580803d5fe42ab8458349865f21da0d83deb0b31152d08aeb4355bcf96836e"),
    ])
    def test_sample_stream_is_pinned(self, capout, argv, digest):
        # digests of the JSON samples; a change here means every seed now
        # gives other trees
        samples = json.loads(capout(["sample"] + argv + ["--format", "json"]))["samples"]
        assert hashlib.sha256(json.dumps(samples).encode()).hexdigest() == digest

    @pytest.mark.parametrize("alpha", [[], ["--alpha", "1.5"]])
    @pytest.mark.parametrize("n, count", [(1, 5), (6, 0), (4, 16_385), (13_107, 6)])
    def test_sample_prints_the_trees_text(self, capout, n, count, alpha):
        # chunks hold 2^16 // n rows, so 16,385 trees of 4 vertices and 6 of
        # 13,107 end in a one-row chunk
        mu = gw.stable_mu(1.5) if alpha else gw.mu_from_weights(lambda k: 1.0)
        want = [format_tree(t) for t in gw.sample_conditioned_many(mu, n, count, 5)]
        argv = ["sample", "-n", str(n), "--samples", str(count), "--seed", "5"] + alpha
        assert capout(argv) == "\n".join(want) + "\n"
        payload = json.loads(capout(argv + ["--format", "json"]))
        assert payload["samples"] == want and payload["text"] == "\n".join(want)

    def test_sample_builds_no_tree(self, capout, monkeypatch):
        # the codes are checked and formatted as rows; only --as-map makes trees
        calls = {"from_rows": 0, "PlaneTree": 0}
        from_rows, post_init = PlaneTree.from_rows, PlaneTree.__post_init__

        def counted_from_rows(rows):
            calls["from_rows"] += 1
            return from_rows(rows)

        def counted_post_init(self):
            calls["PlaneTree"] += 1
            post_init(self)

        monkeypatch.setattr(PlaneTree, "from_rows", counted_from_rows)
        monkeypatch.setattr(PlaneTree, "__post_init__", counted_post_init)
        for n in ("1", "4", "300"):
            capout(["sample", "-n", n, "--samples", "20", "--seed", "1"])
        assert calls == {"from_rows": 0, "PlaneTree": 0}
        capout(["sample", "-n", "6", "--samples", "2", "--seed", "1", "--as-map"])
        assert calls["from_rows"] == 2  # one draw per marked tree

    @pytest.mark.parametrize("argv, digest", _PINNED_STDOUT)
    def test_stdout_is_pinned(self, capout, monkeypatch, argv, digest):
        # sha256 of the whole stdout; the JSON digests are of the output
        # before config.weights was dropped, re-dumped without that key
        monkeypatch.delenv("HLL_SEED", raising=False)
        assert hashlib.sha256(capout(argv).encode()).hexdigest() == digest

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("argv, digest", [p for p in _PINNED_STDOUT if p[0][0] == "exp"])
    def test_exp_stdout_is_pinned_at_every_worker_count(self, capout, monkeypatch, argv, digest,
                                                        cpus):
        monkeypatch.delenv("HLL_SEED", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert hashlib.sha256(capout(argv).encode()).hexdigest() == digest

    def test_mu_table(self, capout):
        out = capout(["mu", "--alpha", "1.5", "--kmax", "2"])
        assert out.splitlines()[0].startswith("mu(0) =")

    def test_impossible_size_is_usage_error(self, capout):
        capout(["sample", "-n", "0"], expect=EXIT_USAGE)

    def test_bad_seed_is_usage_error(self, capout, monkeypatch):
        capout(["sample", "-n", "4", "--seed", "-1"], expect=EXIT_USAGE)
        # the other non-negative counts: with or without --as-map, and the table length
        capout(["sample", "-n", "5", "--samples", "-1", "--as-map"], expect=EXIT_USAGE)
        capout(["sample", "-n", "5", "--samples", "-1"], expect=EXIT_USAGE)
        capout(["mu", "--alpha", "1.5", "--kmax", "-3"], expect=EXIT_USAGE)
        monkeypatch.setenv("HLL_SEED", "x")
        capout(["sample", "-n", "4"], expect=EXIT_USAGE)
        # str.isdigit takes a superscript two, which int refuses
        capout(["sample", "-n", "3", "--seed", "\u00b2"], expect=EXIT_USAGE)
        monkeypatch.setenv("HLL_SEED", "\u00b2")
        capout(["sample", "-n", "3"], expect=EXIT_USAGE)


class TestLoopAndRender:
    def test_loop_summary(self, capout):
        out = capout(["loop", "--tree", "3 0 0 0"])
        assert "vertices=4" in out and "diameter=2" in out

    def test_loop_distances_csv(self, capout):
        out = capout(["loop", "--tree", "3 0 0 0", "--distances", "--format", "csv"])
        rows = [r.split(",") for r in out.strip().splitlines()]
        assert len(rows) == 4 and rows[0][2] == "2"

    def test_render_dot(self, capout):
        out = capout(["render", "looptree", "--tree", "3 0 0 0", "--format", "dot"])
        assert out.startswith("graph looptree {")

    def test_bad_tree_is_usage_error(self, capout):
        capout(["loop", "--tree", "2 0"], expect=EXIT_USAGE)
        capout(["build", "--tree", "0"], expect=EXIT_USAGE)

    @pytest.mark.parametrize("argv, code", [
        (["loop"], (6000,) + (0,) * 6000),  # a star: one 6001-cycle
        (["build"], (2, 0) * 2999 + (1, 0)),  # a one-leaf-child comb
    ])
    def test_large_tree_renders_dot_only_on_request(self, capout, capsys, argv, code):
        argv = argv + ["--tree", " ".join(map(str, code))]
        capout(argv)
        assert "dot" not in json.loads(capout(argv + ["--format", "json"]))
        assert run(argv + ["--format", "dot"]) == EXIT_USAGE
        assert "too large to render" in capsys.readouterr().err

    def test_format_without_such_form_is_usage_error(self, capout):
        capout(["loop", "--tree", "3 0 0 0", "--format", "csv"], expect=EXIT_USAGE)
        capout(["exp", "lukasiewicz", "--sizes", "16", "--samples", "2", "--format", "csv"],
               expect=EXIT_USAGE)


class TestExp:
    def test_scaling_csv(self, capout):
        out = capout(
            ["exp", "scaling", "--sizes", "16,32", "--samples", "3",
             "--seed", "1", "--format", "csv"]
        )
        lines = out.strip().splitlines()
        assert lines[0] == "n,seed,sample,height,diam_loop,max_jump,b_n"
        assert len(lines) == 7

    def test_scaling_out_file_atomic(self, capout, tmp_path):
        argv = ["exp", "scaling", "--sizes", "16", "--samples", "2", "--seed", "1"]
        csv_file, json_file = tmp_path / "r.csv", tmp_path / "r.json"
        capout(argv + ["--format", "csv", "--out", str(csv_file)])
        capout(argv + ["--format", "json", "--out", str(json_file)])
        rows = scaling_run(ScalingRunConfig(sizes=(16,), samples_per_size=2, seed=1))["rows"]
        assert csv_file.read_text() == rows_to_csv(rows)
        assert json.loads(json_file.read_text())["config"]["out"] == str(json_file)
        assert sorted(os.listdir(tmp_path)) == ["r.csv", "r.json"]

    def test_flat_medians_give_strict_json(self, capout):
        # every median diameter is 2, so the fit is flat: r is 0/0 and the
        # interval has width 0, with no NaN for a strict parser to refuse
        def reject(constant):
            raise ValueError("non-standard JSON constant %s" % constant)

        out = capout(["exp", "scaling", "--sizes", "3,4,5", "--samples", "1", "--seed", "21",
                      "--format", "json"])
        payload = json.loads(out, parse_constant=reject)
        summary = payload["summary"]
        assert json.loads(payload["text"], parse_constant=reject) == summary  # the text form
        assert summary["slope_ci95"] == [summary["slope"]] * 2

    def test_paired_cells_build_no_map(self, capout, map_work):
        """A map-paired cell reads the map's graph off its tree: no
        rotation system, no orbit walk, no validation."""
        capout(["exp", "scaling", "--sizes", "64,256", "--samples", "3", "--seed", "5"])
        assert map_work == {"PlanarMap": 0, "_orbit_labels": 0, "validate": 0, "diameter": 6}

    def test_wrong_map_diameter_exits_invariant(self, capsys, monkeypatch):
        # the paired-map check is the lemma's only guard above n = 4
        from halinloop.looptree import LoopGraph

        monkeypatch.setattr(LoopGraph, "diameter", lambda self: 10**6)
        assert run(["exp", "scaling", "--sizes", "64", "--samples", "1"]) == EXIT_INVARIANT
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "differ beyond the bound" in err

    # A grid of four cells on two CPUs forks one worker.  The patches below
    # misbehave in that worker (any pid but the test's) or in this process.

    _FOUR_CELLS = ["exp", "scaling", "--sizes", "64,128", "--samples", "2"]

    def test_invariant_error_in_a_worker_exits_invariant(self, capsys, monkeypatch, two_cpus):
        from halinloop.looptree import LoopGraph

        real = LoopGraph.diameter
        monkeypatch.setattr(LoopGraph, "diameter",
                            lambda self: 10**6 if os.getpid() != two_cpus else real(self))
        assert run(self._FOUR_CELLS) == EXIT_INVARIANT
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "differ beyond the bound" in err

    def test_usage_error_in_a_worker_exits_usage(self, capsys, monkeypatch, two_cpus):
        # the worker fails cell 1 (n = 64) and this process cell 2 (n = 128):
        # the first failing cell in grid order raises
        from halinloop import experiments

        real = experiments.loop_diameter

        def diameter(tree):
            if os.getpid() != two_cpus and tree.zeta == 64:
                raise UsageError("a worker's cell failed")
            if os.getpid() == two_cpus and tree.zeta == 128:
                raise InvariantError("this process's cell failed")
            return real(tree)

        monkeypatch.setattr(experiments, "loop_diameter", diameter)
        assert run(self._FOUR_CELLS) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "a worker's cell failed" in err

    def test_worker_killed_by_a_signal_exits_invariant(self, capsys, monkeypatch, two_cpus):
        from halinloop import experiments

        real = experiments.loop_diameter

        def diameter(tree):
            if os.getpid() != two_cpus:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(tree)

        monkeypatch.setattr(experiments, "loop_diameter", diameter)
        assert run(self._FOUR_CELLS) == EXIT_INVARIANT
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "worker 1" in err and "killed by signal %d" % signal.SIGKILL in err

    def test_interrupt_here_stops_the_worker(self, monkeypatch, two_cpus):
        from halinloop import experiments

        def diameter(tree):
            if os.getpid() != two_cpus:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(experiments, "loop_diameter", diameter)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run(self._FOUR_CELLS)
        assert time.monotonic() - t0 < 30

    @pytest.mark.parametrize("sizes", ["1,2", "4,4"])
    def test_bad_sizes_are_usage_errors(self, capsys, sizes):
        for action in ("scaling", "lukasiewicz"):
            argv = ["exp", action, "--sizes", sizes, "--samples", "3", "--format", "json"]
            assert run(argv) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == "" and json.loads(err)["error"] == "usage"

    def test_lukasiewicz(self, capout):
        out = capout(
            ["exp", "lukasiewicz", "--sizes", "16,32", "--samples", "5",
             "--seed", "2", "--format", "json"]
        )
        assert "ks_consecutive" in out


class TestSweepWorkers:
    # the exhaustive sweeps stride their maps over one forked worker per
    # allowed CPU, up to one per map

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("argv, digest", _PINNED_SWEEPS)
    def test_same_bytes_at_every_worker_count(self, capout, monkeypatch, no_child_left, argv,
                                              digest, cpus):
        _allow_cpus(monkeypatch, cpus)
        forks = _count_forks(monkeypatch)
        assert hashlib.sha256(capout(argv + ["--format", "json"]).encode()).hexdigest() == digest
        assert len(forks) == cpus - 1  # min(CPUs, maps) - 1: each sweep has more than 3 maps

    def test_failing_fork_runs_every_share_here(self, capout, monkeypatch, no_child_left):
        def no_process():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        _allow_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", no_process)
        for argv, digest in _PINNED_SWEEPS:
            assert hashlib.sha256(capout(argv + ["--format", "json"]).encode()).hexdigest() == digest

    def test_one_map_forks_nothing(self, capout, monkeypatch):
        _allow_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", _no_fork)
        assert capout(["bij", "roundtrip", "-n", "1", "--exhaustive"]).strip() == "1/1 OK"
        assert "exact match" in capout(["bij", "pushforward", "-n", "1"])
        assert capout(["gh", "lemma", "-n", "1", "--exhaustive"]).count("OK") == 1
        assert capout(["gh", "lemma", "-n", "4"]).count("OK") == 1  # the first map alone

    @pytest.mark.parametrize("n, message", [
        ("0", "need n >= 1"),
        ("11", "enumeration of maps with 11 internal vertices is too large; pass force to override"),
    ])
    def test_bad_n_is_refused_before_any_fork(self, capsys, monkeypatch, n, message):
        _allow_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", _no_fork)
        for argv in (["bij", "roundtrip", "--exhaustive"], ["bij", "pushforward"],
                     ["gh", "lemma"], ["gh", "lemma", "--exhaustive"]):
            assert run(argv + ["-n", n]) == EXIT_USAGE
            assert capsys.readouterr() == ("", "error (usage): %s\n" % message)

    _SWEEPS_OF_TWO = [["bij", "roundtrip", "-n", "2", "--exhaustive"], ["bij", "pushforward", "-n", "2"],
                      ["gh", "lemma", "-n", "2", "--exhaustive"]]

    @staticmethod
    def _in_the_worker(monkeypatch, here, act):
        """act() before each map built in any process but here: at n = 2
        on two CPUs, the worker's map 1 (and the round trip's rebuild)."""
        from halinloop import bijection

        real = halin.build_halin

        def build(tree):
            if os.getpid() != here:
                act()
            return real(tree)

        monkeypatch.setattr(halin, "build_halin", build)
        monkeypatch.setattr(bijection, "build_halin", build)

    @pytest.mark.parametrize("argv", _SWEEPS_OF_TWO)
    @pytest.mark.parametrize("error, code", [
        (InvariantError, EXIT_INVARIANT), (UsageError, EXIT_USAGE), (BudgetExceededError, EXIT_BUDGET),
    ])
    def test_error_in_a_worker_keeps_its_exit_code(self, capsys, monkeypatch, two_cpus, argv,
                                                   error, code):
        def fail():
            raise error("a worker's map failed")

        self._in_the_worker(monkeypatch, two_cpus, fail)
        assert run(argv) == code
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "a worker's map failed" in err

    @pytest.mark.parametrize("argv", _SWEEPS_OF_TWO)
    def test_worker_killed_by_a_signal_exits_invariant(self, capsys, monkeypatch, two_cpus, argv):
        self._in_the_worker(monkeypatch, two_cpus, lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert run(argv) == EXIT_INVARIANT
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "worker 1" in err and "killed by signal %d" % signal.SIGKILL in err


class TestGlobalBehavior:
    def test_unknown_subcommand_is_usage(self, capout):
        capout(["frobnicate"], expect=EXIT_USAGE)

    def test_unknown_flag_is_usage(self, capout):
        capout(["enumerate", "-n", "2", "--bogus"], expect=EXIT_USAGE)

    def test_help_exits_zero(self, capout):
        for path, _ in _parsers(_build_parser()):
            assert run(path.split() + ["--help"]) == EXIT_OK, path

    def test_version(self, capsys):
        assert run(["--version"]) == EXIT_OK

    def test_unwritable_out_is_usage_error(self, capout, tmp_path):
        capout(["enumerate", "-n", "2", "--out", str(tmp_path / "no" / "such.txt")],
               expect=EXIT_USAGE)

    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy.signal and scipy.special cost about a second to import;
        # neither the CLI import nor draws with uniform weights load them
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(halinloop.__file__))}
        code = ("import sys, halinloop.cli; print(*sys.modules); "
                "from halinloop import gw; mu = gw.mu_from_weights(lambda k: 1.0); "
                "gw.sample_conditioned_many(mu, 4, 3, 0); gw.sample_conditioned_many(mu, 300, 3, 0); "
                "print(*sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        after_import, after_draws = (line.split() for line in out.stdout.splitlines())
        assert "halinloop.cli" in after_import
        for loaded in (after_import, after_draws):
            assert "scipy.signal" not in loaded and "scipy.special" not in loaded

    def test_module_entry_point(self):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(halinloop.__file__))}
        argv = [sys.executable, "-m", "halinloop.cli"]
        ok = subprocess.run(argv + ["enumerate", "-n", "3", "--count-only"],
                            env=env, capture_output=True, text=True, timeout=120)
        assert (ok.returncode, ok.stdout.strip()) == (EXIT_OK, "7")
        bad = subprocess.run(argv + ["frobnicate"], env=env, capture_output=True, text=True,
                             timeout=120)
        assert bad.returncode == EXIT_USAGE


# one small valid and one bad argument list per leaf parser; "{good_csv}"
# and "{bad_csv}" stand for a distance-matrix file and a malformed one
SWEEP_INPUTS = {
    "enumerate": (["-n", "2"], ["-n", "0"]),
    "build": (["--tree", "2 0 1 0"], ["--tree", "3 0 0 0"]),
    "sample": (["-n", "5", "--seed", "1"], ["-n", "0"]),
    "mu": (["--alpha", "1.5", "--kmax", "3"], ["--alpha", "2.5"]),
    "bij phi": (["--tree", "2 0 1 0"], ["--tree", "2 0"]),
    "bij inv": (["--marked", "2:1 0:0 1:1 0:0"], ["--marked", "nonsense"]),
    "bij roundtrip": (["-n", "3", "--exhaustive"], ["-n", "0", "--exhaustive"]),
    "bij pushforward": (["-n", "3"], ["-n", "11"]),
    "gh exact": (["--a", "{good_csv}", "--b", "{good_csv}"], ["--a", "{bad_csv}", "--b", "{bad_csv}"]),
    "gh bounds": (["--a", "{good_csv}", "--b", "{good_csv}"], ["--a", "{bad_csv}", "--b", "{bad_csv}"]),
    "gh lemma": (["-n", "1"], ["-n", "0"]),
    "loop": (["--tree", "3 0 0 0"], ["--tree", "2 0"]),
    "exp scaling": (["--sizes", "16,32", "--samples", "2", "--seed", "1"], ["--sizes", "0"]),
    "exp lukasiewicz": (["--sizes", "16,32", "--samples", "2", "--seed", "1"], ["--sizes", "0"]),
    "render": (["tree", "--tree", "2 0 1 0"], ["halin", "--tree", "3 0 0 0"]),
}


def _format_choices() -> dict[str, list[str]]:
    return {
        path: list(next(a.choices for a in sp._actions if a.dest == "format"))
        for path, sp in _LEAVES.items()
    }


def test_sweep_inputs_cover_every_leaf():
    assert sorted(SWEEP_INPUTS) == sorted(_LEAVES)


@pytest.mark.parametrize(
    "command,fmt,which",
    [(c, f, w) for c, fmts in _format_choices().items() for f in fmts for w in ("valid", "bad")],
)
def test_exit_code_contract_sweep(command, fmt, which, capsys, tmp_path):
    good_csv, bad_csv = tmp_path / "good.csv", tmp_path / "bad.csv"
    good_csv.write_text("0,1\n1,0\n")
    bad_csv.write_text("0,1\n1\n")
    inputs = SWEEP_INPUTS[command][which == "bad"]
    args = [a.replace("{good_csv}", str(good_csv)).replace("{bad_csv}", str(bad_csv)) for a in inputs]
    code = run(command.split() + args + ["--format", fmt])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVARIANT, EXIT_BUDGET)
    assert "Traceback" not in capsys.readouterr().err


# each action with an option that another action of its command takes:
# before the actions had parsers of their own, these 26 parsed and were
# ignored (bij pushforward --force was refused by hand)
_FOREIGN_OPTIONS = [
    (["bij", "phi", "--tree", "1 0"], [["-n", "3"], ["--marked", "1:0 0:0"], ["--exhaustive"], ["--force"]]),
    (["bij", "inv", "--marked", "1:0 0:0"], [["-n", "3"], ["--tree", "1 0"], ["--exhaustive"], ["--force"]]),
    (["bij", "roundtrip", "-n", "2", "--exhaustive"], [["--tree", "1 0"], ["--marked", "1:0 0:0"]]),
    (["bij", "pushforward", "-n", "2"], [["--tree", "1 0"], ["--marked", "1:0 0:0"], ["--exhaustive"]]),
    (["gh", "exact", "--a", "a.csv", "--b", "a.csv"],
     [["--seed", "5"], ["-n", "2"], ["--exhaustive"], ["--force"]]),
    (["gh", "bounds", "--a", "a.csv", "--b", "a.csv"],
     [["--budget", "1"], ["-n", "2"], ["--exhaustive"], ["--force"]]),
    (["gh", "lemma", "-n", "2"], [["--a", "a.csv"], ["--b", "a.csv"], ["--budget", "1"], ["--seed", "5"]]),
    (["exp", "lukasiewicz", "--sizes", "16", "--samples", "2"], [["--map-diameter-max-n", "0"]]),
]


def test_foreign_options_are_usage_errors(capsys):
    pairs = [(argv, option) for argv, options in _FOREIGN_OPTIONS for option in options]
    assert len(pairs) == 26
    for argv, option in pairs:
        assert run(argv + option) == EXIT_USAGE, argv + option
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.endswith("error: unrecognized arguments: %s\n" % " ".join(option))


# one argv per leaf parser and the config of its JSON output: every option
# the action reads, defaults included, and nothing else; exp's is the
# ScalingRunConfig it ran, plus --out
_CONFIGS = {
    "enumerate": (["-n", "2"], {"n": 2, "count_only": False, "force": False}),
    "build": (["--tree", "1 0"], {"tree": "1 0"}),
    "sample": (["-n", "3", "--seed", "4"],
               {"n": 3, "samples": 1, "seed": 4, "alpha": None, "as_map": False}),
    "mu": (["--alpha", "1.5", "-n", "100"], {"alpha": 1.5, "kmax": 10, "n": 100}),
    "bij phi": (["--tree", "1 0"], {"action": "phi", "tree": "1 0"}),
    "bij inv": (["--marked", "1:0 0:0"], {"action": "inv", "marked": "1:0 0:0"}),
    "bij roundtrip": (["-n", "2", "--exhaustive"],
                      {"action": "roundtrip", "n": 2, "exhaustive": True, "force": False}),
    "bij pushforward": (["-n", "2"], {"action": "pushforward", "n": 2}),
    "gh exact": (["--a", "a.csv", "--b", "a.csv"],
                 {"action": "exact", "a": "a.csv", "b": "a.csv", "budget": 10**7}),
    "gh bounds": (["--a", "a.csv", "--b", "a.csv", "--seed", "3"],
                  {"action": "bounds", "a": "a.csv", "b": "a.csv", "seed": 3}),
    "gh lemma": (["-n", "2"], {"action": "lemma", "n": 2, "exhaustive": False, "force": False}),
    "loop": (["--tree", "3 0 0 0", "--distances"], {"tree": "3 0 0 0", "distances": True}),
    "exp scaling": (["--sizes", "16", "--samples", "2"],
                    {"sizes": [16], "samples_per_size": 2, "seed": 0, "alpha": 1.5,
                     "map_diameter_max_n": ScalingRunConfig.map_diameter_max_n, "out": None}),
    "exp lukasiewicz": (["--sizes", "16", "--samples", "2"],
                        {"sizes": [16], "samples_per_size": 2, "seed": 0, "alpha": 1.5,
                         "map_diameter_max_n": ScalingRunConfig.map_diameter_max_n, "out": None}),
    "render": (["tree", "--tree", "1 0"], {"kind": "tree", "tree": "1 0"}),
}


def test_config_is_the_parsed_options(capout, monkeypatch, tmp_path):
    monkeypatch.delenv("HLL_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.csv").write_text("0,1\n1,0\n")
    assert sorted(_CONFIGS) == sorted(_LEAVES)
    for command, (argv, config) in _CONFIGS.items():
        argv = command.split() + argv + ["--format", "json"]
        assert json.loads(capout(argv))["config"] == config, argv


# -- argument fuzzing -------------------------------------------------------------

# tokens that are no valid value of anything, plus a few that parse as one
# thing but mean another
_JUNK = ["", "x", "-", "--", "-z", "--bogus", "nan", "1e3", ",", "1,", "2 0", "0:0"]
# valid and invalid values of the free-text options, by option
_VALUES = {
    "tree": ["2 0 1 0", "1 0", "2 1 0 0", "3 0 0 0", "2 0"],
    "marked": ["2:1 0:0 1:0 0:0", "1:0 0:0", "0:0", "1:2 0:0"],
    "sizes": ["4,6", "5", "1,2", "0,3"],
    "a": ["good.csv", "bad.csv", "missing.csv"],
    "b": ["good.csv", "bad.csv", "missing.csv"],
    "out": ["out.txt", "no/such/out.txt"],
    "alpha": ["1.5", "1.2", "2", "nan"],
}
# exhaustive bounds-mode lemma checks take 0.6-0.9 s at n = 5 and 3.2-3.4 s at n = 6
_INT_MAX = {("gh lemma", "n"): 4}


def _option_tokens(command: str, action: argparse.Action):
    """Argument tokens for one parser action, or none when it is left out."""
    if isinstance(action, argparse._HelpAction):
        return st.just([])
    flag = action.option_strings[:1]
    if action.nargs == 0:
        return st.just(flag) if action.required else st.sampled_from([[], flag])
    if action.choices is not None:
        values = st.sampled_from(list(action.choices))
    elif action.dest in _VALUES:
        values = st.sampled_from(_VALUES[action.dest])
    else:  # the integer options
        values = st.integers(-2, _INT_MAX.get((command, action.dest), 6)).map(str)
    # every value option is given, so no slow default (such as exp's 200
    # samples at n = 16384) is ever reached
    return values.map(lambda v: flag + [v])


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_LEAVES)))
    actions = _LEAVES[command]._actions
    positional = [draw(_option_tokens(command, a)) for a in actions if not a.option_strings]
    options = [draw(_option_tokens(command, a)) for a in actions if a.option_strings]
    options = draw(st.permutations(options))
    argv = command.split() + [t for group in positional + options for t in group]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_JUNK)))
    return argv


@given(_argvs())
def test_fuzzed_arguments_keep_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "good.csv"), "w") as f:
            f.write("0,1\n1,0\n")
        with open(os.path.join(tmp, "bad.csv"), "w") as f:
            f.write("0,1\n1\n")
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # relative paths and any --out file stay in tmp
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        finally:
            os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVARIANT, EXIT_BUDGET), argv
    assert "Traceback" not in err.getvalue(), argv
