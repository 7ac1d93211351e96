import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import halinloop
from halinloop import halin
from halinloop.cli import EXIT_BUDGET, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, _build_parser, run
from halinloop.experiments import ScalingRunConfig, rows_to_csv, scaling_run


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


class TestBijection:
    def test_roundtrip_exhaustive(self, capout):
        out = capout(["bij", "roundtrip", "-n", "4", "--exhaustive"])
        assert out.strip() == "30/30 OK"

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
        assert "does not take --force" in capsys.readouterr().err
        obj = json.loads(capout(["bij", "pushforward", "-n", "2", "--format", "json"]))
        assert obj["exact_match"] is True
        assert "force" not in obj["config"]

    def test_bad_marked_tree_is_usage_error(self, capout):
        capout(["bij", "inv", "--marked", "nonsense"], expect=EXIT_USAGE)


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

    def test_budget_exit_code(self, capout, tmp_path):
        d = np.abs(np.subtract.outer(np.arange(12.0), np.arange(12.0)))
        a = tmp_path / "a.csv"
        np.savetxt(a, d, delimiter=",")
        capout(
            ["gh", "exact", "--a", str(a), "--b", str(a), "--budget", "10"],
            expect=EXIT_BUDGET,
        )

    def test_missing_file_is_usage_error(self, capout):
        capout(["gh", "exact", "--a", "/no/such.csv", "--b", "/no/such.csv"],
               expect=EXIT_USAGE)

    def test_malformed_csv_is_usage_error(self, capout, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("0,1\n1,zero\n")
        for action in ("exact", "bounds"):
            capout(["gh", action, "--a", str(a), "--b", str(a)], expect=EXIT_USAGE)

    def test_non_metric_csv_is_usage_error(self, capout, tmp_path):
        # well-formed numbers that are not a metric: asymmetric, then a
        # triangle-inequality violation
        for i, text in enumerate(("0,1\n2,0\n", "0,1,5\n1,0,1\n5,1,0\n")):
            a = tmp_path / ("a%d.csv" % i)
            a.write_text(text)
            for action in ("exact", "bounds"):
                capout(["gh", action, "--a", str(a), "--b", str(a)], expect=EXIT_USAGE)


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

    @pytest.mark.parametrize("argv, digest", [
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
         "5e329ddb07bce8298cd2cc51d2ac21bb50ea2ad59e9b10440c38bf4b0c8a75ba"),
    ])
    def test_stdout_is_pinned(self, capout, monkeypatch, argv, digest):
        # sha256 of the whole stdout; the JSON digests are of the output
        # before config.weights was dropped, re-dumped without that key
        monkeypatch.delenv("HLL_SEED", raising=False)
        assert hashlib.sha256(capout(argv).encode()).hexdigest() == digest

    def test_mu_table(self, capout):
        out = capout(["mu", "--alpha", "1.5", "--kmax", "2"])
        assert out.splitlines()[0].startswith("mu(0) =")

    def test_impossible_size_is_usage_error(self, capout):
        capout(["sample", "-n", "0"], expect=EXIT_USAGE)

    def test_bad_seed_is_usage_error(self, capout, monkeypatch):
        capout(["sample", "-n", "4", "--seed", "-1"], expect=EXIT_USAGE)
        monkeypatch.setenv("HLL_SEED", "x")
        capout(["sample", "-n", "4"], expect=EXIT_USAGE)


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


class TestGlobalBehavior:
    def test_unknown_subcommand_is_usage(self, capout):
        capout(["frobnicate"], expect=EXIT_USAGE)

    def test_unknown_flag_is_usage(self, capout):
        capout(["enumerate", "-n", "2", "--bogus"], expect=EXIT_USAGE)

    def test_help_exits_zero(self, capout):
        for sub in ("enumerate", "sample", "bij", "gh", "loop", "exp", "render", "mu"):
            assert run([sub, "--help"]) == EXIT_OK

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


# one small valid and one bad argument list per subcommand; "{bad_csv}"
# stands for a malformed distance-matrix file
SWEEP_INPUTS = {
    "enumerate": (["-n", "2"], ["-n", "0"]),
    "build": (["--tree", "2 0 1 0"], ["--tree", "3 0 0 0"]),
    "sample": (["-n", "5", "--seed", "1"], ["-n", "0"]),
    "mu": (["--alpha", "1.5", "--kmax", "3"], ["--alpha", "2.5"]),
    "bij": (["phi", "--tree", "2 0 1 0"], ["inv", "--marked", "nonsense"]),
    "gh": (["lemma", "-n", "1"], ["exact", "--a", "{bad_csv}", "--b", "{bad_csv}"]),
    "loop": (["--tree", "3 0 0 0"], ["--tree", "2 0"]),
    "exp": (["scaling", "--sizes", "16,32", "--samples", "2", "--seed", "1"],
            ["scaling", "--sizes", "0"]),
    "render": (["tree", "--tree", "2 0 1 0"], ["halin", "--tree", "3 0 0 0"]),
}


def _format_choices() -> dict[str, list[str]]:
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: list(next(a.choices for a in sp._actions if a.dest == "format"))
        for name, sp in sub.choices.items()
    }


@pytest.mark.parametrize(
    "command,fmt,which",
    [(c, f, w) for c, fmts in _format_choices().items() for f in fmts for w in ("valid", "bad")],
)
def test_exit_code_contract_sweep(command, fmt, which, capsys, tmp_path):
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("0,1\n1\n")
    inputs = SWEEP_INPUTS[command][which == "bad"]
    args = [a.replace("{bad_csv}", str(bad_csv)) for a in inputs]
    code = run([command] + args + ["--format", fmt])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVARIANT, EXIT_BUDGET)
    assert "Traceback" not in capsys.readouterr().err


# -- argument fuzzing -------------------------------------------------------------

_SUBPARSERS = next(
    a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices
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
# exhaustive bounds-mode lemma checks take 4 s at n = 5 and 29 s at n = 6
_INT_MAX = {("gh", "n"): 4}


def _option_tokens(command: str, action: argparse.Action):
    """Argument tokens for one parser action, or none when it is left out."""
    if isinstance(action, argparse._HelpAction):
        return st.just([])
    flag = action.option_strings[:1]
    if action.nargs == 0:
        return st.sampled_from([[], flag])
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
    command = draw(st.sampled_from(sorted(_SUBPARSERS)))
    actions = _SUBPARSERS[command]._actions
    positional = [draw(_option_tokens(command, a)) for a in actions if not a.option_strings]
    options = [draw(_option_tokens(command, a)) for a in actions if a.option_strings]
    options = draw(st.permutations(options))
    argv = [command] + [t for group in positional + options for t in group]
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
