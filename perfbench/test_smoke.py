"""Smoke test of the benchmark at tiny sizes (about half a minute).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import threading
import time

import pytest

import run
import workloads

TINY = {
    "scaling": {"sizes": [300, 600], "bfs_check_n": 300, "bfs_check_trees": 1, "setup_probes": 1},
    "maps": {"sizes": [16, 300], "setup_probes": 1},
    "exact": {"roundtrip_n": 3, "roundtrip_total": 7, "pushforward_n": 3, "lemma_cli_n": 2,
              "lemma_cli_total": 2, "sample_count": 2000, "lemma_sizes": [5, 8],
              "setup_probes": 1},
}
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run_tiny(monkeypatch, capsys, name: str, trace: int):
    monkeypatch.setitem(workloads.PARAMS, name, {**workloads.PARAMS[name], **TINY[name]})
    rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    error_rate = next(float(s.split()[2]) for s in out if s.strip().startswith("error_rate ="))
    return rc, json.loads(out[-1]), error_rate


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_name_is_emitted(monkeypatch, capsys, name, trace):
    rc, line, error_rate = _run_tiny(monkeypatch, capsys, name, trace)
    assert rc == 0 and error_rate == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in BENCH["end_to_end" if trace == 0 else "per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == listed


@pytest.mark.parametrize("name, module, attr, fake", [
    # a looptree diameter far from the map diameter fails the check inside every op
    ("maps", "looptree", "loop_diameter", lambda tree: 10**9),
    # exit code 3 fails Op.check of every command; the lemma checks still pass
    ("exact", "cli", "run", lambda argv: 3),
])
def test_failing_check_raises_error_rate_and_exit_code(monkeypatch, capsys, name, module, attr, fake):
    monkeypatch.setattr(getattr(workloads, module), attr, fake)
    rc, line, error_rate = _run_tiny(monkeypatch, capsys, name, 0)
    assert rc == 1
    assert line["correct"] is False and line["failed"] > 0
    assert error_rate == pytest.approx(line["failed"] / line["attempted"], rel=1e-5)


def test_an_op_on_one_core_is_scaled_and_one_beside_a_thread_is_not():
    clock = run.OpClock(calibrate=True)
    done = threading.Event()
    helper = threading.Thread(target=done.wait)
    with clock:
        start = clock.start()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        clock.stop(start)
        assert clock.wall_timed_ops == 0
        start = clock.start()
        helper.start()
        wall, reference = clock.stop(start)
    done.set()
    helper.join()
    assert clock.wall_timed_ops == 1 and wall == reference


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "maps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
