"""halinloop benchmark: the ``scaling``, ``maps`` and ``exact`` workloads.

    python3 perfbench/run.py --workload maps --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in one process with one caller, one op at a time
(a closed loop), for at least ``--seconds`` of timed op time and in
whole cycles.  Checks run untimed and count toward ``error_rate``; any
failure makes the exit code 1.  With ``--trace 0`` the end-to-end metrics
are reported; with ``--trace 1`` the same seed is run once traced (every
layer span wrapped, see tracer.py) and once untraced in the same process,
and the per-layer metrics are reported.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Per-run records go to ``.perfbench_out/`` at the repo root.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

from tracer import PERCENTILE_MIN_CALLS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("scaling", "maps", "exact")
MAX_PRINTED_FAILURES = 5

sys.path.insert(0, str(SRC))


# -- measurement ----------------------------------------------------------------

# The host's CPU speed drifts by tens of percent over tens of seconds (a fixed
# loop ran 1.6x slower in some 4 s windows than in others), more than any run
# length the benchmark can afford averages out.  Untraced times are therefore
# also given at a reference speed: each stretch of work is scaled by
# CAL_REF_S over the time calibration_loop took while it ran.  The loop runs
# from SIGALRM every CAL_PERIOD_S, and its own time is taken out of the op's.
CAL_ITERS = 20_000
CAL_REF_S = 0.002
CAL_PERIOD_S = 0.2
# The loop only measures the host if the program leaves it a core of its own.
# An op that keeps more than one core busy (CPU time of the process and its
# reaped children above PARALLEL_CPU_PER_WALL per wall second, plus slack for
# short ops), or that runs beside another Python thread or a live
# multiprocessing child, slows the loop itself; scaling it would overstate
# its gain.  Such ops are counted at their wall-clock time instead.
PARALLEL_CPU_PER_WALL = 1.2
PARALLEL_SLACK_S = 0.005


def calibration_loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_ITERS):
        s += i * i % 7
    return time.perf_counter() - t0


def cpu_seconds() -> float:
    """CPU time of this process's threads and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def helpers_alive() -> bool:
    """Whether another Python thread or a multiprocessing child is running."""
    mp = sys.modules.get("multiprocessing")
    return threading.active_count() > 1 or bool(mp and mp.active_children())


class OpClock:
    """Times ops; with ``calibrate`` it also samples the machine's speed."""

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self.samples = [calibration_loop()] if calibrate else []
        self.helper_ticks = 0
        self.wall_timed_ops = 0

    def _tick(self, signum, frame) -> None:
        self.helper_ticks += helpers_alive()
        self.samples.append(calibration_loop())

    def __enter__(self):
        if self.calibrate:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> tuple[int, int, float, float]:
        return len(self.samples), self.helper_ticks, cpu_seconds(), time.perf_counter()

    def stop(self, start: tuple[int, int, float, float]) -> tuple[float, float]:
        """(wall, reference) seconds of the op begun at ``start``; the
        reference time is the wall time if the op did not run on one core."""
        elapsed = time.perf_counter() - start[3]
        cpu = cpu_seconds() - start[2]
        inside = self.samples[start[0]:]
        wall = elapsed - sum(inside)
        if not self.calibrate:
            return wall, wall
        if (cpu > PARALLEL_CPU_PER_WALL * elapsed + PARALLEL_SLACK_S
                or self.helper_ticks > start[1] or helpers_alive()):
            self.wall_timed_ops += 1
            return wall, wall
        speeds = inside or self.samples[-1:]
        return wall, wall * statistics.fmean(CAL_REF_S / d for d in speeds)


def measure(wl, seconds: float, clock: OpClock) -> dict:
    """Run whole cycles of ops until their summed wall time reaches ``seconds``."""
    m = {"ops": 0, "ops_failed": 0, "checks": 0, "checks_failed": 0, "timed_s": 0.0,
         "ref_s": 0.0, "cycles": 0, "cycle_s": [], "failures": []}
    with clock:
        while m["cycles"] == 0 or m["timed_s"] < seconds:
            before = m["timed_s"]
            for op in wl.cycle(m["cycles"]):
                m["ops"] += op.count
                start = clock.start()
                try:
                    value = op.run()
                except Exception:
                    _add_time(m, clock.stop(start))
                    _record_failure(m, op.label)
                    m["ops_failed"] += op.count
                    continue
                _add_time(m, clock.stop(start))
                try:
                    op.check(value)
                except Exception:
                    _record_failure(m, op.label)
                    m["ops_failed"] += op.count
            m["cycle_s"].append(m["timed_s"] - before)
            m["cycles"] += 1
    m["wall_timed_ops"] = clock.wall_timed_ops
    return m


def post_check(wl, m: dict) -> None:
    """The workload's checks after the timed phase, counted into ``m``."""
    for label, check in wl.post_checks:
        m["checks"] += 1
        try:
            check()
        except Exception:
            _record_failure(m, label)
            m["checks_failed"] += 1


def _add_time(m: dict, times: tuple[float, float]) -> None:
    m["timed_s"] += times[0]
    m["ref_s"] += times[1]


def _record_failure(m: dict, label: str) -> None:
    text = traceback.format_exc()
    m["failures"].append({"op": label, "error": text.strip().splitlines()[-1]})
    if len(m["failures"]) <= MAX_PRINTED_FAILURES:
        sys.stderr.write("perfbench: %s failed\n%s" % (label, text))


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """(wall, reference) seconds from starting a fresh ``--setup-only``
    process to its report that the first op could start; the process
    samples its own speed while it sets up."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    with proc:
        line = proc.stdout.readline().split()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=120)
    if len(line) != 3 or line[0] != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
    wall = elapsed - float(line[1])
    return wall, wall * float(line[2])


# -- one workload -----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    params = workloads.PARAMS[name]
    OUT.mkdir(exist_ok=True)
    result = {"provenance": provenance(name, seed, seconds, trace, params)}
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        setup = workloads.SETUPS[name]
        if not trace:
            probes = [probe_setup(name, seed) for _ in range(params["setup_probes"])]
            wl = setup(params, seed, tmpdir)
            m = measure(wl, seconds, OpClock(calibrate=True))
            post_check(wl, m)
            metrics = {
                "ops_per_s": {"value": _rate(m, "ref_s"), "unit": "ops/s"},
                "setup_s": {"value": statistics.median(p[1] for p in probes), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }
            result["setup_probes_s"] = {"wall": [p[0] for p in probes],
                                        "reference": [p[1] for p in probes]}
            result["wall_ops_per_s"] = _rate(m, "timed_s")
            phases = [m]
        else:
            tracer = Tracer()
            tracer.install()
            try:
                wl = setup(params, seed, tmpdir)
                tracer.setup_done()
                m = measure(wl, seconds, OpClock(calibrate=False))
            finally:
                tracer.restore()
            post_check(wl, m)
            untraced = measure(setup(params, seed, tmpdir), seconds, OpClock(calibrate=False))
            summary = tracer.summary(m["cycles"])
            metrics = layer_metrics(summary, wl.lemma_gaps, _rate(m, "timed_s"),
                                    _rate(untraced, "timed_s"))
            tracer.dump(OUT / ("spans-%s-seed%d.npz" % (name, seed)))
            result["trace"] = summary
            result["untraced_phase"] = untraced
            phases = [m, untraced]
    attempted = sum(p["ops"] + p["checks"] for p in phases)
    failed = sum(p["ops_failed"] + p["checks_failed"] for p in phases)
    result.update(
        measured=m,
        error_rate=failed / attempted,
        line={"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    )
    with open(OUT / ("%s-seed%d-trace%d.json" % (name, seed, trace)), "w") as f:
        json.dump(result, f, indent=1, default=str)
    return result


def _rate(m: dict, time_key: str) -> float:
    return (m["ops"] - m["ops_failed"]) / m[time_key]


def layer_metrics(summary: dict, lemma_gaps: list, traced_rate: float, untraced_rate: float) -> dict:
    metrics = {}
    for span, e in summary["spans"].items():
        metrics[span + ".calls"] = {"value": e["calls"], "unit": "count/cycle"}
        metrics[span + ".self_s"] = {"value": e["self_s"], "unit": "s/cycle"}
        for stat in ("p50_ms", "p90_ms"):
            if stat in e:
                metrics["%s.%s" % (span, stat)] = {"value": e[stat], "unit": "ms"}
    metrics["looptree.lemma_gap"] = {
        "value": statistics.fmean(lemma_gaps) if lemma_gaps else 0.0, "unit": "hops"}
    metrics["bench.unattributed_s"] = {"value": summary["unattributed_s"], "unit": "s/cycle"}
    metrics["trace.overhead"] = {"value": 1.0 - traced_rate / untraced_rate, "unit": "ratio"}
    return metrics


# -- provenance -------------------------------------------------------------------


def provenance(name: str, seed: int, seconds: float, trace: bool, params: dict) -> dict:
    import numpy
    import scipy

    import halinloop

    return {
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "halinloop": halinloop.__version__,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": bool(trace),
        "params": params,
    }


def _git_commit() -> str:
    # the ceiling keeps git from reporting an enclosing repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# -- output -----------------------------------------------------------------------


def report(name: str, res: dict) -> None:
    line = res["line"]
    prov = res["provenance"]
    m = res["measured"]
    print("perfbench workload=%s seed=%s seconds=%s traced=%d"
          % (name, prov["seed"], prov["seconds"], prov["traced"]))
    for key, metric in line["metrics"].items():
        note = ""
        if key == "ops_per_s":
            note = "  at reference speed; %.6g ops/s by wall clock (%d ops in %.2f s, %d cycles)" % (
                res["wall_ops_per_s"], m["ops"] - m["ops_failed"], m["timed_s"], m["cycles"])
            if m["wall_timed_ops"]:
                note += "; %d op calls not on one core, counted at wall-clock time" % (
                    m["wall_timed_ops"])
        elif key == "setup_s":
            note = "  at reference speed; median of %s s by wall clock" % ", ".join(
                "%.3f" % s for s in res["setup_probes_s"]["wall"])
        elif key.endswith(("p50_ms", "p90_ms")):
            calls = res["trace"]["spans"][key.rsplit(".", 1)[0]]["percentile_calls"]
            if calls < PERCENTILE_MIN_CALLS:
                note = "  (only %d calls: not a stable percentile)" % calls
        print("  %s = %.6g %s%s" % (key, metric["value"], metric["unit"], note))
    print("  error_rate = %.6g ratio  (%d failed of %d attempted)"
          % (res["error_rate"], line["failed"], line["attempted"]))
    if "trace" in res:
        t = res["trace"]
        print("  per cycle, set-up counted once: span self times %.4f s + bench.unattributed_s"
              " %.4f s = traced wall %.4f s (%d spans, %d cycles)"
              % (t["attributed_s"], t["unattributed_s"], t["wall_s"], t["n_spans"], m["cycles"]))
    print("provenance " + json.dumps(prov, sort_keys=True))


def run_all(args) -> int:
    """Every workload, each in its own fresh process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            line = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            line = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] &= proc.returncode == 0 and line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        total["metrics"].update({"%s.%s" % (name, k): v for k, v in line["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready', its calibration time and speed ratio, and exit")
    args = ap.parse_args(argv)

    if not (SRC / "halinloop" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no halinloop package under %s\n" % SRC)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        # reports the time its calibration loops took and the ratio of
        # reference to wall time over its set-up, which is timed like an op
        clock = OpClock(calibrate=True)
        start = clock.start()
        with clock:
            import workloads

            OUT.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
                workloads.SETUPS[args.workload](workloads.PARAMS[args.workload], args.seed, tmpdir)
        wall, reference = clock.stop(start)
        print("ready %r %r" % (sum(clock.samples), reference / wall), flush=True)
        return 0

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, res)
    print(json.dumps(res["line"]), flush=True)
    return 0 if res["line"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
