"""Benchmark of the brauer library: three workloads, end-to-end and per-layer
metrics.  See README.md in this directory.

Usage, from the repository root:
    python3 perfbench/run.py --workload {verify,ideals,ranks} --seed N \
        --seconds S --trace {0,1}

Each pass runs in a fresh interpreter (cold library caches), one after
another, for ``--seconds`` (at least one pass).  The last
stdout line is the JSON result; the line before it records the environment
and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("verify", "ideals", "ranks")
# Either variable changes which code runs (backend choice, cell budget).
PINNED_ENV = ("BRAUER_PURE", "BRAUER_MAX_CELLS")
# Set-up-only interpreters per run, on top of one sample per pass.
SETUP_PROBES = 9
# A run must finish within 180 s; no pass may start a wait beyond this.
RUN_BUDGET_S = 170


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child_env():
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + extra if extra else "")
    return env


class Runner:
    """Starts the passes of one run.  Each pass shuffles its queries with
    its own seed, drawn from the run's seed, so a run's medians average over
    query orders (the order decides what the shared caches hold)."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seeds = random.Random(seed)
        self.env = _child_env()
        self.started = time.monotonic()

    def spawn(self, mode, *extra):
        """Run one pass in a fresh interpreter; its set-up time counts from
        just before the spawn."""
        remaining = RUN_BUDGET_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("run budget of %d s exhausted" % RUN_BUDGET_S)
        seed = self.seeds.randrange(1 << 30)
        cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
               self.workload, str(seed), mode, *extra]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("%s pass exceeded the run budget" % mode) from exc
        if proc.returncode != 0:
            raise BenchError("%s pass exited %d:\n%s"
                             % (mode, proc.returncode, proc.stderr[-4000:].rstrip()))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        loaded = os.path.dirname(os.path.abspath(result["brauer_file"]))
        if loaded != os.path.join(SRC, "brauer"):
            raise BenchError("pass imported brauer from %s, not %s"
                             % (loaded, SRC))
        result["setup_s"] = result["setup_end"] - spawned
        result["seed"] = seed
        return result


def _build():
    """Byte-compile the library so no pass pays for compilation."""
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q",
                           os.path.join(SRC, "brauer")],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError("compileall failed:\n%s" % (proc.stdout + proc.stderr))


def measure(args):
    runner = Runner(args.workload, args.seed)
    probes = [runner.spawn("probe") for _ in range(SETUP_PROBES)]
    traced = None
    begin = time.monotonic()
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        traced = runner.spawn("trace", os.path.join(
            SPANS_DIR, "spans-%s.bin" % args.workload))
    # The out-of-band checks are slow (functor matrices of whole kernel
    # vectors), so only the first pass of a run makes them.  Another pass
    # starts only if it should end within --seconds, judging by the longest
    # set-up plus timed region so far.
    passes, longest = [], 0.0
    while not passes or time.monotonic() - begin + longest <= args.seconds:
        passes.append(runner.spawn("run" if passes else "check"))
        longest = max(longest, passes[-1]["setup_s"] + passes[-1]["wall_s"])

    measured = passes + ([traced] if traced else [])
    errors = [e for p in measured for e in p["errors"]]
    for e in errors[:20]:
        sys.stderr.write("wrong answer: %s\n" % e)
    walls = [p["wall_s"] for p in passes]
    setups = [p["setup_s"] for p in probes + measured]
    if traced:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in traced["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - statistics.median(walls), "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        }
    info = {
        "workload": args.workload, "seed": args.seed,
        "backend": probes[0]["backend"], "python": platform.python_version(),
        "nproc": os.cpu_count(), "passes": len(passes),
        "pass_seeds": [p["seed"] for p in passes],
        "wall_s_samples": walls, "setup_s_samples": setups,
    }
    if args.workload == "verify":
        info["verify_internal_seed"] = probes[0]["verify_internal_seed"]
    if traced:
        info["traced_wall_s"] = traced["wall_s"]
    result = {
        "correct": not errors and all(p["failed"] == 0 for p in measured),
        "attempted": sum(p["attempted"] for p in measured),
        "failed": sum(p["failed"] for p in measured),
        "metrics": metrics,
    }
    return info, result


def _unit(name):
    quantity = name.rsplit(".", 1)[1]
    if quantity.endswith("_s"):
        return "s"
    if quantity.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    args = _parse_args(argv)
    pinned = [v for v in PINNED_ENV if v in os.environ]
    if pinned:
        sys.stderr.write("error: unset %s; it changes which code runs\n"
                         % ", ".join(pinned))
        return 2
    if not os.path.isfile(os.path.join(SRC, "brauer", "__init__.py")):
        sys.stderr.write("error: no library source at %s\n" % SRC)
        return 2
    try:
        _build()
        info, result = measure(args)
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
