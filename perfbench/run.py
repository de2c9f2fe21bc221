"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; perisurf is imported from its ``src/``.
With ``--trace 0`` the workload runs closed-loop (one client, one process)
until its items have taken ``--seconds``, with set-up and start-up probes
spread over that time, and the end-to-end metrics are printed; with ``--trace 1``
a fixed seeded stream runs once untraced and once traced, and the per-layer
metrics are printed.  Every output is checked against ``reference/``.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  A checkout
without perisurf sources exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

from common import (
    ROOT, WORK, SetupError, Tally, bootstrap, noise_probe,
    run_cli, run_process, slow_level, tail,
)
import gen
from metrics import END_TO_END, PER_LAYER, WORKLOADS, layer_value
from spans import Recorder

# set-up (and start-up) probes run in slots spread over the timed loop, so
# that they see the same phases of a shared host as the items do; a run
# makes at most this many
PROBE_SLOTS = 8


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree (git
    is kept from looking above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def env_stamp() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg": os.getloadavg(),
    }


class Probes:
    """A set-up probe per slot of busy time; on ``cli_session`` also a
    start-up probe (a trivial CLI command)."""

    def __init__(self, workload: str, seconds: float):
        self.workload = workload
        self.step = seconds / PROBE_SLOTS
        self.next = 0.0
        self.setup_s: list[float] = []
        self.startup_ms: list[float] = []

    def __call__(self, busy_s: float) -> None:
        if len(self.setup_s) == PROBE_SLOTS or busy_s < self.next:
            return
        self.next = busy_s + self.step
        self.setup_s.append(self.setup())
        if self.workload == "cli_session":
            self.startup_ms.append(self.startup())

    def setup(self) -> float:
        """Process start until the workload is ready (import plus
        warm-up), timed from the parent over a fresh interpreter."""
        probe = str(Path(__file__).resolve().parent / "probe.py")
        code, stdout, wall = run_process([sys.executable, probe,
                                          self.workload])
        if code != 0 or stdout.strip() != b"ready":
            raise SetupError(f"setup probe for {self.workload} failed "
                             f"({code})")
        return wall

    def startup(self) -> float:
        """Wall time of a trivial CLI command, in ms."""
        code, stdout, wall = run_cli(list(gen.CLI_TRIVIAL))
        if code != 0 or stdout != b"1\n":
            raise SetupError(f"trivial CLI command failed ({code})")
        return wall * 1e3


def peak_rss_mb(workload: str) -> float:
    who = (resource.RUSAGE_CHILDREN if workload == "cli_session"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(module, args, tally: Tally, env: dict) -> tuple[dict, list]:
    module.warm_up()
    probes = Probes(args.workload, args.seconds)
    run = module.timed(args.seed, args.seconds, tally, probes)
    lat_ms = [slow_level(x) * 1e3 for x in run["latency"]]
    cost_s = sum(slow_level(x) for x in run["cost"])
    weights = run.get("weights", [1] * len(lat_ms))
    tail_ms, beyond = tail(lat_ms, module.TAIL_PCT)
    reps = min(len(x) for x in run["latency"])
    values = {
        "setup_s": slow_level(probes.setup_s),
        "items_per_s": sum(weights) / cost_s,
        "item_p50_ms": median(lat_ms),
        "item_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb(args.workload),
    }
    every_call = [x * 1e3 for xs in run["latency"] for x in xs]
    done = sum(w * len(x) for w, x in zip(weights, run["cost"]))
    notes = [
        f"{len(lat_ms)} items timed in {len(run['passes'])} passes, "
        f"{len(every_call)} timed calls, busy {run['busy_s']:.3f} s",
        "busy s per pass: " + " ".join(f"{x:.3f}" for x in run["passes"]),
        "each item's latency is the nearest-rank p95 of its repeats; "
        f"the median of all calls is {median(every_call):.6g} ms",
        f"item_tail_ms is p{module.TAIL_PCT} of the items, with {beyond} "
        f"items and at least {beyond * reps} calls beyond it",
        f"items_per_s {done / run['busy_s']:.6g} 1/s over all calls",
        f"failed_frac {tally.failed_frac:.6g} frac "
        f"({tally.failed} of {tally.attempted})",
    ]
    if probes.startup_ms:
        notes.append(f"startup_ms {slow_level(probes.startup_ms):.6g} ms "
                     f"(top of {len(probes.startup_ms)})")
    if beyond * reps < 10:
        notes.append("warning: fewer than 10 calls beyond the tail "
                     "percentile")
    env["setup_samples_s"] = probes.setup_s
    env["startup_samples_ms"] = probes.startup_ms
    WORK.mkdir(exist_ok=True)
    samples_path = WORK / f"samples-{args.workload}-{args.seed}.json"
    with open(samples_path, "w", encoding="utf-8") as fh:
        json.dump({k: run[k] for k in ("latency", "cost", "passes")}, fh)
    notes.append(f"every timing written to "
                 f"{samples_path.relative_to(ROOT)}")
    return values, notes


def per_layer(module, args, tally: Tally, env: dict) -> tuple[dict, list]:
    module.warm_up()
    rec = Recorder()
    run = module.traced(args.seed, tally, rec)
    layers = rec.by_name()
    extra = dict(run.get("metrics", {}))
    extra["trace.overhead_frac"] = run["traced_s"] / run["untraced_s"] - 1
    extra["trace.coverage_frac"] = rec.coverage(
        lambda name: not name.startswith("item."))
    values = {name: layer_value(name, layers, rec.counters, extra)
              for name, *_ in PER_LAYER}
    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
    rec.dump(trace_path)
    notes = [f"spans {len(rec.spans)} written to "
             f"{trace_path.relative_to(ROOT)}",
             f"failed_frac {tally.failed_frac:.6g} frac "
             f"({tally.failed} of {tally.attempted})"]
    for key, value in run.get("notes", {}).items():
        notes.append(f"{key}: {json.dumps(value)}")
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[name for name, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bootstrap()
        module = importlib.import_module(args.workload)
        env = env_stamp()
        env["noise_before_s"] = noise_probe()
        tally = Tally()
        measure = per_layer if args.trace else end_to_end
        values, notes = measure(module, args, tally, env)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env["noise_after_s"] = noise_probe()
    env["loadavg_after"] = os.getloadavg()

    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env))
    for line in notes:
        print(line)
    for problem in tally.problems:
        print(f"problem: {problem}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
