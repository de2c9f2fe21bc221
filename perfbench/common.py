"""Paths, the perisurf bootstrap, CLI subprocesses, statistics and the
pass/fail tally shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import quantiles
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# everything a run writes goes here, inside the checkout
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference"

CLI_TIMEOUT_S = 60

# Items of the in-process workloads are timed in CPU time of this process.
# The client is single-threaded and never blocks, so on an idle host this
# equals wall time; on a shared host it leaves out the time the vCPU was
# preempted or stolen, which wall time counts and which swamps the tail of
# sub-millisecond items.  CLI items are subprocesses and keep wall time.
item_clock = process_time


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, wrong import)."""


def bootstrap():
    """Import perisurf from ``src/`` of this checkout and nowhere else."""
    package = SRC / "perisurf"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no perisurf sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import perisurf
    if Path(perisurf.__file__).resolve().parent != package.resolve():
        raise SetupError(f"perisurf was imported from {perisurf.__file__}, "
                         f"not from {package}")
    return perisurf


def digest(obj) -> str:
    """Short stable digest of a JSON-encodable outcome."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(name: str) -> dict:
    """Pinned outputs; empty when not generated yet, so that every check
    against it reports a missing entry."""
    path = REFERENCE / f"{name}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- CLI subprocesses ----------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PERISURF_FORMAT", None)
    return env


def run_process(argv: list[str]) -> tuple[int, bytes, float]:
    """Run one child to completion: (exit code, stdout, wall seconds)."""
    start = perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, env=cli_env(),
                          cwd=ROOT, timeout=CLI_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout, perf_counter() - start


def run_cli(args: list[str]) -> tuple[int, bytes, float]:
    return run_process([sys.executable, "-m", "perisurf.cli", *args])


# --- statistics ----------------------------------------------------------------


def slow_level(samples) -> float:
    """The figure an item's repeats count as: their 95th percentile by
    nearest rank, which is the slowest repeat up to 19 repeats and the
    second slowest from 20 to 39.

    On the shared 2-vCPU host the benchmark was built on, pure-Python code
    runs at a steady slow level, with bursts 1.5-1.8x faster whose share of
    a run swings from none to nearly all of it.  A mean, median or lower
    quantile over the repeats follows that share; the top of the repeats
    reads the steady level whenever some repeats missed the bursts, and it
    still moves in proportion when the program gets faster or slower.
    With many repeats, the top one is often a one-off outlier (a garbage
    collection, say), which the nearest-rank p95 leaves out.
    """
    return sorted(samples)[math.ceil(0.95 * len(samples)) - 1]


def repeat(items, run_one, seconds: float, between, min_passes: int = 3) -> dict:
    """Time every item once per pass, pass after pass, so that each item's
    repeats are spread over the whole run.

    ``run_one(item)`` returns ``(latency_s, cost_s)``: the latency the item
    reports and the busy time it took.  Passes go on until the busy time is
    nearest to ``seconds`` in whole passes, and at least ``min_passes``.
    ``between(busy_s)`` runs before each item, outside the busy time.
    Returns per item its latency and cost samples, the busy time, and the
    busy time of each pass.
    """
    latency = [[] for _ in items]
    cost = [[] for _ in items]
    passes: list[float] = []
    busy = 0.0
    while len(passes) < min_passes or busy + busy / len(passes) / 2 < seconds:
        for k, item in enumerate(items):
            between(busy)
            lat_s, cost_s = run_one(item)
            latency[k].append(lat_s)
            cost[k].append(cost_s)
            busy += cost_s
        passes.append(busy - sum(passes))
    return {"latency": latency, "cost": cost, "busy_s": busy,
            "passes": passes}


def tail(values, pct: int) -> tuple[float, int]:
    """Value at percentile ``pct`` (linear interpolation between samples)
    and the number of samples above it."""
    value = quantiles(values, n=100, method="inclusive")[pct - 1]
    return value, sum(1 for v in values if v > value)


def noise_probe() -> float:
    """Seconds for a fixed pure-Python loop; recorded, never used to
    rescale a metric."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


class Tally:
    """Attempted and failed items; an item fails when any check on its
    output reports a problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, problems) -> bool:
        self.attempted += 1
        problems = list(problems)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems[:3])
        return not problems

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
