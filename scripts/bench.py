"""Run the benchmark on two commits in alternating pairs; write BENCH_<n>.json.

    python3 scripts/bench.py --parent HEAD~1 --workload openbook_queries \\
        --pairs 10 --seconds 25

Each commit is exported with ``git archive`` into a temporary directory, so
that neither tree holds ``__pycache__``, and each run is
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in its
tree, under ``PYTHONDONTWRITEBYTECODE=1``.  Pair ``k`` (from 0) uses seed
``--seed + k`` and runs the parent first when ``k`` is even, the change
first when it is odd.

The output file holds, per workload, each run's result (the JSON object on
the last line of its stdout), each side's median, quartiles and extremes
of every metric, and the number of pairs the change won on each metric, by the
direction ``BENCHMARK.json`` gives it; a tie counts for neither side.  Each
end-to-end metric also gets the ``verdict`` its runs support, with the
bound ``BENCHMARK.json`` fixes for it (a fraction of the parent's median):

- ``gain``: of at least ten pairs, the change won at least nine tenths, and
  its median is better than the parent's by more than the parent's quartile
  spread;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``unresolved``: the parent's quartile spread is wider than the bound,
  unless every run of the change reads better than every run of the parent;
- ``none``: none of these.

The first that holds is given.  The file's stamp names the Python
version, the CPU count and both commits.  Without ``--out`` the file is
``BENCH_<n>.json`` at the root of the checkout, with the first ``n`` from 1
not taken.  The exit status is 1 when any run failed or
reported a result that is not ``correct`` with 0 failed items.

The script imports nothing from perisurf; it drives ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(sha: str, dest: Path) -> None:
    """The files of commit ``sha``, extracted into the new directory
    ``dest``."""
    dest.mkdir()
    archive = dest.with_suffix(".tar")
    git("archive", "--format=tar", f"--output={archive}", sha)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(dest)], check=True)
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One timed run; ``result`` is the last stdout line's object, or None
    when the run exited non-zero or printed no such line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True, check=False)
    out = {"wall_s": round(time.perf_counter() - t0, 3),
           "exit": proc.returncode, "result": None}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            out["result"] = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if out["result"] is None:
        out["stderr_tail"] = proc.stderr[-2000:]
    return out


def ok(run: dict) -> bool:
    r = run["result"]
    return r is not None and r.get("correct") is True and r.get("failed") == 0


def verdict(row: dict, bound: float) -> str:
    """What a metric row with both sides and a won count supports; see the
    module docstring."""
    parent, change = row["parent"], row["change"]
    sign = 1 if row["better"] == "higher" else -1
    gap = sign * (change["median"] - parent["median"])  # > 0: change better
    spread = parent["q3"] - parent["q1"]
    if (row["pairs"] >= 10 and 10 * row["won"] >= 9 * row["pairs"]
            and gap > spread):
        return "gain"
    if -gap > bound * abs(parent["median"]):
        return "worse"
    # the change's worst run against the parent's best
    apart = (change["min"] - parent["max"] if sign > 0
             else parent["min"] - change["max"])
    if spread > bound * abs(parent["median"]) and apart <= 0:
        return "unresolved"
    return "none"


def summary(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric: each side's median, quartiles and extremes, the pairs
    won by the change, and for an end-to-end metric, one whose
    ``BENCHMARK.json`` entry in ``metrics`` has a bound, the verdict."""
    values: dict[str, dict[str, dict[int, float]]] = {}
    for run in runs:
        if run["result"] is None:
            continue
        for name, m in run["result"]["metrics"].items():
            side = values.setdefault(name, {s: {} for s in SIDES})
            side[run["side"]][run["pair"]] = m["value"]
    out = {}
    for name, side in values.items():
        row = {}
        for s in SIDES:
            xs = sorted(side[s].values())
            if xs:
                q1, _, q3 = (quantiles(xs, n=4, method="inclusive")
                             if len(xs) > 1 else xs * 3)
                row[s] = {"median": median(xs), "q1": q1, "q3": q3,
                          "min": xs[0], "max": xs[-1], "runs": len(xs)}
        pairs = sorted(side["parent"].keys() & side["change"].keys())
        spec = metrics.get(name, {})
        direction = spec.get("better")
        if direction in ("higher", "lower"):
            sign = 1 if direction == "higher" else -1
            row["better"] = direction
            row["won"] = sum(sign * (side["change"][k] - side["parent"][k]) > 0
                             for k in pairs)
            row["pairs"] = len(pairs)
            if "bound" in spec and pairs:
                row["verdict"] = verdict(row, spec["bound"])
        out[name] = row
    return out


def next_bench_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent")
    ap.add_argument("--change", default="HEAD", help="git ref of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="a perfbench workload; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first pair; pair k uses seed + k")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_spec = {m["name"]: m
                    for m in spec["end_to_end"] + spec["per_layer"]}
    shas = {"parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}"),
            "change": git("rev-parse", "--verify", f"{args.change}^{{commit}}")}
    report = {
        "stamp": {"python": platform.python_version(),
                  "nproc": len(os.sched_getaffinity(0)),
                  "parent": shas["parent"], "change": shas["change"],
                  "seconds": args.seconds, "trace": 0},
        "workloads": {},
    }
    all_ok = True
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        for s in SIDES:
            export(shas[s], trees[s])
        for workload in args.workload:
            runs = []
            for k in range(args.pairs):
                seed = args.seed + k
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                for s in order:
                    run = run_once(trees[s], workload, seed, args.seconds)
                    run.update(pair=k, seed=seed, side=s, first=s == order[0])
                    all_ok &= ok(run)
                    runs.append(run)
                    print(f"{workload} pair {k} seed {seed} {s}: "
                          f"{'ok' if ok(run) else 'FAILED'} "
                          f"in {run['wall_s']:.1f} s", file=sys.stderr)
            metrics = summary(runs, metrics_spec)
            report["workloads"][workload] = {"metrics": metrics, "runs": runs}
            for name, row in metrics.items():
                if "parent" in row and "change" in row:
                    won = (f"  won {row['won']}/{row['pairs']}"
                           if "won" in row else "")
                    if "verdict" in row:
                        won += f"  {row['verdict']}"
                    print(f"{workload} {name}: {row['parent']['median']:.6g}"
                          f" -> {row['change']['median']:.6g}{won}")
    out = args.out or next_bench_path()
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"written to {out}", file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
