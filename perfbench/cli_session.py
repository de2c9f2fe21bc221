"""cli_session: one CLI subprocess at a time.

Item = one subprocess command.  Each pass runs
``census --genus CLI_CENSUS_GENUS`` at ``--workers 1`` and at an explicit
``--workers 2`` (never the default, which depends on the host) and the
small commands -- every subcommand with and without ``--json``, one fixed
draw from the corpus -- in an order the seed shuffles, and passes repeat
until the time is up.  Exit code and a stdout digest of each command are
compared with ``reference/cli.json``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from statistics import median

import gen
from common import bootstrap, load_reference, repeat, run_cli, run_process
from spans import paired

bootstrap()

# over the 20 commands of a pass, p80 lies among the slowest small
# commands; the two censuses and two more commands are beyond it
TAIL_PCT = 80
TRACED_ROUNDS = 1
PROBES = 5


def census_args(workers: int) -> list[str]:
    return ["census", "--genus", str(gen.CLI_CENSUS_GENUS),
            "--workers", str(workers)]


def key(args: list[str]) -> str:
    return json.dumps(args)


def outcome(code: int, stdout: bytes) -> list:
    return [code, hashlib.sha256(stdout).hexdigest()[:16]]


def check(args: list[str], code: int, stdout: bytes, ref: dict) -> list[str]:
    want = ref.get(key(args))
    if want is None:
        return [f"{' '.join(args)}: no reference"]
    if outcome(code, stdout) != want:
        return [f"{' '.join(args)}: exit code or stdout differs from the "
                "reference"]
    return []


def warm_up() -> None:
    importlib.import_module("perisurf.cli")


def timed(seed: int, seconds: float, tally, between) -> dict:
    ref = load_reference("cli")

    def run_one(args):
        code, out, wall = run_cli(args)
        tally.check(check(args, code, out, ref))
        return wall, wall

    # the small commands are a fixed draw and the seed orders the pass, so
    # that every seed times the same work
    commands = [census_args(workers) for workers in (1, 2)]
    commands += gen.cli_stream(gen.CORPUS_SEED, gen.cli_corpus(), 1)
    random.Random(seed).shuffle(commands)
    return repeat(commands, run_one, seconds, between)


def traced(seed: int, tally, rec) -> dict:
    """Interpreter and import probes, the two censuses, then one round of
    small commands, each run untraced and traced in alternating order."""
    ref = load_reference("cli")
    python = [sys.executable]
    interpreter = [run_process(python + ["-c", "pass"])[2]
                   for _ in range(PROBES)]
    imported = [run_process(python + ["-c", "import perisurf.cli"])[2]
                for _ in range(PROBES)]
    walls = {}
    for workers in (1, 2):
        args = census_args(workers)
        with rec.span("item.census", item=workers):
            code, out, walls[workers] = rec.call("cli.census", run_cli, args)
        tally.check(check(args, code, out, ref))

    untraced_ns = traced_ns = 0
    small = []
    stream = gen.cli_stream(seed, gen.cli_corpus(), TRACED_ROUNDS)
    for k, args in enumerate(stream):

        def run_traced():
            with rec.span("item.command", item=k):
                return rec.call(f"cli.{args[0]}", run_cli, args)

        _, (code, out, wall), u_ns, t_ns = paired(
            k, lambda: run_cli(args), run_traced)
        untraced_ns += u_ns
        traced_ns += t_ns
        small.append(wall)
        tally.check(check(args, code, out, ref))
    return {
        "untraced_s": untraced_ns / 1e9,
        "traced_s": traced_ns / 1e9,
        "metrics": {
            "cli.interpreter_ms": median(interpreter) * 1e3,
            "cli.import_ms": (median(imported) - median(interpreter)) * 1e3,
            "cli.small_command_ms": median(small) * 1e3,
            "cli.census_serial_s": walls[1],
            "cli.census_pool_s": walls[2],
            "census.pool.speedup": walls[1] / walls[2],
        },
    }
