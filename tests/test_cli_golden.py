"""Golden outputs of the README's command-line examples.

Each command of the README's "Command line" list runs in process, with and
without ``--json``, inside a scratch directory so that ``--svg`` and
``--output`` paths print the same way every time.  The exit code, the sha256
of stdout and the sha256 of every file the command writes must match
``tests/cli_golden.json``.  With ``PERISURF_FORMAT=json`` set in place of
``--json``, each command must give the same digests as with ``--json``.
Run as ``python -m perisurf.cli`` in a fresh interpreter, each command must
give the digests pinned for it too: in process the other tests have loaded
every module, so a command that uses a module it never imports could pass.

Regenerate the golden file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from perisurf.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
SRC = Path(__file__).resolve().parents[1] / "src"

# (argv, files written relative to the working directory)
README_COMMANDS = [
    (["validate", "(6,0;(1,2),(1,3),(1,6))"], ()),
    (["genus", "(2,0;(1,2)×4)"], ()),
    (["classify", "(5,0;(1,5),(3,5),(1,5))"], ()),
    (["polygon", "(6,0;(1,2),(1,3),(1,6))", "--svg", "hexagon.svg"],
     ("hexagon.svg",)),
    (["glue", "(6,0;(1,2),(1,3),(1,6))", "(6,0;(1,2),(2,3),(5,6))",
      "--at", "3:3"], ()),
    (["self-glue", "(3,0;(1,3),(1,3),(2,3),(2,3))", "--at", "2:3"], ()),
    (["assemble", "(6_+,0;(1,2),(1,3),(1,6),[3])",
      "(6_+,0;(1,3),(5,6),(5,6),[2,3])", "--edge", "(3:1)~(3:2)"], ()),
    (["page", "(6_-,0;(1,2),(2,3),(5,6),[3])"], ()),
    (["veering", "(6_-,0;(1,2),(2,3),(5,6),[3])"], ()),
    (["surgery", "(5_+,0;(1,5),(3,5),(1,5),[1,3])"], ()),
    (["resolve", "(6_-,0;(1,2),(2,3),(5,6),[3])"], ()),
    (["fill", "(6_-,0;(1,2),(2,3),(5,6),[3])"], ()),
    (["profile", "5", "1"], ()),
    (["profile", "5", "-1", "--search"], ()),
    (["enumerate", "6", "1"], ()),
    (["census", "--genus", "2", "--output", "genus2.jsonl"],
     ("genus2.jsonl",)),
]

CASES = [(argv + extra, files)
         for argv, files in README_COMMANDS for extra in ([], ["--json"])]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _key(argv: list[str]) -> str:
    return json.dumps(argv, ensure_ascii=False)


def _run(argv: list[str], files) -> dict:
    """Run one command in the current directory and digest what it left."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {
        "exit": code,
        "stdout_sha256": _sha256(out.getvalue().encode()),
        "files": {name: _sha256(Path(name).read_bytes()) for name in files},
    }


@pytest.mark.parametrize("argv,files", CASES,
                         ids=[" ".join(argv) for argv, _ in CASES])
def test_readme_command_matches_golden(argv, files, tmp_path, monkeypatch):
    monkeypatch.delenv("PERISURF_FORMAT", raising=False)
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _run(argv, files) == golden[_key(argv)]


@pytest.mark.parametrize("argv,files", README_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in README_COMMANDS])
def test_format_env_matches_json_flag(argv, files, tmp_path, monkeypatch):
    monkeypatch.setenv("PERISURF_FORMAT", "json")
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _run(argv, files) == golden[_key(argv + ["--json"])]


@pytest.mark.parametrize("argv,files", README_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in README_COMMANDS])
def test_readme_command_in_fresh_interpreter(argv, files, tmp_path):
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PERISURF_FORMAT", None)
    proc = subprocess.run([sys.executable, "-m", "perisurf.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          timeout=120, check=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert {
        "exit": proc.returncode,
        "stdout_sha256": _sha256(proc.stdout),
        "files": {name: _sha256((tmp_path / name).read_bytes())
                  for name in files},
    } == golden[_key(argv)], proc.stderr.decode()


def test_golden_file_covers_exactly_the_readme_commands():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(_key(argv) for argv, _ in CASES)


def _regenerate() -> None:
    os.environ.pop("PERISURF_FORMAT", None)
    golden = {}
    home = os.getcwd()
    for argv, files in CASES:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                golden[_key(argv)] = _run(argv, files)
            finally:
                os.chdir(home)
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"{len(golden)} commands written to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
