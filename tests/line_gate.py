"""Line gate: every executable line of ``src/perisurf`` runs under Tier-1.

Runs the Tier-1 suite in this process under a ``sys.settrace`` line
recorder, then compares the lines of ``src/perisurf`` that never ran with
the allowlist ``tests/line_gate_allowlist.txt``.  Each entry,
``file: source -- reason``, names a line by its source text, stripped of
surrounding whitespace, so edits elsewhere in the file leave it valid; it
covers every executable line of the file with that text.  The gate fails
when a line did not run and is not allowlisted, and also when an
allowlisted line ran or an entry matches no executable line, so the list
cannot go stale.  The suite's own outcome is Tier-1's business and does not
change the verdict.

Executable lines are the line numbers of the bytecode of each module and
of every code object nested in it, so they depend on the Python version;
the allowlist is kept for Python 3.11.  Threads are not traced.

Every Python process that a test starts records its lines too: the gate
puts ``tests/line_gate_child`` on ``PYTHONPATH``, whose ``sitecustomize``
records the lines of ``src/perisurf`` that the child runs when
``LINE_GATE_CHILD_DIR`` names a directory.  The children write their lines
there at exit, and the gate adds them to its own.

Run from the repository root; extra arguments go to pytest::

    PYTHONPATH=src python tests/line_gate.py

The recorder is two module-level functions over two module-level sets and
holds no closure, so tracing leaves no reference cycle behind (a test
counts the garbage that a census leaves to the cycle collector).
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "perisurf"
ALLOWLIST = ROOT / "tests" / "line_gate_allowlist.txt"
CHILD = ROOT / "tests" / "line_gate_child"

_FILES: set[str] = set()
_RAN: set[tuple[str, int]] = set()


def _trace_lines(frame, event, arg):
    if event == "line":
        _RAN.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    # the global trace function: trace lines only in the package's frames
    if frame.f_code.co_filename in _FILES:
        return _trace_lines
    return None


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the bytecode compiled from ``path`` carries."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        # line 0 is the module's entry, never a line of its source
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def read_allowlist(path: Path
                   ) -> tuple[dict[tuple[str, str], str], list[str]]:
    """``{(file name, source text): reason}`` and the malformed entries."""
    allowed: dict[tuple[str, str], str] = {}
    errors: list[str] = []
    for n, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        text = text.strip()
        if not text or text.startswith("#"):
            continue
        where, _, reason = text.partition(" -- ")
        name, _, source = where.partition(":")
        if not (source.strip() and reason.strip()):
            errors.append(f"{path.name}:{n}: expected 'file: source -- "
                          f"reason', got {text!r}")
            continue
        allowed[name, source.strip()] = reason.strip()
    return allowed, errors


def gate(ran: set[tuple[str, int]], allowed: dict[tuple[str, str], str]
         ) -> list[str]:
    """Every failure of the gate, for the package files and lines run."""
    failures = []
    # (file name, source text) -> the executable lines with that text
    matches: dict[tuple[str, str], list[int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            key = path.name, source[line - 1].strip()
            matches.setdefault(key, []).append(line)
            if (str(path), line) not in ran and key not in allowed:
                failures.append(f"{path.name}:{line}: never ran and is "
                                "not in the allowlist")
    for (name, source), reason in sorted(allowed.items()):
        if (name, source) not in matches:
            failures.append(f"{name}: {source}: allowlisted but matches no "
                            "executable line")
        for line in matches.get((name, source), ()):
            if (str(PACKAGE / name), line) in ran:
                failures.append(f"{name}:{line}: allowlisted but ran "
                                f"({reason})")
    return failures


def read_child_lines(directory: Path) -> set[tuple[str, int]]:
    """The ``(file, line)`` pairs that child processes wrote to
    ``directory``, one ``line<TAB>path`` row each."""
    ran = set()
    for path in directory.iterdir():
        for row in path.read_text(encoding="utf-8").splitlines():
            line, _, name = row.partition("\t")
            ran.add((name, int(line)))
    return ran


def main(argv: list[str]) -> int:
    import pytest

    _FILES.update(str(p) for p in PACKAGE.glob("*.py"))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as children:
        # every Python a test starts inherits these and records its lines
        os.environ["LINE_GATE_CHILD_DIR"] = children
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(CHILD), os.environ.get("PYTHONPATH")]))
        sys.settrace(_trace_calls)
        try:
            status = pytest.main(["-q", "--continue-on-collection-errors",
                                  "-p", "no:cacheprovider",
                                  str(ROOT / "tests"), *argv])
        finally:
            sys.settrace(None)
        processes = len(list(Path(children).iterdir()))
        _RAN.update(read_child_lines(Path(children)))
    print(f"line gate: the suite exited with status {int(status)} after "
          f"{time.perf_counter() - start:.1f} s; {processes} child "
          "processes recorded their lines")
    allowed, errors = read_allowlist(ALLOWLIST)
    failures = errors + gate(_RAN, allowed)
    for failure in failures:
        print(f"line gate: {failure}")
    total = sum(len(executable_lines(p)) for p in PACKAGE.glob("*.py"))
    print(f"line gate: {len({l for l in _RAN if l[0] in _FILES})} of {total} "
          f"executable lines ran, {len(allowed)} allowlisted, "
          f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
