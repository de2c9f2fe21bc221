"""Line gate: every executable line of ``src/perisurf`` runs under Tier-1.

Runs the Tier-1 suite in this process under a ``sys.settrace`` line
recorder, then compares the lines of ``src/perisurf`` that never ran with
the allowlist ``tests/line_gate_allowlist.txt``, one ``file:line  reason``
entry per line.  The gate fails when a line did not run and is not
allowlisted, and also when an allowlisted line ran or is no longer
executable, so the list cannot go stale.  The suite's own outcome is
Tier-1's business and does not change the verdict.

Executable lines are the line numbers of the bytecode of each module and
of every code object nested in it, so they depend on the Python version;
the allowlist is kept for Python 3.11.  Subprocesses and threads are
not traced.

Run from the repository root; extra arguments go to pytest::

    PYTHONPATH=src python tests/line_gate.py

The recorder is two module-level functions over two module-level sets and
holds no closure, so tracing leaves no reference cycle behind (a test
counts the garbage that a census leaves to the cycle collector).
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "perisurf"
ALLOWLIST = ROOT / "tests" / "line_gate_allowlist.txt"

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


def read_allowlist(path: Path) -> tuple[dict[tuple[str, int], str], list[str]]:
    """``{(file name, line): reason}`` and the malformed entries."""
    allowed: dict[tuple[str, int], str] = {}
    errors: list[str] = []
    for n, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        text = text.strip()
        if not text or text.startswith("#"):
            continue
        where, _, reason = text.partition(" ")
        name, _, line = where.partition(":")
        if not (line.isdecimal() and reason.strip()):
            errors.append(f"{path.name}:{n}: expected 'file:line  reason', "
                          f"got {text!r}")
            continue
        allowed[name, int(line)] = reason.strip()
    return allowed, errors


def gate(ran: set[tuple[str, int]], allowed: dict[tuple[str, int], str]
         ) -> list[str]:
    """Every failure of the gate, for the package files and lines run."""
    failures = []
    executable = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        executable[path.name] = lines
        for line in sorted(lines):
            if (str(path), line) not in ran and (path.name, line) not in allowed:
                failures.append(f"{path.name}:{line}: never ran and is "
                                "not in the allowlist")
    for (name, line), reason in sorted(allowed.items()):
        if line not in executable.get(name, ()):
            failures.append(f"{name}:{line}: allowlisted but not an "
                            "executable line")
        elif (str(PACKAGE / name), line) in ran:
            failures.append(f"{name}:{line}: allowlisted but ran ({reason})")
    return failures


def main(argv: list[str]) -> int:
    import pytest

    _FILES.update(str(p) for p in PACKAGE.glob("*.py"))
    sys.settrace(_trace_calls)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors",
                              "-p", "no:cacheprovider", str(ROOT / "tests"),
                              *argv])
    finally:
        sys.settrace(None)
    print(f"line gate: the suite exited with status {int(status)}")
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
