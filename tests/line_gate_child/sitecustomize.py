"""Line recorder for the child interpreters of a line-gate run.

``tests/line_gate.py`` puts this directory on ``PYTHONPATH`` and names an
output directory in ``LINE_GATE_CHILD_DIR``, so that every Python process a
test starts imports this module at startup.  With the variable unset the
module does nothing.  With it set, the process records which lines of
``src/perisurf`` run and, at exit, writes them to a file of its own in that
directory, as ``line<TAB>path`` rows.  It prints nothing and
imports nothing from ``perisurf``, so the imports and the output that the
tests check are the child's own.
"""

import os
import sys
import time

_OUT = os.environ.get("LINE_GATE_CHILD_DIR")


def _trace_lines(frame, event, arg):
    if event == "line":
        _RAN.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    # the global trace function: trace lines only in the package's frames
    if frame.f_code.co_filename in _FILES:
        return _trace_lines
    return None


def _write():
    sys.settrace(None)
    # a process id can come back later in the run; the clock tells them apart
    path = os.path.join(_OUT, f"{os.getpid()}-{time.monotonic_ns()}.txt")
    with open(path, "x", encoding="utf-8") as fh:
        fh.writelines(f"{line}\t{name}\n" for name, line in _RAN)


if _OUT:
    import atexit

    _PACKAGE = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.realpath(__file__)))), "src", "perisurf")
    _FILES = {os.path.join(_PACKAGE, name) for name in os.listdir(_PACKAGE)
              if name.endswith(".py")}
    _RAN = set()
    atexit.register(_write)
    sys.settrace(_trace_calls)
