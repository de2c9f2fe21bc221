import os
import subprocess
import sys
from pathlib import Path

import line_gate
import pytest

SOURCE = "def f(x):\n    if x:\n        return 1\n    return 2\n"


@pytest.fixture
def package(tmp_path, monkeypatch):
    """A one-module package ``mod.py`` for the gate to check."""
    monkeypatch.setattr(line_gate, "PACKAGE", tmp_path)
    return tmp_path / "mod.py"


def ran_except(path, *texts):
    """Every executable line of ``path`` but those with one of ``texts``."""
    source = path.read_text().splitlines()
    return {(str(path), line) for line in line_gate.executable_lines(path)
            if source[line - 1].strip() not in texts}


def test_gate_fails_on_unreached_reached_and_stale_lines(package):
    package.write_text(SOURCE)
    ran = ran_except(package, "return 1")
    allowed = {("mod.py", "return 2"): "runs", ("mod.py", "return 3"): "gone",
               ("nothing.py", "x = 1"): "no such file"}
    assert line_gate.gate(ran, allowed) == [
        "mod.py:3: never ran and is not in the allowlist",
        "mod.py:4: allowlisted but ran (runs)",
        "mod.py: return 3: allowlisted but matches no executable line",
        "nothing.py: x = 1: allowlisted but matches no executable line",
    ]
    allowed = {("mod.py", "return 1"): "a reason"}
    assert line_gate.gate(ran, allowed) == []


def test_entry_survives_edits_above_its_line(package):
    allowed = {("mod.py", "return 1"): "a reason"}
    for prefix in ("", "import os\n\n\n", "import os\n"):
        package.write_text(prefix + SOURCE)
        assert line_gate.gate(ran_except(package, "return 1"), allowed) == []


def test_entry_covers_every_line_with_its_text(package):
    package.write_text(SOURCE + "\n\ndef g(x):\n    if x:\n        return 1\n")
    allowed = {("mod.py", "return 1"): "a reason"}
    assert line_gate.gate(ran_except(package, "return 1"), allowed) == []
    ran = ran_except(package, "return 1") | {(str(package), 3)}
    assert line_gate.gate(ran, allowed) == [
        "mod.py:3: allowlisted but ran (a reason)"]


def test_allowlist_entries_need_a_line_and_a_reason(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("# comment\n\n"
                    "cli.py: sys.exit(main()) -- runs only as a script\n"
                    "cli.py: x = a\ncli.py -- no source\ncli.py: -- none\n")
    allowed, errors = line_gate.read_allowlist(path)
    assert allowed == {("cli.py", "sys.exit(main())"): "runs only as a script"}
    assert errors == [
        "allow.txt:4: expected 'file: source -- reason', got 'cli.py: x = a'",
        "allow.txt:5: expected 'file: source -- reason', "
        "got 'cli.py -- no source'",
        "allow.txt:6: expected 'file: source -- reason', "
        "got 'cli.py: -- none'",
    ]


def test_committed_allowlist_is_well_formed():
    allowed, errors = line_gate.read_allowlist(line_gate.ALLOWLIST)
    assert errors == []
    # every entry names an executable line of the package as it is now
    assert [failure for failure in line_gate.gate(set(), allowed)
            if "matches no executable line" in failure] == []



@pytest.mark.parametrize("switch", [True, False])
def test_child_interpreter_records_package_lines(tmp_path, switch):
    out = tmp_path / "lines"
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(line_gate.CHILD), str(line_gate.PACKAGE.parent)]))
    env.pop("LINE_GATE_CHILD_DIR", None)
    if switch:
        env["LINE_GATE_CHILD_DIR"] = str(out)
    code = ("import sys, perisurf.core\n"
            "print(sorted(m for m in sys.modules if 'perisurf' in m))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=False)
    # the recorder prints nothing and loads nothing of the package
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "['perisurf', 'perisurf.core']\n", "")
    ran = line_gate.read_child_lines(out)
    if not switch:
        assert ran == set()
        return
    files = {name for name, _ in ran}
    assert files == {str(line_gate.PACKAGE / "__init__.py"),
                     str(line_gate.PACKAGE / "core.py")}
    for name in files:
        lines = {line for n, line in ran if n == name}
        assert lines and lines <= line_gate.executable_lines(Path(name))
