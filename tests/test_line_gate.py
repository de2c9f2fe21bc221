import line_gate


def test_gate_fails_on_unreached_reached_and_stale_lines():
    files = sorted(line_gate.PACKAGE.glob("*.py"))
    ran = {(str(p), line) for p in files for line in line_gate.executable_lines(p)}
    core = line_gate.PACKAGE / "core.py"
    unreached, reached = sorted(line_gate.executable_lines(core))[-2:]
    ran.discard((str(core), unreached))
    allowed = {("core.py", reached): "runs", ("core.py", 10**6): "gone",
               ("nothing.py", 1): "no such file"}
    assert line_gate.gate(ran, allowed) == [
        f"core.py:{unreached}: never ran and is not in the allowlist",
        f"core.py:{reached}: allowlisted but ran (runs)",
        "core.py:1000000: allowlisted but not an executable line",
        "nothing.py:1: allowlisted but not an executable line",
    ]
    allowed = {("core.py", unreached): "a reason"}
    assert line_gate.gate(ran, allowed) == []


def test_allowlist_entries_need_a_line_and_a_reason(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("# comment\n\ncli.py:5  runs only as a script\n"
                    "cli.py:6\ncli.py  no line\n")
    allowed, errors = line_gate.read_allowlist(path)
    assert allowed == {("cli.py", 5): "runs only as a script"}
    assert errors == [
        "allow.txt:4: expected 'file:line  reason', got 'cli.py:6'",
        "allow.txt:5: expected 'file:line  reason', got 'cli.py  no line'",
    ]


def test_committed_allowlist_is_well_formed():
    allowed, errors = line_gate.read_allowlist(line_gate.ALLOWLIST)
    assert errors == [] and allowed
