"""The two modes of scripts/verify_digests.py. The plain one, which CI
runs for its warning-free runs, prints every line, then names each
command that exited nonzero and exits 1. The ``--against REV`` one, which
CI's byte-identity job runs, compares REV's lines with this tree's. Stub
commands stand in for the verify grid and the one-point runs, and stub
lines and a stub ``git archive`` for the two trees, so no command of the
package runs here."""

import importlib.util
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "verify_digests.py"

STUBS = [
    ("exits-0", ["-c", "pass"]),
    ("exits-3", ["-c", "raise SystemExit(3)"]),
    ("warns", ["-c", "import warnings; warnings.warn('stub', RuntimeWarning)"]),
]


def load_script():
    spec = importlib.util.spec_from_file_location("verify_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_plain(monkeypatch, capsys, stubs):
    """The plain mode's exit code, stdout lines and stderr lines on stubs."""
    script = load_script()
    monkeypatch.setattr(script, "commands", lambda src: iter(stubs))
    code = script.plain(ROOT / "src")
    out, err = capsys.readouterr()
    return code, out.splitlines(), err.splitlines()


def test_names_exactly_the_failing_commands_and_exits_1(monkeypatch, capsys):
    code, printed, report = run_plain(monkeypatch, capsys, STUBS)
    assert code == 1
    # every line, the failing commands' too
    assert printed[0].startswith("# python ")
    assert [line.split()[0] for line in printed[1:]] == ["exits-0", "exits-3", "warns"]
    # -W error turns the warning into a failure
    assert report == [
        "commands that exited nonzero:",
        "  exits-3: exit 3",
        "  warns: exit 1 RuntimeWarning: stub",
    ]


def test_exits_0_and_names_nothing_when_every_command_passes(monkeypatch, capsys):
    code, printed, report = run_plain(monkeypatch, capsys, STUBS[:1])
    assert code == 0 and len(printed) == 2 and report == []


HEADER = "# python 3.x numpy 2.x"


def run_against(monkeypatch, capsys, theirs, ours, archive_code=0):
    """The ``--against REV`` mode's exit code and stdout lines, REV's tree
    printing the lines theirs and this one ours; ``git archive`` exits
    with archive_code and ``tar`` with 0."""
    script = load_script()
    src = ROOT / "src"

    def run(argv, **kwargs):
        failed = argv[0] == "git" and archive_code
        return subprocess.CompletedProcess(
            argv, archive_code if failed else 0, stdout=b"",
            stderr=b"fatal: not a valid object name: REV\n" if failed else b"",
        )

    monkeypatch.setattr(script, "subprocess", SimpleNamespace(run=run))
    monkeypatch.setattr(
        script, "lines", lambda tree: iter([(line, None) for line in (ours if tree == src else theirs)])
    )
    code = script.against("REV", src)
    return code, capsys.readouterr().out.splitlines()


def test_against_exits_0_when_every_line_is_equal(monkeypatch, capsys):
    lines = [HEADER, "n=2 seed=0 aa", "n=2 seed=3 bb"]
    code, printed = run_against(monkeypatch, capsys, lines, lines)
    assert code == 0
    assert printed == ["3 of 3 lines equal against REV (python 3.x numpy 2.x)"]


def test_against_prints_each_differing_line_and_exits_1(monkeypatch, capsys):
    theirs = [HEADER, "n=2 seed=0 aa", "n=2 seed=3 bb"]
    ours = [HEADER, "n=2 seed=0 aa", "n=2 seed=3 cc"]
    code, printed = run_against(monkeypatch, capsys, theirs, ours)
    assert code == 1
    assert printed == [
        "REV: n=2 seed=3 bb",
        "this tree: n=2 seed=3 cc",
        "2 of 3 lines equal against REV (python 3.x numpy 2.x)",
    ]


def test_against_names_both_counts_when_they_differ(monkeypatch, capsys):
    theirs = [HEADER, "n=2 seed=0 aa", "n=2 seed=3 bb"]
    code, printed = run_against(monkeypatch, capsys, theirs, theirs[:2])
    assert code == 1
    assert printed == ["REV printed 3 lines, this tree 2"]


def test_against_exits_with_the_stderr_of_a_failing_git_archive(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exited:
        run_against(monkeypatch, capsys, [HEADER], [HEADER], archive_code=128)
    assert exited.value.code == "git archive REV failed:\nfatal: not a valid object name: REV\n"
