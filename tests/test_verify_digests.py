"""The plain mode of scripts/verify_digests.py, which CI runs for its
warning-free runs: it prints every line, then names each command that
exited nonzero and exits 1. Stub commands stand in for the verify grid
and the one-point runs, so no command of the package runs here."""

import importlib.util
from pathlib import Path

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
