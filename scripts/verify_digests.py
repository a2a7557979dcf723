"""Run each command CI checks outside pytest under ``-W error``, and
print one sha256 per command: one per (n, seed) of ``verify --suite
all``'s output, and one per one-point command at n = 3 and 12.

For n = 2..12 and seeds 0, 3 and 7 it runs, one at a time,

    python -W error -m toda_atlas.cli verify --suite all --n N --seed S --out DIR

with DIR a fresh temporary directory, and hashes the run's artifacts
(each file's name and bytes, in name order), its stdout and its exit
code. Then, for n = 3 and 12, it writes seeded inputs with SRC's own
``sampling`` and hashes the same way each one-point command, also run
as ``python -W error -m toda_atlas.cli``: ``flow`` of the sorting field
from a symmetric start, of the symmetrization field from a fiber start
and of the sorting field from a general start; ``chart --forward`` with
and without ``--h``; ``chart --inverse``; ``factorize --kind kan`` and
``--kind unbar``; and ``cells``. Two source trees that print the same
lines wrote byte-identical artifacts over the whole grid and every
one-point command; the first line names the Python and numpy that made
the digests, since another build can move last bits.

Usage: python scripts/verify_digests.py [SRC]
       python scripts/verify_digests.py --against REV

SRC is the directory put on PYTHONPATH, by default this checkout's
``src``. Without ``--against`` the script prints every line, then names
on stderr each command that exited nonzero (a warning of any kind fails
a command, as pytest's ``filterwarnings = ["error"]`` fails a test) and
exits 1 if any did, else 0; the tier-1 workflow runs it so on every
push. With ``--against REV`` the script exports REV's ``src`` with
``git archive`` into a temporary directory, hashes that tree and this
checkout's ``src``, prints each line that differs (REV's line, then this
tree's) and exits 1 on any difference, 0 when every line is equal. Each
side checks first that its child processes import ``toda_atlas`` from
its own tree, not from an installed copy.
"""

import argparse
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIZES = range(2, 13)
SEEDS = (0, 3, 7)
ONE_POINT_SIZES = (3, 12)
CLI = ["-m", "toda_atlas.cli"]

# The seeded inputs of the one-point commands, each set from a generator
# of its own: the flow starts (a symmetric one, a fiber one and a general
# one), then a flag point, chart coordinates, a unit lower and a special
# orthogonal matrix; it prints the seeded chart's w and h
INPUTS = (
    "import sys, numpy as np; "
    "from toda_atlas import sampling as s, serialization as io; "
    "n = int(sys.argv[1]); h = s.default_spectrum(n); rng = s.rng_from_seed(7); "
    "io.write_matrix(sys.argv[2], s.random_symmetric_with_spectrum(h, rng)); "
    "io.write_matrix(sys.argv[3], h.diag() + np.triu(rng.standard_normal((n, n)), 1)); "
    "io.write_matrix(sys.argv[4], h.diag() + np.tril(rng.standard_normal((n, n)), -1)"
    " + 0.5 * np.triu(rng.standard_normal((n, n)), 1)); "
    "rng = s.rng_from_seed(7); w = s.random_permutation(n, rng); "
    "io.write_matrix(sys.argv[5], s.random_symmetric_with_spectrum(h, rng)); "
    "io.write_matrix(sys.argv[6], s.random_chart_coords(w, h, rng).lower); "
    "io.write_matrix(sys.argv[7], s.random_unit_lower(n, rng)); "
    "io.write_matrix(sys.argv[8], s.random_special_orthogonal(n, rng)); "
    'print(",".join(map(str, w.images)), ",".join(map(repr, h.values)))'
)


def python(src: Path, args: list) -> subprocess.CompletedProcess:
    """Run this Python under ``-W error`` with SRC on PYTHONPATH and no
    output directory set."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("TODA_ATLAS_OUT", None)
    return subprocess.run([sys.executable, "-W", "error", *args], env=env, capture_output=True)


def digest(src: Path, args: list):
    """``(sha256, run)``: the digest of one command's artifacts, stdout and
    exit code, the command run with ``--out`` a fresh temporary directory,
    and the completed run."""
    with tempfile.TemporaryDirectory() as out:
        run = python(src, [*args, "--out", out])
        sha = hashlib.sha256()
        for path in sorted(Path(out).iterdir()):
            sha.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    sha.update(run.stdout + b"\0" + str(run.returncode).encode())
    return sha.hexdigest(), run


def one_point_commands(src: Path, n: int, tmp: Path) -> list:
    """(name, argv) of each one-point command at size n, its inputs written
    into tmp."""
    kinds = ("toda", "sym", "general", "point", "coords", "lower", "rotation")
    paths = [tmp / f"{kind}.json" for kind in kinds]
    run = python(src, ["-c", INPUTS, str(n), *map(str, paths)])
    if run.returncode != 0:
        sys.exit(f"writing the inputs at n = {n} failed:\n{run.stderr.decode()}")
    w, h = run.stdout.decode().split()
    *starts, point, coords, lower, rotation = (str(path) for path in paths)
    flows = [
        (f"flow-{kind}", [*CLI, "flow", "--field", field, "--x0", start])
        for kind, field, start in zip(kinds, ("toda", "sym", "toda"), starts)
    ]
    return flows + [
        ("chart-forward", [*CLI, "chart", "--w", w, "--h", h, "--forward", point]),
        ("chart-forward-noh", [*CLI, "chart", "--w", w, "--forward", point]),
        ("chart-inverse", [*CLI, "chart", "--w", w, "--h", h, "--inverse", coords]),
        ("factorize-kan", [*CLI, "factorize", "--kind", "kan", "--input", lower]),
        ("factorize-unbar", [*CLI, "factorize", "--kind", "unbar", "--input", rotation]),
        ("cells", [*CLI, "cells", "--w", w, "--h", h]),
    ]


def commands(src: Path):
    """(label, argv) of each command the script hashes, in line order: the
    verify grid, then the one-point commands of each size, whose inputs
    stay on disk until the next size's are written."""
    for n in SIZES:
        for seed in SEEDS:
            verify = [*CLI, "verify", "--suite", "all", "--n", str(n), "--seed", str(seed)]
            yield f"n={n} seed={seed}", verify
    for n in ONE_POINT_SIZES:
        with tempfile.TemporaryDirectory() as tmp:
            for name, args in one_point_commands(src, n, Path(tmp)):
                yield f"n={n} {name}", args


def require_own_package(src: Path) -> None:
    """Exit unless a child with SRC on PYTHONPATH imports toda_atlas from
    SRC (an installed copy could otherwise shadow it)."""
    run = python(src, ["-c", "import toda_atlas; print(toda_atlas.__file__)"])
    if run.returncode != 0:
        sys.exit(f"a child with {src} on PYTHONPATH cannot import toda_atlas:\n"
                 f"{run.stderr.decode()}")
    found = Path(run.stdout.decode().strip()).resolve()
    if not found.is_relative_to(src):
        sys.exit(f"a child with {src} on PYTHONPATH imports toda_atlas from {found}, not from it")


def lines(src: Path):
    """(line, run) of each output line for the tree SRC: the header, with
    run None, then one line per command, with its completed run."""
    require_own_package(src)
    yield f"# python {platform.python_version()} numpy {np.__version__}", None
    for label, args in commands(src):
        sha, run = digest(src, args)
        yield f"{label} {sha}", run


def plain(src: Path) -> int:
    """Print each line for the tree SRC, then name on stderr each command
    that exited nonzero, with the last line of its stderr. Returns the
    exit code: 1 if any command failed, else 0."""
    failed = []
    for line, run in lines(src):
        print(line, flush=True)
        if run is not None and run.returncode != 0:
            last = run.stderr.decode().strip().rpartition("\n")[2]
            failed.append(f"  {line.rpartition(' ')[0]}: exit {run.returncode} {last}".rstrip())
    if failed:
        print("commands that exited nonzero:", *failed, sep="\n", file=sys.stderr)
    return 1 if failed else 0


def against(rev: str, src: Path) -> int:
    """Hash REV's src and SRC; print the lines that differ. Returns the
    exit code: 1 on any difference, else 0."""
    root = Path(__file__).resolve().parents[1]
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=root, capture_output=True)
    if archive.returncode != 0:
        sys.exit(f"git archive {rev} failed:\n{archive.stderr.decode()}")
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        theirs = [line for line, _ in lines(Path(tmp).resolve() / "src")]
    ours = [line for line, _ in lines(src)]
    differ = [(a, b) for a, b in zip(theirs, ours) if a != b]
    for a, b in differ:
        print(f"{rev}: {a}\nthis tree: {b}")
    if len(theirs) != len(ours):
        print(f"{rev} printed {len(theirs)} lines, this tree {len(ours)}")
        return 1
    print(f"{len(ours) - len(differ)} of {len(ours)} lines equal against {rev} ({ours[0][2:]})")
    return 1 if differ else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", type=Path, default=Path(__file__).parents[1] / "src")
    parser.add_argument("--against", metavar="REV", help="compare with the src of this revision")
    args = parser.parse_args()
    src = args.src.resolve()
    sys.exit(plain(src) if args.against is None else against(args.against, src))


if __name__ == "__main__":
    main()
