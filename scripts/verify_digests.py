"""Print one sha256 per (n, seed) of ``verify --suite all``'s output, and
one per one-point command CI runs at n = 3 and 12.

For n = 2..12 and seeds 0, 3 and 7 it runs, one at a time,

    python -m toda_atlas.cli verify --suite all --n N --seed S --out DIR

with DIR a fresh temporary directory, and hashes the run's artifacts
(each file's name and bytes, in name order), its stdout and its exit
code. Then, for n = 3 and 12, it writes the seeded inputs of the tier-1
workflow's one-point steps with the same code as the workflow, run on
SRC's own ``sampling``, and hashes the same way each command of those
steps, run as the workflow runs it, under ``-W error``: ``flow`` of the
sorting field from the symmetric start, of the symmetrization field
from the fiber start and of the sorting field from the general start;
``chart --forward`` with and without ``--h``; ``chart --inverse``;
``factorize --kind kan`` and ``--kind unbar``; and ``cells``. Two source
trees that print the same lines wrote byte-identical artifacts over the
whole grid and every one-point command; the first line names the Python
and numpy that made the digests, since another build can move last
bits.

Usage: python scripts/verify_digests.py [SRC]
       python scripts/verify_digests.py --against REV

SRC is the directory put on PYTHONPATH, by default this checkout's
``src``. With ``--against REV`` the script exports REV's ``src`` with
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

# The tier-1 workflow's input code, piece by piece: the flow starts (a
# symmetric one, a fiber one and a general one) ...
FLOW_INPUTS = (
    "import sys, numpy as np; "
    "from toda_atlas import sampling as s, serialization as io; "
    "n = int(sys.argv[1]); h = s.default_spectrum(n); rng = s.rng_from_seed(7); "
    "io.write_matrix(sys.argv[2], s.random_symmetric_with_spectrum(h, rng)); "
    "io.write_matrix(sys.argv[3], h.diag() + np.triu(rng.standard_normal((n, n)), 1)); "
    "io.write_matrix(sys.argv[4], h.diag() + np.tril(rng.standard_normal((n, n)), -1)"
    " + 0.5 * np.triu(rng.standard_normal((n, n)), 1))"
)
# ... and a flag point, chart coordinates, a unit lower and a special
# orthogonal matrix, printing the seeded chart's w and h
POINT_INPUTS = (
    "import sys, numpy as np; "
    "from toda_atlas import sampling as s, serialization as io; "
    "n = int(sys.argv[1]); h = s.default_spectrum(n); rng = s.rng_from_seed(7); "
    "w = s.random_permutation(n, rng); "
    "io.write_matrix(sys.argv[2], s.random_symmetric_with_spectrum(h, rng)); "
    "io.write_matrix(sys.argv[3], s.random_chart_coords(w, h, rng).lower); "
    "io.write_matrix(sys.argv[4], s.random_unit_lower(n, rng)); "
    "io.write_matrix(sys.argv[5], s.random_special_orthogonal(n, rng)); "
    'print(",".join(map(str, w.images)), ",".join(map(repr, h.values)))'
)


def python(src: Path, args: list) -> subprocess.CompletedProcess:
    """Run this Python with SRC on PYTHONPATH and no output directory set."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("TODA_ATLAS_OUT", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, check=False)


def digest(src: Path, args: list) -> str:
    """sha256 of one command's artifacts, stdout and exit code, the command
    run with ``--out`` a fresh temporary directory."""
    with tempfile.TemporaryDirectory() as out:
        run = python(src, [*args, "--out", out])
        sha = hashlib.sha256()
        for path in sorted(Path(out).iterdir()):
            sha.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    sha.update(run.stdout + b"\0" + str(run.returncode).encode())
    return sha.hexdigest()


def inputs(src: Path, code: str, n: int, paths: list) -> str:
    """Write one set of seeded inputs at size n; returns what the code prints."""
    run = python(src, ["-c", code, str(n), *map(str, paths)])
    if run.returncode != 0:
        sys.exit(f"writing the inputs at n = {n} failed:\n{run.stderr.decode()}")
    return run.stdout.decode()


def one_point_commands(src: Path, n: int, tmp: Path) -> list:
    """(name, argv) of each one-point command at size n, its inputs written
    into tmp."""
    starts = [tmp / f"{kind}.json" for kind in ("toda", "sym", "general")]
    inputs(src, FLOW_INPUTS, n, starts)
    point, coords, lower, rotation = (
        tmp / f"{kind}.json" for kind in ("point", "coords", "lower", "rotation")
    )
    w, h = inputs(src, POINT_INPUTS, n, [point, coords, lower, rotation]).split()
    cli = ["-W", "error", "-m", "toda_atlas.cli"]
    flows = [
        (f"flow-{start.stem}", [*cli, "flow", "--field", field, "--x0", str(start)])
        for field, start in zip(("toda", "sym", "toda"), starts)
    ]
    return flows + [
        ("chart-forward", [*cli, "chart", "--w", w, "--h", h, "--forward", str(point)]),
        ("chart-forward-noh", [*cli, "chart", "--w", w, "--forward", str(point)]),
        ("chart-inverse", [*cli, "chart", "--w", w, "--h", h, "--inverse", str(coords)]),
        ("factorize-kan", [*cli, "factorize", "--kind", "kan", "--input", str(lower)]),
        ("factorize-unbar", [*cli, "factorize", "--kind", "unbar", "--input", str(rotation)]),
        ("cells", [*cli, "cells", "--w", w, "--h", h]),
    ]


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
    """Each output line of the script for the tree SRC, the header first."""
    require_own_package(src)
    yield f"# python {platform.python_version()} numpy {np.__version__}"
    for n in SIZES:
        for seed in SEEDS:
            verify = ["-m", "toda_atlas.cli", "verify", "--suite", "all",
                      "--n", str(n), "--seed", str(seed)]
            yield f"n={n} seed={seed} {digest(src, verify)}"
    for n in ONE_POINT_SIZES:
        with tempfile.TemporaryDirectory() as tmp:
            for name, args in one_point_commands(src, n, Path(tmp)):
                yield f"n={n} {name} {digest(src, args)}"


def against(rev: str, src: Path) -> int:
    """Hash REV's src and SRC; print the lines that differ. Returns the
    exit code: 1 on any difference, else 0."""
    root = Path(__file__).resolve().parents[1]
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=root, capture_output=True)
    if archive.returncode != 0:
        sys.exit(f"git archive {rev} failed:\n{archive.stderr.decode()}")
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        theirs = list(lines(Path(tmp).resolve() / "src"))
    ours = list(lines(src))
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
    if args.against is not None:
        sys.exit(against(args.against, src))
    for line in lines(src):
        print(line, flush=True)


if __name__ == "__main__":
    main()
