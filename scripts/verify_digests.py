"""Print one sha256 per (n, seed) of ``verify --suite all``'s output.

For n = 2..12 and seeds 0, 3 and 7 it runs, one at a time,

    python -m toda_atlas.cli verify --suite all --n N --seed S --out DIR

with DIR a fresh temporary directory, and hashes the run's JSON
artifacts (each file's name and bytes, in name order), its stdout and
its exit code. Two source trees that print the same 33 lines wrote
byte-identical artifacts over the whole grid; the first line names the
Python and numpy that made the digests, since another build can move
last bits.

Usage: python scripts/verify_digests.py [SRC]

SRC is the directory put on PYTHONPATH, by default this checkout's
``src``. To check a change against its parent, run the script once with
each tree's ``src`` and diff the two outputs.
"""

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


def digest(src: Path, n: int, seed: int) -> str:
    """sha256 of one verify run's artifacts, stdout and exit code."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("TODA_ATLAS_OUT", None)
    with tempfile.TemporaryDirectory() as out:
        run = subprocess.run(
            [sys.executable, "-m", "toda_atlas.cli", "verify", "--suite", "all",
             "--n", str(n), "--seed", str(seed), "--out", out],
            env=env, capture_output=True, check=False,
        )
        sha = hashlib.sha256()
        for path in sorted(Path(out).glob("*.json")):
            sha.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    sha.update(run.stdout + b"\0" + str(run.returncode).encode())
    return sha.hexdigest()


def main() -> None:
    src = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1] / "src").resolve()
    print(f"# python {platform.python_version()} numpy {np.__version__}")
    for n in SIZES:
        for seed in SEEDS:
            print(f"n={n} seed={seed} {digest(src, n, seed)}", flush=True)


if __name__ == "__main__":
    main()
