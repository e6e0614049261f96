"""Run the README's CLI chain on one source tree and print a digest of its outputs.

    python scripts/chain_digest.py [--tree PATH] > digest.txt

The chain is the README's CLI walkthrough block, taken from the tree's own
README: gen-data on the desk profile at seed 42, the three configs it writes
and the stages that use them, ensemble with --members 10. bash runs the
block in a temporary directory with PYTHONPATH=<tree>/src and one BLAS
thread. Each output line is `sha256  relpath` for one file the chain wrote.
run_manifest.json is hashed with each entry's wall time and the hashes that
cover it (elapsed_s, hash, prev_hash) masked, so two runs of the same code
print the same lines. Compare two trees with diff:

    python scripts/chain_digest.py --tree ../parent > parent.txt
    python scripts/chain_digest.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

MASKED = ("elapsed_s", "hash", "prev_hash")


def readme_chain(tree: Path) -> str:
    """The README's fenced bash block that runs gen-data."""
    blocks = re.findall(r"```bash\n(.*?)```", (tree / "README.md").read_text(), re.S)
    chains = [b for b in blocks if "gnssfsl.cli gen-data" in b]
    if len(chains) != 1:
        raise SystemExit(f"{tree / 'README.md'}: expected one bash block that runs gen-data")
    return chains[0]


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "run_manifest.json":
        manifest = json.loads(data)
        for entry in manifest["stages"]:
            entry.update({key: None for key in MASKED})
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tree", type=Path, default=Path(__file__).resolve().parent.parent,
        help="source tree whose src/ and README.md to run (default: this checkout)",
    )
    tree = parser.parse_args(argv).tree.resolve()
    env = {
        **os.environ,
        "PYTHONPATH": str(tree / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        # The block runs `python`: make it this interpreter.
        "PATH": os.pathsep.join([str(Path(sys.executable).parent), os.environ.get("PATH", "")]),
    }
    with tempfile.TemporaryDirectory(prefix="chain_digest_") as work:
        subprocess.run(
            ["bash", "-euo", "pipefail", "-c", readme_chain(tree)],
            cwd=work, env=env, stdout=sys.stderr, check=True,
        )
        for path in sorted(p for p in Path(work).rglob("*") if p.is_file()):
            print(f"{digest(path)}  {path.relative_to(work)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
