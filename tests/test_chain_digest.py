"""scripts/chain_digest.py, checked without running a chain: the README block
it runs and the manifest fields its digest masks.

Its output is the evidence that a change leaves every chain output
byte-identical; a digest that masked too much, or a README block it no longer
found, would make that evidence empty.
"""

import argparse
import copy
import importlib.util
import json
from pathlib import Path

import pytest

from gnssfsl import cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "chain_digest.py"

MANIFEST = {
    "stages": [
        {
            "stage": "gen-data", "master_seed": 42, "profile": "desk",
            "artifacts": {"corpus": "corpus/manifest.json"},
            "elapsed_s": 1.25, "prev_hash": None, "hash": "a1",
        },
        {
            "stage": "mine", "quantile": 0.75,
            "artifacts": {"similarity_map": "similarity_map.json"},
            "elapsed_s": 0.5, "prev_hash": "a1", "hash": "b2",
        },
    ]
}
MASKED = ("elapsed_s", "hash", "prev_hash")


def _load_script():
    spec = importlib.util.spec_from_file_location("chain_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


chain_digest = _load_script()


def _digest(directory: Path, manifest: dict) -> str:
    directory.mkdir()
    path = directory / "run_manifest.json"
    path.write_text(json.dumps(manifest, indent=1))
    return chain_digest.digest(path)


def test_readme_chain_runs_every_stage():
    (subparsers,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    block = chain_digest.readme_chain(ROOT)
    for stage in subparsers.choices:
        assert f"python -m gnssfsl.cli {stage} " in block, stage


def test_readme_chain_refuses_two_gen_data_blocks(tmp_path):
    block = "```bash\npython -m gnssfsl.cli gen-data --out run\n```\n"
    (tmp_path / "README.md").write_text(block + "text\n" + block)
    with pytest.raises(SystemExit, match="expected one bash block"):
        chain_digest.readme_chain(tmp_path)


@pytest.mark.parametrize("field", MASKED)
def test_masked_fields_leave_digest_unchanged(tmp_path, field):
    changed = copy.deepcopy(MANIFEST)
    for entry in changed["stages"]:
        entry[field] = 99.5
    assert _digest(tmp_path / "a", MANIFEST) == _digest(tmp_path / "b", changed)


@pytest.mark.parametrize(
    "stage, field",
    [
        (i, field)
        for i, entry in enumerate(MANIFEST["stages"])
        for field in entry
        if field not in MASKED
    ],
)
def test_every_other_field_changes_digest(tmp_path, stage, field):
    changed = copy.deepcopy(MANIFEST)
    changed["stages"][stage][field] = "changed"
    assert _digest(tmp_path / "a", MANIFEST) != _digest(tmp_path / "b", changed)
