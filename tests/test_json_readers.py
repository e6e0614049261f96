"""Each JSON document the pipeline reads refuses nesting past the recursion
limit with a ValueError that names it, as it refuses any other malformed
document. The checkpoint header's case is in test_nncore.py's malformed-file
test."""

import pytest

from jsonfuzz import DEEP_JSON
from gnssfsl import cli, fsl, spectro

DEEP = DEEP_JSON.decode()


def _deep_file(path):
    path.write_text(DEEP)
    return path


@pytest.mark.parametrize(
    "read, what",
    [
        (lambda d: fsl.TrainConfig.from_json(DEEP), "config"),
        (lambda d: fsl.SimilarityMap.from_json(DEEP), "similarity map"),
        (
            lambda d: spectro.load_corpus(_deep_file(d / "manifest.json"), load_images=False),
            "manifest.json: corpus manifest",
        ),
        (
            lambda d: cli._load_manifest(_deep_file(d / "run_manifest.json").parent),
            "run_manifest.json: run manifest",
        ),
        (lambda d: cli._parse_counts(DEEP), "--counts"),
    ],
    ids=["config", "similarity-map", "corpus-manifest", "run-manifest", "counts"],
)
def test_deep_document_raises_value_error(tmp_path, read, what):
    with pytest.raises(ValueError, match="recursion") as info:
        read(tmp_path)
    assert what in str(info.value)
