"""Each JSON document the pipeline reads refuses bytes that are not UTF-8,
invalid JSON and nesting past the recursion limit with a ValueError that names
it, as it refuses any other malformed document. The checkpoint header's cases
are in test_nncore.py's malformed-file test."""

import pytest

from jsonfuzz import DEEP_JSON
from gnssfsl import cli, fsl, spectro

DEEP = DEEP_JSON.decode()


def _file(path, text):
    path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    return path


# The documents read from files; --counts comes from the command line.
FILES = [
    (lambda d, text: fsl.TrainConfig.from_json(text), "config"),
    (lambda d, text: fsl.SimilarityMap.from_json(text), "similarity map"),
    (
        lambda d, text: spectro.load_corpus(_file(d / "manifest.json", text)),
        "manifest.json: corpus manifest",
    ),
    (
        lambda d, text: cli._load_manifest(_file(d / "run_manifest.json", text).parent),
        "run_manifest.json: run manifest",
    ),
]
FILE_IDS = ["config", "similarity-map", "corpus-manifest", "run-manifest"]
READERS = pytest.mark.parametrize(
    "read, what",
    FILES + [(lambda d, text: cli._parse_counts(text), "--counts")],
    ids=FILE_IDS + ["counts"],
)


@READERS
def test_deep_document_raises_value_error(tmp_path, read, what):
    with pytest.raises(ValueError, match="recursion") as info:
        read(tmp_path, DEEP)
    assert what in str(info.value)


@READERS
def test_invalid_json_raises_value_error_naming_the_document(tmp_path, read, what):
    # json.JSONDecodeError is a ValueError too, but its message names no document.
    with pytest.raises(ValueError) as info:
        read(tmp_path, "not json")
    assert type(info.value) is ValueError
    assert str(info.value).endswith(f"{what}: Expecting value: line 1 column 1 (char 0)")


@pytest.mark.parametrize("read, what", FILES, ids=FILE_IDS)
def test_non_utf8_document_raises_value_error_naming_it(tmp_path, read, what):
    # UnicodeDecodeError is a ValueError too, but its message names no document.
    with pytest.raises(ValueError) as info:
        read(tmp_path, b"\xff\xfe")
    assert type(info.value) is ValueError
    assert str(info.value).endswith(
        f"{what}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    )
