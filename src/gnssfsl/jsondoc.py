"""The one JSON reader: every document the pipeline reads is parsed, and
refused with ValueError, here."""

import json


def parse(text: str | bytes, what: str, kind: type = dict):
    """The JSON document `text` (bytes are UTF-8), which must be a `kind` (dict
    or list). Bytes that are not UTF-8, invalid JSON, nesting past the
    recursion limit or another top-level type raises ValueError naming `what`."""
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{what}: {exc}") from None
    except RuntimeError:  # the recursion limit: json raises no other RuntimeError
        raise ValueError(f"{what} nests deeper than the recursion limit") from None
    return expect(doc, what, kind)


def expect(doc, what: str, kind: type = dict):
    """`doc` if it is a `kind`, else ValueError naming `what`."""
    if not isinstance(doc, kind):
        noun = "object" if kind is dict else "list"
        raise ValueError(f"{what} must be a JSON {noun}, got {type(doc).__name__}")
    return doc
