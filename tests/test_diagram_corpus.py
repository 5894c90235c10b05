"""The standing diagram corpus: each record of ``diagram_corpus.json``
is rebuilt from its seed and must match the file field by field.

The file was written once from a known-good tree by
``diagram_corpus.py``.  A change that alters an output of the diagram
layers must show up here: mend the program, never the file.
"""

import json

from diagram_corpus import FIELDS, PATH, SEED, records


def test_every_record_matches_the_corpus():
    pinned = json.loads(PATH.read_text())
    assert (pinned["seed"], pinned["fields"]) == (SEED, list(FIELDS))
    rows = records()
    assert len(rows) == len(pinned["records"]) >= 1000
    changed = [
        f"{got[0]} ({', '.join(f for f, a, b in zip(FIELDS, got, want) if a != b)})"
        for got, want in zip(rows, pinned["records"])
        if got != want
    ]
    assert not changed, f"{len(changed)} records changed, first: " + "; ".join(changed[:5])
