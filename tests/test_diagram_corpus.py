"""The standing diagram corpus: each record of ``diagram_corpus.json``
is rebuilt from its seed and must match the file field by field, and so
must each record of its coloured and exact slices, ``colored_corpus.json``
and ``exact_corpus.json``.

The files were written once from a known-good tree by
``diagram_corpus.py``.  A change that alters an output of the diagram
layers, of the coloured plat engine, of either exact Jones route or of
the normal form must show up here: mend the program, never the files.
"""

import json

from diagram_corpus import (
    COLORED_FIELDS,
    COLORED_PATH,
    EXACT_FIELDS,
    EXACT_PATH,
    FIELDS,
    FLOAT_TOL,
    PATH,
    SEED,
    colored_records,
    exact_records,
    records,
)


def _check_equal(path, fields, rows, least):
    """Every rebuilt row equals its pinned record, field by field."""
    pinned = json.loads(path.read_text())
    assert (pinned["seed"], pinned["fields"]) == (SEED, list(fields))
    assert len(rows) == len(pinned["records"]) >= least
    changed = [
        f"{got[0]} ({', '.join(f for f, a, b in zip(fields, got, want) if a != b)})"
        for got, want in zip(rows, pinned["records"])
        if got != want
    ]
    assert not changed, f"{len(changed)} records changed, first: " + "; ".join(changed[:5])


def test_every_record_matches_the_corpus():
    _check_equal(PATH, FIELDS, records(), 1000)


def test_every_exact_record_matches_the_corpus():
    _check_equal(EXACT_PATH, EXACT_FIELDS, exact_records(), 1000)


def _colored_fields_changed(got, want):
    """The fields of a coloured record that differ: its two values by
    more than FLOAT_TOL, its recipe and hash at all."""
    return [
        field
        for field, a, b in zip(COLORED_FIELDS, got, want)
        if (abs(complex(a) - complex(b)) > FLOAT_TOL if field in ("colored", "jones") else a != b)
    ]


def test_every_colored_record_matches_the_corpus():
    pinned = json.loads(COLORED_PATH.read_text())
    assert (pinned["seed"], pinned["fields"]) == (SEED, list(COLORED_FIELDS))
    rows = colored_records()
    assert len(rows) == len(pinned["records"]) >= 1000
    changed = [
        f"{got[0]} ({', '.join(fields)})"
        for got, want in zip(rows, pinned["records"])
        if (fields := _colored_fields_changed(got, want))
    ]
    assert not changed, f"{len(changed)} records changed, first: " + "; ".join(changed[:5])
