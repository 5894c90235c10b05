"""Generator of the standing diagram corpus, ``diagram_corpus.json``.

Every record is one link diagram drawn from SEED: the trace or plat
closure of a B1-B8 word of 0-14 letters, or that closure after each of
1-5 seeded Reidemeister moves.  A record names how its diagram was made
and stores a short hash of each output that the diagram layers compute
from it: the diagram's text, its faces, every move's site list, every
move applied at a seeded site, its component edge sets and, up to
BRACKET_CROSSINGS crossings, its Kauffman bracket.

``test_diagram_corpus.py`` rebuilds the records and compares them with
the file.  The file pins the outputs of a known-good tree: when a change
alters one, mend the program, never the file.  Regenerate it only for a
deliberate change of output, and then name every changed record and why
in CHANGES.md.  To regenerate:

    PYTHONPATH=src python tests/diagram_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from knit.braid import BraidWord
from knit.diagram import closure_plat, closure_trace
from knit.jones import kauffman_bracket
from knit.reidemeister import _faces, apply_reidemeister, reidemeister_sites

SEED = 2028
CHAINS = 260
BRACKET_CROSSINGS = 12
MOVES = ("RI+", "RI-", "RII+", "RII-", "RIII")
FIELDS = ("recipe", "pd", "faces", "sites", "moved", "components", "bracket")
PATH = Path(__file__).with_name("diagram_corpus.json")


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


def _record(recipe: str, d, rng: random.Random) -> tuple[list, dict]:
    """The record of ``d``, and each move applied at its seeded site as
    move -> (site index, diagram)."""
    sites = {m: reidemeister_sites(d, m) for m in MOVES}
    moved = {}
    for move in MOVES:
        if sites[move]:
            k = rng.randrange(len(sites[move]))
            moved[move] = (k, apply_reidemeister(d, move, sites[move][k]))
    bracket = None
    if d.crossing_count() <= BRACKET_CROSSINGS:
        bracket = kauffman_bracket(d).terms
    row = [
        recipe,
        _digest(d.to_text()),
        _digest(_faces(d)),
        _digest([[(s.move, s.data) for s in sites[m]] for m in MOVES]),
        _digest([moved[m][1].to_text() if m in moved else None for m in MOVES]),
        _digest([sorted(s) for s in d.component_edge_sets()]),
        _digest(bracket),
    ]
    return row, moved


def records() -> list[list]:
    """All records, in the order of the file: each chain's closure, then
    the diagram after each of its moves, where every move is one of the
    record's seeded applications."""
    rng = random.Random(SEED)
    out = []
    for _ in range(CHAINS):
        n = rng.randint(1, 8)
        length = rng.randint(0, 14) if n > 1 else 0
        letters = tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length))
        w = BraidWord(n, letters)
        plat = n % 2 == 0 and rng.random() < 0.5
        d = closure_plat(w) if plat else closure_trace(w)
        recipe = f"{'plat' if plat else 'trace'} B{n} [{w}]"
        steps = rng.randint(1, 5)
        for step in range(steps + 1):
            row, moved = _record(recipe, d, rng)
            out.append(row)
            if step < steps:
                move = rng.choice(sorted(moved))
                k, d = moved[move]
                recipe += f" | {move} {k}"
    return out


def main():
    rows = records()
    lines = ",\n".join(json.dumps(row) for row in rows)
    header = json.dumps({"seed": SEED, "fields": FIELDS})[:-1]
    PATH.write_text(f'{header}, "records": [\n{lines}\n]}}\n')
    print(f"wrote {len(rows)} records to {PATH.name}")


if __name__ == "__main__":
    main()
