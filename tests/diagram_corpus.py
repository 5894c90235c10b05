"""Generator of the standing diagram corpus, ``diagram_corpus.json``,
and of its coloured and exact slices, ``colored_corpus.json`` and
``exact_corpus.json``.

Every record is one link diagram drawn from SEED: the trace or plat
closure of a B1-B8 word of 0-14 letters, or that closure after each of
1-5 seeded Reidemeister moves.  A record names how its diagram was made
and stores a short hash of each output that the diagram layers compute
from it: the diagram's text, its faces, every move's site list, every
move applied at a seeded site, its component edge sets and, up to
BRACKET_CROSSINGS crossings, its Kauffman bracket.

Every record of the coloured slice is one seeded B2-B8 plat closure
with one colour of spin 1/2 to 3/2 per component, at a root r = 5..12.
It stores ``colored_invariant`` and ``jones_value_from_plat`` as
``repr`` (compared within FLOAT_TOL) and a short hash of the ``_twist``
gather indices that the coloured contraction reads, letter by letter.

The exact slice has two kinds of record.  Each Jones record is a seeded
B1-B8 word of 0-12 letters, with short hashes of the Jones polynomial
of its trace closure by the state sum, of the same polynomial by the
Temperley-Lieb route (``markov_trace_jones``), of its plat closure's
Jones polynomial when the index is even, and of its normal form.  Each
normal-form record is a seeded word with the hash of its normal form
only: B2-B12 words of 0-150 letters, long same-sign runs, and a few
words at n = 50-200; its recipe names the word by a hash.

``test_diagram_corpus.py`` rebuilds the records and compares them with
the file.  The file pins the outputs of a known-good tree: when a change
alters one, mend the program, never the file.  Regenerate it only for a
deliberate change of output, and then name every changed record and why
in CHANGES.md.  Each chain of ``diagram_corpus.json`` draws from its own
seeded stream, so such a change re-draws only the chains whose outputs
it alters.  To regenerate:

    PYTHONPATH=src python tests/diagram_corpus.py

which rewrites all three files.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from knit import su2q
from knit.braid import BraidWord
from knit.diagram import closure_plat, closure_trace, plat_profile
from knit.garside import normal_form
from knit.jones import jones_polynomial, kauffman_bracket, markov_trace_jones
from knit.reidemeister import apply_reidemeister, reidemeister_sites

SEED = 2028
CHAINS = 260
BRACKET_CROSSINGS = 12
MOVES = ("RI+", "RI-", "RII+", "RII-", "RIII")
FIELDS = ("recipe", "pd", "faces", "sites", "moved", "components", "bracket")
PATH = Path(__file__).with_name("diagram_corpus.json")

PLATS = 1000
FLOAT_TOL = 1e-12
COLORED_FIELDS = ("recipe", "colored", "jones", "twists")
COLORED_PATH = Path(__file__).with_name("colored_corpus.json")

JONES_WORDS = 600
FORMS = 600
EXACT_FIELDS = ("recipe", "trace", "markov", "plat", "normal_form")
EXACT_PATH = Path(__file__).with_name("exact_corpus.json")


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


def _letters(rng: random.Random, n: int, length: int, signs=(1, -1)) -> tuple:
    """``length`` seeded letters of B_n, each sign drawn from ``signs``."""
    return tuple((rng.randint(1, n - 1), rng.choice(signs)) for _ in range(length))


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
        _digest(list(d.faces)),
        _digest([[(m, s) for s in sites[m]] for m in MOVES]),
        _digest([moved[m][1].to_text() if m in moved else None for m in MOVES]),
        _digest([sorted(s) for s in d.component_edge_sets()]),
        _digest(bracket),
    ]
    return row, moved


def records() -> list[list]:
    """All records, in the order of the file: each chain's closure, then
    the diagram after each of its moves, where every move is one of the
    record's seeded applications.  Each chain draws from its own stream,
    so a change to one chain's outputs re-draws no other chain."""
    out = []
    for i in range(CHAINS):
        rng = random.Random(f"{SEED} chain {i}")
        n = rng.randint(1, 8)
        length = rng.randint(0, 14) if n > 1 else 0
        w = BraidWord(n, _letters(rng, n, length))
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


def _twists_digest(w: BraidWord, colors: list[int], r: int) -> str:
    """Hash of every ``_twist`` index table the coloured plat contraction
    of ``w`` reads, in letter order, as little-endian int64."""
    pair_colors = [colors[comp] for comp in plat_profile(w).pair_component]
    current = tuple(t for t in pair_colors for _ in (0, 1))
    digest = hashlib.sha256()
    for generator, sign in w.letters:
        current, idx, _ = su2q._twist(current, generator, sign, r)
        digest.update(repr(idx.shape).encode())
        digest.update(idx.astype("<i8").tobytes())
    return digest.hexdigest()[:12]


def colored_records() -> list[list]:
    """The coloured slice: one record per seeded plat."""
    rng = random.Random(f"{SEED} colored")
    out = []
    for _ in range(PLATS):
        n = 2 * rng.randint(1, 4)
        length = rng.randint(0, 14)
        w = BraidWord(n, _letters(rng, n, length))
        r = rng.randint(5, 12)
        count = plat_profile(w).component_count
        colors = [rng.randint(1, 3) for _ in range(count)]
        out.append([
            f"plat B{n} [{w}] colors {colors} r={r}",
            repr(su2q.colored_invariant(w, colors, r)),
            repr(su2q.jones_value_from_plat(w, r)),
            _twists_digest(w, colors, r),
        ])
    return out


def _form_digest(w: BraidWord) -> str:
    nf = normal_form(w)
    return _digest((nf.index, nf.infimum, list(nf.factors)))


def _form_words(rng: random.Random):
    """The words of the normal-form records: FORMS random B2-B12 words,
    then same-sign words and words of long alternating runs, then a few
    wide words."""
    for _ in range(FORMS):
        n = rng.randint(2, 12)
        yield BraidWord(n, _letters(rng, n, rng.randint(0, 150)))
    for _ in range(40):
        n = rng.randint(2, 12)
        yield BraidWord(n, _letters(rng, n, rng.randint(50, 150), (rng.choice((1, -1)),)))
    for _ in range(40):
        n = rng.randint(3, 12)
        letters = ()
        for k in range(rng.randint(2, 5)):
            letters += _letters(rng, n, rng.randint(10, 40), ((-1) ** k,))
        yield BraidWord(n, letters)
    for _ in range(8):
        n = rng.randint(50, 200)
        yield BraidWord(n, _letters(rng, n, rng.randint(10, 40), (1, 1, 1, -1)))


def exact_records() -> list[list]:
    """The exact slice: the Jones records, then the normal-form records."""
    rng = random.Random(f"{SEED} exact")
    out = []
    for _ in range(JONES_WORDS):
        n = rng.randint(1, 8)
        w = BraidWord(n, _letters(rng, n, rng.randint(0, 12) if n > 1 else 0))
        plat = _digest(jones_polynomial(closure_plat(w)).terms) if n % 2 == 0 else None
        out.append([
            f"B{n} [{w}]",
            _digest(jones_polynomial(closure_trace(w)).terms),
            _digest(markov_trace_jones(w).terms),
            plat,
            _form_digest(w),
        ])
    for w in _form_words(rng):
        recipe = f"B{w.index} {len(w)} letters {_digest(w.letters)}"
        out.append([recipe, None, None, None, _form_digest(w)])
    return out


def _write(path: Path, fields, rows: list[list]):
    lines = ",\n".join(json.dumps(row) for row in rows)
    header = json.dumps({"seed": SEED, "fields": fields})[:-1]
    path.write_text(f'{header}, "records": [\n{lines}\n]}}\n')
    print(f"wrote {len(rows)} records to {path.name}")


def main():
    _write(PATH, FIELDS, records())
    _write(COLORED_PATH, COLORED_FIELDS, colored_records())
    _write(EXACT_PATH, EXACT_FIELDS, exact_records())


if __name__ == "__main__":
    main()
