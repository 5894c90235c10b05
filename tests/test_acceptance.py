"""Acceptance gate: eight numbered criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``: each criterion is one
test function, so the verbose report shows exactly one PASSED/FAILED
line per criterion at its stated tolerance and time bound.
"""

import math
import random
import time

import numpy as np
import pytest

from knit.braid import BraidWord, parse_braid, random_braid
from knit.diagram import closure_plat, closure_trace
from knit.jones import jones_polynomial, markov_trace_jones
from knit.laurent import evaluate_at_root
from knit.qsim import approx_jones, estimate_markov_trace
from knit.reidemeister import apply_reidemeister, reidemeister_sites
from knit.su2q import (
    braiding_operator_for_word,
    colored_invariant,
    jones_value_from_plat,
    q_integer,
    r_matrix,
)

HALF = 1  # spin 1/2, as a doubled spin

TREFOIL_PLAT = parse_braid("s2^3", 4)
HOPF_PLAT = parse_braid("s2^2", 4)
# Three-component plat word in B_6 whose closure is the Borromean rings.
BORROMEAN_PLAT = parse_braid("s2 s1 s4^-1 s3 s4^-1 s3 s2^-1 s4^-1", 6)


def _seeded_corpus(count, max_index=4, max_length=10, seed=20260822):
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        index = rng.randint(2, max_index)
        length = rng.randint(0, max_length)
        words.append(random_braid(index, length, rng.randrange(2**32)))
    return words


def test_criterion_1_oracle_equivalence():
    """100 seeded braids (n <= 4, length <= 10): both Jones routes agree."""
    started = time.monotonic()
    for w in _seeded_corpus(100):
        assert markov_trace_jones(w) == jones_polynomial(closure_trace(w)), (
            f"routes disagree on {w}"
        )
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s, bound is 60s"


def _small_closure(rng):
    index = rng.randint(2, 4)
    length = rng.randint(3, 6)
    w = random_braid(index, length, rng.randrange(2**32))
    return w, closure_trace(w)


def test_criterion_2_link_invariance_suite():
    """50 seeded applications each: Markov i/ii and RI/RII/RIII."""
    rng = random.Random(77)
    for _ in range(50):
        w, _ = _small_closure(rng)
        base = jones_polynomial(closure_trace(w))
        conjugator = random_braid(w.index, rng.randint(1, 4), rng.randrange(2**32))
        assert jones_polynomial(closure_trace(w.conjugate_by(conjugator))) == base

    for _ in range(50):
        w, _ = _small_closure(rng)
        base = jones_polynomial(closure_trace(w))
        stabilized = w.stabilize(rng.choice((1, -1)))
        assert jones_polynomial(closure_trace(stabilized)) == base

    for move, allowed_shifts in (("RI+", (-1, 1)), ("RII+", (0,))):
        for _ in range(50):
            _, d = _small_closure(rng)
            sites = reidemeister_sites(d, move)
            assert sites, f"no {move} site on a braid closure"
            moved = apply_reidemeister(d, move, sites[rng.randrange(len(sites))])
            assert moved.writhe() - d.writhe() in allowed_shifts
            assert jones_polynomial(moved) == jones_polynomial(d)

    for _ in range(50):
        _, d = _small_closure(rng)
        for _push in range(3):
            if reidemeister_sites(d, "RIII"):
                break
            pushes = reidemeister_sites(d, "RII+")
            d = apply_reidemeister(d, "RII+", pushes[rng.randrange(len(pushes))])
        sites = reidemeister_sites(d, "RIII")
        if not sites:
            d = closure_trace(parse_braid("s1 s2 s1", 3))
            sites = reidemeister_sites(d, "RIII")
        moved = apply_reidemeister(d, "RIII", sites[rng.randrange(len(sites))])
        assert moved.writhe() == d.writhe()
        assert jones_polynomial(moved) == jones_polynomial(d)


def test_criterion_3_word_problem():
    """Braid-relation normal forms agree; 200 relator insertions are inert."""
    from knit.garside import normal_form

    started = time.monotonic()
    assert normal_form(parse_braid("s1 s2 s1", 3)) == normal_form(
        parse_braid("s2 s1 s2", 3)
    )

    rng = random.Random(3)
    for _ in range(200):
        index = rng.randint(3, 5)
        w = random_braid(index, rng.randint(0, 8), rng.randrange(2**32))
        kind = rng.choice(("braid", "far", "cancel"))
        if kind == "braid":
            i = rng.randint(1, index - 2)
            relator = [(i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1)]
        elif kind == "far" and index >= 4:
            i = 1
            j = rng.randint(i + 2, index - 1)
            relator = [(i, 1), (j, 1), (i, -1), (j, -1)]
        else:
            i = rng.randint(1, index - 1)
            s = rng.choice((1, -1))
            relator = [(i, s), (i, -s)]
        cut = rng.randint(0, len(w.letters))
        perturbed = BraidWord(
            index, w.letters[:cut] + tuple(relator) + w.letters[cut:]
        )
        assert normal_form(perturbed) == normal_form(w), (
            f"{kind} relator at {cut} changed the normal form of {w}"
        )
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"word-problem suite took {elapsed:.1f}s, bound is 10s"


def test_criterion_4_yang_baxter_and_unitarity():
    """Three-strand relation residual and unitarity defect <= 1e-10."""
    colors = [0, 1, 2, 3]  # doubled spins 0 to 3/2
    left_word = parse_braid("s1 s2 s1", 3)
    right_word = parse_braid("s2 s1 s2", 3)
    for r in (5, 7, 10):
        for a in colors:
            for b in colors:
                defect = r_matrix(a, b, r).unitarity_defect()
                assert defect <= 1e-10, f"r_matrix({a},{b},{r}) defect {defect:.2e}"
                for c in colors:
                    triple = (a, b, c)
                    left = braiding_operator_for_word(left_word, triple, r)
                    right = braiding_operator_for_word(right_word, triple, r)
                    residual = float(np.abs(left.matrix - right.matrix).max())
                    assert residual <= 1e-10, (
                        f"relation residual {residual:.2e} at colors {triple}, r={r}"
                    )
                    word_defect = left.unitarity_defect()
                    assert word_defect <= 1e-10


def test_criterion_5_colored_reduction_to_jones():
    """All colors 1/2 at r=7: plat invariant equals the Jones value <= 1e-8."""
    for name, w in (
        ("trefoil", TREFOIL_PLAT),
        ("hopf", HOPF_PLAT),
        ("borromean", BORROMEAN_PLAT),
    ):
        oracle = evaluate_at_root(jones_polynomial(closure_plat(w)), 7)
        reduced = jones_value_from_plat(w, 7)
        assert abs(reduced - oracle) <= 1e-8, (
            f"{name}: |{reduced} - {oracle}| = {abs(reduced - oracle):.2e}"
        )


def test_criterion_6_quantum_dimension_contract():
    """Color-j unknot gives [2j+1]_q (j <= 2, r=10); [r]_q vanishes."""
    unknot = BraidWord(2, ())
    for doubled in range(5):
        value = colored_invariant(unknot, [doubled], 10)
        expected = q_integer(doubled + 1, 10)
        assert abs(value - expected) <= 1e-10, (
            f"unknot at 2j={doubled}: |{value} - {expected}|"
        )
    assert abs(q_integer(10, 10)) <= 1e-12


def test_criterion_7_approximation_contract():
    """100 seeded trefoil runs at r=5, delta=0.1: at least 70 within delta."""
    started = time.monotonic()
    exact = jones_value_from_plat(TREFOIL_PLAT, 5)
    hits = 0
    for seed in range(100):
        estimate = approx_jones(TREFOIL_PLAT, 5, 0.1, seed=seed)
        assert estimate.exact == pytest.approx(exact)
        hits += abs(estimate.value - exact) <= 0.1
    elapsed = time.monotonic() - started
    assert hits >= 70, f"only {hits}/100 runs within delta"
    assert elapsed < 300.0, f"approximation suite took {elapsed:.1f}s, bound is 300s"


def test_criterion_8_cost_scaling():
    """Exactly one controlled-operator step per crossing, per counters."""
    words = [
        BraidWord(2, ()),
        parse_braid("s1", 2),
        TREFOIL_PLAT,
        BORROMEAN_PLAT,
        parse_braid("s1 s2^-1 s3 s2 s1^-1 s3^-1", 4),
    ]
    for w in words:
        estimate = approx_jones(w, 5, 0.5, seed=1)
        assert estimate.crossing_steps == len(w.letters)
        traced = estimate_markov_trace(
            w, [HALF] * _component_count(w), 5, 0.5, seed=1
        )
        assert traced.crossing_steps == len(w.letters)


def _component_count(w):
    from knit.diagram import plat_profile

    return plat_profile(w).component_count
