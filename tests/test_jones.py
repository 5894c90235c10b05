import math

import pytest

from knit.braid import BraidWord, parse_braid, random_braid
from knit.diagram import LinkDiagram, closure_plat, closure_trace, parse_diagram
from knit.errors import DomainError, LimitError
from knit.jones import (
    LOOP_VALUE,
    _cupcap_action,
    _cupcap_matching,
    _identity_matching,
    _propagate,
    jones_polynomial,
    kauffman_bracket,
    markov_trace_jones,
    noncrossing_matchings,
)
from knit.laurent import LaurentPoly


def poly(d):
    return LaurentPoly.from_dict(d)


def test_bracket_unknot():
    d = LinkDiagram((), 1)
    assert kauffman_bracket(d) == LaurentPoly.one()


def test_bracket_two_circles():
    assert kauffman_bracket(LinkDiagram((), 2)) == LOOP_VALUE


def test_bracket_positive_kink():
    # one-crossing unknot from the trace closure of a single letter
    d = closure_trace(parse_braid("s1", 2))
    assert kauffman_bracket(d) == poly({12: -1})
    d = closure_trace(parse_braid("s1^-1", 2))
    assert kauffman_bracket(d) == poly({-12: -1})


def test_bracket_empty_diagram_rejected():
    with pytest.raises(DomainError):
        kauffman_bracket(LinkDiagram((), 0))


def test_bracket_crossing_limit():
    w = parse_braid("s1^5", 2)
    with pytest.raises(LimitError):
        kauffman_bracket(closure_trace(w), limit=4)
    kauffman_bracket(closure_trace(w), limit=5)


def test_bracket_limit_env(monkeypatch):
    monkeypatch.setenv("KNIT_CROSSING_LIMIT", "2")
    with pytest.raises(LimitError):
        kauffman_bracket(closure_trace(parse_braid("s1^3", 2)))
    monkeypatch.setenv("KNIT_CROSSING_LIMIT", "bogus")
    with pytest.raises(DomainError):
        kauffman_bracket(closure_trace(parse_braid("s1^3", 2)))


def test_bracket_negative_limit_is_domain_error(monkeypatch):
    # a negative cap is a bad setting, not a state sum over too many
    # crossings, even on the crossing-free unknot
    unknot = LinkDiagram((), 1)
    monkeypatch.setenv("KNIT_CROSSING_LIMIT", "-1")
    with pytest.raises(DomainError):
        kauffman_bracket(unknot)
    monkeypatch.delenv("KNIT_CROSSING_LIMIT")
    with pytest.raises(DomainError):
        jones_polynomial(unknot, limit=-1)
    assert kauffman_bracket(unknot, limit=0) == LaurentPoly.one()


def test_bracket_hopf():
    d = closure_trace(parse_braid("s1^2", 2))
    assert kauffman_bracket(d) == poly({-16: -1, 16: -1})


def test_jones_unknot_normalized():
    assert jones_polynomial(LinkDiagram((), 1)) == LaurentPoly.one()
    assert jones_polynomial(closure_trace(parse_braid("s1", 2))) == LaurentPoly.one()
    assert jones_polynomial(closure_plat(parse_braid("s1^3", 2))) == LaurentPoly.one()


def test_jones_trefoil():
    v = jones_polynomial(closure_trace(parse_braid("s1^3", 2)))
    assert v == poly({4: 1, 12: 1, 16: -1})
    mirrored = jones_polynomial(closure_trace(parse_braid("s1^-3", 2)))
    assert mirrored == poly({-4: 1, -12: 1, -16: -1})


def test_jones_hopf_half_integer_powers():
    v = jones_polynomial(closure_trace(parse_braid("s1^2", 2)))
    assert v == poly({2: -1, 10: -1})


def test_jones_borromean():
    w = parse_braid("s1 s2^-1 s1 s2^-1 s1 s2^-1", 3)
    v = jones_polynomial(closure_trace(w))
    assert v == poly(
        {-12: -1, -8: 3, -4: -2, 0: 4, 4: -2, 8: 3, 12: -1}
    )


def test_jones_mirror_inverts_t():
    w = random_braid(3, 7, seed=3)
    v = jones_polynomial(closure_trace(w))
    m = jones_polynomial(closure_trace(w).mirror())
    assert m.terms == tuple(sorted((-n, c) for n, c in v.terms))


def test_jones_plat_equals_trace_for_trefoil():
    plat = jones_polynomial(closure_plat(parse_braid("s2^3", 4)))
    trace = jones_polynomial(closure_trace(parse_braid("s1^3", 2)))
    assert plat == trace


def test_catalan_counts():
    for n in range(1, 7):
        expected = math.comb(2 * n, n) // (n + 1)
        assert len(noncrossing_matchings(n)) == expected


def _same_action(n, left, right):
    # both letter sequences, propagated from every basis diagram of B_n
    for m in noncrossing_matchings(n):
        start = {m: LaurentPoly.one()}
        assert _propagate(n, left, start) == _propagate(n, right, start), m


def _scaled(n, letters, m):
    # m times E_i for each i in ``letters``, read from the memoised action
    scale = LaurentPoly.one()
    for i in letters:
        m, factor = _cupcap_action(n, i, m)
        scale = scale * factor
    return m, scale


def test_tl_rep_small_shape():
    basis = noncrossing_matchings(2)
    assert len(basis) == 2
    identity, cupcap = _identity_matching(2), _cupcap_matching(2, 1)
    assert set(basis) == {identity, cupcap}
    assert _cupcap_action(2, 1, identity) == (cupcap, LaurentPoly.one())
    assert _cupcap_action(2, 1, cupcap) == (cupcap, LOOP_VALUE)
    with pytest.raises(DomainError):
        markov_trace_jones(BraidWord.identity(11))


def test_tl_inverse_contract():
    for i in (1, 2):
        _same_action(3, ((i, 1), (i, -1)), ())
        _same_action(3, ((i, -1), (i, 1)), ())


def test_tl_braid_relation_exact():
    _same_action(3, ((1, 1), (2, 1), (1, 1)), ((2, 1), (1, 1), (2, 1)))
    _same_action(4, ((2, -1), (3, -1), (2, -1)), ((3, -1), (2, -1), (3, -1)))


def test_tl_far_commutation():
    _same_action(4, ((1, 1), (3, 1)), ((3, 1), (1, 1)))
    _same_action(4, ((1, -1), (3, 1)), ((3, 1), (1, -1)))


def test_tl_cupcap_relations():
    # E_i^2 = delta E_i and E_i E_j E_i = E_i for |i - j| = 1, on every
    # basis diagram of B3 and B4
    for n in (3, 4):
        for m in noncrossing_matchings(n):
            for i in range(1, n):
                once, scale = _scaled(n, (i,), m)
                assert _scaled(n, (i, i), m) == (once, scale * LOOP_VALUE)
                for j in (i - 1, i + 1):
                    if 1 <= j < n:
                        assert _scaled(n, (i, j, i), m) == (once, scale)


def test_markov_trace_identity_words():
    assert markov_trace_jones(BraidWord.identity(1)) == LaurentPoly.one()
    assert markov_trace_jones(BraidWord.identity(2)) == poly({-2: -1, 2: -1})


def test_markov_trace_matches_bracket_route():
    words = [random_braid(4, 9, seed=seed) for seed in range(40)]
    words += [random_braid(6, 12 + seed % 3, seed=600 + seed) for seed in range(4)]
    for w in words:
        assert markov_trace_jones(w) == jones_polynomial(closure_trace(w))


def test_markov_trace_conjugation_invariance():
    w = parse_braid("s1^3", 2)
    base = markov_trace_jones(w)
    for seed in range(5):
        a = random_braid(2, 4, seed=seed)
        assert markov_trace_jones(w.conjugate_by(a)) == base


def test_markov_trace_stabilization_invariance():
    w = parse_braid("s1^3", 2)
    base = markov_trace_jones(w)
    assert markov_trace_jones(w.stabilize(1)) == base
    assert markov_trace_jones(w.stabilize(-1)) == base


def test_markov_trace_strand_limit():
    with pytest.raises(DomainError):
        markov_trace_jones(BraidWord.identity(11))


def test_trace_property_cyclic():
    # trace of ab equals trace of ba through the closure
    for seed in range(6):
        a = random_braid(3, 5, seed=seed)
        b = random_braid(3, 5, seed=100 + seed)
        assert markov_trace_jones(a * b) == markov_trace_jones(b * a)


def test_bracket_regular_isotopy_under_kink():
    # adding a positive kink multiplies the bracket by -A^3
    w = parse_braid("s1^3", 2)
    base = kauffman_bracket(closure_trace(w))
    kinked = kauffman_bracket(closure_trace(w.stabilize(1)))
    assert kinked == base * poly({12: -1})
    kinked = kauffman_bracket(closure_trace(w.stabilize(-1)))
    assert kinked == base * poly({-12: -1})


def test_bracket_of_parsed_diagram_round_trip():
    d = closure_trace(parse_braid("s1 s2^-1 s1", 3))
    again = parse_diagram(d.to_text())
    assert kauffman_bracket(again) == kauffman_bracket(d)
