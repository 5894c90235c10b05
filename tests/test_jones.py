import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from knit.braid import STRAND_LIMIT, BraidWord, parse_braid, random_braid
from knit.cli import run
from knit.diagram import Crossing, LinkDiagram, closure_plat, closure_trace, parse_diagram
from knit.errors import DomainError, LimitError
from knit.jones import (
    FREE_CIRCLE_LIMIT,
    LOOP_VALUE,
    _cupcap_action,
    _identity_matching,
    _propagate,
    jones_polynomial,
    kauffman_bracket,
    markov_trace_jones,
)
from knit.laurent import LaurentPoly, evaluate_at_root
from knit.reidemeister import apply_reidemeister, reidemeister_sites
from knit.su2q import jones_value_from_plat


def poly(d):
    return LaurentPoly.from_dict(d)


ONE = poly({0: 1})


def tl_basis(n):
    """The TL basis diagrams on n strands: every diagram reached from the
    identity by the cup-cap action of E_1, ..., E_(n-1), in sorted order."""
    found = {_identity_matching(n)}
    frontier = list(found)
    while frontier:
        m = frontier.pop()
        for i in range(1, n):
            composed, _ = _cupcap_action(n, i, m)
            if composed not in found:
                found.add(composed)
                frontier.append(composed)
    return sorted(found)


def test_bracket_unknot():
    d = LinkDiagram((), 1)
    assert kauffman_bracket(d) == ONE


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


def test_bracket_crossing_limit(monkeypatch):
    d = closure_trace(parse_braid("s1^5", 2))
    monkeypatch.setenv("KNIT_CROSSING_LIMIT", "4")
    with pytest.raises(LimitError, match="state sum over 5 crossings exceeds the limit 4"):
        kauffman_bracket(d)
    monkeypatch.setenv("KNIT_CROSSING_LIMIT", "5")
    kauffman_bracket(d)


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
    with pytest.raises(DomainError, match="must be nonnegative, got -1"):
        jones_polynomial(unknot)
    monkeypatch.setenv("KNIT_CROSSING_LIMIT", "0")
    assert kauffman_bracket(unknot) == ONE


@pytest.mark.parametrize("limit", [True, 2.5])
def test_bracket_limit_must_be_an_int(monkeypatch, limit):
    # a one-crossing kink sits under both of these caps, so neither may
    # pass as a number
    monkeypatch.setenv("KNIT_CROSSING_LIMIT", str(limit))
    kink = closure_trace(parse_braid("s1", 2))
    with pytest.raises(DomainError, match="KNIT_CROSSING_LIMIT must be an integer"):
        kauffman_bracket(kink)
    with pytest.raises(DomainError, match="KNIT_CROSSING_LIMIT must be an integer"):
        jones_polynomial(kink)


def test_jones_validates_its_diagram_once(monkeypatch):
    # the closure is checked when it is built, and the bracket and the
    # writhe check nothing more
    calls = []
    check = LinkDiagram.__post_init__
    monkeypatch.setattr(LinkDiagram, "__post_init__", lambda d: calls.append(d) or check(d))
    d = closure_trace(parse_braid("s1^3", 2))
    assert jones_polynomial(d) == poly({4: 1, 12: 1, 16: -1})
    assert calls == [d]


def test_jones_of_an_invalid_diagram_names_every_problem():
    # edges 1 and 3 appear once each, and the free-circle count is negative,
    # so no diagram is built for either route to see
    with pytest.raises(DomainError) as error:
        LinkDiagram((Crossing((1, 2, 3, 2), 1),), -1)
    assert str(error.value) == (
        "invalid diagram: free-circle count is negative; "
        "edge multiplicity: labels [1, 3] do not appear twice"
    )


@pytest.mark.parametrize("circles", [1.5, "2", None, True])
def test_bracket_rejects_a_free_circle_count_that_is_not_an_int(circles):
    # no diagram with such a count is built, so no bracket sees one
    for crossings in ((), closure_trace(parse_braid("s1 s1", 2)).crossings):
        with pytest.raises(DomainError, match="free-circle count must be an int"):
            LinkDiagram(crossings, circles)


def test_bracket_hopf():
    d = closure_trace(parse_braid("s1^2", 2))
    assert kauffman_bracket(d) == poly({-16: -1, 16: -1})


def test_jones_unknot_normalized():
    assert jones_polynomial(LinkDiagram((), 1)) == ONE
    assert jones_polynomial(closure_trace(parse_braid("s1", 2))) == ONE
    assert jones_polynomial(closure_plat(parse_braid("s1^3", 2))) == ONE


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
    # the closure of the sign-flipped word is the mirror image
    m = jones_polynomial(closure_trace(BraidWord(3, tuple((g, -e) for g, e in w.letters))))
    assert m.terms == tuple(sorted((-n, c) for n, c in v.terms))


def test_jones_plat_equals_trace_for_trefoil():
    plat = jones_polynomial(closure_plat(parse_braid("s2^3", 4)))
    trace = jones_polynomial(closure_trace(parse_braid("s1^3", 2)))
    assert plat == trace


def test_catalan_counts():
    for n in range(1, 8):
        expected = math.comb(2 * n, n) // (n + 1)
        assert len(tl_basis(n)) == expected


def _same_action(n, left, right):
    # both letter sequences, propagated from every basis diagram of B_n
    for m in tl_basis(n):
        start = {(m, 0): 1}
        assert _propagate(n, left, start) == _propagate(n, right, start), m


def _scaled(n, letters, m):
    # m times E_i for each i in ``letters``, and the loops closed on the way
    loops = 0
    for i in letters:
        m, closed = _cupcap_action(n, i, m)
        loops += closed
    return m, loops


def test_tl_rep_small_shape():
    basis = tl_basis(2)
    assert len(basis) == 2
    identity = _identity_matching(2)
    assert identity in basis
    (cupcap,) = set(basis) - {identity}
    # E_1 on two strands: top points 0-1 joined, bottom points 2-3 joined
    assert cupcap == (1, 0, 3, 2)
    assert _cupcap_action(2, 1, identity) == (cupcap, False)
    assert _cupcap_action(2, 1, cupcap) == (cupcap, True)
    # s1 = A*Id + A^-1*E_1 and s1^-1 = A^-1*Id + A*E_1, keyed by A-exponent
    assert _propagate(2, ((1, 1),), {(identity, 0): 1}) == {
        (identity, 1): 1,
        (cupcap, -1): 1,
    }
    assert _propagate(2, ((1, -1),), {(identity, 0): 1}) == {
        (identity, -1): 1,
        (cupcap, 1): 1,
    }
    # on E_1 the loop is delta: A + A^-1 * (-A^2 - A^-2) = -A^-3, the
    # cancelled A^1 term dropped
    assert _propagate(2, ((1, 1),), {(cupcap, 0): 1}) == {(cupcap, -3): -1}
    assert _propagate(2, ((1, -1),), {(cupcap, 0): 2}) == {(cupcap, 3): -2}


def _crosses(m, p, q):
    # chords p-m[p] and q-m[q] on the boundary circle, read as top points
    # left to right, then bottom points right to left
    n = len(m) // 2

    def around(k):
        return k if k < n else 3 * n - 1 - k

    a, b = sorted((around(p), around(m[p])))
    return (a < around(q) < b) != (a < around(m[q]) < b)


def test_tl_basis_is_noncrossing_and_closed_under_cupcap():
    for n in range(1, 8):
        basis = tl_basis(n)
        assert len(set(basis)) == len(basis) == math.comb(2 * n, n) // (n + 1)
        assert _identity_matching(n) in basis
        members = set(basis)
        for m in basis:
            assert sorted(m) == list(range(2 * n))
            assert all(m[k] != k and m[m[k]] == k for k in range(2 * n))
            assert not any(
                _crosses(m, p, q) for p in range(2 * n) for q in range(2 * n)
            ), m
            for i in range(1, n):
                composed, closed = _cupcap_action(n, i, m)
                assert composed in members
                assert isinstance(closed, bool)
                # a loop closes exactly when the capped points were
                # joined, and then the diagram is left as it was
                assert closed == (m[n + i - 1] == n + i)
                assert not closed or composed == m


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
        for m in tl_basis(n):
            for i in range(1, n):
                once, loops = _scaled(n, (i,), m)
                assert _scaled(n, (i, i), m) == (once, loops + 1)
                for j in (i - 1, i + 1):
                    if 1 <= j < n:
                        assert _scaled(n, (i, j, i), m) == (once, loops)


def test_markov_trace_identity_words():
    assert markov_trace_jones(BraidWord(1, ())) == ONE
    assert markov_trace_jones(BraidWord(2, ())) == poly({-2: -1, 2: -1})


def test_markov_trace_matches_bracket_route():
    words = [random_braid(4, 9, seed=seed) for seed in range(40)]
    words += [random_braid(6, 12 + seed % 3, seed=600 + seed) for seed in range(4)]
    # wider words stay inside the state sum's 20-crossing limit
    words += [random_braid(8, 12 + seed % 3, seed=800 + seed) for seed in range(3)]
    words += [random_braid(10, 12 + seed % 3, seed=1000 + seed) for seed in range(3)]
    words += [
        random_braid(n, length, seed=100 * n + length)
        for n in range(2, 9)
        for length in (0, 3, 7, 11, 14)
    ]
    for w in words:
        assert markov_trace_jones(w) == jones_polynomial(closure_trace(w))


def _braid_words(indices):
    # words of up to 14 letters, so closures stay under 15 crossings
    return indices.flatmap(
        lambda n: st.builds(
            lambda letters: BraidWord(n, tuple(letters)),
            st.lists(
                st.tuples(st.integers(1, n - 1), st.sampled_from((-1, 1))),
                max_size=14,
            ),
        )
    )


@settings(max_examples=60, deadline=None)
@given(_braid_words(st.integers(2, 8)))
def test_bracket_route_matches_tl_route(w):
    assert jones_polynomial(closure_trace(w)) == markov_trace_jones(w)


@pytest.mark.parametrize("n", [3, 4])
def test_bracket_matches_tl_route_at_every_split(n):
    # c crossings split into c // 2 lower and c - c // 2 upper ones, so
    # c = 0..16 puts the boundary at every position with both parities
    for c in range(17):
        for seed in range(3):
            w = random_braid(n, c, seed=1000 * n + 10 * c + seed)
            assert jones_polynomial(closure_trace(w)) == markov_trace_jones(w), w


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
    with pytest.raises(LimitError, match="strand count 11 beyond the diagram-basis limit 10"):
        markov_trace_jones(BraidWord(11, ()))


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


def test_bracket_of_free_circles_alone_is_a_power_of_delta():
    for k in range(1, 61):
        assert kauffman_bracket(LinkDiagram((), k)) == math.prod([LOOP_VALUE] * (k - 1), start=ONE)


def test_free_circles_beside_a_kink_are_a_power_of_delta():
    for word, kink in (("s1", poly({12: -1})), ("s1^-1", poly({-12: -1}))):
        (crossing,) = closure_trace(parse_braid(word, 2)).crossings
        for k in range(1, 61):
            d = LinkDiagram((crossing,), k)
            assert kauffman_bracket(d) == math.prod([LOOP_VALUE] * k, start=kink)


def test_a_thousand_free_circles_close_in_little_memory():
    # delta^999 is one binomial row of 1,000 terms; no lower power is kept
    d = LinkDiagram((), 1000)
    tracemalloc.start()
    try:
        bracket = kauffman_bracket(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert len(bracket.terms) == 1000
    assert bracket.terms[0] == (-8 * 999, -1)
    assert sum(c for _, c in bracket.terms) == (-2) ** 999


def test_free_circles_past_the_limit_are_refused_before_any_delta_power():
    # the cap admits every closure of a braid the parser accepts
    assert FREE_CIRCLE_LIMIT >= STRAND_LIMIT
    for d in (LinkDiagram((), FREE_CIRCLE_LIMIT + 1), parse_diagram("O[1000000000]")):
        tracemalloc.start()
        try:
            with pytest.raises(LimitError, match="free circles"):
                kauffman_bracket(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def test_the_widest_trace_closure_passes_the_free_circle_limit():
    # a kink, -A^3, beside n - 2 free circles, delta^(n - 2)
    n = STRAND_LIMIT
    d = closure_trace(parse_braid("s1", n))
    assert d.unknot_count == n - 2
    bracket = kauffman_bracket(d)
    assert bracket.terms[0] == (12 - 8 * (n - 2), -((-1) ** n))
    assert bracket.terms[-1] == (12 + 8 * (n - 2), -((-1) ** n))
    # at A = 1 the loop value is -2
    assert sum(c for _, c in bracket.terms) == -((-2) ** (n - 2))


def test_free_circles_beside_crossings_each_add_a_delta():
    # s1 on four strands: the trace closure is a kink beside two free
    # circles, which is three unlinked unknots up to a kink
    d = closure_trace(parse_braid("s1", 4))
    assert d.unknot_count == 2
    assert kauffman_bracket(d) == poly({12: -1}) * LOOP_VALUE * LOOP_VALUE
    unlinked = jones_polynomial(LinkDiagram((), 3))
    assert jones_polynomial(d) == unlinked
    res = run(["jones", "s1", "-n", "4", "--json"])
    assert res.exit_code == 0
    assert res.payload["polynomial"]["terms"] == unlinked.to_json_terms()
    with_circle = LinkDiagram(d.crossings, d.unknot_count + 1)
    assert kauffman_bracket(with_circle) == kauffman_bracket(d) * LOOP_VALUE


def test_bracket_of_a_kink_whose_edges_meet_its_crossing_twice():
    unknot = LinkDiagram((), 1)
    for site in reidemeister_sites(unknot, "RI+"):
        kink = apply_reidemeister(unknot, "RI+", site)
        (crossing,) = kink.crossings
        assert len(set(crossing.edges)) == 2
        assert kauffman_bracket(kink) == poly({12 * crossing.sign: -1})
    trefoil = closure_trace(parse_braid("s1^3", 2))
    base = kauffman_bracket(trefoil)
    sites = reidemeister_sites(trefoil, "RI+")
    assert sites
    for site in sites:
        moved = apply_reidemeister(trefoil, "RI+", site)
        sign = moved.writhe() - trefoil.writhe()
        assert kauffman_bracket(moved) == base * poly({12 * sign: -1})


def test_bracket_of_a_split_link_is_the_product_times_delta():
    # a trefoil on strands 1-2 and a Hopf link on strands 3-4 never meet
    split = closure_trace(parse_braid("s1^3 s3^2", 4))
    trefoil = kauffman_bracket(closure_trace(parse_braid("s1^3", 2)))
    hopf = kauffman_bracket(closure_trace(parse_braid("s1^2", 2)))
    assert kauffman_bracket(split) == trefoil * hopf * LOOP_VALUE


def test_bracket_ignores_gaps_in_edge_labels():
    d = closure_trace(parse_braid("s1 s2^-1 s1 s2^-1", 3))
    spread = LinkDiagram(
        tuple(c.relabel({e: 10 * e + 7 for e in c.edges}) for c in d.crossings)
    )
    assert kauffman_bracket(spread) == kauffman_bracket(d)


def test_bracket_is_unchanged_by_rii_and_riii_moves_that_leave_label_gaps():
    # RII+ and RIII are regular isotopies, so the bracket itself holds
    gaps = 0
    for seed in range(8):
        d = closure_trace(random_braid(3, 5, seed=seed))
        base = kauffman_bracket(d)
        for move in ("RII+", "RIII", "RII+", "RIII"):
            sites = reidemeister_sites(d, move)
            if not sites:
                continue
            d = apply_reidemeister(d, move, sites[seed % len(sites)])
            assert kauffman_bracket(d) == base, (seed, move)
            gaps += d.edges != tuple(range(1, len(d.edges) + 1))
    assert gaps


@pytest.mark.parametrize("r", [5, 7, 10])
def test_plat_closures_match_the_colored_route_on_a_seeded_corpus(r):
    for n in (2, 4, 6, 8):
        for length in (0, 4, 9, 14):
            w = random_braid(n, length, seed=10 * r + 100 * n + length)
            exact = evaluate_at_root(jones_polynomial(closure_plat(w)), r)
            assert abs(exact - jones_value_from_plat(w, r)) <= 1e-9, w


@settings(max_examples=40, deadline=None)
@given(_braid_words(st.sampled_from((2, 4, 6, 8))), st.sampled_from((5, 7, 10)))
def test_plat_bracket_matches_the_colored_route(w, r):
    exact = evaluate_at_root(jones_polynomial(closure_plat(w)), r)
    assert abs(exact - jones_value_from_plat(w, r)) <= 1e-9


@pytest.mark.parametrize("r", [5, 7])
def test_plat_bracket_matches_the_colored_route_at_every_split(r):
    for c in range(15):
        for seed in range(2):
            w = random_braid(4, c, seed=100 * r + 10 * c + seed)
            exact = evaluate_at_root(jones_polynomial(closure_plat(w)), r)
            assert abs(exact - jones_value_from_plat(w, r)) <= 1e-9, w
