import random

import pytest
from hypothesis import given, settings, strategies as st

from knit.braid import BraidWord, parse_braid, random_braid
from knit.diagram import (
    DIGIT_LIMIT,
    Crossing,
    LinkDiagram,
    PlatProfile,
    closure_plat,
    closure_trace,
    parse_diagram,
    plat_profile,
)
from knit.errors import DomainError, ParseError
from knit.reidemeister import apply_reidemeister, reidemeister_sites


def test_trace_trefoil_shape():
    d = closure_trace(parse_braid("s1^3", 2))
    assert d.crossing_count() == 3
    assert d.component_count() == 1
    assert d.writhe() == 3
    assert all(c.sign == 1 for c in d.crossings)


def test_trace_trefoil_pd_regression():
    d = closure_trace(parse_braid("s1^3", 2))
    assert d.to_text() == "X[1,2,3,4;+], X[4,3,5,6;+], X[6,5,2,1;+]"


def test_trace_identity_gives_circles():
    d = closure_trace(BraidWord(3, ()))
    assert d.crossing_count() == 0
    assert d.unknot_count == 3
    assert d.component_count() == 3


def test_trace_hopf():
    d = closure_trace(parse_braid("s1^2", 2))
    assert d.component_count() == 2
    assert d.writhe() == 2


def test_trace_cancelling_pair():
    d = closure_trace(parse_braid("s1 s1^-1", 2))
    assert d.crossing_count() == 2
    assert d.writhe() == 0
    assert d.component_count() == 2


def test_trace_component_count_is_cycle_count():
    for seed in range(20):
        w = random_braid(4, 8, seed=seed)
        targets = w.permutation()
        # each cycle of the permutation has exactly one smallest point
        cycles = 0
        for start in range(1, w.index + 1):
            point = targets[start - 1]
            while point > start:
                point = targets[point - 1]
            cycles += point == start
        assert closure_trace(w).component_count() == cycles


def test_trace_partial_identity_strand():
    # strand 3 of B_3 untouched: it closes into a free circle
    d = closure_trace(parse_braid("s1^3", 3))
    assert d.unknot_count == 1
    assert d.component_count() == 2


def test_plat_identity_unknots():
    d = closure_plat(BraidWord(2, ()))
    assert d.crossing_count() == 0
    assert d.component_count() == 1
    d = closure_plat(BraidWord(4, ()))
    assert d.component_count() == 2


def test_plat_requires_even_index():
    with pytest.raises(DomainError):
        closure_plat(parse_braid("s1", 3))


def test_plat_single_kink():
    d = closure_plat(parse_braid("s1", 2))
    assert d.crossing_count() == 1
    assert d.component_count() == 1


def test_plat_twist_region_is_unknot():
    d = closure_plat(parse_braid("s1^3", 2))
    assert d.component_count() == 1
    assert d.crossing_count() == 3


def test_plat_trefoil():
    d = closure_plat(parse_braid("s2^3", 4))
    assert d.component_count() == 1
    assert d.crossing_count() == 3


def test_plat_hopf():
    d = closure_plat(parse_braid("s2^2", 4))
    assert d.component_count() == 2


def test_plat_pair_component_indices():
    assert plat_profile(BraidWord(4, ())).pair_component == (0, 1)
    assert plat_profile(parse_braid("s2^3", 4)).pair_component == (0, 0)
    assert plat_profile(parse_braid("s2^2", 4)).pair_component == (0, 1)


PLAT_PINS = [
    (
        "s2 s1 s3^-1 s2",
        4,
        "X[1,2,3,4;-], X[3,2,5,6;+], X[7,1,4,8;-], X[5,7,8,6;-]",
        PlatProfile(2, (0, 1), (0, 0), (1, 1), -2),
    ),
    (
        "s2^3 s1 s3^-1",
        4,
        "X[1,2,3,4;+], X[5,6,2,1;+], X[7,8,6,5;+], X[9,9,7,4;-], X[10,3,8,10;+]",
        PlatProfile(1, (0, 0), (3,), (2,), 3),
    ),
    (
        "s1 s2 s3 s4 s5 s2^-1 s4",
        6,
        "X[1,2,3,3;-], X[4,5,6,2;-], X[6,5,7,8;+], X[9,10,11,8;-], "
        "X[11,10,12,13;+], X[14,7,4,1;+], X[12,9,14,13;-]",
        PlatProfile(1, (0, 0, 0), (-1,), (3,), -1),
    ),
    (
        "s3 s4 s1 s3 s5 s1 s4^-1",
        6,
        "X[1,2,3,3;-], X[4,2,5,6;+], X[7,8,9,9;-], X[5,1,10,11;-], "
        "X[12,13,4,6;-], X[8,7,14,14;-], X[13,12,11,10;-]",
        PlatProfile(3, (0, 1, 2), (-2, -1, 0), (1, 1, 1), -5),
    ),
]


@pytest.mark.parametrize("text,n,pd,profile", PLAT_PINS)
def test_plat_closure_and_profile_pins(text, n, pd, profile):
    w = parse_braid(text, n)
    assert closure_plat(w).to_text() == pd
    assert plat_profile(w) == profile


def test_component_edge_sets_order():
    # classes are listed by their smallest edge label
    d = closure_trace(parse_braid("s1^2 s2^2", 3))
    assert d.to_text() == "X[1,2,3,4;+], X[4,3,2,5;+], X[6,5,7,8;+], X[8,7,1,6;+]"
    assert d.component_edge_sets() == [
        frozenset({1, 3, 5, 8}),
        frozenset({2, 4}),
        frozenset({6, 7}),
    ]
    d = closure_plat(parse_braid("s3 s4 s1 s3 s5 s1 s4^-1", 6))
    assert d.component_edge_sets() == [
        frozenset({1, 2, 3, 6, 11, 13}),
        frozenset({4, 5, 10, 12}),
        frozenset({7, 8, 9, 14}),
    ]


def test_borromean_trace_components():
    w = parse_braid("s1 s2^-1 s1 s2^-1 s1 s2^-1", 3)
    d = closure_trace(w)
    assert d.crossing_count() == 6
    assert d.component_count() == 3
    assert d.writhe() == 0


def test_mirror_negates_writhe():
    # the closure of the sign-flipped word is the mirror image
    m = closure_trace(parse_braid("s1^-3", 2))
    assert m.writhe() == -3
    assert m.component_count() == 1


def _refused(crossings, circles=0):
    """The DomainError text of building the diagram; where the text form
    can say it, parse_diagram raises a ParseError with the same text."""
    with pytest.raises(DomainError) as built:
        LinkDiagram(crossings, circles)
    if type(circles) is int and circles >= 0:
        with pytest.raises(ParseError) as parsed:
            parse_diagram(", ".join([*map(str, crossings), f"O[{circles}]"]))
        assert str(parsed.value) == str(built.value)
    return str(built.value)


def test_validate_reports_multiplicity():
    message = _refused((Crossing((1, 2, 3, 4), 1),))
    assert message == "invalid diagram: edge multiplicity: labels [1, 2, 3, 4] do not appear twice"


@pytest.mark.parametrize("circles", [1.5, "2", None, True, False])
def test_validate_reports_a_free_circle_count_that_is_not_an_int(circles):
    message = _refused((), circles)
    assert message == f"invalid diagram: free-circle count must be an int, got {circles!r}"


def test_validate_reports_orientation():
    # both ends of edge 1 incoming at the two crossings
    c1 = Crossing((1, 2, 3, 4), 1)
    c2 = Crossing((1, 3, 2, 4), 1)
    assert _refused((c1, c2)) == (
        "invalid diagram: orientation: labels [1, 4] lack one incoming "
        "and one outgoing end"
    )


def test_validate_reports_a_diagram_off_the_plane():
    # labels and orientation are sound, but no plane drawing has these
    # corners: two faces, where two crossings in one piece need four
    c1 = Crossing((4, 3, 4, 2), -1)
    c2 = Crossing((1, 2, 1, 3), -1)
    assert _refused((c1, c2)) == (
        "invalid diagram: not planar: 2 faces, where 2 crossings in 1 "
        "connected pieces need 4"
    )


def test_validate_trace_closures_clean():
    # a closure is built only if it is sound; rebuilding it checks it again
    for seed in range(10):
        d = closure_trace(random_braid(5, 12, seed=seed))
        assert LinkDiagram(d.crossings, d.unknot_count) == d


def test_validate_plat_closures_clean():
    for seed in range(10):
        d = closure_plat(random_braid(6, 12, seed=100 + seed))
        assert LinkDiagram(d.crossings, d.unknot_count) == d


def _indexed_diagrams(rng):
    """Seeded closures, the diagrams along seeded move chains, and the
    parsed text of each with its labels scattered."""
    moves = ("RI+", "RI-", "RII+", "RII-", "RIII")
    for _ in range(200):
        n = rng.randint(1, 8)
        length = rng.randint(0, 14) if n > 1 else 0
        letters = tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length))
        w = BraidWord(n, letters)
        d = closure_plat(w) if n % 2 == 0 and rng.random() < 0.5 else closure_trace(w)
        for _ in range(rng.randint(0, 2)):
            yield d
            scatter = dict(zip(d.edges, rng.sample(range(1, 10**6), len(d.edges))))
            text = ", ".join([str(c.relabel(scatter)) for c in d.crossings] + [f"O[{d.unknot_count}]"])
            yield parse_diagram(text)
            move = rng.choice([m for m in moves if reidemeister_sites(d, m)])
            sites = reidemeister_sites(d, move)
            d = apply_reidemeister(d, move, sites[rng.randrange(len(sites))])
        yield d


def test_edge_end_index_names_each_edge_once_by_its_two_ends():
    count = 0
    for d in _indexed_diagrams(random.Random(2808)):
        points = range(4 * d.crossing_count())
        assert len(d.partner) == len(points)
        assert all(d.partner[p] != p and d.partner[d.partner[p]] == p for p in points)
        assert d.edges == tuple(sorted(d.ends))
        for e, (out, into) in d.ends.items():
            assert d.partner[out] == into
            c_out, c_in = d.crossings[out // 4], d.crossings[into // 4]
            assert c_out.edges[out % 4] == e == c_in.edges[into % 4]
            # the outgoing slot is the under exit (2) or the over exit
            assert out % 4 in (2, 3 if c_out.sign > 0 else 1)
            assert into % 4 in (0, 1 if c_in.sign > 0 else 3)
        count += 1
    assert count >= 500


def test_closures_number_edges_in_first_appearance_order():
    # the closures label edges canonically: 1, 2, ... as they first appear
    rng = random.Random(808)
    for _ in range(300):
        n = rng.randint(1, 8)
        w = random_braid(n, rng.randint(0, 20) if n > 1 else 0, seed=rng.randrange(10**6))
        closures = [closure_trace(w)] + ([closure_plat(w)] if n % 2 == 0 else [])
        for d in closures:
            first = list(dict.fromkeys(e for c in d.crossings for e in c.edges))
            assert first == list(range(1, len(first) + 1))


def test_text_round_trip():
    for seed in range(8):
        d = closure_trace(random_braid(4, 9, seed=seed))
        assert parse_diagram(d.to_text()) == d
    d = closure_trace(BraidWord(2, ()))
    assert parse_diagram(d.to_text()) == d


def test_parse_diagram_whitespace_insensitive():
    d = parse_diagram(" X[1,2,3,4;+] ,\n X[4,3,5,6;+],X[6,5,2,1;+] , O[2] ")
    assert d.crossing_count() == 3
    assert d.unknot_count == 2


def test_parse_diagram_rejects_garbage():
    with pytest.raises(ParseError):
        parse_diagram("X[1,2,3;+]")
    with pytest.raises(ParseError):
        parse_diagram("Y[1,2,3,4;+]")
    with pytest.raises(ParseError):
        parse_diagram("X[1,2,3,4;+] X[1,2,3,4;+] extra")


_MALFORMED = [
    ("Q", "unrecognized diagram text (at position 0)", 0),
    ("X[1,2,3;+]", "unrecognized diagram text (at position 0)", 0),
    ("X[1,2,3,4;+] X[1,2,3,4;+] extra", "unrecognized diagram text (at position 24)", 24),
    (",,X[1,2,3,4;+]Q", "unrecognized diagram text (at position 14)", 14),
    (" , X[1,2,3,4;+] ,, Q", "unrecognized diagram text (at position 15)", 15),
    ("\tX[1,2,3,4;+]\n Q", "unrecognized diagram text (at position 12)", 12),
    ("X[1,2,3,4;+],\n,Y[1,2,3,4;+]", "unrecognized diagram text (at position 14)", 14),
    ("O[" + "9" * 19 + "]", "number longer than 18 digits (at position 2)", 2),
    (",X[1,2,3,1234567890123456789012;+]", "number longer than 18 digits (at position 9)", 9),
    (",, O[1],X[1,2,3," + "1" * 19 + ";-]", "number longer than 18 digits (at position 15)", 15),
    ("X[1,2,3,4;+]",
     "invalid diagram: edge multiplicity: labels [1, 2, 3, 4] do not appear twice", None),
    (",,X[1,2,3,4;+], ,X[4,3,5,6;+],X[6,5,2,1;-]",
     "invalid diagram: orientation: labels [1, 5] lack one incoming and one outgoing end", None),
]


@pytest.mark.parametrize("text, message, position", _MALFORMED)
def test_malformed_diagram_text_names_its_error_and_position(text, message, position):
    # positions count the input with whitespace removed, leading commas
    # included, and the message names a position once
    with pytest.raises(ParseError) as err:
        parse_diagram(text)
    assert str(err.value) == message
    assert err.value.position == position


@pytest.mark.parametrize("text", [
    "O[" + "9" * 5000 + "]",
    "X[" + "9" * 5000 + ",1,2,3;+]",
    "X[1,2,3," + "1" * 19 + ";-], O[1]",
])
def test_parse_diagram_refuses_a_long_number_without_echoing_it(text):
    with pytest.raises(ParseError, match="longer than") as err:
        parse_diagram(text)
    assert len(str(err.value)) < 100


def test_parse_diagram_reads_long_numbers_up_to_the_digit_limit():
    assert parse_diagram("O[" + "0" * 50 + "1]").unknot_count == 1
    assert parse_diagram("O[" + "9" * DIGIT_LIMIT + "]").unknot_count == 10**DIGIT_LIMIT - 1


def test_parse_diagram_rejects_invalid_pd():
    with pytest.raises(ParseError):
        parse_diagram("X[1,2,3,4;+]")


def test_crossing_roles():
    c = Crossing((1, 2, 3, 4), -1)
    assert Crossing.from_strands(1, 3, 4, 2, -1) == c


words = st.builds(
    lambda letters: BraidWord(4, tuple(letters)),
    st.lists(st.tuples(st.integers(1, 3), st.sampled_from((-1, 1))), max_size=16),
)


@settings(max_examples=40, deadline=None)
@given(words)
def test_trace_writhe_is_exponent_sum(w):
    assert closure_trace(w).writhe() == w.exponent_sum()


@settings(max_examples=40, deadline=None)
@given(words)
def test_trace_crossing_count_is_length(w):
    assert closure_trace(w).crossing_count() == len(w)


@settings(max_examples=40, deadline=None)
@given(words)
def test_plat_closures_validate_and_round_trip(w):
    d = closure_plat(w)
    assert LinkDiagram(d.crossings, d.unknot_count) == d
    assert d.crossing_count() == len(w)
    assert parse_diagram(d.to_text()) == d
