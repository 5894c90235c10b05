import random
import re

import pytest

from knit.braid import parse_braid, random_braid
from knit.diagram import LinkDiagram, closure_plat, closure_trace
from knit.errors import DomainError
from knit.jones import jones_polynomial, kauffman_bracket
from knit.laurent import LaurentPoly
from knit.reidemeister import apply_reidemeister, reidemeister_sites

MINUS_A_CUBED = LaurentPoly.from_dict({12: -1})
MINUS_A_INV_CUBED = LaurentPoly.from_dict({-12: -1})


def relabeled(d):
    """``d`` with its edges renamed 1, 2, ... in first-appearance order."""
    mapping = {}
    for c in d.crossings:
        for e in c.edges:
            mapping.setdefault(e, len(mapping) + 1)
    return LinkDiagram(tuple(c.relabel(mapping) for c in d.crossings), d.unknot_count)


def trefoil():
    return closure_trace(parse_braid("s1^3", 2))


def borromean():
    return closure_trace(parse_braid("s1 s2^-1 s1 s2^-1 s1 s2^-1", 3))


def test_face_count_euler():
    # connected 4-valent planar graph: V - E + F = 2 with E = 2V
    d = trefoil()
    assert len(d.faces) == d.crossing_count() + 2
    d = borromean()
    assert len(d.faces) == d.crossing_count() + 2


def test_faces_partition_corners():
    d = borromean()
    corners = [corner for face in d.faces for corner in face]
    assert len(corners) == 4 * d.crossing_count()
    assert len(set(corners)) == len(corners)


def _pieces(d):
    """The connected pieces of ``d``'s crossing graph, where two crossings
    touch when they share an edge."""
    touching = {}
    for k, c in enumerate(d.crossings):
        for e in c.edges:
            touching.setdefault(e, set()).add(k)
    seen = set()
    pieces = 0
    for start in range(d.crossing_count()):
        if start in seen:
            continue
        pieces += 1
        stack = [start]
        seen.add(start)
        while stack:
            for e in d.crossings[stack.pop()].edges:
                stack += touching[e] - seen
                seen |= touching[e]
    return pieces


def test_every_finger_move_stays_in_the_plane():
    # each RII+ site is two corners of one face, and the push it names
    # leaves a diagram with c + 2k faces: one that the plane can hold
    rng = random.Random(3131)
    moves = ("RI+", "RI-", "RII+", "RII-", "RIII")
    pushes = 0
    for _ in range(50):
        n = rng.randint(1, 6)
        w = random_braid(n, rng.randint(0, 8) if n > 1 else 0, seed=rng.randrange(10**6))
        d = closure_plat(w) if n % 2 == 0 and rng.random() < 0.5 else closure_trace(w)
        for _ in range(2):
            for site in reidemeister_sites(d, "RII+"):
                a, b = site
                assert a != b and any(a in face and b in face for face in d.faces)
                d2 = apply_reidemeister(d, "RII+", site)
                assert len(d2.faces) == d2.crossing_count() + 2 * _pieces(d2)
                pushes += 1
            move = rng.choice([m for m in moves if reidemeister_sites(d, m)])
            sites = reidemeister_sites(d, move)
            d = apply_reidemeister(d, move, sites[rng.randrange(len(sites))])
    assert pushes >= 2000


def test_trefoil_has_no_removal_sites():
    d = trefoil()
    assert reidemeister_sites(d, "RI-") == ()
    assert reidemeister_sites(d, "RII-") == ()


def test_kink_add_then_remove_is_exact_inverse():
    d = trefoil()
    for sign in (1, -1):
        for site in reidemeister_sites(d, "RI+"):
            if site[-1] != sign:
                continue
            d2 = apply_reidemeister(d, "RI+", site)
            assert d2.crossing_count() == 4
            assert d2.writhe() == d.writhe() + sign
            removal = reidemeister_sites(d2, "RI-")
            assert removal
            back = apply_reidemeister(d2, "RI-", removal[0])
            assert back == d


def test_kink_changes_bracket_by_frame_factor():
    d = trefoil()
    base = kauffman_bracket(d)
    site_plus = [
        s for s in reidemeister_sites(d, "RI+") if s[-1] == 1
    ][0]
    site_minus = [
        s for s in reidemeister_sites(d, "RI+") if s[-1] == -1
    ][0]
    assert kauffman_bracket(apply_reidemeister(d, "RI+", site_plus)) == (
        base * MINUS_A_CUBED
    )
    assert kauffman_bracket(apply_reidemeister(d, "RI+", site_minus)) == (
        base * MINUS_A_INV_CUBED
    )


def test_kink_on_free_circle():
    d = LinkDiagram((), 1)
    sites = reidemeister_sites(d, "RI+")
    assert all(s[0] == "circle" for s in sites)
    d2 = apply_reidemeister(d, "RI+", sites[0])
    assert d2.crossing_count() == 1
    assert d2.unknot_count == 0
    assert d2.component_count() == 1
    assert jones_polynomial(d2) == LaurentPoly.monomial(1, 0)
    back = apply_reidemeister(d2, "RI-", reidemeister_sites(d2, "RI-")[0])
    assert back == d


def test_finger_move_then_removal_is_exact_inverse():
    d = trefoil()
    base = jones_polynomial(d)
    for site in reidemeister_sites(d, "RII+")[:6]:
        d2 = apply_reidemeister(d, "RII+", site)
        assert d2.crossing_count() == 5
        assert d2.writhe() == d.writhe()
        assert jones_polynomial(d2) == base
        removals = reidemeister_sites(d2, "RII-")
        new_pair = {3, 4}
        chosen = [
            s
            for s in removals
            if {ci for ci, _ in s} == new_pair
        ]
        assert chosen
        back = apply_reidemeister(d2, "RII-", chosen[0])
        assert back == d


def test_bigon_removal_produces_circles_when_needed():
    # two-crossing unknot: removing its only bigon leaves a free circle
    w = parse_braid("s1 s1^-1", 2)
    d = closure_trace(w)
    sites = reidemeister_sites(d, "RII-")
    assert sites
    d2 = apply_reidemeister(d, "RII-", sites[0])
    assert d2.crossing_count() == 0
    assert d2.component_count() == 2
    assert d2.unknot_count == 2


def test_alternating_diagrams_have_no_triangle_sites():
    # In an alternating diagram every edge has one over-end and one
    # under-end, so every triangular face is cyclic and no slide is
    # admissible.  Both 2-strand closures and the standard 6-crossing
    # three-ring diagram are alternating.
    for word, strands in (("s1^3", 2), ("s1 s2^-1 s1 s2^-1 s1 s2^-1", 3)):
        d = closure_trace(parse_braid(word, strands))
        assert reidemeister_sites(d, "RIII") == ()


def test_triangle_slide_on_braid_relation_closure():
    d = closure_trace(parse_braid("s1 s2 s1", 3))
    sites = reidemeister_sites(d, "RIII")
    assert len(sites) == 1
    d2 = apply_reidemeister(d, "RIII", sites[0])
    assert d2.crossing_count() == d.crossing_count()
    assert d2.writhe() == d.writhe()
    assert d2.component_count() == d.component_count()
    assert kauffman_bracket(d2) == kauffman_bracket(d)


def test_triangle_slide_after_strand_slide_on_three_rings():
    # The alternating three-ring diagram admits no triangle slide, but
    # pushing one strand over another (RII+) breaks alternation and
    # opens triangle sites; sliding there must preserve the invariant.
    d = borromean()
    v = jones_polynomial(d)
    hits = 0
    for site in reidemeister_sites(d, "RII+"):
        d2 = apply_reidemeister(d, "RII+", site)
        for tri in reidemeister_sites(d2, "RIII"):
            d3 = apply_reidemeister(d2, "RIII", tri)
            assert kauffman_bracket(d3) == kauffman_bracket(d2)
            assert jones_polynomial(d3) == v
            hits += 1
        if hits >= 6:
            break
    assert hits >= 6


def test_triangle_flip_twice_restores_wiring():
    d = closure_trace(parse_braid("s1 s2 s1", 3))
    site = reidemeister_sites(d, "RIII")[0]
    d2 = apply_reidemeister(d, "RIII", site)
    again = reidemeister_sites(d2, "RIII")
    assert len(again) == 1
    back = apply_reidemeister(d2, "RIII", again[0])
    assert relabeled(back) == relabeled(d)


def test_apply_rejects_foreign_site():
    d = trefoil()
    with pytest.raises(DomainError):
        apply_reidemeister(d, "RI-", (0, 1))
    with pytest.raises(DomainError):
        apply_reidemeister(d, "RIII", (0, 1))
    with pytest.raises(DomainError):
        reidemeister_sites(d, "RX")

    # a kink, two bigons and two triangles; every malformed or foreign
    # site is refused with the text that names it
    d = closure_trace(parse_braid("s1 s2 s1 s1^-1", 3))
    kink, = reidemeister_sites(d, "RI-")
    bigon = reidemeister_sites(d, "RII-")[0]
    triangle = reidemeister_sites(d, "RIII")[0]
    push = reidemeister_sites(d, "RII+")[0]
    nowhere = (d.crossing_count(), 0)
    apart = (d.faces[0][0], d.faces[1][0])
    refused = [
        # another move's site data
        ("RI-", bigon), ("RII+", kink), ("RII-", triangle), ("RIII", push),
        ("RII-", ("edge", 1, 1)),
        # a corner on no face, and a push whose corners lie on two faces
        ("RI-", nowhere), ("RII+", (nowhere, push[0])), ("RII+", apart),
        # no corner at all, a list in place of a tuple, and no tuple
        ("RI-", ()), ("RII+", ()), ("RII-", ()), ("RIII", ()),
        ("RI-", list(kink)), ("RII+", list(push)), ("RIII", list(triangle)),
        ("RI-", None), ("RII-", 5), ("RIII", "ab"),
    ]
    for move, data in refused:
        text = f"site {data!r} does not admit {move}"
        with pytest.raises(DomainError, match=re.escape(text)):
            apply_reidemeister(d, move, data)


def test_face_moves_are_admitted_without_listing_every_site(monkeypatch):
    # a face move's site is checked against its own face's rule alone, and
    # an RI+ site against the edge labels and the free-circle count
    rng = random.Random(3232)
    diagrams = []
    for _ in range(30):
        w = random_braid(rng.randint(2, 5), rng.randint(2, 10), seed=rng.randrange(10**6))
        diagrams.append(closure_trace(w))
    # the two strands no letter touches close into free circles
    circles = closure_trace(parse_braid("s1 s1", 4))
    assert circles.unknot_count == 2
    listed = [
        (d, move, site)
        for d in diagrams
        for move in ("RI+", "RI-", "RII+", "RII-", "RIII")
        for site in reidemeister_sites(d, move)
    ]
    listed += [(circles, "RI+", site) for site in reidemeister_sites(circles, "RI+")]
    closed = diagrams[0]
    assert closed.unknot_count == 0
    edge = closed.edges[0]
    refused = [
        (closed, ("circle", 0, 1)), (circles, ("circle", 1, 1)),
        (closed, ("edge", max(closed.edges) + 1, 1)), (closed, ("edge", edge, 0)),
        (closed, ("edge", [edge], 1)), (closed, ("edge", edge)), (closed, ["edge", edge, 1]),
        (closed, ("edge", float("nan"), 1)), (closed, None),
    ]

    def refuse(d, move):
        raise AssertionError(f"listed every {move} site to admit one")

    monkeypatch.setattr("knit.reidemeister.reidemeister_sites", refuse)
    for d, move, site in listed:
        moved = apply_reidemeister(d, move, site)
        assert moved.crossing_count() == d.crossing_count() + {
            "RI+": 1, "RI-": -1, "RII+": 2, "RII-": -2, "RIII": 0
        }[move]
    assert {move for _, move, _ in listed} == {"RI+", "RI-", "RII+", "RII-", "RIII"}
    assert apply_reidemeister(circles, "RI+", ("circle", 0, -1)).unknot_count == 1
    for d, data in refused:
        with pytest.raises(DomainError, match=re.escape(f"site {data!r} does not admit RI+")):
            apply_reidemeister(d, "RI+", data)
    with pytest.raises(DomainError, match="unknown move 'RV'"):
        apply_reidemeister(closed, "RV", ("edge", edge, 1))


def test_moves_preserve_jones_on_random_diagrams():
    rng = random.Random(424)
    for _ in range(12):
        w = random_braid(rng.randint(2, 4), rng.randint(3, 7), seed=rng.randrange(10**6))
        d = closure_trace(w)
        v = jones_polynomial(d)
        for move in ("RI+", "RII+"):
            sites = reidemeister_sites(d, move)
            if not sites:
                continue
            site = sites[rng.randrange(len(sites))]
            d2 = apply_reidemeister(d, move, site)
            assert jones_polynomial(d2) == v
            assert d2.component_count() == d.component_count()
        for move in ("RI-", "RII-", "RIII"):
            sites = reidemeister_sites(d, move)
            if not sites:
                continue
            site = sites[rng.randrange(len(sites))]
            d2 = apply_reidemeister(d, move, site)
            assert jones_polynomial(d2) == v
            assert d2.component_count() == d.component_count()


def test_stacked_moves_stay_consistent():
    rng = random.Random(7)
    d = trefoil()
    v = jones_polynomial(d)
    for _ in range(10):
        move = rng.choice(("RI+", "RII+", "RI-", "RII-", "RIII"))
        sites = reidemeister_sites(d, move)
        if not sites:
            continue
        site = sites[rng.randrange(len(sites))]
        d = apply_reidemeister(d, move, site)
        assert jones_polynomial(d) == v
