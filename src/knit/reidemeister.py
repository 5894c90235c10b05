"""Reidemeister moves on PD diagrams, with admissible-site enumeration.

Faces of the diagram come from the rotation system: a corner state is
(crossing index, slot), that is point 4 * crossing + slot of the
diagram's edge-end index; the next corner walks the edge at that point
to its partner and turns one slot clockwise.  Orbits of that map are
the faces, so kinks are 1-corner faces, bigons 2-corner faces and
triangles 3-corner faces.  Site enumeration reads moves straight off
the face list:

- RI-  : a face with one corner (an edge occupying two adjacent slots)
- RII- : a two-corner face whose sides are one all-over and one
         all-under edge with opposite crossing signs
- RIII : a three-corner face with one all-over side, one all-under side
         and one mixed side (the cyclic all-mixed triangle admits no
         slide)
- RI+ / RII+ : creation moves, parameterized by target edges (or a free
         circle for RI+)

Applying a move returns a new diagram; the input is never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Crossing, LinkDiagram, component_labels
from .errors import DomainError

__all__ = ["Site", "reidemeister_sites", "apply_reidemeister"]

_MOVES = ("RI+", "RI-", "RII+", "RII-", "RIII")


@dataclass(frozen=True)
class Site:
    """An admissible location for one move, as returned by enumeration."""

    move: str
    data: tuple


def _faces(d: LinkDiagram) -> list[tuple[tuple[int, int], ...]]:
    """All faces as corner tuples (crossing, slot), each starting at its
    smallest corner, in order of that corner."""
    partner = d.partner
    seen = [False] * len(partner)
    out = []
    for start in range(len(partner)):
        if seen[start]:
            continue
        # every smaller point lies on a face already walked
        orbit = []
        p = start
        while not seen[p]:
            seen[p] = True
            orbit.append(divmod(p, 4))
            q = partner[p]
            p = q - 1 if q & 3 else q + 3
        out.append(tuple(orbit))
    return out


def _is_over_slot(s: int) -> bool:
    return s in (1, 3)


def reidemeister_sites(d: LinkDiagram, move: str) -> tuple[Site, ...]:
    """All admissible sites for the move on this diagram, sorted."""
    if move not in _MOVES:
        raise DomainError(f"unknown move {move!r}")

    if move == "RI+":
        sites = []
        for e in d.edges:
            for sign in (1, -1):
                sites.append(Site("RI+", ("edge", e, sign)))
        if d.unknot_count > 0:
            for sign in (1, -1):
                sites.append(Site("RI+", ("circle", 0, sign)))
        return tuple(sorted(sites, key=lambda s: repr(s.data)))

    if move == "RI-":
        sites = []
        for ci, c in enumerate(d.crossings):
            for s in range(4):
                if c.edges[s] == c.edges[(s + 1) % 4]:
                    sites.append(Site("RI-", (ci, s)))
        return tuple(sites)

    if move == "RII+":
        pairs = set()
        for orbit in _faces(d):
            along = []
            for ci, si in orbit:
                e = d.crossings[ci].edges[si]
                along.append((e, d.ends[e][0] == 4 * ci + si))
            for e, de in along:
                for f, df in along:
                    if e != f:
                        pairs.add((e, f, de != df))
        return tuple(
            Site("RII+", p) for p in sorted(pairs)
        )

    if move == "RII-":
        sites = []
        for orbit in _faces(d):
            if len(orbit) != 2:
                continue
            (c1, s1), (c2, s2) = orbit
            if c1 == c2:
                continue
            x = d.crossings[c1].edges[s1]
            y = d.crossings[c2].edges[s2]
            if x == y:
                continue
            if d.crossings[c1].sign == d.crossings[c2].sign:
                continue
            x_over = _is_over_slot(s1) and _is_over_slot((s2 + 1) % 4)
            x_under = not _is_over_slot(s1) and not _is_over_slot((s2 + 1) % 4)
            y_over = _is_over_slot(s2) and _is_over_slot((s1 + 1) % 4)
            y_under = not _is_over_slot(s2) and not _is_over_slot((s1 + 1) % 4)
            if (x_over and y_under) or (x_under and y_over):
                sites.append(Site("RII-", orbit))
        return tuple(sites)

    sites = []
    for orbit in _faces(d):
        if len(orbit) != 3:
            continue
        cs = [ci for ci, _ in orbit]
        if len(set(cs)) != 3:
            continue
        # side k runs from corner k to corner k+1
        side_edges = [d.crossings[ci].edges[si] for ci, si in orbit]
        if len(set(side_edges)) != 3:
            continue
        over_ends = []
        for k in range(3):
            ci, si = orbit[k]
            cj, sj = orbit[(k + 1) % 3]
            ends = int(_is_over_slot(si)) + int(_is_over_slot((sj + 1) % 4))
            over_ends.append(ends)
        if sorted(over_ends) == [0, 1, 2]:
            sites.append(Site("RIII", orbit))
    return tuple(sites)


def _join_edges(d: LinkDiagram, rest, joins):
    """``rest`` with the two edges of each join merged under one label.

    Each merged class keeps its smallest label; also returns the map
    from every label of ``d`` to its merged label.
    """
    labels = d.edges
    index = {e: k for k, e in enumerate(labels)}
    root = component_labels(len(labels), [(index[a], index[b]) for a, b in joins])
    mapping = {e: labels[root[k]] for k, e in enumerate(labels)}
    return tuple(c.relabel(mapping) for c in rest), mapping


def _fresh_labels(d: LinkDiagram, count: int) -> list[int]:
    start = max(d.edges, default=0)
    return [start + k + 1 for k in range(count)]


def apply_reidemeister(d: LinkDiagram, move: str, site: Site) -> LinkDiagram:
    """Apply the move at the site; the site must come from enumeration."""
    if site.move != move:
        raise DomainError(f"site is for {site.move!r}, not {move!r}")
    if site not in reidemeister_sites(d, move):
        raise DomainError(f"site {site.data!r} does not admit {move}")

    if move == "RI+":
        kind = site.data[0]
        sign = site.data[-1]
        if kind == "circle":
            e, loop = _fresh_labels(d, 2)
            slots = (e, loop, loop, e) if sign > 0 else (e, e, loop, loop)
            return LinkDiagram(
                d.crossings + (Crossing(slots, sign),), d.unknot_count - 1
            )
        _, e, sign = site.data
        loop, tail = _fresh_labels(d, 2)
        ci, si = divmod(d.ends[e][1], 4)
        crossings = list(d.crossings)
        edges = list(crossings[ci].edges)
        edges[si] = tail
        crossings[ci] = Crossing(tuple(edges), crossings[ci].sign)
        slots = (e, loop, loop, tail) if sign > 0 else (e, tail, loop, loop)
        return LinkDiagram(
            tuple(crossings) + (Crossing(slots, sign),), d.unknot_count
        )

    if move == "RI-":
        ci, s = site.data
        c = d.crossings[ci]
        p = c.edges[(s + 2) % 4]
        q = c.edges[(s + 3) % 4]
        rest = tuple(x for k, x in enumerate(d.crossings) if k != ci)
        if p == q:
            return LinkDiagram(rest, d.unknot_count + 1)
        merged, mapping = _join_edges(d, rest, [(p, q)])
        circles = d.unknot_count
        if not any(mapping[p] in c2.edges for c2 in merged):
            circles += 1
        return LinkDiagram(merged, circles)

    if move == "RII+":
        e, f, parallel = site.data
        em, e2, fm, f2 = _fresh_labels(d, 4)
        crossings = list(d.crossings)
        for target, new in ((e, e2), (f, f2)):
            ci, si = divmod(d.ends[target][1], 4)
            edges = list(crossings[ci].edges)
            edges[si] = new
            crossings[ci] = Crossing(tuple(edges), crossings[ci].sign)
        if parallel:
            k1 = Crossing.from_strands(f, fm, e, em, 1)
            k2 = Crossing.from_strands(fm, f2, em, e2, -1)
        else:
            k1 = Crossing.from_strands(fm, f2, e, em, -1)
            k2 = Crossing.from_strands(f, fm, em, e2, 1)
        return LinkDiagram(tuple(crossings) + (k1, k2), d.unknot_count)

    if move == "RII-":
        (c1, s1), (c2, s2) = site.data
        # outer continuations of the two strands through the bigon: a
        # strand's two ends at a crossing sit two slots apart
        e1, e2 = d.crossings[c1].edges, d.crossings[c2].edges
        a1, a2 = e1[(s1 + 2) % 4], e2[(s2 + 3) % 4]
        b1, b2 = e1[(s1 + 3) % 4], e2[(s2 + 2) % 4]
        rest = tuple(
            x for k, x in enumerate(d.crossings) if k not in (c1, c2)
        )
        merged, mapping = _join_edges(d, rest, [(a1, a2), (b1, b2)])
        remaining = {e for c in merged for e in c.edges}
        vanished = {mapping[z] for z in (a1, a2, b1, b2)} - remaining
        return LinkDiagram(merged, d.unknot_count + len(vanished))

    # RIII: flip the triangle by swapping each strand's crossing order
    orbit = site.data
    fresh = _fresh_labels(d, 3)
    tri = {ci for ci, _ in orbit}
    new_ends: dict[tuple[int, bool], tuple[int, int]] = {}
    for k in range(3):
        # side k is one edge, from corner k to the next corner; its ends
        # are the strand's exit into the side, then its entry
        ci, si = orbit[k]
        side = d.ends[d.crossings[ci].edges[si]]
        (c_first, s_first), (c_second, s_second) = (divmod(p, 4) for p in side)
        over = _is_over_slot(s_first)
        over2 = _is_over_slot(s_second)
        # a strand's two ends at a crossing sit two slots apart
        entry = d.crossings[c_first].edges[(s_first + 2) % 4]
        exit_edge = d.crossings[c_second].edges[(s_second + 2) % 4]
        mid = fresh[k]
        # after the flip the strand meets its old second crossing first
        new_ends[(c_second, over2)] = (entry, mid)
        new_ends[(c_first, over)] = (mid, exit_edge)

    crossings = list(d.crossings)
    for ci in tri:
        u_in, u_out = new_ends[(ci, False)]
        o_in, o_out = new_ends[(ci, True)]
        crossings[ci] = Crossing.from_strands(
            u_in, u_out, o_in, o_out, d.crossings[ci].sign
        )
    return LinkDiagram(tuple(crossings), d.unknot_count)
