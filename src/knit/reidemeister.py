"""Reidemeister moves on PD diagrams, with admissible-site enumeration.

A site is its data, a tuple, and the move it is for is passed beside it.
Every site but RI+'s is read off one face of the diagram (see
``diagram``): a corner is (crossing index, slot), and side k of a face is
the edge at its corner k, which runs to its corner k + 1.

- RI-  : a face with one corner (a kink); its site is that corner
- RII- : a face with two corners on two crossings of opposite signs
- RIII : a face with three corners on three crossings
- RII+ : two distinct corners of one face, ``((ci, si), (cj, sj))``

where a RII- or RIII face must also have one all-over side, one
all-under side and, on a triangle, one mixed side: counting each side's
over-ends, the counts sorted are [0, 2] or [0, 1, 2].  (The cyclic
all-mixed triangle admits no slide.)  RI+ kinks an edge or a circle:
``("edge", e, sign)`` or ``("circle", 0, sign)``, with sign +1 or -1.
Listing a move's sites runs the rule of each face in turn, and applying
a move checks a site against the rule of the face that holds its first
corner (RI+'s against the edge labels and the free-circle count), so it
admits exactly the listed sites.

RII+ pushes side e, which leaves the first corner, over side f, which
leaves the second, inside their face.  A side is *along* when it runs
away from its corner.  e first meets f's second new crossing when both
sides or neither are along, else f's first; that crossing's sign is -1
when f is along, +1 otherwise, and e's second has the other sign.

RI- and RII- take one removal step: drop the face's crossings and join
the strand of each side to its continuations beyond the face.  A joined
edge left on no crossing closes into one free circle.

Applying a move returns a new diagram; the input is never touched.
"""

from __future__ import annotations

from .diagram import Crossing, LinkDiagram, component_labels
from .errors import DomainError, _shown_repr

__all__ = ["reidemeister_sites", "apply_reidemeister"]

_MOVES = ("RI+", "RI-", "RII+", "RII-", "RIII")


def _is_over_slot(s: int) -> bool:
    return s in (1, 3)


def _face_sites(d: LinkDiagram, move: str, orbit: tuple) -> list[tuple]:
    """The sites of a move other than RI+ that the face ``orbit`` gives."""
    if move == "RI-":
        return [orbit[0]] if len(orbit) == 1 else []
    if move == "RII+":
        return [(a, b) for a in orbit for b in orbit if a != b]
    size, wanted = (2, [0, 2]) if move == "RII-" else (3, [0, 1, 2])
    # with its corners on distinct crossings, a face's sides are distinct edges
    if len(orbit) != size or len({ci for ci, _ in orbit}) != size:
        return []
    # side k leaves corner k at slot si and reaches corner k + 1 at sj + 1
    over_ends = sorted(
        _is_over_slot(si) + _is_over_slot((sj + 1) % 4)
        for (_, si), (_, sj) in zip(orbit, orbit[1:] + orbit[:1])
    )
    signs = {d.crossings[ci].sign for ci, _ in orbit}
    if over_ends == wanted and (move == "RIII" or len(signs) == 2):
        return [orbit]
    return []


def _admits_kink(d: LinkDiagram, data) -> bool:
    """Whether listing the RI+ sites would give ``data``, in O(1)."""
    if not (isinstance(data, tuple) and len(data) == 3 and data[2] in (1, -1)):
        return False
    kind, e, _ = data
    if kind == "circle":
        return e == 0 and d.unknot_count > 0
    try:
        return kind == "edge" and e in d.ends
    except TypeError:  # an unhashable label is no edge
        return False


def reidemeister_sites(d: LinkDiagram, move: str) -> tuple[tuple, ...]:
    """The data of every admissible site for the move on this diagram:
    RI+'s sorted by ``repr``, the others face by face."""
    if move not in _MOVES:
        raise DomainError(f"unknown move {_shown_repr(move)}")
    if move == "RI+":
        sites = [("edge", e, sign) for e in d.edges for sign in (1, -1)]
        if d.unknot_count > 0:
            sites += [("circle", 0, sign) for sign in (1, -1)]
        return tuple(sorted(sites, key=repr))

    return tuple(site for orbit in d.faces for site in _face_sites(d, move, orbit))


def _remove(d: LinkDiagram, doomed, joins) -> LinkDiagram:
    """``d`` without the ``doomed`` crossings, the two edges of each join
    merged under the smallest label of their class; a merged edge left on
    no crossing becomes one free circle."""
    labels = d.edges
    index = {e: k for k, e in enumerate(labels)}
    root = component_labels(len(labels), [(index[a], index[b]) for a, b in joins])
    mapping = {e: labels[root[k]] for k, e in enumerate(labels)}
    rest = [c.relabel(mapping) for k, c in enumerate(d.crossings) if k not in doomed]
    left = {e for c in rest for e in c.edges}
    circles = {mapping[e] for join in joins for e in join} - left
    return LinkDiagram(tuple(rest), d.unknot_count + len(circles))


def _fresh_labels(d: LinkDiagram, count: int) -> list[int]:
    start = max(d.edges, default=0)
    return [start + k + 1 for k in range(count)]


def _relabel_head(d: LinkDiagram, crossings: list, e: int, label: int) -> None:
    """Give the head of ``d``'s edge e, in ``crossings``, the label."""
    ci, si = divmod(d.ends[e][1], 4)
    edges = list(crossings[ci].edges)
    edges[si] = label
    crossings[ci] = Crossing(tuple(edges), crossings[ci].sign)


def apply_reidemeister(d: LinkDiagram, move: str, site: tuple) -> LinkDiagram:
    """Apply the move at a site that listing the move's sites would give;
    any other data, another move's site among them, is refused."""
    if move not in _MOVES:
        raise DomainError(f"unknown move {_shown_repr(move)}")
    corners = (site,) if move == "RI-" else site
    if move == "RI+":
        admitted = _admits_kink(d, site)
    else:
        # a face move's site is checked against the rule of the one face
        # that holds its first corner
        first = corners[0] if isinstance(corners, tuple) and corners else None
        admitted = site in next((_face_sites(d, move, f) for f in d.faces if first in f), [])
    if not admitted:
        raise DomainError(f"site {_shown_repr(site)} does not admit {move}")

    if move == "RI+":
        kind, e, sign = site
        loop, tail = _fresh_labels(d, 2)
        crossings, circles = list(d.crossings), d.unknot_count
        if kind == "circle":
            # the circle's kink is its only crossing: e is fresh and its own tail
            e, loop, tail = loop, tail, loop
            circles -= 1
        else:
            _relabel_head(d, crossings, e, tail)
        slots = (e, loop, loop, tail) if sign > 0 else (e, tail, loop, loop)
        return LinkDiagram(tuple(crossings) + (Crossing(slots, sign),), circles)

    if move in ("RI-", "RII-"):
        # a strand's two ends at a crossing sit two slots apart: side k
        # leaves corner k at slot si and reaches the next at sj + 1, so its
        # strand runs on beyond the face at slots si + 2 and sj + 3
        joins = [
            (d.crossings[ci].edges[(si + 2) % 4], d.crossings[cj].edges[(sj + 3) % 4])
            for (ci, si), (cj, sj) in zip(corners, corners[1:] + corners[:1])
        ]
        return _remove(d, {ci for ci, _ in corners}, joins)

    if move == "RII+":
        (ci, si), (cj, sj) = site
        e, f = d.crossings[ci].edges[si], d.crossings[cj].edges[sj]
        along_e = d.ends[e][0] == 4 * ci + si
        along_f = d.ends[f][0] == 4 * cj + sj
        em, e2, fm, f2 = _fresh_labels(d, 4)
        crossings = list(d.crossings)
        _relabel_head(d, crossings, e, e2)
        _relabel_head(d, crossings, f, f2)
        # e becomes e, em, e2 and passes over f, which becomes f, fm, f2
        first, second = (fm, f2), (f, fm)
        if along_e != along_f:
            first, second = second, first
        sign = -1 if along_f else 1
        k1 = Crossing.from_strands(*first, e, em, sign)
        k2 = Crossing.from_strands(*second, em, e2, -sign)
        return LinkDiagram(tuple(crossings) + (k1, k2), d.unknot_count)

    # RIII: flip the triangle by swapping each strand's crossing order
    fresh = _fresh_labels(d, 3)
    tri = {ci for ci, _ in site}
    new_ends: dict[tuple[int, bool], tuple[int, int]] = {}
    for k in range(3):
        # side k is one edge, from corner k to the next corner; its ends
        # are the strand's exit into the side, then its entry
        ci, si = site[k]
        side = d.ends[d.crossings[ci].edges[si]]
        (c_first, s_first), (c_second, s_second) = (divmod(p, 4) for p in side)
        # a strand's two ends at a crossing sit two slots apart
        entry = d.crossings[c_first].edges[(s_first + 2) % 4]
        exit_edge = d.crossings[c_second].edges[(s_second + 2) % 4]
        mid = fresh[k]
        # after the flip the strand meets its old second crossing first
        new_ends[(c_second, _is_over_slot(s_second))] = (entry, mid)
        new_ends[(c_first, _is_over_slot(s_first))] = (mid, exit_edge)

    crossings = list(d.crossings)
    for ci in tri:
        u_in, u_out = new_ends[(ci, False)]
        o_in, o_out = new_ends[(ci, True)]
        crossings[ci] = Crossing.from_strands(
            u_in, u_out, o_in, o_out, d.crossings[ci].sign
        )
    return LinkDiagram(tuple(crossings), d.unknot_count)
