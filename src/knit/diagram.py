"""Planar link diagrams as PD codes, plus the two braid closures.

A crossing stores its four edge labels counterclockwise starting at the
incoming under-strand end, together with the crossing sign.  The under
strand always runs from slot 0 to slot 2; the sign says which way the
over strand runs: +1 means it enters at slot 1, -1 means it enters at
slot 3.  Orientation of the whole diagram is therefore carried by the
in/out role of each edge end and needs no separate flags.

Slot s of crossing k is point 4k + s.  A diagram indexes its edge ends
once, when it is built: ``ends`` maps each edge label to its (outgoing
point, incoming point), and ``partner[p]`` is the point at the other
end of the edge at point p.  The same pass walks the faces: corner
(k, s) leads to the corner one slot clockwise of ``partner[4k + s]``,
and ``faces`` lists the orbits as corner tuples, each from its smallest
corner, in order of that corner.  By Euler's formula, c crossings in k
connected pieces lie in the plane exactly when they bound c + 2k faces;
no other diagram is built.  The bracket and the moves read this index.

Crossing-free circle components cannot be expressed by PD crossings, so
the diagram carries an explicit count of them.

Text form: one ``X[a,b,c,d;+]`` item per crossing, comma separated, with
an optional ``O[k]`` item for k free circles.  Whitespace never matters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .braid import BraidWord
from .errors import DomainError, ParseError, _is_int, _shown, _shown_repr

__all__ = [
    "Crossing",
    "LinkDiagram",
    "PlatProfile",
    "closure_trace",
    "closure_plat",
    "component_labels",
    "plat_profile",
    "parse_diagram",
    "require_plat_index",
]


@dataclass(frozen=True)
class Crossing:
    """A tuple of four int edge labels, counterclockwise from the incoming
    under-end, and a sign."""

    edges: tuple[int, int, int, int]
    sign: int

    def __post_init__(self):
        if not _is_int(self.sign) or self.sign not in (1, -1):
            raise DomainError(f"crossing sign must be +-1, got {_shown_repr(self.sign)}")
        if not isinstance(self.edges, tuple):
            raise DomainError(f"crossing edges are a tuple, got a {type(self.edges).__name__}")
        if len(self.edges) != 4:
            raise DomainError("a crossing has exactly four edge ends")
        for e in self.edges:
            if not _is_int(e):
                raise DomainError(f"an edge label is an int, got {_shown_repr(e)}")

    @staticmethod
    def from_strands(
        u_in: int, u_out: int, o_in: int, o_out: int, sign: int
    ) -> "Crossing":
        if sign > 0:
            return Crossing((u_in, o_in, u_out, o_out), 1)
        return Crossing((u_in, o_out, u_out, o_in), -1)

    def relabel(self, mapping: dict[int, int]) -> "Crossing":
        return Crossing(tuple(mapping[e] for e in self.edges), self.sign)

    def __str__(self) -> str:
        a, b, c, d = self.edges
        return f"X[{a},{b},{c},{d};{'+' if self.sign > 0 else '-'}]"


def component_labels(size: int, joins) -> list[int]:
    """The smallest member of each node's class once ``joins`` are merged.

    Nodes are 0..size-1 and each join is a pair of nodes.
    """
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in joins:
        ra, rb = find(a), find(b)
        # the smaller root wins, so every root is its class's minimum
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb
    return [find(x) for x in range(size)]


@dataclass(frozen=True)
class LinkDiagram:
    """An oriented link diagram: PD crossings plus free circles.

    Construction refuses a diagram that breaks the PD invariants, raising
    DomainError that names every problem, or, once those hold, one that
    is not planar, so each method may assume a sound diagram.  The same
    pass builds the edge-end index (``edges``, the sorted labels, ``ends``
    and ``partner``) and ``faces``, as the module docstring defines them.
    """

    crossings: tuple[Crossing, ...]
    unknot_count: int = 0
    edges: tuple[int, ...] = field(init=False, repr=False, compare=False)
    ends: dict[int, tuple[int, int]] = field(init=False, repr=False, compare=False)
    partner: tuple[int, ...] = field(init=False, repr=False, compare=False)
    faces: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not isinstance(self.crossings, tuple):
            raise DomainError(f"crossings are a tuple, got a {type(self.crossings).__name__}")
        problems = []
        circles = self.unknot_count
        if not _is_int(circles):
            problems.append(f"free-circle count must be an int, got {circles!r}")
        elif circles < 0:
            problems.append("free-circle count is negative")
        points: dict[int, list[int]] = {}
        for k, c in enumerate(self.crossings):
            if not isinstance(c, Crossing):
                raise DomainError(f"a crossing is a Crossing, got a {type(c).__name__}")
            for p, e in enumerate(c.edges, 4 * k):
                points.setdefault(e, []).append(p)
        edges = tuple(sorted(points))
        bad = [e for e in edges if len(points[e]) != 2]
        ends = {}
        partner = [0] * (4 * len(self.crossings))
        if bad:
            problems.append(f"edge multiplicity: labels {_shown_repr(bad)} do not appear twice")
        else:
            wrong = []
            for e in edges:
                p, q = points[e]
                partner[p] = q
                partner[q] = p
                # slot 2 and the over strand's exit, slot 2 + sign, are outgoing
                p_out = (p & 3) in (2, 2 + self.crossings[p >> 2].sign)
                if p_out == ((q & 3) in (2, 2 + self.crossings[q >> 2].sign)):
                    wrong.append(e)
                ends[e] = (p, q) if p_out else (q, p)
            if wrong:
                problems.append(
                    f"orientation: labels {_shown_repr(wrong)} lack one incoming and one "
                    "outgoing end"
                )
        if problems:
            raise DomainError("invalid diagram: " + "; ".join(problems))
        seen = [False] * len(partner)
        faces = []
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
            faces.append(tuple(orbit))
        # Euler: a connected piece of c crossings is planar iff it has c + 2 faces
        count = len(self.crossings)
        joins = [(p >> 2, q >> 2) for p, q in ends.values()]
        pieces = len(set(component_labels(count, joins)))
        if len(faces) != count + 2 * pieces:
            raise DomainError(
                f"invalid diagram: not planar: {len(faces)} faces, where {count} "
                f"crossings in {pieces} connected pieces need {count + 2 * pieces}"
            )
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "partner", tuple(partner))
        object.__setattr__(self, "faces", tuple(faces))

    def writhe(self) -> int:
        return sum(c.sign for c in self.crossings)

    def crossing_count(self) -> int:
        return len(self.crossings)

    def component_edge_sets(self) -> list[frozenset[int]]:
        """Edge labels grouped by link component (free circles excluded),
        in order of each component's smallest label."""
        edges = self.edges
        index = {e: i for i, e in enumerate(edges)}
        # a strand's two ends sit two slots apart
        joins = [(index[c.edges[s]], index[c.edges[s + 2]])
                 for c in self.crossings for s in (0, 1)]
        groups: dict[int, set[int]] = {}
        # edges ascend, so each class first appears at its smallest label
        for e, root in zip(edges, component_labels(len(edges), joins)):
            groups.setdefault(root, set()).add(e)
        return [frozenset(g) for g in groups.values()]

    def component_count(self) -> int:
        return len(self.component_edge_sets()) + self.unknot_count

    def to_text(self) -> str:
        items = [str(c) for c in self.crossings]
        if self.unknot_count:
            items.append(f"O[{self.unknot_count}]")
        return ", ".join(items) if items else "O[0]"

    def __str__(self) -> str:
        return self.to_text()


_ITEM = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+);([+-])\]|O\[(\d+)\]")

#: Most digits a label or a free-circle count may have in the text form.
DIGIT_LIMIT = 18


def parse_diagram(text: str) -> LinkDiagram:
    """Parse the ``X[a,b,c,d;+], O[k]`` text form of a diagram.

    Raises ParseError on unrecognized text, on a number longer than
    DIGIT_LIMIT digits, or on a diagram that breaks the PD invariants.
    Positions refer to the input with whitespace removed.
    """
    crossings: list[Crossing] = []
    circles = 0
    body = re.sub(r"\s+", "", text)
    pos = 0
    while pos < len(body):
        if body[pos] == ",":
            pos += 1
            continue
        m = _ITEM.match(body, pos)
        if not m:
            raise ParseError("unrecognized diagram text", pos)
        for k in (1, 2, 3, 4, 6):
            # int() is never asked to read a longer number (it refuses
            # past ~4,300 digits), and the digits are not echoed
            if len((m.group(k) or "").lstrip("0")) > DIGIT_LIMIT:
                raise ParseError(f"number longer than {DIGIT_LIMIT} digits", m.start(k))
        if m.group(6) is not None:
            circles += int(m.group(6))
        else:
            a, b, c, d = (int(m.group(k)) for k in range(1, 5))
            sign = 1 if m.group(5) == "+" else -1
            crossings.append(Crossing((a, b, c, d), sign))
        pos = m.end()
    try:
        return LinkDiagram(tuple(crossings), circles)
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def require_plat_index(w: BraidWord):
    """Raise DomainError unless ``w`` has an even index, as a plat needs."""
    if w.index % 2:
        raise DomainError(f"plat closure needs an even braid index, got {_shown(w.index)}")


def _walk(w: BraidWord, plat: bool):
    """One pass over the word for either closure.

    Every letter ends the two arcs it meets and starts two new ones;
    an arc end is ``2 * label`` at its top and ``2 * label + 1`` at its
    bottom, and ``link`` pairs each end with the end it runs into.  The
    closures differ only in their boundary: a trace closure joins bottom
    p to top p, a plat closure caps tops (2i-1, 2i) and cups bottoms
    likewise.  Each component is then walked from its leftmost top arc,
    oriented downward since the diagram reads top to bottom.

    Returns the letters as arc quadruples ``(a, b, c, d, sign)`` (a
    upper-left, b upper-right, c lower-left, d lower-right), the arc
    pairs the boundary joins, the top and bottom arcs, and per arc its
    direction (+1 down, -1 up) and component number.  The work is
    O(n + letters), and BraidWord bounds n by STRAND_LIMIT.
    """
    n = w.index
    if plat:
        require_plat_index(w)
    size = n + 2 * len(w.letters) + 1
    link = [0] * (2 * size)
    top = list(range(1, n + 1))
    bottom = top.copy()
    quads = []
    fresh = n
    for gen, sign in w.letters:
        a = bottom[gen - 1]
        b = bottom[gen]
        c = fresh + 1
        d = fresh = fresh + 2
        quads.append((a, b, c, d, sign))
        # each strand path joins the bottom end of its upper arc to the
        # top end of its lower arc
        link[2 * a + 1] = 2 * d
        link[2 * d] = 2 * a + 1
        link[2 * b + 1] = 2 * c
        link[2 * c] = 2 * b + 1
        bottom[gen - 1] = c
        bottom[gen] = d
    if plat:
        caps = [(top[i], top[i + 1]) for i in range(0, n, 2)]
        cups = [(bottom[i], bottom[i + 1]) for i in range(0, n, 2)]
        joins = caps + cups
        ends = [(2 * x, 2 * y) for x, y in caps]
        ends += [(2 * x + 1, 2 * y + 1) for x, y in cups]
    else:
        joins = list(zip(bottom, top))
        ends = [(2 * x + 1, 2 * y) for x, y in joins]
    for e1, e2 in ends:
        link[e1] = e2
        link[e2] = e1

    direction = [0] * size
    component = [0] * size
    count = 0
    for start in top:
        if direction[start]:
            continue
        direction[start] = 1
        component[start] = count
        nxt = link[2 * start + 1]  # flowing down, leave by the bottom end
        while not direction[nxt >> 1]:
            # entering at the top end means the arc flows downward
            direction[nxt >> 1] = -1 if nxt & 1 else 1
            component[nxt >> 1] = count
            nxt = link[nxt ^ 1]
        count += 1
    return quads, joins, top, bottom, direction, component, count


def _closure(w: BraidWord, plat: bool) -> LinkDiagram:
    quads, joins, top, bottom, direction, _, _ = _walk(w, plat)
    # the boundary merges the arcs it joins into a single diagram edge;
    # edges are numbered 1, 2, ... in order of first appearance
    merged = component_labels(len(direction), joins)
    number: dict[int, int] = {}
    crossings = []
    for a, b, c, d, sign in quads:
        # a positive letter carries the left strand over
        over, under = ((a, d), (b, c)) if sign > 0 else ((b, c), (a, d))
        d_over = direction[over[0]]
        d_under = direction[under[0]]
        o_in, o_out = over if d_over > 0 else (over[1], over[0])
        u_in, u_out = under if d_under > 0 else (under[1], under[0])
        signed = sign * d_over * d_under
        # slots in the order of Crossing.from_strands
        ends = (u_in, o_in, u_out, o_out) if signed > 0 else (u_in, o_out, u_out, o_in)
        edges = tuple(number.setdefault(merged[x], len(number) + 1) for x in ends)
        crossings.append(Crossing(edges, signed))
    circles = len({merged[x] for x in top + bottom}.difference(number))
    return LinkDiagram(tuple(crossings), circles)


def closure_trace(w: BraidWord) -> LinkDiagram:
    """Close a braid by joining the i-th bottom end back to the i-th top end.

    Strands are oriented downward through the braid body, so a positive
    letter becomes a +1 crossing and the writhe equals the exponent sum.
    """
    return _closure(w, plat=False)


def closure_plat(w: BraidWord) -> LinkDiagram:
    """Close an even-index braid with caps (2i-1, 2i) on top and bottom."""
    return _closure(w, plat=True)


@dataclass(frozen=True)
class PlatProfile:
    """Per-component geometry of a plat closure.

    Components are numbered from 0 in order of their leftmost top strand;
    ``pair_component`` gives the component of each top cap pair
    (2i-1, 2i) in that numbering.  ``self_writhe``
    counts signed crossings where a component crosses itself;
    ``cup_count`` counts the bottom arcs belonging to each component
    (equal to its top-arc count).  ``writhe`` is the signed crossing
    total of the whole diagram, self- and inter-component alike.
    """

    component_count: int
    pair_component: tuple[int, ...]
    self_writhe: tuple[int, ...]
    cup_count: tuple[int, ...]
    writhe: int

    def linking_sum(self) -> int:
        """Half the signed count of inter-component crossings."""
        return (self.writhe - sum(self.self_writhe)) // 2


def plat_profile(w: BraidWord) -> PlatProfile:
    """Orientation-aware component data for the plat closure of ``w``.

    Crossing signs follow the same orientation pass as ``closure_plat``,
    so ``writhe`` agrees with ``closure_plat(w).writhe()``; components
    with no crossings at all (free circles) still count.
    """
    quads, _, top, bottom, direction, component, count = _walk(w, plat=True)
    self_writhe = [0] * count
    total = 0
    for a, b, _c, _d, sign in quads:
        signed = sign * direction[a] * direction[b]
        total += signed
        if component[a] == component[b]:
            self_writhe[component[a]] += signed
    cups = [0] * count
    for i in range(0, w.index, 2):
        cups[component[bottom[i]]] += 1
    pairs = tuple(component[top[i]] for i in range(0, w.index, 2))
    return PlatProfile(count, pairs, tuple(self_writhe), tuple(cups), total)
