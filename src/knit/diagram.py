"""Planar link diagrams as PD codes, plus the two braid closures.

A crossing stores its four edge labels counterclockwise starting at the
incoming under-strand end, together with the crossing sign.  The under
strand always runs from slot 0 to slot 2; the sign says which way the
over strand runs: +1 means it enters at slot 1, -1 means it enters at
slot 3.  Orientation of the whole diagram is therefore carried by the
in/out role of each edge end and needs no separate flags.

Crossing-free circle components cannot be expressed by PD crossings, so
the diagram carries an explicit count of them.

Text form: one ``X[a,b,c,d;+]`` item per crossing, comma separated, with
an optional ``O[k]`` item for k free circles.  Whitespace never matters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .braid import BraidWord
from .errors import DomainError, ParseError

__all__ = [
    "Crossing",
    "LinkDiagram",
    "PlatProfile",
    "closure_trace",
    "closure_plat",
    "plat_pair_components",
    "plat_profile",
    "parse_diagram",
]


@dataclass(frozen=True)
class Crossing:
    """Four edge labels, counterclockwise from the incoming under-end."""

    edges: tuple[int, int, int, int]
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DomainError(f"crossing sign must be +-1, got {self.sign}")
        if len(self.edges) != 4:
            raise DomainError("a crossing has exactly four edge ends")

    @property
    def under_in(self) -> int:
        return self.edges[0]

    @property
    def under_out(self) -> int:
        return self.edges[2]

    @property
    def over_in(self) -> int:
        return self.edges[1] if self.sign > 0 else self.edges[3]

    @property
    def over_out(self) -> int:
        return self.edges[3] if self.sign > 0 else self.edges[1]

    @staticmethod
    def from_strands(
        u_in: int, u_out: int, o_in: int, o_out: int, sign: int
    ) -> "Crossing":
        if sign > 0:
            return Crossing((u_in, o_in, u_out, o_out), 1)
        return Crossing((u_in, o_out, u_out, o_in), -1)

    def incoming(self) -> tuple[int, int]:
        return (self.under_in, self.over_in)

    def outgoing(self) -> tuple[int, int]:
        return (self.under_out, self.over_out)

    def relabel(self, mapping: dict[int, int]) -> "Crossing":
        return Crossing(tuple(mapping[e] for e in self.edges), self.sign)

    def __str__(self) -> str:
        a, b, c, d = self.edges
        return f"X[{a},{b},{c},{d};{'+' if self.sign > 0 else '-'}]"


class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        root = self.parent.setdefault(x, x)
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@dataclass(frozen=True)
class LinkDiagram:
    """An oriented link diagram: PD crossings plus free circles.

    Values are plain data; ``validate`` reports invariant violations so
    that malformed input can be inspected rather than exploding during
    construction.  Operations that need a sound diagram check first.
    """

    crossings: tuple[Crossing, ...]
    unknot_count: int = 0

    @property
    def edges(self) -> tuple[int, ...]:
        seen = set()
        for c in self.crossings:
            seen.update(c.edges)
        return tuple(sorted(seen))

    def validate(self) -> list[str]:
        """Invariant violations as human-readable strings; empty means ok."""
        problems = []
        if self.unknot_count < 0:
            problems.append("free-circle count is negative")
        counts: dict[int, int] = {}
        for c in self.crossings:
            for e in c.edges:
                counts[e] = counts.get(e, 0) + 1
        bad = sorted(e for e, k in counts.items() if k != 2)
        if bad:
            problems.append(f"edge multiplicity: labels {bad} do not appear twice")
        else:
            ins: dict[int, int] = {}
            outs: dict[int, int] = {}
            for c in self.crossings:
                for e in c.incoming():
                    ins[e] = ins.get(e, 0) + 1
                for e in c.outgoing():
                    outs[e] = outs.get(e, 0) + 1
            wrong = sorted(
                e for e in counts if ins.get(e, 0) != 1 or outs.get(e, 0) != 1
            )
            if wrong:
                problems.append(
                    f"orientation: labels {wrong} lack one incoming and one "
                    "outgoing end"
                )
        return problems

    def _require_valid(self):
        problems = self.validate()
        if problems:
            raise DomainError("invalid diagram: " + "; ".join(problems))

    def writhe(self) -> int:
        self._require_valid()
        return sum(c.sign for c in self.crossings)

    def crossing_count(self) -> int:
        return len(self.crossings)

    def component_edge_sets(self) -> list[frozenset[int]]:
        """Edge labels grouped by link component (free circles excluded)."""
        self._require_valid()
        uf = _UnionFind()
        for c in self.crossings:
            uf.union(c.under_in, c.under_out)
            uf.union(c.over_in, c.over_out)
        groups: dict[int, set[int]] = {}
        for e in self.edges:
            groups.setdefault(uf.find(e), set()).add(e)
        return [frozenset(g) for _, g in sorted(groups.items())]

    def component_count(self) -> int:
        return len(self.component_edge_sets()) + self.unknot_count

    def mirror(self) -> "LinkDiagram":
        """Flip every crossing (swap over and under), keeping orientations."""
        flipped = tuple(
            Crossing.from_strands(
                c.over_in, c.over_out, c.under_in, c.under_out, -c.sign
            )
            for c in self.crossings
        )
        return LinkDiagram(flipped, self.unknot_count)

    def relabeled(self) -> "LinkDiagram":
        """Rename edges 1..E in first-appearance order; canonical form."""
        mapping: dict[int, int] = {}
        for c in self.crossings:
            for e in c.edges:
                if e not in mapping:
                    mapping[e] = len(mapping) + 1
        return LinkDiagram(
            tuple(c.relabel(mapping) for c in self.crossings), self.unknot_count
        )

    def to_text(self) -> str:
        items = [str(c) for c in self.crossings]
        if self.unknot_count:
            items.append(f"O[{self.unknot_count}]")
        return ", ".join(items) if items else "O[0]"

    def __str__(self) -> str:
        return self.to_text()


_ITEM = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+);([+-])\]|O\[(\d+)\]")


def parse_diagram(text: str) -> LinkDiagram:
    """Parse the ``X[a,b,c,d;+], O[k]`` text form of a diagram.

    Raises ParseError on unrecognized text or on a diagram that breaks
    the PD invariants.  Positions refer to the input with whitespace
    removed.
    """
    crossings: list[Crossing] = []
    circles = 0
    body = re.sub(r"\s+", "", text).strip(",")
    pos = 0
    while pos < len(body):
        if body[pos] == ",":
            pos += 1
            continue
        m = _ITEM.match(body, pos)
        if not m:
            raise ParseError(f"unrecognized diagram text at position {pos}", pos)
        if m.group(6) is not None:
            circles += int(m.group(6))
        else:
            a, b, c, d = (int(m.group(k)) for k in range(1, 5))
            sign = 1 if m.group(5) == "+" else -1
            crossings.append(Crossing((a, b, c, d), sign))
        pos = m.end()
    diagram = LinkDiagram(tuple(crossings), circles)
    problems = diagram.validate()
    if problems:
        raise ParseError("invalid diagram: " + "; ".join(problems))
    return diagram


def closure_trace(w: BraidWord) -> LinkDiagram:
    """Close a braid by joining the i-th bottom end back to the i-th top end.

    Strands are oriented downward through the braid body, so a positive
    letter becomes a +1 crossing and the writhe equals the exponent sum.
    """
    n = w.index
    fresh = n
    current = list(range(1, n + 1))
    top = list(range(1, n + 1))
    raw: list[tuple[int, int, int, int, int]] = []
    for gen, sign in w.letters:
        a = current[gen - 1]
        b = current[gen]
        c, d = fresh + 1, fresh + 2
        fresh += 2
        raw.append((a, b, c, d, sign))
        current[gen - 1] = c
        current[gen] = d

    uf = _UnionFind()
    for p in range(n):
        uf.union(current[p], top[p])
    crossings = []
    for a, b, c, d, sign in raw:
        a, b, c, d = uf.find(a), uf.find(b), uf.find(c), uf.find(d)
        if sign > 0:
            # the strand from upper-left runs over to lower-right
            crossings.append(Crossing.from_strands(b, c, a, d, 1))
        else:
            crossings.append(Crossing.from_strands(a, d, b, c, -1))

    used = {e for cr in crossings for e in cr.edges}
    circles = len({uf.find(p + 1) for p in range(n)} - used)
    return LinkDiagram(tuple(crossings), circles).relabeled()


def _plat_arcs(w: BraidWord):
    """Arc labels and end links for the plat closure of ``w``.

    An arc end is (label, 0) at its top, (label, 1) at its bottom.  Links
    pair up ends through crossings, caps and cups; every end occurs in
    exactly one link, so the links define the link components.
    """
    n = w.index
    fresh = n
    current = list(range(1, n + 1))
    top = list(range(1, n + 1))
    raw = []
    links: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for gen, sign in w.letters:
        a = current[gen - 1]
        b = current[gen]
        c, d = fresh + 1, fresh + 2
        fresh += 2
        raw.append((a, b, c, d, sign))
        # each strand path joins the bottom end of its upper arc to the
        # top end of its lower arc
        links.append(((a, 1), (d, 0)))
        links.append(((b, 1), (c, 0)))
        current[gen - 1] = c
        current[gen] = d
    for i in range(0, n, 2):
        links.append(((top[i], 0), (top[i + 1], 0)))
        links.append(((current[i], 1), (current[i + 1], 1)))
    return raw, links, top, current


def _orient_plat(links, top):
    """Direction flag per arc (+1 down, -1 up) and component per arc.

    Each component is traversed starting from its leftmost top arc,
    which is oriented downward: the diagram reads top to bottom.
    """
    link_of: dict[tuple[int, int], tuple[int, int]] = {}
    for e1, e2 in links:
        link_of[e1] = e2
        link_of[e2] = e1
    direction: dict[int, int] = {}
    component: dict[int, int] = {}
    comp_id = 0
    for start in top:
        if start in direction:
            continue
        direction[start] = 1
        component[start] = comp_id
        arc, end = start, 1  # flowing down, exit at the bottom end
        while True:
            nxt_arc, nxt_end = link_of[(arc, end)]
            if nxt_arc in direction:
                break
            # entering at the top end means the arc flows downward
            direction[nxt_arc] = 1 if nxt_end == 0 else -1
            component[nxt_arc] = comp_id
            arc, end = nxt_arc, 1 - nxt_end
        comp_id += 1
    return direction, component


def _plat_crossings(raw, direction):
    crossings = []
    for a, b, c, d, sign in raw:
        # geometric ends: a upper-left, b upper-right, c lower-left,
        # d lower-right; a positive letter carries the left strand over
        over = (a, d) if sign > 0 else (b, c)
        under = (b, c) if sign > 0 else (a, d)
        d_over = direction[over[0]]
        d_under = direction[under[0]]
        o_in, o_out = over if d_over > 0 else (over[1], over[0])
        u_in, u_out = under if d_under > 0 else (under[1], under[0])
        crossings.append(
            Crossing.from_strands(u_in, u_out, o_in, o_out, sign * d_over * d_under)
        )
    return crossings


def closure_plat(w: BraidWord) -> LinkDiagram:
    """Close an even-index braid with caps (2i-1, 2i) on top and bottom."""
    n = w.index
    if n % 2:
        raise DomainError(f"plat closure needs an even braid index, got {n}")
    raw, links, top, bottom = _plat_arcs(w)
    direction, _ = _orient_plat(links, top)
    crossings = _plat_crossings(raw, direction)

    # caps and cups merge their two arcs into a single diagram edge
    uf = _UnionFind()
    for i in range(0, n, 2):
        uf.union(top[i], top[i + 1])
        uf.union(bottom[i], bottom[i + 1])
    merged = tuple(
        Crossing(tuple(uf.find(e) for e in c.edges), c.sign) for c in crossings
    )
    used = {e for c in merged for e in c.edges}
    boundary_classes = {uf.find(t) for t in top} | {uf.find(b) for b in bottom}
    circles = len(boundary_classes - used)
    return LinkDiagram(merged, circles).relabeled()


def plat_pair_components(w: BraidWord) -> tuple[int, ...]:
    """Component index of each top cap pair (2i-1, 2i) of the plat closure.

    Components are numbered from 0 in order of their leftmost top strand,
    matching the numbering the orientation pass uses.
    """
    return plat_profile(w).pair_component


@dataclass(frozen=True)
class PlatProfile:
    """Per-component geometry of a plat closure.

    Components are numbered from 0 in order of their leftmost top strand,
    the same numbering ``plat_pair_components`` uses.  ``self_writhe``
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
    n = w.index
    if n % 2:
        raise DomainError(f"plat closure needs an even braid index, got {n}")
    raw, links, top, bottom = _plat_arcs(w)
    direction, component = _orient_plat(links, top)
    count = max(component.values()) + 1
    self_writhe = [0] * count
    total = 0
    for a, b, _c, _d, sign in raw:
        signed = sign * direction[a] * direction[b]
        total += signed
        if component[a] == component[b]:
            self_writhe[component[a]] += signed
    cups = [0] * count
    for i in range(0, n, 2):
        cups[component[bottom[i]]] += 1
    pairs = tuple(component[top[i]] for i in range(0, n, 2))
    return PlatProfile(count, pairs, tuple(self_writhe), tuple(cups), total)
