"""Exact Jones polynomial by two independent routes.

Route one is the Kauffman bracket as a brute-force state sum over all
2^c smoothings of a diagram.  Route two represents the braid group
inside the Temperley-Lieb diagram algebra and takes the Markov trace of
the trace closure.  It has one engine: a lazily memoised cup-cap action
``(n, i, matching) -> (matching times E_i, delta^loops)`` and one loop
that propagates a combination of basis diagrams through a word over it.
Both routes end in the same bracket-to-Jones step.  The two must agree
exactly, which is the backbone correctness check for the whole package.

Conventions pinned here once and used everywhere: the bracket variable
is A with loop value delta = -A^2 - A^-2; a positive crossing smooths
with weight A on the smoothing that joins slot 0 to slot 3; the Jones
variable is t = A^-4 and the writhe factor is (-A^3)^(-w).  Under these
choices a positive kink contributes -A^3 and the right-handed trefoil
comes out in negative powers of t.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache

from .braid import BraidWord
from .diagram import LinkDiagram
from .errors import DomainError, LimitError
from .laurent import LaurentPoly

__all__ = [
    "kauffman_bracket",
    "jones_polynomial",
    "markov_trace_jones",
    "noncrossing_matchings",
    "LOOP_VALUE",
    "CROSSING_LIMIT_ENV",
]

DEFAULT_CROSSING_LIMIT = 20
DEFAULT_TL_STRANDS = 10

#: Environment variable overriding the state-sum crossing limit.
CROSSING_LIMIT_ENV = "KNIT_CROSSING_LIMIT"

# delta = -A^2 - A^-2 (exponent numerators are quarter-units)
LOOP_VALUE = LaurentPoly.from_dict({8: -1, -8: -1})


def _crossing_limit(limit: int | None) -> int:
    source = "crossing limit"
    if limit is None:
        raw = os.environ.get(CROSSING_LIMIT_ENV)
        if raw is None:
            return DEFAULT_CROSSING_LIMIT
        source = CROSSING_LIMIT_ENV
        try:
            limit = int(raw)
        except ValueError:
            raise DomainError(
                f"{source} must be an integer, got {raw!r}"
            ) from None
    if limit < 0:
        raise DomainError(f"{source} must be nonnegative, got {limit}")
    return limit


def kauffman_bracket(d: LinkDiagram, limit: int | None = None) -> LaurentPoly:
    """Bracket polynomial in A over all smoothing states, exactly.

    The A-smoothing joins slot 0 to slot 3 and slot 1 to slot 2; the
    B-smoothing joins 0-1 and 2-3.  Each state contributes
    A^(#A - #B) * delta^(loops - 1), counting free circles as loops.
    Raises LimitError past the crossing limit (default 20, or the
    KNIT_CROSSING_LIMIT environment variable) and DomainError when that
    limit is negative or not an integer.
    """
    problems = d.validate()
    if problems:
        raise DomainError("invalid diagram: " + "; ".join(problems))
    c = d.crossing_count()
    cap = _crossing_limit(limit)
    if c > cap:
        raise LimitError(
            f"state sum over {c} crossings exceeds the limit {cap}"
        )
    if c == 0 and d.unknot_count == 0:
        raise DomainError("the empty diagram has no bracket")

    # two occurrences of each edge, as flat node ids 4*crossing + slot
    occurrence: dict[int, list[int]] = {}
    for ci, cr in enumerate(d.crossings):
        for si, e in enumerate(cr.edges):
            occurrence.setdefault(e, []).append(4 * ci + si)
    base = list(range(4 * c))

    def find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(parent, a, b):
        ra, rb = find(parent, a), find(parent, b)
        if ra != rb:
            parent[rb] = ra

    for ends in occurrence.values():
        union(base, ends[0], ends[1])

    delta_powers = [LaurentPoly.one()]

    total: dict[int, int] = {}
    for state in range(1 << c):
        parent = base.copy()
        b_count = 0
        for ci in range(c):
            k = 4 * ci
            if (state >> ci) & 1:
                b_count += 1
                union(parent, k, k + 1)
                union(parent, k + 2, k + 3)
            else:
                union(parent, k, k + 3)
                union(parent, k + 1, k + 2)
        loops = len({find(parent, x) for x in range(4 * c)})
        loops += d.unknot_count
        while loops > len(delta_powers):
            delta_powers.append(delta_powers[-1] * LOOP_VALUE)
        weight = 4 * (c - 2 * b_count)  # A^(#A - #B) in quarter-units
        for num, coeff in delta_powers[loops - 1].terms:
            key = num + weight
            total[key] = total.get(key, 0) + coeff
    return LaurentPoly.from_dict(total)


def _bracket_to_jones(bracket: LaurentPoly, writhe: int) -> LaurentPoly:
    """Times the writhe factor (-A^3)^(-writhe), then t = A^-4."""
    correction = LaurentPoly.monomial(-1 if writhe % 2 else 1, -12 * writhe, 4)
    return (correction * bracket).substitute_power(Fraction(-1, 4))


def jones_polynomial(d: LinkDiagram, limit: int | None = None) -> LaurentPoly:
    """Jones polynomial in t: writhe-corrected bracket with t = A^-4."""
    return _bracket_to_jones(kauffman_bracket(d, limit), d.writhe())


def noncrossing_matchings(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All non-crossing perfect matchings of 2n circle points, Catalan(n)."""
    return _noncrossing(2 * n)


@lru_cache(maxsize=None)
def _noncrossing(points: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    if points == 0:
        return ((),)
    out = []
    for k in range(1, points, 2):
        for inside in _noncrossing(k - 1):
            shifted_in = tuple((a + 1, b + 1) for a, b in inside)
            for outside in _noncrossing(points - k - 1):
                shifted_out = tuple((a + k + 1, b + k + 1) for a, b in outside)
                out.append(
                    tuple(sorted(((0, k),) + shifted_in + shifted_out))
                )
    return tuple(out)


def _identity_matching(n: int) -> tuple[tuple[int, int], ...]:
    # top position p is circle point p; bottom position p is 2n-1-p
    return tuple(sorted((p, 2 * n - 1 - p) for p in range(n)))


def _cupcap_matching(n: int, i: int) -> tuple[tuple[int, int], ...]:
    pairs = [(i - 1, i), (2 * n - 1 - (i - 1), 2 * n - 1 - i)]
    for p in range(n):
        if p not in (i - 1, i):
            pairs.append((p, 2 * n - 1 - p))
    return tuple(sorted(tuple(sorted(q)) for q in pairs))


def _components(size: int, edges) -> list[int]:
    """Root label of every node 0..size-1 once ``edges`` are joined."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    return [find(x) for x in range(size)]


def _compose(n: int, upper, lower) -> tuple[tuple[tuple[int, int], ...], int]:
    """Stack ``lower`` below ``upper``; matching of the result plus the
    number of closed loops swallowed at the interface."""
    # nodes: 0..n-1 upper top, n..2n-1 interface, 2n..3n-1 lower bottom

    def upper_node(idx):
        return idx if idx < n else n + (2 * n - 1 - idx)

    def lower_node(idx):
        return n + idx if idx < n else 2 * n + (2 * n - 1 - idx)

    edges = [(upper_node(a), upper_node(b)) for a, b in upper]
    edges += [(lower_node(a), lower_node(b)) for a, b in lower]
    root = _components(3 * n, edges)

    external: dict[int, list[int]] = {}
    for p in range(n):
        external.setdefault(root[p], []).append(p)
        external.setdefault(root[2 * n + p], []).append(2 * n - 1 - p)
    pairs = [tuple(sorted(members)) for members in external.values()]
    interface_roots = {root[n + p] for p in range(n)}
    loops = len(interface_roots - set(external))
    return tuple(sorted(pairs)), loops


def _closure_loops(n: int, matching) -> int:
    closing = [(p, 2 * n - 1 - p) for p in range(n)]
    return len(set(_components(2 * n, list(matching) + closing)))


@lru_cache(maxsize=None)
def _cupcap_action(n: int, i: int, matching) -> tuple[tuple, LaurentPoly]:
    """``matching`` times E_i: the composed basis element and delta^loops.

    Filled lazily, one (n, i, matching) at a time, as words visit them;
    it never holds more than Catalan(n) * (n - 1) entries per n.
    """
    composed, loops = _compose(n, matching, _cupcap_matching(n, i))
    return composed, LOOP_VALUE**loops


def _propagate(n: int, letters, vector: dict) -> dict:
    """Multiply a combination of basis diagrams by each letter in turn.

    A positive generator acts as A*Id + A^-1*E_i, its inverse as
    A^-1*Id + A*E_i; zero coefficients are dropped after every letter.
    """
    a_plus = LaurentPoly.monomial(1, 1)  # A
    a_minus = LaurentPoly.monomial(1, -1)
    for gen, sign in letters:
        straight, bent = (a_plus, a_minus) if sign > 0 else (a_minus, a_plus)
        nxt: dict[tuple, LaurentPoly] = {}
        for m, coeff in vector.items():
            prior = nxt.get(m, LaurentPoly.zero())
            nxt[m] = prior + coeff * straight
            composed, scale = _cupcap_action(n, gen, m)
            prior = nxt.get(composed, LaurentPoly.zero())
            nxt[composed] = prior + coeff * bent * scale
        vector = {m: v for m, v in nxt.items() if not v.is_zero()}
    return vector


def markov_trace_jones(w: BraidWord) -> LaurentPoly:
    """Jones polynomial of the trace closure through the TL representation.

    Propagates the identity diagram through the word, closes every basis
    diagram, weights by delta^(loops-1), applies the writhe correction
    and lands in t.  Agrees exactly with the state-sum route.
    """
    n = w.index
    if n > DEFAULT_TL_STRANDS:
        raise DomainError(
            f"strand count {n} beyond the diagram-basis limit {DEFAULT_TL_STRANDS}"
        )
    start = {_identity_matching(n): LaurentPoly.one()}
    bracket = LaurentPoly.zero()
    for m, coeff in _propagate(n, w.letters, start).items():
        loops = _closure_loops(n, m)
        bracket = bracket + coeff * LOOP_VALUE ** (loops - 1)
    return _bracket_to_jones(bracket, w.exponent_sum())
