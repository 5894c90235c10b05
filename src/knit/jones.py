"""Exact Jones polynomial by two independent routes.

Both routes rest on one splice, ``_splice``: joins are spliced into a
partner list, and a join that meets its own partner closes a loop
while any other join makes the two partners partners.  Route one is
the Kauffman bracket as a state sum over all 2^c smoothings of a
diagram, walked depth first on an explicit stack: each prefix of
smoothing choices splices its joins into a copy of its parent's
partner list once and is shared by every state below it.  Route two
represents the braid group inside the Temperley-Lieb diagram algebra
and takes the Markov trace of the trace closure.  It has one engine:
a cup-cap action ``(n, i, diagram) -> (diagram times E_i, loop
closed?)`` that splices the cap, and one loop that propagates int
coefficients keyed by (basis diagram, A-exponent) through a word over
it; a closed diagram's loops are the splice of the closure joins.
Both routes tally their terms by (A-exponent, loops) as plain ints
and share only the close, in int arithmetic: binomial rows of
delta^(loops - 1) summed into the bracket, then one exponent map
A^a -> (-1)^w t^((3w - a)/4).  The two must agree exactly, which is
the backbone correctness check for the whole package.

Conventions pinned here once and used everywhere: the bracket variable
is A with loop value delta = -A^2 - A^-2; a positive crossing smooths
with weight A on the smoothing that joins slot 0 to slot 3; the Jones
variable is t = A^-4 and the writhe factor is (-A^3)^(-w).  Under these
choices a positive kink contributes -A^3 and the right-handed trefoil
comes out in negative powers of t.
"""

from __future__ import annotations

import os
from math import comb

from .braid import STRAND_LIMIT, BraidWord
from .diagram import LinkDiagram
from .errors import DomainError, LimitError, _quoted, _shown
from .laurent import LaurentPoly

__all__ = [
    "kauffman_bracket",
    "jones_polynomial",
    "markov_trace_jones",
    "LOOP_VALUE",
    "CROSSING_LIMIT_ENV",
]

DEFAULT_CROSSING_LIMIT = 20
DEFAULT_TL_STRANDS = 10

#: Most free circles the bracket admits: every closure of a braid on at
#: most STRAND_LIMIT strands.  Each circle is a factor delta, and delta^k
#: is a row of k + 1 big ints, so O[1000000000] is refused at once.
FREE_CIRCLE_LIMIT = STRAND_LIMIT

#: Environment variable overriding the state-sum crossing limit.
CROSSING_LIMIT_ENV = "KNIT_CROSSING_LIMIT"

# delta = -A^2 - A^-2 (exponent numerators are quarter-units)
LOOP_VALUE = LaurentPoly.from_dict({8: -1, -8: -1})


def _check_crossings(c: int):
    """Raise LimitError when a state sum over ``c`` crossings passes the
    limit: DEFAULT_CROSSING_LIMIT, or the KNIT_CROSSING_LIMIT environment
    variable when it is set."""
    raw = os.environ.get(CROSSING_LIMIT_ENV)
    cap = DEFAULT_CROSSING_LIMIT
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise DomainError(
                f"{CROSSING_LIMIT_ENV} must be an integer, got {_quoted(raw)}"
            ) from None
        if cap < 0:
            raise DomainError(f"{CROSSING_LIMIT_ENV} must be nonnegative, got {_shown(cap)}")
    if c > cap:
        raise LimitError(f"state sum over {c} crossings exceeds the limit {cap}")


def _splice(m: list[int], joins) -> int:
    """Splice each join (a, b) into the partner list ``m`` in place and
    return how many closed a loop.  A join of two partners closes one;
    any other join makes their partners partners."""
    loops = 0
    for a, b in joins:
        pa = m[a]
        if pa == b:
            loops += 1
        else:
            pb = m[b]
            m[pa] = pb
            m[pb] = pa
    return loops


def kauffman_bracket(d: LinkDiagram) -> LaurentPoly:
    """Bracket polynomial in A over all smoothing states, exactly.

    The A-smoothing joins slot 0 to slot 3 and slot 1 to slot 2; the
    B-smoothing joins 0-1 and 2-3.  Each state contributes
    A^(#A - #B) * delta^(loops - 1), counting free circles as loops.

    The states are walked depth first, on an explicit stack of
    (partner list, next crossing k, B count, loops) entries that starts
    from the diagram's ``partner`` list (its points as the ``diagram``
    module defines them).  An entry below crossing c pushes two children,
    each a copy of its list with one smoothing of crossing k spliced in
    by ``_splice``, so every prefix of smoothing choices is spliced once
    and shared by all the states below it.  An entry at crossing c is a
    state, tallied by (B count, loops); the polynomial is built once.

    Raises LimitError past the crossing limit (default 20, or the
    KNIT_CROSSING_LIMIT environment variable) or past FREE_CIRCLE_LIMIT
    free circles, and DomainError when the crossing limit is negative or
    not an integer.
    """
    c = d.crossing_count()
    _check_crossings(c)
    if d.unknot_count > FREE_CIRCLE_LIMIT:
        raise LimitError(
            f"{d.unknot_count} free circles exceed the limit {FREE_CIRCLE_LIMIT}"
        )
    if c == 0 and d.unknot_count == 0:
        raise DomainError("the empty diagram has no bracket")

    tally: dict[tuple[int, int], int] = {}
    stack = [(list(d.partner), 0, 0, d.unknot_count)]
    while stack:
        m, k, b, loops = stack.pop()
        if k == c:
            tally[b, loops] = tally.get((b, loops), 0) + 1
            continue
        p = 4 * k
        m_a, m_b = m.copy(), m  # the popped list is spliced as the B child
        stack.append((m_a, k + 1, b, loops + _splice(m_a, ((p, p + 3), (p + 1, p + 2)))))
        stack.append((m_b, k + 1, b + 1, loops + _splice(m_b, ((p, p + 1), (p + 2, p + 3)))))
    # A^(#A - #B) is A^(c - 2 #B)
    return _tally_to_bracket({(c - 2 * b, k): n for (b, k), n in tally.items()})


def _tally_to_bracket(tally: dict[tuple[int, int], int]) -> LaurentPoly:
    """Sum of count * A^exponent * delta^(loops - 1) over a tally that
    maps (A-exponent, loops) to an int: the close of both exact routes.
    Each entry adds the row delta^k = (-1)^k sum_i C(k, i) A^(2k - 4i)."""
    total: dict[int, int] = {}
    for (exponent, loops), count in tally.items():
        k = loops - 1
        signed = -count if k % 2 else count
        for i in range(k + 1):
            key = 4 * (exponent + 2 * k - 4 * i)  # quarter-units
            total[key] = total.get(key, 0) + signed * comb(k, i)
    return LaurentPoly.from_dict(total)


def _bracket_to_jones(bracket: LaurentPoly, writhe: int) -> LaurentPoly:
    """Times the writhe factor (-A^3)^(-writhe), then t = A^-4, so that
    c A^a becomes (-1)^writhe c t^((3 writhe - a)/4)."""
    sign = -1 if writhe % 2 else 1
    return LaurentPoly.from_dict({3 * writhe - n // 4: sign * c for n, c in bracket.terms})


def jones_polynomial(d: LinkDiagram) -> LaurentPoly:
    """Jones polynomial in t: writhe-corrected bracket with t = A^-4."""
    return _bracket_to_jones(kauffman_bracket(d), d.writhe())


def _identity_matching(n: int) -> tuple[int, ...]:
    return (*range(n, 2 * n), *range(n))


def _cupcap_action(
    n: int, i: int, m: tuple[int, ...]
) -> tuple[tuple[int, ...], bool]:
    """``m`` times E_i: the resulting basis diagram and whether a loop closed.

    E_i caps bottom points b and c of ``m``, a splice that closes a loop
    (a factor delta) when b and c were joined, and opens a fresh cup there.
    """
    b, c = n + i - 1, n + i
    out = list(m)
    closed = _splice(out, ((b, c),))
    out[b], out[c] = c, b
    return tuple(out), closed == 1


def _propagate(n: int, letters, vector: dict) -> dict:
    """Multiply a combination of basis diagrams by each letter in turn.

    ``vector`` maps (basis diagram, A-exponent) to an int.  A positive
    generator acts as A*Id + A^-1*E_i, its inverse as A^-1*Id + A*E_i,
    so each term shifts its exponent by +-1; a loop that E_i closes is
    delta = -A^2 - A^-2, two shifted subtractions.  Zero coefficients
    are dropped after every letter.
    """
    for gen, sign in letters:
        nxt: dict[tuple, int] = {}
        for (m, e), coeff in vector.items():
            key = (m, e + sign)
            nxt[key] = nxt.get(key, 0) + coeff
            composed, closed = _cupcap_action(n, gen, m)
            if closed:
                for key in ((m, e - sign + 2), (m, e - sign - 2)):
                    nxt[key] = nxt.get(key, 0) - coeff
            else:
                key = (composed, e - sign)
                nxt[key] = nxt.get(key, 0) + coeff
        vector = {key: v for key, v in nxt.items() if v}
    return vector


def markov_trace_jones(w: BraidWord) -> LaurentPoly:
    """Jones polynomial of the trace closure through the TL representation.

    Propagates the identity diagram through the word, closes every basis
    diagram by splicing in the closure joins, tallies the closed diagrams
    by (A-exponent, loops), applies the writhe correction and lands in t.
    Agrees exactly with the state-sum route.  Past ``DEFAULT_TL_STRANDS``
    strands it raises LimitError.
    """
    n = w.index
    if n > DEFAULT_TL_STRANDS:
        raise LimitError(
            f"strand count {n} beyond the diagram-basis limit {DEFAULT_TL_STRANDS}"
        )
    tally: dict[tuple[int, int], int] = {}
    start = {(_identity_matching(n), 0): 1}
    closure = [(p, n + p) for p in range(n)]
    for (m, e), coeff in _propagate(n, w.letters, start).items():
        # the trace closure joins top position p to bottom position p
        key = (e, _splice(list(m), closure))
        tally[key] = tally.get(key, 0) + coeff
    return _bracket_to_jones(_tally_to_bracket(tally), w.exponent_sum())
