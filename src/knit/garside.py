"""Garside left-canonical normal form; solves the word problem in B_n.

Every braid has a unique expression Delta^p x1 x2 .. xk where Delta is the
positive half twist, each xi is a simple element (the positive lift of a
permutation) different from the identity and from Delta, and each adjacent
pair is left-weighted: every generator that can start x(i+1) must be able
to end xi.  Two words represent the same braid element exactly when these
data coincide, so equality testing reduces to computing the form.

While the form is built, simple elements are 0-based image tuples of
their permutations.  For a permutation braid x, a generator si can start
x iff x(i) > x(i+1), and can end x iff i appears after i+1 in the image
list, that is iff xinv(i) > xinv(i+1) for the inverse list xinv.

The form is built one run at a time.  The word is split into maximal
same-sign runs whose positive lift is simple: si extends a run while its
two strands have not crossed yet.  A run is built on a mutable image
list p of P and its inverse pinv: the strands of si have crossed when
pinv[i] > pinv[i+1], and appending si swaps the values i and i+1 in p
and their positions in pinv, so a run costs O(n) to start and O(1) per
letter.  A positive run is its simple factor P; a negative run is
Delta^-1 times the simple factor Delta P, whose image list is P's
reversed.  Each factor is multiplied on the right, and the pairs are
then repaired from right to left, stopping at the first pair that is
already left-weighted.  A pair (x, y) is repaired on the lists y
and xinv: each generator that slides from y into x is one swap of two
adjacent entries in both lists.  When a repair makes a half twist, it
moves to the front in one pass, x Delta = Delta tau(x) with tau mapping
si to s(n-i), and joins the infimum; no pair to its left needs repair.

A run may repair every factor before it, and there are at most as many
factors as letters.  A pair repair scans n positions, plus a fixed
overhead worth about 16, and the factor of a negative run, Delta P, can
slide up to n^2 / 2 generators at about four positions' cost each.  So
normal_form refuses, before any work, a word whose cost estimate
letters * (letters * (n + 16) + 2 * inverse letters * n^2) passes
COST_LIMIT.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .braid import BraidWord
from .errors import DomainError, LimitError, _shown

__all__ = ["COST_LIMIT", "NormalForm", "normal_form", "words_equal", "is_trivial"]

#: Largest admitted cost estimate of one normal form (see the module
#: docstring).  The most expensive admitted words measured, one inverse
#: letter after long positive words at n = 1,000 (``s3^138 s2^-1``), take
#: 20-26 s; most admitted words take well under a second.
COST_LIMIT = 300_000_000


def _tau(x: tuple[int, ...]) -> tuple[int, ...]:
    """Delta^-1 x Delta, which maps each si to s(n-i)."""
    n = len(x)
    return tuple(n - 1 - v for v in reversed(x))


def _left_weight_pair(x: tuple[int, ...], y: tuple[int, ...]):
    """Slide leading generators of y into x until the pair is left-weighted;
    None when it already is.

    The repair works on two lists, y and the inverse of x.  Generator
    s(i+1) can start y when y[i] > y[i+1] and cannot end x when
    xinv[i] < xinv[i+1]; sliding it is one swap of entries i and i+1 in
    both lists.  A cursor scans left to right and steps back one place
    after a swap, since only positions i-1..i+1 can change; so the
    smallest movable generator slides first, and a pair costs
    O(n + slides).
    """
    n = len(x)
    xinv = [0] * n
    for i, v in enumerate(x):
        xinv[v] = i
    y = list(y)
    moved = False
    i = 0
    while i < n - 1:
        if y[i] > y[i + 1] and xinv[i] < xinv[i + 1]:
            y[i], y[i + 1] = y[i + 1], y[i]
            xinv[i], xinv[i + 1] = xinv[i + 1], xinv[i]
            moved = True
            if i:
                i -= 1
        else:
            i += 1
    if not moved:
        return None
    x = [0] * n
    for i, v in enumerate(xinv):
        x[v] = i
    return tuple(x), tuple(y)


@dataclass(frozen=True)
class NormalForm:
    """Left-canonical data of a braid: the power of Delta, then the
    left-weighted simple factors, each the 1-based image tuple of its
    permutation (as ``BraidWord.permutation`` gives it)."""

    index: int
    infimum: int
    factors: tuple[tuple[int, ...], ...]

    def canonical_length(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        names = [f"s{g}" for g in range(self.index)]
        fs = " . ".join(
            "".join(map(names.__getitem__, _positive_lift_word(f))) for f in self.factors
        )
        return f"D^{self.infimum}" + (f" . {fs}" if fs else "")


def _positive_lift_word(p: tuple[int, ...]) -> list[int]:
    """A reduced word (generator indices) for the permutation braid of the
    1-based image tuple p.

    An insertion sort of the image list: the value at position k moves
    left past the k - j larger values before it, which strips s(k),
    s(k-1), .., s(j+1).  Each strip takes the smallest generator that can
    start what is left, and the word costs O(n log n + its length).
    """
    word: list[int] = []
    seen: list[int] = []  # the values left of position k, sorted
    for k, v in enumerate(p):
        j = bisect.bisect(seen, v)
        seen.insert(j, v)
        word.extend(range(k, j, -1))
    return word


def normal_form(w: BraidWord) -> NormalForm:
    """Compute the left-canonical form of a braid word."""
    n = w.index
    if n <= 2:
        # B_2 is infinite cyclic, generated by s1 = Delta
        return NormalForm(n, w.exponent_sum(), ())
    inverse = sum(1 for _, sign in w.letters if sign < 0)
    letters = len(w.letters)
    cost = letters * (letters * (n + 16) + 2 * inverse * n * n)
    if cost > COST_LIMIT:
        raise LimitError(
            f"normal form of {letters} letters ({inverse} inverse) in B_{_shown(n)} "
            f"has cost estimate {_shown(cost)}, past {COST_LIMIT}"
        )
    identity = tuple(range(n))
    delta = identity[::-1]

    # maximal same-sign runs whose positive lift P is simple, each built
    # on P's image list p and its inverse pinv (see the module docstring)
    runs: list[tuple[int, tuple[int, ...]]] = []  # (sign, image tuple of P)
    run_sign, p, pinv = 0, identity, identity
    for gen, sign in w.letters:
        i = gen - 1
        a, b = pinv[i], pinv[i + 1]
        if sign != run_sign or a > b:
            if run_sign:
                runs.append((run_sign, tuple(p)))
            run_sign = sign
            p, pinv = list(identity), list(identity)
            a, b = i, i + 1
        p[a], p[b] = i + 1, i
        pinv[i], pinv[i + 1] = b, a
    if run_sign:
        runs.append((run_sign, tuple(p)))

    # Pushing each negative run's Delta^-1 to the front conjugates every
    # run to its left by Delta; so a run is flipped by tau when an odd
    # number of negative runs follow it.
    after = sum(1 for sign, _ in runs if sign < 0)
    infimum = -after
    factors: list[tuple[int, ...]] = []
    for sign, p in runs:
        if sign < 0:
            after -= 1
            p = p[::-1]
        factors.append(_tau(p) if after % 2 else p)
        # repair from the right; a half twist moves to the front in one pass
        k = len(factors) - 1
        while True:
            if factors[k] == delta:
                factors[: k + 1] = map(_tau, factors[:k])
                infimum += 1
                break
            pair = _left_weight_pair(factors[k - 1], factors[k]) if k else None
            if pair is None:
                break
            factors[k - 1], factors[k] = pair
            k -= 1
        # identities can only surface at the back
        while factors and factors[-1] == identity:
            factors.pop()
    return NormalForm(n, infimum, tuple(tuple(v + 1 for v in f) for f in factors))


def words_equal(a: BraidWord, b: BraidWord) -> bool:
    """Whether two words represent the same element of B_n."""
    if a.index != b.index:
        raise DomainError(
            f"cannot compare words in B_{_shown(a.index)} and B_{_shown(b.index)}"
        )
    return normal_form(a) == normal_form(b)


def is_trivial(w: BraidWord) -> bool:
    nf = normal_form(w)
    return nf.infimum == 0 and not nf.factors
