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

The form is built one letter at a time: each letter is a simple factor
multiplied on the right, and the pairs are then repaired from right to
left, stopping at the first pair that is already left-weighted.  A pair
(x, y) is repaired on the lists y and xinv: each generator that slides
from y into x is one swap of two adjacent entries in both lists.

A letter may repair every factor before it, and there are at most as
many factors as letters.  A pair repair scans n positions, plus a fixed
overhead worth about 16, and the factor of an inverse letter, Delta
si^-1, can slide up to n^2 / 2 generators at about four positions' cost
each.  So normal_form refuses, before any work, a word whose cost
estimate letters * (letters * (n + 16) + 2 * inverse letters * n^2)
passes COST_LIMIT.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .braid import BraidWord, Permutation
from .errors import DomainError, LimitError

__all__ = ["COST_LIMIT", "NormalForm", "normal_form", "words_equal", "is_trivial"]

#: Largest admitted cost estimate of one normal form (see the module
#: docstring); the most expensive admitted words take about 10 s.
COST_LIMIT = 300_000_000


def _append_gen(t: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The simple element t followed by s(i+1): swap the values i, i+1."""
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in t)


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

    A half twist y moves past x in one step: x Delta = Delta tau(x), where
    tau(x) = Delta^-1 x Delta maps each si to s(n-i).
    """
    n = len(x)
    if y == tuple(range(n - 1, -1, -1)):
        return None if x == y else (y, tuple(n - 1 - v for v in reversed(x)))
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
    """Left-canonical data (power of Delta, then left-weighted simple factors) of a braid."""

    index: int
    infimum: int
    factors: tuple[Permutation, ...]

    def canonical_length(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        names = [f"s{g}" for g in range(self.index)]
        fs = " . ".join(
            "".join(map(names.__getitem__, _positive_lift_word(f))) for f in self.factors
        )
        return f"D^{self.infimum}" + (f" . {fs}" if fs else "")


def _positive_lift_word(p: Permutation) -> list[int]:
    """A reduced word (generator indices) for the permutation braid of p.

    An insertion sort of the image list: the value at position k moves
    left past the k - j larger values before it, which strips s(k),
    s(k-1), .., s(j+1).  Each strip takes the smallest generator that can
    start what is left, and the word costs O(n log n + its length).
    """
    word: list[int] = []
    seen: list[int] = []  # the values left of position k, sorted
    for k, v in enumerate(p.targets):
        j = bisect.bisect(seen, v)
        seen.insert(j, v)
        word.extend(range(k, j, -1))
    return word


def normal_form(w: BraidWord) -> NormalForm:
    """Compute the left-canonical form of a braid word."""
    n = w.index
    if n <= 2:
        # B_2 is infinite cyclic, generated by s1 = Delta
        if n == 1 and w.letters:
            raise DomainError("B_1 has no generators")
        return NormalForm(n, w.exponent_sum(), ())
    inverse = sum(1 for _, sign in w.letters if sign < 0)
    letters = len(w.letters)
    cost = letters * (letters * (n + 16) + 2 * inverse * n * n)
    if cost > COST_LIMIT:
        raise LimitError(
            f"normal form of {letters} letters ({inverse} inverse) in B_{n} "
            f"has cost estimate {cost}, past {COST_LIMIT}"
        )
    identity = tuple(range(n))
    delta = identity[::-1]

    # A positive letter si is the simple element si; a negative one is
    # Delta^-1 times the simple element Delta si^-1.  Pushing each Delta^-1
    # to the front conjugates every letter to its left by Delta, which maps
    # si to s(n-i); so a letter is flipped when an odd number of negative
    # letters follow it.
    infimum, after = -inverse, inverse
    factors: list[tuple[int, ...]] = []
    for gen, sign in w.letters:
        if sign < 0:
            after -= 1
        i = gen - 1 if after % 2 == 0 else n - 1 - gen
        # Multiply the left-weighted form by the letter's simple factor,
        # repairing pairs from the right until one is already left-weighted.
        factors.append(_append_gen(identity if sign > 0 else delta, i))
        k = len(factors) - 1
        while k:
            pair = _left_weight_pair(factors[k - 1], factors[k])
            if pair is None:
                break
            factors[k - 1], factors[k] = pair
            k -= 1
        # Delta factors can only surface at the front, identities at the back.
        while factors and factors[0] == delta:
            factors.pop(0)
            infimum += 1
        while factors and factors[-1] == identity:
            factors.pop()
    return NormalForm(
        n, infimum, tuple(Permutation(tuple(v + 1 for v in f)) for f in factors)
    )


def words_equal(a: BraidWord, b: BraidWord) -> bool:
    """Whether two words represent the same element of B_n."""
    if a.index != b.index:
        raise DomainError(
            f"cannot compare words in B_{a.index} and B_{b.index}"
        )
    return normal_form(a) == normal_form(b)


def is_trivial(w: BraidWord) -> bool:
    nf = normal_form(w)
    return nf.infimum == 0 and not nf.factors
