"""Garside left-canonical normal form; solves the word problem in B_n.

Every braid has a unique expression Delta^p x1 x2 .. xk where Delta is the
positive half twist, each xi is a simple element (the positive lift of a
permutation) different from the identity and from Delta, and each adjacent
pair is left-weighted: every generator that can start x(i+1) must be able
to end xi.  Two words represent the same braid element exactly when these
data coincide, so equality testing reduces to computing the form.

While the form is built, simple elements are 0-based image tuples of
their permutations, and sets of generators are int bitmasks (bit i for
s(i+1)).  For a permutation braid x, a generator si can start x iff
x(i) > x(i+1), and can end x iff i appears after i+1 in the image list.

The form is built one letter at a time: each letter is a simple factor
multiplied on the right, and the pairs are then repaired from right to
left, stopping at the first pair that is already left-weighted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, Permutation
from .errors import DomainError

__all__ = ["NormalForm", "normal_form", "words_equal", "is_trivial"]


def _half_twist(n: int) -> Permutation:
    """The permutation of Delta_n: i -> n + 1 - i."""
    return Permutation(tuple(range(n, 0, -1)))


def _starting_set(t: tuple[int, ...]) -> int:
    """Bitmask of the generators that can start the simple element t:
    bit i is set when t[i] > t[i+1]."""
    bits = 0
    for i in range(len(t) - 1):
        if t[i] > t[i + 1]:
            bits |= 1 << i
    return bits


def _finishing_set(t: tuple[int, ...]) -> int:
    """Bitmask of the generators that can end t: the starting set of t^-1."""
    inv = [0] * len(t)
    for i, v in enumerate(t):
        inv[v] = i
    return _starting_set(inv)


def _append_gen(t: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The simple element t followed by s(i+1): swap the values i, i+1."""
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in t)


def _strip_gen(t: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Remove a leading s(i+1) from t: swap the entries at positions i, i+1."""
    return t[:i] + (t[i + 1], t[i]) + t[i + 2:]


def _left_weight_pair(x: tuple[int, ...], y: tuple[int, ...]):
    """Slide leading generators of y into x until the pair is left-weighted;
    None when it already is.

    A half twist y moves past x in one step: x Delta = Delta tau(x), where
    tau(x) = Delta^-1 x Delta maps each si to s(n-i).
    """
    n = len(x)
    if y == tuple(range(n - 1, -1, -1)):
        return None if x == y else (y, tuple(n - 1 - v for v in reversed(x)))
    moved = False
    while movable := _starting_set(y) & ~_finishing_set(x):
        i = (movable & -movable).bit_length() - 1  # the smallest movable
        x, y = _append_gen(x, i), _strip_gen(y, i)
        moved = True
    return (x, y) if moved else None


@dataclass(frozen=True)
class NormalForm:
    """Left-canonical data (power of Delta, then left-weighted simple factors) of a braid."""

    index: int
    infimum: int
    factors: tuple[Permutation, ...]

    def canonical_length(self) -> int:
        return len(self.factors)

    def to_word(self) -> BraidWord:
        """Some braid word representing this element (used for round trips)."""
        n = self.index
        letters: list[tuple[int, int]] = []
        delta_word = _positive_lift_word(_half_twist(n))
        if self.infimum >= 0:
            letters.extend([(g, 1) for g in delta_word] * self.infimum)
        else:
            inv = [(g, -1) for g in reversed(delta_word)]
            letters.extend(inv * (-self.infimum))
        for f in self.factors:
            letters.extend((g, 1) for g in _positive_lift_word(f))
        return BraidWord(n, tuple(letters))

    def __str__(self) -> str:
        fs = " . ".join(
            "".join(f"s{g}" for g in _positive_lift_word(f)) for f in self.factors
        )
        return f"D^{self.infimum}" + (f" . {fs}" if fs else "")


def _positive_lift_word(p: Permutation) -> list[int]:
    """A reduced word (generator indices) for the permutation braid of p."""
    word: list[int] = []
    t = tuple(v - 1 for v in p.targets)
    while starting := _starting_set(t):
        i = (starting & -starting).bit_length() - 1
        word.append(i + 1)
        t = _strip_gen(t, i)
    return word


def normal_form(w: BraidWord) -> NormalForm:
    """Compute the left-canonical form of a braid word."""
    n = w.index
    if n == 1:
        if w.letters:
            raise DomainError("B_1 has no generators")
        return NormalForm(1, 0, ())
    identity = tuple(range(n))
    delta = identity[::-1]

    # A positive letter si is the simple element si; a negative one is
    # Delta^-1 times the simple element Delta si^-1.  Pushing each Delta^-1
    # to the front conjugates every letter to its left by Delta, which maps
    # si to s(n-i); so a letter is flipped when an odd number of negative
    # letters follow it.
    infimum = -sum(1 for _, sign in w.letters if sign < 0)
    after = -infimum
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
