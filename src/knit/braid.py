"""Words in the Artin braid group B_n and their underlying permutations.

A braid word is a finite sequence of generators s1 .. s(n-1) and their
inverses.  Generators are written in the text form ``s3^-1 s2 s1^3``: each
token is ``s`` followed by a 1-based generator index and an optional nonzero
integer power.  Powers are expanded into single letters at parse time, so a
word of length L always stores L letters of exponent +-1.

The leftmost letter acts first.  Mapping each letter si to the adjacent
transposition (i, i+1) and composing in word order yields the underlying
permutation, kept as its 1-based image tuple; its cycles are the
components of the trace closure.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .errors import DomainError, LimitError, ParseError, _is_int, _quoted, _shown, _shown_repr

__all__ = [
    "BraidWord",
    "LETTER_LIMIT",
    "STRAND_LIMIT",
    "parse_braid",
    "random_braid",
]

_TOKEN = re.compile(r"s(\d+)(?:\^(-?\d+))?")
_WORD = re.compile(r"\S+")

#: Most letters a parsed word may expand to; a power that would pass it
#: raises LimitError before any letter is stored.
LETTER_LIMIT = 1_000_000

#: Most strands a parsed word may have, given or inferred from its
#: largest generator; past it parsing raises LimitError.
STRAND_LIMIT = 1_000


@dataclass(frozen=True)
class BraidWord:
    """A word in B_n: ``index`` strands and a letter sequence.

    ``letters`` is a tuple of letters, each a 2-tuple (generator, sign)
    with 1 <= generator < index and sign in {+1, -1}.  The index,
    generators and signs are ints; a bool or a float is refused.
    """

    index: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.index
        if not _is_int(n):
            raise DomainError(f"braid index must be an int, got {_shown_repr(n)}")
        if n < 1:
            raise DomainError(f"braid index must be >= 1, got {_shown(n)}")
        if not isinstance(self.letters, tuple):
            raise DomainError(f"letters are a tuple of pairs, got a {type(self.letters).__name__}")
        for letter in self.letters:
            if not (isinstance(letter, tuple) and len(letter) == 2):
                got = f"{len(letter)}-tuple" if type(letter) is tuple else type(letter).__name__
                raise DomainError(f"a letter is a pair of ints, got a {got}")
            gen, sign = letter
            # the exact type test is a fast path for the usual letter
            if not (type(gen) is type(sign) is int or _is_int(gen) and _is_int(sign)):
                raise DomainError(f"a letter is a pair of ints, got {_shown_repr(letter)}")
            if not 1 <= gen < n:
                raise DomainError(
                    f"generator s{_shown(gen)} out of range for braid index {_shown(n)}"
                )
            if sign not in (1, -1):
                raise DomainError(f"letter sign must be +-1, got {_shown(sign)}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.index != other.index:
            raise DomainError(
                f"cannot concatenate words in B_{_shown(self.index)} and B_{_shown(other.index)}"
            )
        return BraidWord(self.index, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(
            self.index, tuple((g, -s) for g, s in reversed(self.letters))
        )

    def exponent_sum(self) -> int:
        """Sum of letter signs; the writhe of the trace closure."""
        return sum(s for _, s in self.letters)

    def permutation(self) -> tuple[int, ...]:
        """The underlying permutation as its 1-based image tuple p: the
        strand that starts at position i ends at position p[i - 1]."""
        # prepending a letter to a word swaps its two entries of the images
        images = list(range(1, self.index + 1))
        for gen, _ in reversed(self.letters):
            images[gen - 1], images[gen] = images[gen], images[gen - 1]
        return tuple(images)

    def conjugate_by(self, a: "BraidWord") -> "BraidWord":
        """Markov move of the first kind: a * self * a^-1."""
        return a * self * a.inverse()

    def stabilize(self, sign: int = 1) -> "BraidWord":
        """Markov move of the second kind: include into B_(n+1), append sn^+-1."""
        if sign not in (1, -1):
            raise DomainError(f"stabilization sign must be +-1, got {_shown(sign)}")
        n = self.index
        return BraidWord(n + 1, self.letters + ((n, sign),))

    def __str__(self) -> str:
        # the empty word prints as the empty string, matching the grammar
        if not self.letters:
            return ""
        parts = []
        for gen, sign in self.letters:
            parts.append(f"s{gen}" if sign > 0 else f"s{gen}^-1")
        return " ".join(parts)


def _bounded_int(digits: str, width: int) -> int | None:
    """``int(digits)``, or None when it has more than ``width`` digits.

    int() is never asked to read a longer number (it refuses past ~4,300
    digits).
    """
    return int(digits) if len(digits.lstrip("-0")) <= width else None


def _past_letters(pos: int) -> LimitError:
    return LimitError(
        f"the power at position {pos} takes the word past {LETTER_LIMIT} letters"
    )


def _token_run(token: str, pos: int, index: int | None, room: int) -> tuple:
    """The letters of one whitespace-free token found at ``pos``.

    Raises as parse_braid documents; ``room`` is how many more letters
    the word may take, and a power is checked against it before its run
    is expanded.
    """
    m = _TOKEN.match(token)
    if m is None:
        raise ParseError(f"expected generator token, found {token[0]!r}", pos)
    if m.end() < len(token):
        raise ParseError(f"malformed token {_quoted(token[:m.end() + 1])}", pos)
    # a number with more digits than its limit is past it
    gen = _bounded_int(m.group(1), len(str(STRAND_LIMIT)))
    if gen == 0:
        raise ParseError(f"generator index must be >= 1, got s{gen}", pos)
    if index is None:
        if gen is None or gen >= STRAND_LIMIT:
            raise LimitError(
                f"the generator at position {pos} takes the word past "
                f"{STRAND_LIMIT} strands"
            )
    elif gen is None or gen >= index:
        shown = gen if gen is not None else m.group(1)[:9] + "..."
        raise ParseError(
            f"generator s{shown} out of range for braid index {index}", pos
        )
    power = _bounded_int(m.group(2) or "1", len(str(LETTER_LIMIT)))
    if power is None or abs(power) > room:
        raise _past_letters(pos)
    if power == 0:
        raise ParseError("zero power is not a letter", pos)
    return ((gen, 1 if power > 0 else -1),) * abs(power)


def parse_braid(text: str, index: int | None = None) -> BraidWord:
    """Parse generator tokens like ``s3^-1 s2 s1^3`` into a BraidWord.

    Tokens are separated by whitespace; powers expand into repeated letters.
    Without ``index`` the word lives in B_(k+1) for its largest generator
    sk (B_1 when empty).  Raises ParseError (with a position) on malformed
    text and on generator indices outside 1..index-1, DomainError when
    ``text`` is not a str or ``index`` is not an int, and LimitError when
    the word would pass LETTER_LIMIT letters or STRAND_LIMIT strands.

    The text is read once, token by token, split at the characters
    ``str.isspace`` matches.  Each distinct token is parsed and checked
    once, at its first occurrence; later occurrences reuse its run of
    letters and only count it against LETTER_LIMIT.
    """
    if not isinstance(text, str):
        raise DomainError(f"braid text must be a str, got {type(text).__name__}")
    if index is not None:
        if not _is_int(index):
            raise DomainError(f"braid index must be an int, got {_shown_repr(index)}")
        if index < 1:
            raise DomainError(f"braid index must be >= 1, got {_shown(index)}")
        if index > STRAND_LIMIT:
            raise LimitError(f"braid index {_shown(index)} is past {STRAND_LIMIT} strands")
    limit = LETTER_LIMIT
    letters: list[tuple[int, int]] = []
    runs: dict[str, tuple] = {}  # token -> its letters
    top = 0
    for m in _WORD.finditer(text):
        run = runs.get(m[0])
        if run is None:
            run = runs[m[0]] = _token_run(m[0], m.start(), index, limit - len(letters))
            top = max(top, run[0][0])
        elif len(letters) + len(run) > limit:
            raise _past_letters(m.start())
        letters += run
    return BraidWord(top + 1 if index is None else index, tuple(letters))


def random_braid(index: int, length: int, seed: int) -> BraidWord:
    """A uniformly random word with `length` letters, reproducible per seed."""
    if index < 2 and length > 0:
        raise DomainError("B_1 has no generators")
    rng = random.Random(seed)
    letters = tuple(
        (rng.randrange(1, index), rng.choice((1, -1))) for _ in range(length)
    )
    return BraidWord(index, letters)
