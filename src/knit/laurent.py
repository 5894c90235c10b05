"""Laurent polynomials with integer coefficients on the quarter-exponent lattice.

Exponents are rationals with fixed denominator 4, stored as integer
numerators, so t^(1/2) is the monomial with numerator 2.  Coefficients are
arbitrary-precision ints.  This is exactly what bracket/Jones computations
need: the bracket lives in integer powers of A, the Jones polynomial of a
link in integer or half-integer powers of t, and the substitution
t = A^-4 (exponent scaling by -1/4) stays on the lattice.

Evaluation at a root of unity sends the formal variable to
q = exp(2*pi*i/r) with the principal fractional power
q^(k/4) = exp(2*pi*i*k/(4*r)).
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass
from math import gcd

from .errors import DomainError, LimitError, ParseError, _is_int, _shown_repr

__all__ = ["LaurentPoly", "evaluate_at_root"]

EXPONENT_DENOMINATOR = 4


@dataclass(frozen=True)
class LaurentPoly:
    """Immutable sparse polynomial: sorted (numerator, coefficient) pairs.

    Numerators are quarter-units: the term (num, c) is c * t^(num/4).
    Zero coefficients are never stored.
    """

    terms: tuple[tuple[int, int], ...]

    @staticmethod
    def from_dict(d: dict[int, int]) -> "LaurentPoly":
        return LaurentPoly(tuple(sorted((n, c) for n, c in d.items() if c != 0)))

    @staticmethod
    def monomial(coeff: int, num: int, den: int = 1) -> "LaurentPoly":
        """coeff * t^(num/den): int coeff and num, and den an int dividing 4."""
        if not (_is_int(coeff) and _is_int(num)):
            raise DomainError(f"monomial coeff and num are ints, got {_shown_repr((coeff, num))}")
        if not _is_int(den) or den == 0 or EXPONENT_DENOMINATOR % den != 0:
            raise DomainError(f"exponent denominator must divide 4, got {_shown_repr(den)}")
        return LaurentPoly.from_dict({num * (EXPONENT_DENOMINATOR // den): coeff})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self.terms)
        for n, c in other.terms:
            d[n] = d.get(n, 0) + c
        return LaurentPoly.from_dict(d)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        d: dict[int, int] = {}
        for n1, c1 in self.terms:
            for n2, c2 in other.terms:
                n = n1 + n2
                d[n] = d.get(n, 0) + c1 * c2
        return LaurentPoly.from_dict(d)

    def to_json_terms(self) -> list[dict[str, object]]:
        return [
            {"num": n, "den": EXPONENT_DENOMINATOR, "coeff": str(c)}
            for n, c in self.terms
        ]

    @staticmethod
    def from_json_terms(items: list[dict[str, object]]) -> "LaurentPoly":
        d: dict[int, int] = {}
        for item in items:
            try:
                num = int(item["num"])  # type: ignore[arg-type]
                den = int(item["den"])  # type: ignore[arg-type]
                coeff = int(str(item["coeff"]))
            except (KeyError, ValueError, TypeError) as exc:
                raise ParseError(f"malformed polynomial term {item!r}") from exc
            if den != EXPONENT_DENOMINATOR:
                raise ParseError(f"expected denominator 4, got {den}")
            d[num] = d.get(num, 0) + coeff
        return LaurentPoly.from_dict(d)

    def format(self, var: str = "t") -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for n, c in self.terms:
            if n == 0:
                body = str(abs(c))
            else:
                g = gcd(n, EXPONENT_DENOMINATOR)
                num, den = n // g, EXPONENT_DENOMINATOR // g
                exp = str(num) if den == 1 else f"{num}/{den}"
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                body = f"{mag}{var}^{exp}"
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {body}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __str__(self) -> str:
        return self.format()


def evaluate_at_root(p: LaurentPoly, r: int) -> complex:
    """Evaluate p at the primitive root q = exp(2*pi*i/r).

    A quarter power q^(k/4) takes the principal branch exp(2*pi*i*k/(4*r)).
    Raises LimitError when a coefficient or the sum leaves the float range.
    """
    if not isinstance(r, numbers.Integral) or isinstance(r, bool) or r < 1:
        raise DomainError(f"root order must be an integer >= 1, got {_shown_repr(r)}")
    total = 0j
    try:
        for n, c in p.terms:
            # exact int division first, so a huge r gives a small finite angle
            total += c * cmath.exp(2j * cmath.pi * (n / (EXPONENT_DENOMINATOR * r)))
    except OverflowError:  # a coefficient out of float range
        total = complex("nan")
    if not cmath.isfinite(total):
        raise LimitError("the value at the root leaves the float range")
    return total
