"""Exact and approximate link invariants from braid words.

The package is organized bottom-up:

- braid: braid words, parsing, Markov moves
- garside: left-canonical normal form and the word problem
- laurent: exact Laurent arithmetic on the quarter-exponent lattice
- diagram: planar diagrams, trace and plat closures
- reidemeister: local moves on diagrams
- jones: Kauffman bracket and the Jones polynomial (two exact routes)
- su2q: quantum SU(2) representation theory and colored invariants
- qsim: Hadamard-test sampling of plat invariants with an error contract
- cli: the `knit` command

The exact layers need only the standard library.  ``su2q`` and ``qsim``
need numpy, so their names (and the two modules themselves) are
imported on first access through the module ``__getattr__``; importing
``knit`` or running an exact ``knit`` command never loads numpy.
"""

from importlib import import_module as _import_module

from .braid import BraidWord, Permutation, parse_braid, random_braid
from .diagram import LinkDiagram, closure_plat, closure_trace, plat_profile
from .errors import DomainError, KnitError, LimitError, ParseError
from .garside import NormalForm, is_trivial, normal_form, words_equal
from .jones import jones_polynomial, kauffman_bracket, markov_trace_jones
from .laurent import LaurentPoly, evaluate_at_root

#: Public names of the numpy-backed modules, by home module.
_NUMERIC = {
    "qsim": (
        "TraceEstimate",
        "approx_jones",
        "estimate_markov_trace",
        "plan_samples",
    ),
    "su2q": (
        "BraidingOperator",
        "ColoredSpace",
        "DegenerateColorError",
        "colored_invariant",
        "jones_value_from_plat",
        "normalize_ambient",
        "q_integer",
        "r_matrix",
    ),
}
_HOME = {name: module for module, names in _NUMERIC.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "Permutation",
    "parse_braid",
    "random_braid",
    "LinkDiagram",
    "closure_plat",
    "closure_trace",
    "plat_profile",
    "DomainError",
    "KnitError",
    "LimitError",
    "ParseError",
    "NormalForm",
    "is_trivial",
    "normal_form",
    "words_equal",
    "jones_polynomial",
    "kauffman_bracket",
    "markov_trace_jones",
    "LaurentPoly",
    "evaluate_at_root",
    *_HOME,
    "__version__",
]


def __getattr__(name: str):
    """Import ``su2q`` or ``qsim`` on first use of it or of one of its names."""
    if name in _NUMERIC:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_NUMERIC))
