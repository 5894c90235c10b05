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

Importing ``knit`` loads only ``braid``, ``errors`` and ``garside``, so
the word problem starts without the polynomial layers.  Every other
module, and its names re-exported here, is imported on first access
through the module ``__getattr__``.  The exact layers need only the
standard library; ``su2q`` and ``qsim`` need numpy, so importing
``knit`` or running an exact ``knit`` command never loads numpy.
"""

from importlib import import_module as _import_module

from .braid import BraidWord, parse_braid, random_braid
from .errors import DomainError, KnitError, LimitError, ParseError
from .garside import NormalForm, is_trivial, normal_form, words_equal

#: Public names of the modules imported on first use, by home module.
_LAZY = {
    "diagram": ("LinkDiagram", "closure_plat", "closure_trace", "plat_profile"),
    "jones": ("jones_polynomial", "kauffman_bracket", "markov_trace_jones"),
    "laurent": ("LaurentPoly", "evaluate_at_root"),
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
        "q_integer",
        "r_matrix",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "parse_braid",
    "random_braid",
    "DomainError",
    "KnitError",
    "LimitError",
    "ParseError",
    "NormalForm",
    "is_trivial",
    "normal_form",
    "words_equal",
    *_HOME,
    "__version__",
]


def __getattr__(name: str):
    """Import a lazy module on first use of it or of one of its names."""
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_LAZY))
