"""Colored link invariants from quantum SU(2) braiding at a root of unity.

Everything here works at ``q = exp(2*pi*i/r)`` for an integer root
parameter ``r >= 3`` whose double fits a float; a larger root raises
LimitError.  Colors are spins ``j`` in half-integer steps, given and
held as the int ``2j`` (the doubled spin: 1 is spin 1/2), checked once
per entry point by ``_check_colors``.  One level rule bounds every
label: doubled spins ``(a, b, c)`` couple iff ``a + b + c`` is even,
``|a - b| <= c <= a + b`` and ``a + b + c <= 2(r - 2)``.  It is written
once, as ``_triple_allowed`` (a color ``t`` needs ``(t, t, 0)``), and
``_paths`` applies it to all paths at once; nothing else bounds a plat,
so any number of components answers at any ``r >= 3``.  The quantum
integer ``[n]_q`` is written once, as ``_qnum``.

The braiding machinery acts on *coupled* bases rather than on tensor
products of single-strand bases.  A basis vector for strands colored
``(j_1, ..., j_n)`` is a fusion path: the sequence of total spins
obtained by absorbing one strand at a time, each step constrained to
the nondegenerate coupling channels of the root.  On that basis the
half-twist of two adjacent strands is the conjugate, by recoupling
matrices, of a diagonal phase per coupling channel -- which keeps every
operator exactly unitary at the root, something the naive tensor basis
cannot do because its channel subspaces fail to be orthogonal there.

A plat-closed braid is evaluated as a single matrix element of the
braided word between the standard cap and cup paths, then corrected by
per-component framing phases and bend signs so the result is an ambient
isotopy invariant normalized to ``[2j+1]_q`` on the color-``j`` unknot.
One engine computes that element: ``plat_branch`` streams the top bend
state through the word one elementary twist per letter and returns the
scalar prefactor, the bottom bend state and the braided branch state.
The D paths are the rows of one int array.  A twist changes only the
label between its two strands; sorted on every other label, its source
and target bases show the same groups of paths that differ only there
(fusion is commutative), so ``_twist`` builds each twist once as a
cached gather table whose rows read at most ``2j + 1`` paths: O(D b) per
letter, not D x D.  ``_bend`` caches the bend states.
``colored_invariant``, ``jones_value_from_plat`` and the sampled
estimators of ``qsim`` all contract or sample those three pieces.  The
dense operators of ``r_matrix`` and ``braiding_operator_for_word``
braid an identity block through the same loop, ``_braid``, so they
share every table with the contraction.  With every color 1/2 this
reproduces the Jones values computed from the exact bracket route (see
``jones_value_from_plat``).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .braid import BraidWord
from .diagram import plat_profile
from .errors import DomainError, LimitError, _is_int, _quoted, _shown, _shown_repr

__all__ = [
    "DENSE_LIMIT",
    "NORM_TOL",
    "UNITARITY_TOL",
    "BraidingOperator",
    "ColoredSpace",
    "DegenerateColorError",
    "braiding_operator_for_word",
    "colored_invariant",
    "jones_plat_branch",
    "jones_value_from_plat",
    "plat_branch",
    "q_integer",
    "r_matrix",
]

# Bounds the coupled dimension braiding_operator_for_word realizes densely.
DENSE_LIMIT = 4096

# Every constructed braiding operator is checked against this bound.
UNITARITY_TOL = 1e-10

# Largest norm drift a propagated or constructed state may show.
NORM_TOL = 1e-10

# A positive braid letter applies the reciprocal of the channel phase
# below (its inverse applies the phase itself).  The sign convention is
# pinned once, by requiring the all-spin-1/2 plat contraction to agree
# with the exact bracket-route Jones values at the same root; the tests
# assert that agreement.
_POSITIVE_CROSSING_EXPONENT = -1


class DegenerateColorError(DomainError):
    """A color with no braiding headroom at this root: ``(2j, 2j, 0)``
    breaks the level rule (2j > r - 2), and no unitary braiding exists."""


# ---------------------------------------------------------------------------
# colors


def _spin(t: int) -> str:
    """The spin ``t / 2`` as text: "1/2", "1", "3/2"."""
    return f"{_shown(t)}/2" if t % 2 else _shown(t // 2)


def _check_root(r: int):
    if not _is_int(r):
        raise DomainError(f"root parameter must be an integer, got {r!r}")
    if r < 3:
        raise DomainError(f"root parameter too small: need r >= 3, got {_shown(r)}")
    # phases divide by 2r as a float
    if 2 * r > sys.float_info.max:
        raise LimitError(f"root parameter {_shown(r)} is past float range")


def _check_colors(doubled: tuple, r: int):
    """The one color check: refuse the first color that is not a doubled
    spin ``2j`` (a nonnegative int), does not exist at root ``r``
    (j <= r) or has no braiding headroom there (2j <= r - 2)."""
    for t in doubled:
        if not _is_int(t):
            raise DomainError(
                f"a color is an int doubled spin 2j (1 is spin 1/2), got {_quoted(repr(t))}"
            )
        if t < 0:
            raise DomainError(f"a color is a nonnegative doubled spin 2j, got {_shown(t)}")
        if t > 2 * r:
            raise DomainError(f"color j = {_spin(t)} is not admissible at r = {r} (needs j <= r)")
        if not _triple_allowed(t, t, 0, r):
            raise DegenerateColorError(
                f"color j = {_spin(t)} is degenerate at r = {r}: braiding needs 2j <= r - 2"
            )


# ---------------------------------------------------------------------------
# quantum weights


def q_integer(m: int, r: int) -> complex:
    """The quantum integer ``[m]_q`` at ``q = exp(2*pi*i/r)``.

    Defined through ``(q^{m/2} - q^{-m/2}) / (q^{1/2} - q^{-1/2})``,
    which collapses to the real number ``sin(m*pi/r)/sin(pi/r)``.
    """
    if not _is_int(m) or m <= 0:
        raise DomainError(f"quantum integer index must be a positive integer, got {_shown_repr(m)}")
    _check_root(r)
    return complex(_qnum(m, r))


def _qnum(n: int, r: int) -> float:
    """The one formula of [n]_q, real: positive for 0 < n < r."""
    return math.sin(n * math.pi / r) / math.sin(math.pi / r)


@lru_cache(maxsize=None)
def _qfact(n: int, r: int) -> float:
    """Quantum factorial [n]!; every caller keeps n < r, so each factor is positive."""
    out = 1.0
    for k in range(2, n + 1):
        out *= _qnum(k, r)
    return out


# ---------------------------------------------------------------------------
# fusion


def _triple_allowed(ta: int, tb: int, tc: int, r: int) -> bool:
    """The level rule: doubled spins ta, tb and tc couple at root r iff
    their sum is even, they obey the triangle inequality and the sum is
    at most 2(r - 2).  Symmetric in the three labels."""
    return (
        (ta + tb + tc) % 2 == 0
        and abs(ta - tb) <= tc <= ta + tb
        and ta + tb + tc <= 2 * (r - 2)
    )


# ---------------------------------------------------------------------------
# recoupling


def _triangle_weight(ta: int, tb: int, tc: int, r: int) -> float:
    num = (
        _qfact((-ta + tb + tc) // 2, r)
        * _qfact((ta - tb + tc) // 2, r)
        * _qfact((ta + tb - tc) // 2, r)
    )
    return math.sqrt(num / _qfact((ta + tb + tc) // 2 + 1, r))


def _six_j(ta: int, tb: int, te: int, tc: int, td: int, tf: int, r: int) -> float:
    """Recoupling symbol on doubled labels; zero off the allowed triples."""
    for tri in ((ta, tb, te), (ta, td, tf), (tc, tb, tf), (tc, td, te)):
        if not _triple_allowed(*tri, r):
            return 0.0
    lows = [
        (ta + tb + te) // 2,
        (ta + td + tf) // 2,
        (tc + tb + tf) // 2,
        (tc + td + te) // 2,
    ]
    highs = [
        (ta + tb + tc + td) // 2,
        (tb + te + td + tf) // 2,
        (ta + te + tc + tf) // 2,
    ]
    prefactor = (
        _triangle_weight(ta, tb, te, r)
        * _triangle_weight(ta, td, tf, r)
        * _triangle_weight(tc, tb, tf, r)
        * _triangle_weight(tc, td, te, r)
    )
    total = 0.0
    for z in range(max(lows), min(highs) + 1):
        if z + 1 >= r:
            # the [z+1]! numerator carries a vanishing quantum weight
            continue
        term = (-1) ** z * _qfact(z + 1, r)
        for low in lows:
            term /= _qfact(z - low, r)
        for high in highs:
            term /= _qfact(high - z, r)
        total += term
    return prefactor * total


@lru_cache(maxsize=None)
def _recoupling(tx: int, t1: int, t2: int, ty: int, r: int):
    """Unitary change of coupling order between (x(12))y and ((x1)2)y.

    Returns the pair's channels and the matrix.  In a run ``x -> t1 -> t2``
    of a fusion path from ``x`` to ``y``, its rows are the possible middle
    labels (x absorbing t1) and its columns the coupling channels of the
    pair (t1, t2); it converts between the path basis and the basis where
    the pair couples to a definite channel first.
    """
    middles = tuple(
        a for a in range(abs(tx - t1), tx + t1 + 1, 2)
        if _triple_allowed(tx, t1, a, r) and _triple_allowed(a, t2, ty, r)
    )
    channels = tuple(
        e for e in range(abs(t1 - t2), t1 + t2 + 1, 2)
        if _triple_allowed(t1, t2, e, r) and _triple_allowed(tx, e, ty, r)
    )
    mat = np.zeros((len(middles), len(channels)))
    sign = (-1) ** ((tx + t1 + t2 + ty) // 2)
    for i, mid in enumerate(middles):
        for k, chan in enumerate(channels):
            mat[i, k] = (
                sign
                * math.sqrt(_qnum(mid + 1, r) * _qnum(chan + 1, r))
                * _six_j(tx, t1, mid, t2, ty, chan, r)
            )
    mat.flags.writeable = False
    return channels, mat


def _braid_phase(ta: int, tb: int, tch: int, r: int) -> complex:
    """Phase a half-twist contributes on coupling channel ``tch``.

    Equal to ``(-1)^(j_a + j_b - j) * q^((c_j - c_ja - c_jb)/2)`` with
    ``c_j = j (j + 1)`` the quadratic Casimir eigenvalue.
    """
    sign = (-1) ** ((ta + tb - tch) // 2)
    exponent = (tch * (tch + 2) - ta * (ta + 2) - tb * (tb + 2)) / 8.0
    return sign * cmath.exp(2j * math.pi * exponent / r)


# ---------------------------------------------------------------------------
# fusion-path spaces


@lru_cache(maxsize=None)
def _paths(colors: tuple[int, ...], r: int) -> np.ndarray:
    """All fusion paths for the given doubled colors: the rows of a
    read-only int array, in lexicographic order.

    A path starts at total 0 and absorbs one color per step through the
    nondegenerate channels; the final total is unconstrained.  The color
    sum bounds every total, and sizes the one dtype of all the arithmetic.
    """
    dtype = np.result_type(np.int16, np.min_scalar_type(-4 * sum(colors) - 4))
    rows = np.zeros((1, 1), dtype=dtype)
    for t in colors:
        last = rows[:, -1]
        # _triple_allowed(last, t, next, r) on every row; past the color sum, last + t binds first
        cut = min(2 * (r - 2) - t, 2 * sum(colors) + 2)
        low, high = np.abs(last - t), np.minimum(last + t, cut - last)
        channels = low[:, None] + 2 * np.arange(t + 1, dtype=dtype)
        grown = np.repeat(rows, (high - low) // 2 + 1, axis=0)  # a row per channel
        rows = np.column_stack((grown, channels[channels <= high[:, None]]))
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class ColoredSpace:
    """An ordered list of strand colors at a fixed root.

    The braiding matrices act on the coupled fusion-path basis, whose
    size is ``coupled_dimension``.
    """

    doubled: tuple[int, ...]
    r: int

    def __init__(self, colors, r: int):
        object.__setattr__(self, "doubled", tuple(colors))
        object.__setattr__(self, "r", r)
        _check_root(r)
        _check_colors(self.doubled, r)

    def paths(self) -> tuple[tuple[int, ...], ...]:
        """The coupled fusion-path basis, in lexicographic order, as tuples."""
        return tuple(map(tuple, _paths(self.doubled, self.r).tolist()))

    @property
    def coupled_dimension(self) -> int:
        return len(_paths(self.doubled, self.r))


@dataclass(frozen=True, eq=False)
class BraidingOperator:
    """A unitary braiding matrix on the coupled basis, with its spaces.

    ``matrix`` maps coefficients on ``domain.paths()`` to coefficients
    on ``codomain.paths()``; the codomain's colors are the domain's with
    the braided strands exchanged.
    """

    matrix: np.ndarray
    domain: ColoredSpace
    codomain: ColoredSpace

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        expected = (self.codomain.coupled_dimension, self.domain.coupled_dimension)
        if mat.shape != expected:
            raise DomainError(f"matrix shape {mat.shape} does not match spaces {expected}")
        if not self.unitarity_defect() <= UNITARITY_TOL:
            raise DomainError("braiding matrix failed the unitarity bound")

    def unitarity_defect(self) -> float:
        gram = self.matrix.conj().T @ self.matrix
        return float(np.abs(gram - np.eye(gram.shape[0])).max())


# ---------------------------------------------------------------------------
# elementary braiding


@lru_cache(maxsize=None)
def _twist(colors: tuple[int, ...], position: int, sign: int, r: int):
    """Half-twist of strands ``position``, ``position + 1`` (1-based), in gather form.

    Returns the swapped coloring and read-only ``D_out x b`` tables
    ``idx`` and ``wts``; ``_braid`` applies them to a state vector as
    ``(wts * state[idx]).sum(axis=1)``, and to a block of states likewise.
    On each path the twist recouples the two strands into their mutual
    channel, applies the channel phase (or its reciprocal, per the letter
    sign), and recouples back.  Only the label between the strands
    changes, so an output path reads the source paths that differ from it
    there, one per open coupling channel; ``b <= 2j + 1`` is the most any
    path reads, and shorter rows are padded with index 0 and weight 0.

    Sorted stably on every other label, a basis groups the paths that
    differ only there, ascending.  A group's size counts the ways its
    ``below`` label fuses with the two colors into its ``above``, in either
    order, so both bases have the same groups, sizes and order: the j-th
    target of a group reads its sources with row j of their block.
    """
    ci, cj = colors[position - 1], colors[position]
    swapped = colors[: position - 1] + (cj, ci) + colors[position + 1 :]
    exponent = _POSITIVE_CROSSING_EXPONENT * sign
    others = np.delete(_paths(swapped, r), position, axis=1)
    target_order = np.lexsort(others.T[::-1])
    source_order = np.lexsort(np.delete(_paths(colors, r), position, axis=1).T[::-1])
    others = others[target_order]
    starts = np.flatnonzero(np.r_[True, (others[1:] != others[:-1]).any(axis=1)])
    sizes = np.diff(starts, append=len(others))
    group = np.repeat(np.arange(len(starts)), sizes)
    radix = int(others.max()) + 1  # a group's labels as one key, below * radix + above
    keys = others[starts, position - 1].astype(np.int64) * radix + others[starts, position]
    keys, pair = np.unique(keys, return_inverse=True)
    width = int(sizes.max())
    blocks = np.zeros((len(keys), width, width), dtype=complex)
    for k, (below, above) in enumerate(divmod(key, radix) for key in keys.tolist()):
        channels, rec_in = _recoupling(below, ci, cj, above, r)
        channels_out, rec_out = _recoupling(below, cj, ci, above, r)
        # coupling channels ignore the order of the pair
        assert channels == channels_out
        phases = np.array([_braid_phase(ci, cj, chan, r) ** exponent for chan in channels])
        # a block past float range holds NaN without a numpy warning: the
        # norm check of the plat contraction, or the dense operator's
        # unitarity check, refuses what it reaches
        with np.errstate(all="ignore"):
            blocks[k, : len(channels), : len(channels)] = (rec_out * phases) @ rec_in.T
    head, reads, rank = starts[group], np.arange(width), np.argsort(target_order)
    sources = source_order[np.minimum(head[:, None] + reads, len(others) - 1)]
    idx = np.where(reads < sizes[group][:, None], sources, 0)[rank]
    wts = blocks[pair[group], np.arange(len(others)) - head][rank]
    idx.flags.writeable = wts.flags.writeable = False
    return swapped, idx, wts


@lru_cache(maxsize=None)
def _bend(colors: tuple[int, ...], r: int) -> np.ndarray:
    """The read-only cap/cup state on the paths of paired ``colors``.

    Its one path climbs to each odd strand's color and returns to 0 after
    its partner, so it exists exactly when consecutive strands pair up
    with equal colors, as the plat boundary requires (else ValueError).
    """
    paths = _paths(colors, r)
    vector = np.zeros(len(paths), dtype=complex)
    path = (0,) + tuple(t if k % 2 == 0 else 0 for k, t in enumerate(colors))
    vector[np.flatnonzero((paths == path).all(axis=1)).item()] = 1.0
    vector.flags.writeable = False
    return vector


def _braid(colors: tuple[int, ...], letters, r: int, state: np.ndarray):
    """Apply one ``_twist`` per letter to ``state``; returns the final coloring and state.

    ``state`` is a vector on the paths of ``colors`` or a block whose
    rows are those paths; the weights broadcast over its trailing axis.
    """
    for generator, sign in letters:
        colors, idx, wts = _twist(colors, generator, sign, r)
        weights = wts if state.ndim == 1 else wts[:, :, None]
        state = (weights * state[idx]).sum(axis=1)
    return colors, state


def r_matrix(j1, j2, r: int) -> BraidingOperator:
    """The two-strand braiding operator for a positive crossing: the
    one-letter ``braiding_operator_for_word`` on colors ``j1``, ``j2``
    (doubled spins, as every color here).

    Diagonal on the coupled basis: channel ``j`` carries the phase
    ``(-1)^(j1 + j2 - j) q^((c_j - c_j1 - c_j2)/2)`` up to the global
    orientation convention pinned by the spin-1/2 Jones agreement.
    Composing with its inverse gives the identity exactly.
    """
    return braiding_operator_for_word(BraidWord(2, ((1, 1),)), (j1, j2), r)


def braiding_operator_for_word(w: BraidWord, colors, r: int) -> BraidingOperator:
    """Braid a colored strand family by ``w``, with no closure conditions.

    ``colors`` lists one color per strand, top to bottom of the word;
    the codomain's colors are the domain's pushed through the word's
    permutation.
    """
    doubled = tuple(colors)
    if len(doubled) != w.index:
        raise DomainError(f"need {w.index} strand colors, got {len(doubled)}")
    domain = ColoredSpace(doubled, r)
    size = domain.coupled_dimension
    if size > DENSE_LIMIT:
        raise LimitError(f"dense limit exceeded: {size} > {DENSE_LIMIT}")
    final, mat = _braid(doubled, w.letters, r, np.eye(size, dtype=complex))
    return BraidingOperator(mat, domain, ColoredSpace(final, r))


# ---------------------------------------------------------------------------
# invariants


def plat_branch(w: BraidWord, colors, r: int):
    """The plat contraction engine: ``(prefactor, reference, branch)``.

    ``colors`` lists one color per link component, as for
    ``colored_invariant``.  ``branch`` is the top bend state braided by
    ``w`` one elementary twist per letter, ``reference`` is the bottom
    bend state, and ``prefactor * vdot(reference, branch)`` is the
    invariant.  ``reference`` is a shared, read-only vector, cached like
    the twist tables (so is ``branch`` for an empty word).  The scalar
    prefactor carries the quantum dimension of every cap, and per
    component the framing phase of its self crossings and the bend sign
    of its extra turns.  A non-finite prefactor or a branch whose norm
    drifted from 1 by more than ``NORM_TOL`` means the quantum weights
    broke down in floating point; that raises LimitError.
    """
    return _plat_branch(w, plat_profile(w), colors, r)


def _plat_branch(w: BraidWord, profile, colors, r: int):
    count = profile.component_count
    _check_root(r)
    doubled = tuple(colors)
    if len(doubled) != count:
        raise DomainError(
            f"need one color per link component: got {len(doubled)} for {count} components"
        )
    _check_colors(doubled, r)

    pair_colors = tuple(doubled[comp] for comp in profile.pair_component)
    current = tuple(t for t in pair_colors for _ in (0, 1))

    prefactor = 1.0 + 0.0j
    for t in pair_colors:
        prefactor *= _qnum(t + 1, r)  # the quantum dimension [2j + 1]_q
    for comp, t in enumerate(doubled):
        framing = _braid_phase(t, t, 0, r)
        prefactor *= framing ** (-profile.self_writhe[comp])
        prefactor *= ((-1) ** t) ** (profile.cup_count[comp] - 1)

    current, branch = _braid(current, w.letters, r, _bend(current, r))
    if not (cmath.isfinite(prefactor) and abs(np.linalg.norm(branch) - 1.0) <= NORM_TOL):
        raise LimitError(
            f"plat contraction broke down numerically at r = {r}: the prefactor is "
            f"not finite or the braided state lost its unit norm"
        )
    return prefactor, _bend(current, r), branch


def jones_plat_branch(w: BraidWord, r: int):
    """``plat_branch`` at spin 1/2, rescaled so the unknot contracts to 1.

    The prefactor picks up the spin-1/2 framing phase of the
    inter-component linking and a component-count sign, and one quantum
    dimension is divided out.
    """
    profile = plat_profile(w)
    count = profile.component_count
    prefactor, reference, branch = _plat_branch(w, profile, (1,) * count, r)
    framing = _braid_phase(1, 1, 0, r)
    prefactor *= (-1) ** (count - 1) * framing ** (-2 * profile.linking_sum())
    return prefactor / _qnum(2, r), reference, branch


def colored_invariant(w: BraidWord, colors, r: int) -> complex:
    """Ambient isotopy invariant of the plat closure with one color per component.

    ``colors`` lists one color for each link component, in the order the
    components first touch the top boundary (the numbering of
    ``plat_profile(w).pair_component``).  The value is the cap-to-cup matrix
    element of the braided word times the quantum dimension of every
    cap, corrected per component by the framing phase of its self
    crossings and the bend sign of its extra turns; the color-j unknot
    comes out at ``[2j+1]_q``.
    """
    prefactor, reference, branch = plat_branch(w, colors, r)
    return prefactor * complex(np.vdot(reference, branch))


def jones_value_from_plat(w: BraidWord, r: int) -> complex:
    """Jones value of the plat closure at the root, unknot normalized.

    Contracts the spin-1/2 colored invariant on the scale of
    ``jones_plat_branch``.  The result matches evaluating the exact Jones
    polynomial of the same plat diagram at ``q = exp(2*pi*i/r)``.
    """
    prefactor, reference, branch = jones_plat_branch(w, r)
    return prefactor * complex(np.vdot(reference, branch))
