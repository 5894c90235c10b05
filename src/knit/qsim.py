"""Monte-Carlo estimation of plat invariants by a simulated Hadamard test.

The exact plat contraction behind ``colored_invariant`` is a single
matrix element of a unitary between two bend states.  This module
estimates that matrix element the way an interferometer would: prepare
the bend state, apply the braiding circuit one controlled crossing per
letter, and read out an ancilla whose bias is one quadrature of the
overlap.  A Hoeffding planner converts a target additive error and
success probability into a sample count, and every estimate records the
seed, the generator algorithm, and the rescaling factor needed to audit
or reproduce it.

The circuit itself is run by ``su2q.plat_branch`` (``jones_plat_branch``
on the Jones scale), the same engine behind the exact invariants: it
returns the prefactor, the bottom bend state and the braided branch as
fusion-path vectors.  ``_sampled_overlap`` draws the ancilla readings
from those two vectors, and the estimators contract them once more for
the exact companion value.  Each crossing is the cached block-sparse
half twist of ``su2q._twist``, not a gate-level compilation: at desk
scale only the induced statistics matter, and those are exact here.

Reading k of quadrature p compares the first ``random()`` of numpy's
PCG64 seeded by ``SeedSequence((seed, p, k))`` with the chance of a +1.
``_plus_readings`` computes those draws a block at a time, hashing the
seeds in uint32 lanes and stepping the generator in exact ints, so it
matches numpy bit for bit without importing ``numpy.random``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .braid import BraidWord
from .errors import DomainError, LimitError, _is_int, _shown, _shown_repr
from .su2q import jones_plat_branch, plat_branch

__all__ = [
    "GENERATOR_ID",
    "SAMPLE_LIMIT",
    "TraceEstimate",
    "approx_jones",
    "estimate_markov_trace",
    "plan_samples",
]

#: Identifier of the pseudo-random bit generator behind every sample.
GENERATOR_ID = "numpy-PCG64"

#: Largest per-quadrature sample budget an estimator will actually run.
#: A reading costs 1.2-1.7 us on a 2-vCPU x86-64 host, so the largest
#: admitted request (two quadratures of 2.5e6 readings) takes 7-9 s.
SAMPLE_LIMIT = 2_500_000

#: Roots of unity where the evaluated invariant is classically tractable.
TRACTABLE_ROOTS = frozenset({2, 3, 4, 6})


def _reading_probability(reference: np.ndarray, branch: np.ndarray, phase: complex) -> float:
    """Chance the interferometer ancilla lands on +1 for one quadrature.

    The ancilla splits the register between the untouched ``reference``
    branch and the operated ``branch``; remixing puts the +1 outcome at
    amplitude (reference + phase * branch) / 2.  With ``phase`` 1 the
    reading averages to the real part of the branch overlap, and with
    ``phase`` -i (a quarter turn on the ancilla) to its imaginary part.
    """
    upper = 0.5 * (reference + phase * branch)
    return min(1.0, float(np.vdot(upper, upper).real))


#: Readings drawn per block: it bounds the sampler's working memory.
_BLOCK = 1024

# SeedSequence (O'Neill's seed_seq_fe) and PCG64 constants, as numpy defines them
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, multiplier: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants SeedSequence's hashmix XORs and multiplies by, one row per call.

    The running constant steps by ``multiplier`` between the XOR and the
    multiply of every call, whatever the data, so the rows are fixed.
    """
    running = [init]
    for _ in range(calls):
        running.append(running[-1] * multiplier & _MASK32)
    column = np.array(running, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * multiplier
    return value ^ value >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return result ^ result >> np.uint32(16)


def _plus_readings(p_plus: float, seed: int, part: int, start: int, stop: int) -> int:
    """How many of readings ``start`` to ``stop - 1`` of quadrature ``part`` are +1.

    Reading k is +1 when the first ``random()`` of
    ``Generator(PCG64(SeedSequence((seed, part, k))))`` falls below
    ``p_plus``.  SeedSequence hashes every k of the block at once in uint32
    lanes, one column per k; PCG64's two steps and its XSL-RR output are
    taken in exact ints.  Each k must fit one 32-bit word, as every k
    below ``SAMPLE_LIMIT`` does.
    """
    # the entropy words: the seed's little-endian 32-bit words, the
    # quadrature, then k; all but the last are the same in every column
    constant = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    constant.append(part)
    words = np.empty((len(constant) + 1, stop - start), dtype=np.uint32)
    words[:-1] = np.array(constant, dtype=np.uint32)[:, None]
    words[-1] = np.arange(start, stop, dtype=np.uint32)

    # hash the first four words (zero-padded) into the pool, mix each pool
    # word into the other three, then mix every later word into all four
    xor, mul = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(0, len(words) - 4))
    pool = np.zeros((4, stop - start), dtype=np.uint32)
    pool[: len(words)] = words[:4]
    pool = _hashmix(pool, xor[:4], mul[:4])
    call = 4
    for src in range(4):
        others = [dst for dst in range(4) if dst != src]
        hashed = _hashmix(pool[src], xor[call : call + 3], mul[call : call + 3])
        pool[others] = _mix(pool[others], hashed)
        call += 3
    for word in words[4:]:
        pool = _mix(pool, _hashmix(word, xor[call : call + 4], mul[call : call + 4]))
        call += 4

    # PCG64's seed: eight 32-bit words hashed out of the pool, paired
    # little-endian into four 64-bit words
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 8)
    halves = _hashmix(np.vstack((pool, pool)), xor, mul).astype(np.uint64)
    seeds = halves[0::2] | halves[1::2] << np.uint64(32)

    # random() < p_plus exactly when the top 53 output bits fall below p_plus * 2^53
    threshold = p_plus * 2.0**53
    plus = 0
    for high, low, inc_high, inc_low in zip(*seeds.tolist()):
        inc = (inc_high << 64 | inc_low) << 1 | 1
        # seeding: one step from 0, add the initial state, step again;
        # then the first output steps once more
        state = ((inc + (high << 64 | low)) * _PCG_MULT + inc) & _MASK128
        state = (state * _PCG_MULT + inc) & _MASK128
        rot = state >> 122
        folded = (state >> 64 ^ state) & _MASK64
        if ((folded >> rot | folded << (64 - rot)) & _MASK64) >> 11 < threshold:
            plus += 1
    return plus


def _is_real(x) -> bool:
    """A real number other than a bool; numpy's real scalars count."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _check_error_budget(delta, confidence) -> tuple[float, float]:
    """The error target and the confidence as floats, once both are valid."""
    if not _is_real(delta):
        raise DomainError(f"additive error target must be a number, got {delta!r}")
    if not delta > 0:
        raise DomainError(f"additive error target must be positive, got {_shown(delta)}")
    if not delta < math.inf:
        raise DomainError(f"additive error target must be finite, got {delta}")
    if isinstance(delta, int) and delta > sys.float_info.max:
        # an int no float can hold; printing it could exceed str's digit cap
        raise DomainError("additive error target must be finite, got an int beyond float range")
    if not _is_real(confidence):
        raise DomainError(f"confidence must be a number, got {confidence!r}")
    if not 0.5 < confidence < 1.0:
        raise DomainError(
            f"confidence must lie strictly between 1/2 and 1, got {_shown(confidence)}"
        )
    return float(delta), float(confidence)


def plan_samples(delta: float, confidence: float = 0.75) -> int:
    """Samples per quadrature for additive error ``delta`` at ``confidence``.

    A two-sided Hoeffding bound on ±1 readings, with a union bound
    across the real and imaginary estimators:
    N = ceil(2 ln(4 / (1 - confidence)) / delta^2), and at least 1.
    Monotone non-increasing in ``delta``; both parameter boundaries and a
    non-finite ``delta`` are errors, and a ``delta`` so small that the
    bound is past float range raises LimitError.
    """
    # as floats, dividing twice: an int's exact square could overflow the
    # division, and a tiny float's square underflows to zero
    delta, confidence = _check_error_budget(delta, confidence)
    bound = 2.0 * math.log(4.0 / (1.0 - confidence)) / delta / delta
    if not math.isfinite(bound):
        raise LimitError(
            f"sample budget for error target {delta} is past float range; "
            f"loosen delta"
        )
    return max(1, math.ceil(bound))


@dataclass(frozen=True)
class TraceEstimate:
    """An additive-error estimate of a plat invariant, with audit trail.

    ``value`` approximates the exact invariant to within ``delta`` with
    probability at least ``confidence``.  ``scale`` is the factor by
    which the per-quadrature sampling error was tightened so that the
    guarantee holds on the invariant's own normalization scale;
    ``samples_used`` counts both quadratures together and is at least
    the planner's per-quadrature bound.  ``exact`` carries the
    deterministic value whenever the library could compute it, and
    ``tractable_root`` flags evaluation points where sampling has no
    advantage over classical evaluation.
    """

    value: complex
    delta: float
    confidence: float
    samples_used: int
    seed: int
    r: int
    scale: float
    crossing_steps: int
    generator: str = GENERATOR_ID
    exact: complex | None = None
    tractable_root: bool = False

    def __post_init__(self):
        _check_error_budget(self.delta, self.confidence)
        if self.samples_used < plan_samples(self.delta * self.scale, self.confidence):
            raise DomainError("samples_used fell below the planned bound")

    def error_bound_held(self) -> bool | None:
        """Whether |value - exact| ≤ delta, or None without an exact value."""
        if self.exact is None:
            return None
        return abs(self.value - self.exact) <= self.delta

    def to_json_dict(self) -> dict:
        """The documented result schema, JSON-serializable."""
        return {
            "Z_re": self.value.real,
            "Z_im": self.value.imag,
            "delta": self.delta,
            "confidence": self.confidence,
            "samples": self.samples_used,
            "seed": self.seed,
            "r": self.r,
            "exact_available": self.exact is not None,
            "exact_re": None if self.exact is None else self.exact.real,
            "exact_im": None if self.exact is None else self.exact.imag,
            "scale": self.scale,
            "generator": self.generator,
            "crossing_steps": self.crossing_steps,
            "tractable_root": self.tractable_root,
        }


def _check_run_seed(seed):
    if not _is_int(seed) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {_shown_repr(seed)}")


def _sampled_overlap(reference, branch, planned: int, seed: int) -> complex:
    """Mean of per-quadrature ancilla readings, on derived per-sample seeds.

    Sample k of quadrature p draws from a generator seeded with
    (seed, p, k), so samples are independent, reproducible, and safe to
    evaluate in any order; they are drawn ``_BLOCK`` at a time and the
    ±1 readings are aggregated as exact integers, making the reported
    mean order-independent.
    """
    if planned > SAMPLE_LIMIT:
        raise LimitError(
            f"sample budget {planned} per quadrature exceeds the limit "
            f"{SAMPLE_LIMIT}; loosen delta or confidence"
        )
    means = []
    # quadrature 0 is the real part, 1 the imaginary part
    for index, phase in enumerate((1.0, -1.0j)):
        p_plus = _reading_probability(reference, branch, phase)
        plus = sum(
            _plus_readings(p_plus, seed, index, start, min(start + _BLOCK, planned))
            for start in range(0, planned, _BLOCK)
        )
        means.append((2 * plus - planned) / planned)
    return complex(means[0], means[1])


def estimate_markov_trace(
    w: BraidWord, colors, r: int, delta: float, confidence: float = 0.75, seed: int = 0
) -> TraceEstimate:
    """Sampled estimate of the colored invariant of the plat closure.

    ``colors`` lists one color per link component, as for
    ``colored_invariant``, whose value the estimate targets on the same
    normalization scale.  The simulator prepares the top bend state,
    applies one controlled crossing per letter, and reads the ancilla
    2N times — N per quadrature, with N chosen by the planner at the
    rescaled error ``delta * scale`` so that the final guarantee
    |value − exact| ≤ delta holds with probability ≥ ``confidence``.
    The deterministic exact value rides along for comparison.
    Identical arguments and seed reproduce the estimate bit for bit.
    """
    delta, confidence = _check_error_budget(delta, confidence)
    _check_run_seed(seed)
    return _estimate(plat_branch(w, colors, r), w, r, delta, confidence, seed)


def approx_jones(
    w: BraidWord, r: int, delta: float, confidence: float = 0.75, seed: int = 0
) -> TraceEstimate:
    """Sampled Jones value of the plat closure, unknot normalized.

    Every component carries spin 1/2 and the reported value sits on
    the scale where the unknot evaluates to exactly 1 — the scale of
    ``jones_value_from_plat``, whose deterministic value rides along as
    the exact companion.  Roots 3, 4, and 6 are accepted but flagged
    ``tractable_root``: there the evaluated invariant is classically
    easy and sampling buys nothing.  Root 2 is rejected outright —
    the spin-1/2 strand degenerates at that point and the braiding
    machinery is empty.
    """
    delta, confidence = _check_error_budget(delta, confidence)
    _check_run_seed(seed)
    if r == 2:
        raise DomainError(
            "r = 2 evaluates at the second root of unity, where the spin-1/2 "
            "braiding degenerates ([2]_q = 0); that point is classically "
            "tractable but outside this sampler's domain"
        )
    return _estimate(jones_plat_branch(w, r), w, r, delta, confidence, seed)


def _estimate(pieces, w: BraidWord, r: int, delta, confidence, seed) -> TraceEstimate:
    """Sample the engine's branch; its exact contraction rides along."""
    prefactor, reference, branch = pieces
    scale = 1.0 / (abs(prefactor) * math.sqrt(2.0))
    if not delta * scale > 0:
        raise LimitError(
            f"error target {delta} underflows to 0 on the sampling scale "
            f"{scale:.6g}; loosen delta"
        )
    try:
        planned = plan_samples(delta * scale, confidence)
    except LimitError:
        raise LimitError(
            f"sample budget for error target {delta} on the sampling scale "
            f"{scale:.6g} is past float range; loosen delta"
        ) from None
    overlap = _sampled_overlap(reference, branch, planned, seed)
    return TraceEstimate(
        value=prefactor * overlap,
        delta=delta,
        confidence=confidence,
        samples_used=2 * planned,
        seed=seed,
        r=r,
        scale=scale,
        crossing_steps=len(w.letters),
        exact=prefactor * complex(np.vdot(reference, branch)),
        tractable_root=r in TRACTABLE_ROOTS,
    )
