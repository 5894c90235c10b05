"""Seeded job lists, the timed call and the output check of each workload.

A workload is a fixed table of slots, which together make one round of
jobs.  A slot pins every property that sets a job's cost (braid index,
word length, closure, root, colour, error target); the seed only draws
the letters and the sampler seeds.  Every seed therefore runs the same
mix, so runs on different seeds measure the same thing.

Jobs pass braid words as text, so parsing is part of every job.  The
timed call reaches ``knit`` through module attributes (``garside.words_equal``
and so on), which is where the traced run puts its spans.

The checks never call the code path a job timed: word-problem labels
come from how each pair was built, the Jones polynomials are compared
with the Temperley-Lieb route or the fusion-path value, coloured values
with the same link carrying one more kink, and sampler estimates with
the planner and with a bit-for-bit rerun.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

from knit import braid, cli, diagram, garside, jones, laurent, qsim, su2q

#: Confidence of every sampled estimate; ``bound_held_frac`` must reach it.
CONFIDENCE = 0.75

#: Tolerance of the floating-point cross-checks.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Job:
    """One request: the slot it fills, the inputs of the timed call, and
    what the generator knows about the answer (``None`` when nothing)."""

    slot: tuple
    args: tuple
    expect: object = None


@dataclass(frozen=True)
class Workload:
    """A named job mix with its timed call and checks.

    ``probe`` is Python source that a fresh interpreter runs to answer
    the workload's smallest request; it exits non-zero on a wrong answer.
    ``replay`` repeats, in the traced run only, the library calls that a
    CLI request makes inside ``knit``, so that they get spans of their
    own.  ``rerun`` is the run-level check on the whole list of jobs.
    ``bound`` names the kind of work, ``"python"`` or ``"blas"``, that
    takes most of a job's time.
    """

    name: str
    slots: tuple
    make: Callable[[tuple, random.Random], Job]
    call: Callable[[Job], object]
    check: Callable[[Job, object], bool]
    probe: str
    replay: Callable[[Job], None] | None = None
    rerun: Callable[[list, list], bool] | None = None
    bound: Callable[[Job], str] = lambda job: "python"

    def round(self, seed: int, index: int) -> list[Job]:
        """Round ``index`` of the job list for ``seed``: every slot once, shuffled.

        Warm-up uses index -1, a stream no timed round draws from.
        """
        rng = random.Random(f"{self.name}:{seed}:{index}")
        jobs = [self.make(slot, rng) for slot in self.slots]
        rng.shuffle(jobs)
        return jobs


def _letters(rng: random.Random, n: int, length: int) -> list[tuple[int, int]]:
    return [(rng.randrange(1, n), rng.choice((1, -1))) for _ in range(length)]


def _text(letters) -> str:
    return " ".join(f"s{g}" if s > 0 else f"s{g}^-1" for g, s in letters)


# ---------------------------------------------------------------------------
# word-problem: garside.words_equal on pairs built with a known answer

# (braid index, letters of the first word, equal?).  Lengths run from 6 to
# 150 letters, half the pairs are equal, and a round takes about four
# seconds.  A normal form's time depends on the letters as well as on the
# length, so p50 and p90 are held by groups of like slots (ten at B6 with
# 26 letters, six at B5 with 72) whose times keep clear of their
# neighbours'.
_WORD_SLOTS = tuple(
    (n, length, k % 2 == 0)
    for k, (n, length) in enumerate(
        [(8, 6), (7, 8), (6, 10), (5, 12), (4, 14), (8, 10), (7, 12), (6, 16), (5, 18),
         (4, 20), (4, 24), (5, 22), (6, 18), (7, 10), (8, 8), (5, 14), (4, 18), (6, 12),
         (7, 16), (4, 28)]
        + [(6, 26)] * 10
        + [(8, 24), (7, 28), (8, 28), (4, 56), (5, 48), (7, 34), (4, 64), (6, 36), (5, 40),
           (8, 20), (7, 24), (4, 48)]
        + [(5, 72)] * 6
        + [(4, 120), (4, 150)]
    )
)


def _equal_rewrite(rng: random.Random, n: int, letters: list) -> list:
    """A different word for the same braid, by moves that each keep the element.

    Far commutation swaps neighbours whose generators are two or more
    apart; the braid relation turns a b a into b a b when the three letters
    share a sign; free cancellation inserts or removes x x^-1.
    """
    w = list(letters)
    for _ in range(len(w) // 3 + 3):
        kind = rng.randrange(4)
        if kind == 0:
            sites = [k for k in range(len(w) - 1) if abs(w[k][0] - w[k + 1][0]) >= 2]
            if sites:
                k = rng.choice(sites)
                w[k], w[k + 1] = w[k + 1], w[k]
                continue
        if kind == 1:
            sites = [
                k for k in range(len(w) - 2)
                if w[k] == w[k + 2]
                and abs(w[k][0] - w[k + 1][0]) == 1
                and w[k][1] == w[k + 1][1]
            ]
            if sites:
                k = rng.choice(sites)
                w[k:k + 3] = [w[k + 1], w[k], w[k + 1]]
                continue
        if kind == 2:
            sites = [k for k in range(len(w) - 1) if w[k][0] == w[k + 1][0] and w[k][1] == -w[k + 1][1]]
            if sites:
                k = rng.choice(sites)
                del w[k:k + 2]
                continue
        g, s = rng.randrange(1, n), rng.choice((1, -1))
        k = rng.randrange(len(w) + 1)
        w[k:k] = [(g, s), (g, -s)]
    return w


def _unequal_mutation(rng: random.Random, n: int, letters: list) -> list:
    """Change one letter so that an invariant of the element changes.

    Flipping a sign moves the exponent sum by two; replacing s_i by s_j
    (j != i) changes the permutation.  Either makes the braids unequal.
    """
    w = list(letters)
    k = rng.randrange(len(w))
    g, s = w[k]
    if rng.random() < 0.5:
        w[k] = (g, -s)
    else:
        w[k] = (rng.choice([h for h in range(1, n) if h != g]), s)
    return w


def _make_word_pair(slot: tuple, rng: random.Random) -> Job:
    n, length, equal = slot
    first = _letters(rng, n, length)
    second = _equal_rewrite(rng, n, first)
    if not equal:
        second = _unequal_mutation(rng, n, second)
    return Job(slot, (n, _text(first), _text(second)), equal)


def _call_words_equal(job: Job) -> bool:
    n, a, b = job.args
    return garside.words_equal(braid.parse_braid(a, n), braid.parse_braid(b, n))


def _check_words_equal(job: Job, out) -> bool:
    return isinstance(out, bool) and out == job.expect


WORD_PROBLEM = Workload(
    name="word-problem",
    slots=_WORD_SLOTS,
    make=_make_word_pair,
    call=_call_words_equal,
    check=_check_words_equal,
    probe=(
        "from knit import parse_braid, words_equal\n"
        "a = parse_braid('s1 s2 s1 s3 s4 s3 s5 s6 s5 s7^-1', 8)\n"
        "b = parse_braid('s2 s1 s2 s4 s3 s4 s6 s5 s6 s7^-1', 8)\n"
        "raise SystemExit(0 if words_equal(a, b) else 1)\n"
    ),
)


# ---------------------------------------------------------------------------
# jones-exact: `knit jones WORD --closure trace|plat --json` through cli.run

# (closure, braid index, crossings, root for --at-root or 0).  The 2^c
# state sum doubles per crossing, so job times cluster by crossing number
# with a jump between clusters.  The counts put p50 in the middle of the
# 10-crossing cluster and p90 in the middle of the 12-crossing one, away
# from the jumps.
_JONES_COUNTS = {8: 8, 9: 10, 10: 24, 11: 10, 12: 4, 13: 2, 14: 1, 15: 1}
_JONES_SLOTS = tuple(
    ("plat", (4, 6)[k % 2], c, (5, 7)[(k // 2) % 2]) if k % 3 == 0
    else ("trace", 3 + k % 4, c, 0)
    for c, count in _JONES_COUNTS.items()
    for k in range(count)
)


def _make_jones_request(slot: tuple, rng: random.Random) -> Job:
    closure, n, crossings, root = slot
    argv = ["jones", _text(_letters(rng, n, crossings)), "-n", str(n),
            "--closure", closure, "--json"]
    if root:
        argv += ["--at-root", str(root)]
    return Job(slot, tuple(argv))


def _call_cli(job: Job):
    return cli.run(list(job.args))


def _replay_jones(job: Job) -> None:
    closure, n = job.slot[0], job.slot[1]
    w = braid.parse_braid(job.args[1], n)
    close = diagram.closure_trace if closure == "trace" else diagram.closure_plat
    jones.jones_polynomial(close(w))


def _check_jones(job: Job, out) -> bool:
    if not isinstance(out, cli.CommandResult) or out.exit_code != 0:
        return False
    closure, n, _, root = job.slot
    w = braid.parse_braid(job.args[1], n)
    poly = laurent.LaurentPoly.from_json_terms(out.payload["polynomial"]["terms"])
    if closure == "trace" and poly != jones.markov_trace_jones(w):
        return False
    if root:
        at = out.payload["value_at_root"]
        value = complex(at["re"], at["im"])
        if not cmath.isfinite(value) or abs(value - su2q.jones_value_from_plat(w, root)) > TOLERANCE:
            return False
    return True


JONES_EXACT = Workload(
    name="jones-exact",
    slots=_JONES_SLOTS,
    make=_make_jones_request,
    call=_call_cli,
    check=_check_jones,
    replay=_replay_jones,
    probe=(
        "from knit.cli import run\n"
        "r = run(['jones', 's1 s2^-1 s1 s2^-1 s1 s2^-1 s1 s2^-1', '-n', '3', '--json'])\n"
        "raise SystemExit(r.exit_code)\n"
    ),
)


# ---------------------------------------------------------------------------
# colored: su2q.colored_invariant on plat closures

# (braid index, root, doubled spins allowed per component, letters).  A
# slot with two spins colours each component at random, so fusion-path
# tables are met both for the first time and again.  Path dimensions run
# from 5 (B4, spin 1/2 at r = 5) to 883 (B8, spin 1 at r = 10).  The dense
# product costs O(L D^3) whatever the letters, so every slot has a steady
# time; the six B8 spin-1/2 slots at r = 7 hold p50 and the four B8 spin-1
# slots at r = 7 hold p90, each inside a group of near-equal times.
_COLORED_SLOTS = (
    (4, 5, (1,), 10), (4, 5, (2,), 30), (4, 7, (1,), 14), (4, 7, (2,), 18),
    (4, 10, (2,), 22), (4, 5, (1, 2), 24), (4, 10, (1, 2), 26), (6, 5, (1,), 12),
    (6, 5, (2,), 28), (6, 5, (1, 2), 20), (6, 7, (1,), 16), (6, 10, (1,), 11),
    (8, 7, (1,), 17), (8, 7, (1,), 18), (8, 7, (1,), 19), (8, 7, (1,), 20),
    (8, 7, (1,), 21), (8, 7, (1,), 22),
    (6, 7, (2,), 20), (6, 7, (2,), 28), (8, 10, (1,), 23), (8, 10, (1,), 26),
    (6, 10, (2,), 18), (6, 10, (2,), 25), (6, 10, (2,), 30),
    (8, 7, (2,), 14), (8, 7, (2,), 16), (8, 7, (2,), 18), (8, 7, (2,), 20),
    (8, 10, (2,), 20),
)

# One job in this many also has its kink check, picked by the seed.
_KINK_CHECK_EVERY = 6


def _make_colored(slot: tuple, rng: random.Random) -> Job:
    n, r, spins, length = slot
    letters = _letters(rng, n, length)
    count = diagram.plat_profile(braid.BraidWord(n, tuple(letters))).component_count
    colors = tuple(rng.choice(spins) for _ in range(count))
    kink_check = rng.randrange(_KINK_CHECK_EVERY) == 0
    return Job(slot, (n, _text(letters), colors, r), kink_check)


def _call_colored(job: Job) -> complex:
    n, text, colors, r = job.args
    return su2q.colored_invariant(braid.parse_braid(text, n), list(colors), r)


def _check_colored(job: Job, out) -> bool:
    """Finite, and, on the seeded subset, unchanged by a kink at the first cup."""
    if not isinstance(out, complex) or not cmath.isfinite(out):
        return False
    if not job.expect:
        return True
    n, text, colors, r = job.args
    kinked = su2q.colored_invariant(braid.parse_braid(text + " s1", n), list(colors), r)
    return abs(out - kinked) <= TOLERANCE


def _colored_bound(job: Job) -> str:
    """B8 at spin 1 has 353 or 883 fusion paths, where the matrix products
    outweigh the Python that builds each twist."""
    n, _, spins, _ = job.slot
    return "blas" if n == 8 and spins == (2,) else "python"


COLORED = Workload(
    name="colored",
    slots=_COLORED_SLOTS,
    make=_make_colored,
    call=_call_colored,
    check=_check_colored,
    bound=_colored_bound,
    probe=(
        "import cmath\n"
        "from knit import colored_invariant, parse_braid\n"
        "v = colored_invariant(parse_braid('s2 s2 s2 s1 s3^-1 s2 s1 s3 s2^-1 s2', 4), [1, 1], 5)\n"
        "raise SystemExit(0 if cmath.isfinite(v) else 1)\n"
    ),
)


# ---------------------------------------------------------------------------
# sampled: qsim.approx_jones (spin 1/2) and qsim.estimate_markov_trace (spin 1)

# (estimator, braid index, root, delta, crossings).  The reading count of
# a slot is fixed by (estimator, index, root, delta), never by the letters.
_SAMPLED_SLOTS = (
    ("jones", 2, 5, 0.1, 3), ("jones", 2, 7, 0.05, 3), ("jones", 2, 10, 0.2, 5),
    ("jones", 2, 5, 0.3, 7), ("jones", 4, 5, 0.2, 5), ("jones", 4, 7, 0.1, 6),
    ("jones", 4, 7, 0.3, 8), ("jones", 4, 10, 0.2, 9), ("jones", 4, 5, 0.15, 7),
    ("jones", 6, 5, 0.2, 8), ("jones", 6, 7, 0.3, 10), ("jones", 6, 10, 0.3, 9),
    ("jones", 6, 5, 0.15, 10), ("spin1", 2, 5, 0.2, 3), ("spin1", 2, 7, 0.3, 5),
    ("spin1", 2, 10, 0.3, 4), ("spin1", 4, 5, 0.3, 6), ("spin1", 4, 5, 0.2, 8),
    ("spin1", 4, 7, 0.3, 7),
)


def _make_sampled(slot: tuple, rng: random.Random) -> Job:
    kind, n, r, delta, crossings = slot
    letters = _letters(rng, n, crossings)
    count = diagram.plat_profile(braid.BraidWord(n, tuple(letters))).component_count
    colors = (1 if kind == "jones" else 2,) * count
    return Job(slot, (n, _text(letters), colors, r, delta, rng.randrange(2**32)))


def _call_sampled(job: Job):
    n, text, colors, r, delta, seed = job.args
    w = braid.parse_braid(text, n)
    if job.slot[0] == "jones":
        return qsim.approx_jones(w, r, delta, CONFIDENCE, seed)
    return qsim.estimate_markov_trace(w, list(colors), r, delta, CONFIDENCE, seed)


def planned_readings(job: Job) -> int:
    """Readings the Hoeffding planner asks for, from the job's own inputs.

    The prefactor's size is a product of quantum dimensions: one
    [2j+1]_q per cap, divided by [2]_q on the unknot-normalised Jones
    scale.  Its inverse times 1/sqrt(2) tightens delta per quadrature.
    """
    n, _, colors, r, delta, _ = job.args
    qdim = abs(su2q.q_integer(colors[0] + 1, r))
    size = qdim ** (n // 2 - (1 if job.slot[0] == "jones" else 0))
    return 2 * qsim.plan_samples(delta / (size * math.sqrt(2.0)), CONFIDENCE)


def _check_sampled(job: Job, out) -> bool:
    return (
        isinstance(out, qsim.TraceEstimate)
        and cmath.isfinite(out.value)
        and out.exact is not None
        and cmath.isfinite(out.exact)
        and out.samples_used >= planned_readings(job)
    )


def bound_held_frac(outputs: list) -> float:
    """Share of estimates with |value - exact| <= delta (0 with none)."""
    held = [o.error_bound_held() for o in outputs if isinstance(o, qsim.TraceEstimate)]
    return sum(1 for h in held if h) / len(held) if held else 0.0


def _rerun_sampled(jobs: list, outputs: list) -> bool:
    """The first job again must give the same estimate bit for bit, and the
    share of estimates within delta must reach the confidence."""
    first, again = outputs[0], _call_sampled(jobs[0])
    return (
        isinstance(first, qsim.TraceEstimate)
        and first.value == again.value
        and first.samples_used == again.samples_used
        and bound_held_frac(outputs) >= CONFIDENCE
    )


SAMPLED = Workload(
    name="sampled",
    slots=_SAMPLED_SLOTS,
    make=_make_sampled,
    call=_call_sampled,
    check=_check_sampled,
    rerun=_rerun_sampled,
    probe=(
        "import cmath\n"
        "from knit import approx_jones, parse_braid\n"
        "e = approx_jones(parse_braid('s1^3', 2), 5, 0.3)\n"
        "raise SystemExit(0 if cmath.isfinite(e.value) else 1)\n"
    ),
)


WORKLOADS = {w.name: w for w in (WORD_PROBLEM, JONES_EXACT, COLORED, SAMPLED)}
