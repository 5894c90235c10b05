"""The ``knit`` command: braid words in, invariants out.

Subcommands cover parsing and normal forms, closure summaries, the
exact Jones polynomial (with optional numeric evaluation at a root of
unity), colored invariants, sampled approximation, and a randomized
self-check of the invariance properties.  Output is human-readable by
default and JSON with ``--json``; exit codes are 2 for parse or usage
problems, 1 for domain violations, and 3 for resource limits and for a
result that is not finite, which would not be valid JSON.

``run(argv)`` is the library entry point and returns a
``CommandResult`` instead of printing; ``main()`` is the console
script, also run by ``python -m knit`` and ``python -m knit.cli``.
The argument parser is built on the first ``run`` and reused by every
later one: ``parse_args`` only reads it, filling a fresh namespace per
call.  Each subcommand has one handler, bound to its subparser; it
returns its JSON payload, its text lines and its notes for stderr, and
``run`` renders the payload under ``--json`` and the text otherwise.

Only ``colored`` and ``approx`` need numpy; their handlers import
``su2q`` and ``qsim`` when called, so the exact commands start without it.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import random
import re
import sys
from dataclasses import dataclass, field

from .braid import BraidWord, parse_braid, random_braid
from .diagram import (
    DIGIT_LIMIT,
    closure_plat,
    closure_trace,
    component_labels,
    plat_profile,
    require_plat_index,
)
from .errors import DomainError, KnitError, LimitError, ParseError, _quoted, _shown
from .garside import normal_form, words_equal
from .jones import _check_crossings, jones_polynomial
from .laurent import evaluate_at_root

__all__ = ["CommandResult", "TRIAL_LIMIT", "run", "main"]

#: Most trials ``invariance-test`` runs; a trial of the five families takes
#: about 10 ms, so the largest admitted run takes about 10 s.
TRIAL_LIMIT = 1_000

_INVARIANCE_FAMILIES = (
    "markov-conjugate",
    "markov-stabilize",
    "RI",
    "RII",
    "RIII",
)


@dataclass
class CommandResult:
    """Outcome of one command invocation.

    ``payload`` is the JSON document the run produced (an error
    document when ``exit_code`` is nonzero); ``diagnostics`` are
    warnings for stderr; ``rendered`` is the exact text ``main``
    prints, honoring the requested output mode.
    """

    exit_code: int
    payload: dict
    diagnostics: list[str] = field(default_factory=list)
    command: str = ""
    rendered: str = ""


class _UsageError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self.format_usage())


def _int(text: str) -> int:
    """argparse type for every integer option: int(), quoting a bad value short."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}") from None


@functools.cache
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit the JSON payload instead of text"
    )

    word_args = argparse.ArgumentParser(add_help=False)
    word_args.add_argument("word", help="braid word, e.g. 's1 s2^-1 s1^3'")
    word_args.add_argument(
        "-n",
        "--strands",
        type=_int,
        default=None,
        help="number of strands (default: one more than the largest generator)",
    )

    closure_args = argparse.ArgumentParser(add_help=False)
    closure_args.add_argument(
        "--closure", choices=("trace", "plat"), default="trace", dest="closure_kind"
    )

    parser = _Parser(
        prog="knit",
        description="Braid-word invariants: exact, colored, and sampled.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    sub.add_parser(
        "parse",
        parents=[common, word_args],
        help="parse a braid word and report its basic data",
    ).set_defaults(handler=_cmd_parse)

    sub.add_parser(
        "nf",
        parents=[common, word_args],
        help="left-canonical normal form (half-twist power and simple factors)",
    ).set_defaults(handler=_cmd_nf)

    eq = sub.add_parser(
        "eq", parents=[common], help="decide whether two braid words are equal"
    )
    eq.add_argument("left", help="first braid word")
    eq.add_argument("right", help="second braid word")
    eq.add_argument("-n", "--strands", type=_int, default=None)
    eq.set_defaults(handler=_cmd_eq)

    sub.add_parser(
        "closure-info",
        parents=[common, word_args, closure_args],
        help="components, crossings, and writhe of a closure",
    ).set_defaults(handler=_cmd_closure_info)

    jones = sub.add_parser(
        "jones",
        parents=[common, word_args, closure_args],
        help="exact Jones polynomial of a closure",
    )
    jones.add_argument(
        "--at-root",
        type=_int,
        default=None,
        metavar="R",
        help="also evaluate at q = exp(2*pi*i/R)",
    )
    jones.set_defaults(handler=_cmd_jones)

    colored = sub.add_parser(
        "colored",
        parents=[common, word_args],
        help="colored invariant of the plat closure",
    )
    colored.add_argument(
        "--colors",
        required=True,
        help="comma-separated doubled spins, one per component, e.g. 1,1,1",
    )
    colored.add_argument("--root", type=_int, required=True, metavar="R")
    colored.add_argument(
        "--normalize",
        choices=("none", "ambient", "regular"),
        default="none",
        help="rescale: 'regular' keeps framing, 'ambient' is kink-invariant",
    )
    colored.set_defaults(handler=_cmd_colored)

    approx = sub.add_parser(
        "approx",
        parents=[common, word_args],
        help="sampled Jones value of the plat closure, unknot normalized",
    )
    approx.add_argument("--root", type=_int, required=True, metavar="R")
    approx.add_argument("--delta", type=float, required=True)
    approx.add_argument("--confidence", type=float, default=0.75)
    approx.add_argument("--seed", type=_int, default=0)
    approx.set_defaults(handler=_cmd_approx)

    inv = sub.add_parser(
        "invariance-test",
        parents=[common],
        help="randomized Markov-move and local-move invariance checks",
    )
    inv.add_argument("--trials", type=_int, default=20)
    inv.add_argument("--seed", type=_int, default=0)
    inv.set_defaults(handler=_cmd_invariance_test)

    return parser


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its JSON payload, its text lines and
# its notes for stderr

_Output = tuple[dict, list[str], list[str]]


def _cmd_parse(args) -> _Output:
    w = parse_braid(args.word, args.strands)
    word, exponent_sum = str(w), w.exponent_sum()
    permutation = list(w.permutation().targets)
    payload = {
        "word": word,
        "strands": w.index,
        "length": len(w.letters),
        "exponent_sum": exponent_sum,
        "letters": [[g, s] for g, s in w.letters],
        "permutation": permutation,
    }
    return payload, [
        f"word: {word or '(empty)'}",
        f"strands: {w.index}",
        f"length: {len(w.letters)}",
        f"exponent sum: {exponent_sum}",
        f"permutation: {permutation}",
    ], []


def _cmd_nf(args) -> _Output:
    nf = normal_form(parse_braid(args.word, args.strands))
    form, length = str(nf), nf.canonical_length()
    trivial = nf.infimum == 0 and length == 0
    payload = {
        "strands": nf.index,
        "half_twist_power": nf.infimum,
        "canonical_length": length,
        "factors": [list(f.targets) for f in nf.factors],
        "normal_form": form,
        "trivial": trivial,
    }
    return payload, [
        f"normal form: {form}",
        f"half-twist power: {nf.infimum}",
        f"canonical length: {length}",
        f"trivial: {str(trivial).lower()}",
    ], []


def _cmd_eq(args) -> _Output:
    left = parse_braid(args.left, args.strands)
    right = parse_braid(args.right, args.strands)
    # without -n the narrower word is read in the wider word's group
    n = max(left.index, right.index)
    equal = words_equal(BraidWord(n, left.letters), BraidWord(n, right.letters))
    return {"equal": equal}, ["equal" if equal else "not equal"], []


def _cmd_closure_info(args) -> _Output:
    w = parse_braid(args.word, args.strands)
    payload = {"closure": args.closure_kind, "strands": w.index}
    if args.closure_kind == "trace":
        # read off the word, without building the closure: a component per
        # cycle of the permutation, a crossing per letter, writhe = exponent sum
        cycles = component_labels(w.index, enumerate(t - 1 for t in w.permutation().targets))
        payload.update(
            components=len(set(cycles)), crossings=len(w.letters), writhe=w.exponent_sum()
        )
    else:
        profile = plat_profile(w)
        payload.update(
            components=profile.component_count,
            crossings=len(w.letters),
            writhe=profile.writhe,
            self_writhe=list(profile.self_writhe),
            cup_counts=list(profile.cup_count),
            pair_components=list(profile.pair_component),
            linking_sum=profile.linking_sum(),
        )
    lines = [f"{key}: {payload[key]}" for key in ("closure", "components", "crossings", "writhe")]
    if args.closure_kind == "plat":
        lines.append(f"self-writhe by component: {payload['self_writhe']}")
        lines.append(f"linking sum: {payload['linking_sum']}")
    return payload, lines, []


def _cmd_jones(args) -> _Output:
    w = parse_braid(args.word, args.strands)
    if args.closure_kind == "plat":
        require_plat_index(w)
    # either closure has one crossing per letter: refuse the word before building it
    _check_crossings(len(w.letters))
    close = closure_trace if args.closure_kind == "trace" else closure_plat
    poly = jones_polynomial(close(w))
    pretty = poly.format("t")
    payload = {
        "closure": args.closure_kind,
        "strands": w.index,
        "polynomial": {"variable": "t", "terms": poly.to_json_terms(), "pretty": pretty},
    }
    lines = [f"jones ({args.closure_kind} closure): {pretty}"]
    if args.at_root is not None:
        value = evaluate_at_root(poly, args.at_root)
        payload["value_at_root"] = {"r": args.at_root, "re": value.real, "im": value.imag}
        lines.append(f"at r = {args.at_root}: {value.real:.12g} + {value.imag:.12g}i")
    return payload, lines, []


def _parse_colors(text: str) -> list[int]:
    colors = []
    for token in text.split(","):
        token = token.strip()
        if not re.fullmatch(r"\d+", token):
            raise ParseError(
                f"colors must be comma-separated nonnegative integers "
                f"(doubled spins), got {_quoted(token)}",
                0,
            )
        # int() refuses a number past ~4,300 digits with an untyped error
        if len(token.lstrip("0")) > DIGIT_LIMIT:
            raise ParseError(f"color longer than {DIGIT_LIMIT} digits", 0)
        colors.append(int(token))
    return colors


def _cmd_colored(args) -> _Output:
    from .su2q import colored_invariant

    w = parse_braid(args.word, args.strands)
    colors = _parse_colors(args.colors)
    r = args.root
    value = colored_invariant(w, colors, r)
    writhe = plat_profile(w).writhe
    if args.normalize == "regular":
        # the framed value: times q^(3w/4) at q = exp(2 pi i / r)
        value *= cmath.exp(3j * math.pi * writhe / (2 * r))
    elif args.normalize == "ambient":
        # the plain value over q^(1/2) - q^(-1/2) = 2i sin(pi / r)
        value /= 2j * math.sin(math.pi / r)
    payload = {
        "root": r,
        "colors": colors,
        "components": len(colors),
        "writhe": writhe,
        "normalization": args.normalize,
        "value_re": value.real,
        "value_im": value.imag,
    }
    return payload, [
        f"colored invariant (r = {r}, colors {colors}, normalization {args.normalize}):",
        f"  {value.real:.12g} + {value.imag:.12g}i",
    ], []


def _cmd_approx(args) -> _Output:
    from .qsim import approx_jones

    w = parse_braid(args.word, args.strands)
    estimate = approx_jones(w, args.root, args.delta, args.confidence, args.seed)
    value, exact = estimate.value, estimate.exact
    lines = [
        f"Z = {value.real:.6g} + {value.imag:.6g}i "
        f"(delta {estimate.delta}, confidence {estimate.confidence})"
    ]
    if exact is not None:
        lines.append(f"exact = {exact.real:.6g} + {exact.imag:.6g}i")
    lines.append(
        f"samples: {estimate.samples_used}  seed: {estimate.seed}  "
        f"generator: {estimate.generator}  scale: {estimate.scale:.6g}"
    )
    notes = []
    if estimate.tractable_root:
        notes.append(
            f"note: r = {args.root} is a classically tractable evaluation "
            f"point; sampling buys nothing there"
        )
    return estimate.to_json_dict(), lines, notes


def _trace_jones(w: BraidWord) -> object:
    return jones_polynomial(closure_trace(w))


def _invariance_trial(family: str, seed_text: str) -> bool:
    from .reidemeister import apply_reidemeister, reidemeister_sites

    rng = random.Random(seed_text)
    # a seeded small closure, kept within the state-sum budget
    w = random_braid(rng.randint(2, 4), rng.randint(3, 6), rng.randrange(2**32))
    d = closure_trace(w)
    if family == "markov-conjugate":
        a = random_braid(w.index, rng.randint(1, 4), rng.randrange(2**32))
        return _trace_jones(w.conjugate_by(a)) == _trace_jones(w)
    if family == "markov-stabilize":
        return _trace_jones(w.stabilize(rng.choice((1, -1)))) == _trace_jones(w)
    if family in ("RI", "RII"):
        move = "RI+" if family == "RI" else "RII+"
        sites = reidemeister_sites(d, move)
        if not sites:
            return False
        moved = apply_reidemeister(d, move, sites[rng.randrange(len(sites))])
        writhe_shift = moved.writhe() - d.writhe()
        expected_shift = (-1, 1) if family == "RI" else (0,)
        return writhe_shift in expected_shift and (
            jones_polynomial(moved) == jones_polynomial(d)
        )
    # triangle slides can be scarce on alternating closures: open sites
    # with strand slides first, falling back to a closure known to have one
    for _ in range(3):
        sites = reidemeister_sites(d, "RIII")
        if sites:
            break
        pushes = reidemeister_sites(d, "RII+")
        if not pushes:
            break
        d = apply_reidemeister(d, "RII+", pushes[rng.randrange(len(pushes))])
    sites = reidemeister_sites(d, "RIII")
    if not sites:
        d = closure_trace(parse_braid("s1 s2 s1", 3))
        sites = reidemeister_sites(d, "RIII")
    moved = apply_reidemeister(d, "RIII", sites[rng.randrange(len(sites))])
    return moved.writhe() == d.writhe() and (
        jones_polynomial(moved) == jones_polynomial(d)
    )


def _cmd_invariance_test(args) -> _Output:
    if args.trials < 1:
        raise DomainError(f"trial count must be positive, got {_shown(args.trials)}")
    if args.trials > TRIAL_LIMIT:
        raise LimitError(f"trial count {_shown(args.trials)} is past {TRIAL_LIMIT}")
    passed = {
        family: sum(
            _invariance_trial(family, f"{family}:{args.seed}:{t}")
            for t in range(args.trials)
        )
        for family in _INVARIANCE_FAMILIES
    }
    all_passed = all(count == args.trials for count in passed.values())
    payload = {
        "trials": args.trials,
        "seed": args.seed,
        "results": {f: {"passed": count, "trials": args.trials} for f, count in passed.items()},
        "all_passed": all_passed,
    }
    lines = [f"{f}: {count}/{args.trials} passed" for f, count in passed.items()]
    return payload, [*lines, f"all passed: {str(all_passed).lower()}"], []


def run(argv: list[str]) -> CommandResult:
    """Execute one command line and return its result without printing."""
    parser = _build_parser()
    diagnostics: list[str] = []
    command = ""
    try:
        args = parser.parse_args(argv)
        command = args.command
        payload, lines, notes = args.handler(args)
        diagnostics.extend(notes)
        try:
            document = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:
            raise LimitError(f"{command} produced a non-finite value") from None
        rendered = document if args.json else "\n".join(lines)
        return CommandResult(0, payload, diagnostics, command, rendered)
    except _UsageError as exc:
        payload = {"error": str(exc), "kind": "usage"}
        rendered = f"error: {exc}\n{exc.usage}".rstrip()
        return CommandResult(2, payload, diagnostics, command, rendered)
    except ParseError as exc:
        payload = {"error": str(exc), "kind": "parse", "position": exc.position}
        return CommandResult(2, payload, diagnostics, command, f"error: {exc}")
    except LimitError as exc:
        payload = {"error": str(exc), "kind": "limit"}
        return CommandResult(3, payload, diagnostics, command, f"error: {exc}")
    except KnitError as exc:
        payload = {"error": str(exc), "kind": "domain"}
        return CommandResult(1, payload, diagnostics, command, f"error: {exc}")


def main(argv: list[str] | None = None) -> int:
    """Console entry point: print the result and return the exit code."""
    try:
        result = run(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse --help prints and exits itself
        code = exc.code
        return code if isinstance(code, int) else 0
    stream = sys.stdout if result.exit_code == 0 else sys.stderr
    for note in result.diagnostics:
        print(note, file=sys.stderr)
    if result.rendered:
        print(result.rendered, file=stream)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
