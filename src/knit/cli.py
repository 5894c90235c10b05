"""The ``knit`` command: braid words in, invariants out.

Subcommands cover parsing and normal forms, closure summaries, the
exact Jones polynomial (with optional numeric evaluation at a root of
unity), colored invariants, sampled approximation, and a randomized
self-check of the invariance properties.  Output is human-readable by
default and JSON with ``--json``; exit codes are 2 for parse or usage
problems, 1 for domain violations, and 3 for resource limits.

``run(argv)`` is the library entry point and returns a
``CommandResult`` instead of printing; ``main()`` is the console
script.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import random
import re
import sys
from dataclasses import dataclass, field

from .braid import BraidWord, parse_braid, random_braid
from .diagram import closure_plat, closure_trace, plat_profile
from .errors import DomainError, KnitError, LimitError, ParseError
from .garside import normal_form, words_equal
from .jones import CROSSING_LIMIT_ENV, jones_polynomial
from .laurent import evaluate_at_root
from .qsim import approx_jones
from .reidemeister import apply_reidemeister, reidemeister_sites
from .su2q import colored_invariant, normalize_ambient

__all__ = ["CommandResult", "run", "main", "CROSSING_LIMIT_ENV"]

_GENERATOR_TOKEN = re.compile(r"s(\d+)")

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
        type=int,
        default=None,
        help="number of strands (default: one more than the largest generator)",
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
    )

    sub.add_parser(
        "nf",
        parents=[common, word_args],
        help="left-canonical normal form (half-twist power and simple factors)",
    )

    eq = sub.add_parser(
        "eq", parents=[common], help="decide whether two braid words are equal"
    )
    eq.add_argument("left", help="first braid word")
    eq.add_argument("right", help="second braid word")
    eq.add_argument("-n", "--strands", type=int, default=None)

    closure = sub.add_parser(
        "closure-info",
        parents=[common, word_args],
        help="components, crossings, and writhe of a closure",
    )
    closure.add_argument(
        "--closure", choices=("trace", "plat"), default="trace", dest="closure_kind"
    )

    jones = sub.add_parser(
        "jones",
        parents=[common, word_args],
        help="exact Jones polynomial of a closure",
    )
    jones.add_argument(
        "--closure", choices=("trace", "plat"), default="trace", dest="closure_kind"
    )
    jones.add_argument(
        "--at-root",
        type=int,
        default=None,
        metavar="R",
        help="also evaluate at q = exp(2*pi*i/R)",
    )

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
    colored.add_argument("--root", type=int, required=True, metavar="R")
    colored.add_argument(
        "--normalize",
        choices=("none", "ambient", "regular"),
        default="none",
        help="rescale: 'regular' keeps framing, 'ambient' is kink-invariant",
    )

    approx = sub.add_parser(
        "approx",
        parents=[common, word_args],
        help="sampled Jones value of the plat closure, unknot normalized",
    )
    approx.add_argument("--root", type=int, required=True, metavar="R")
    approx.add_argument("--delta", type=float, required=True)
    approx.add_argument("--confidence", type=float, default=0.75)
    approx.add_argument("--seed", type=int, default=0)

    inv = sub.add_parser(
        "invariance-test",
        parents=[common],
        help="randomized Markov-move and local-move invariance checks",
    )
    inv.add_argument("--trials", type=int, default=20)
    inv.add_argument("--seed", type=int, default=0)

    return parser


def _format_word(w: BraidWord) -> str:
    return " ".join(f"s{g}" if s == 1 else f"s{g}^-1" for g, s in w.letters)


def _strand_count(strands: int | None, *texts: str) -> int:
    """``strands`` if given, else one more than the largest generator."""
    if strands is not None:
        return strands
    found = [int(tok) for text in texts for tok in _GENERATOR_TOKEN.findall(text)]
    return max(found, default=0) + 1


def _parse_word(text: str, strands: int | None) -> BraidWord:
    return parse_braid(text, _strand_count(strands, text))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_parse(args) -> dict:
    w = _parse_word(args.word, args.strands)
    perm = w.permutation()
    return {
        "word": _format_word(w),
        "strands": w.index,
        "length": len(w.letters),
        "exponent_sum": w.exponent_sum(),
        "letters": [[g, s] for g, s in w.letters],
        "permutation": [perm(k) for k in range(1, w.index + 1)],
    }


def _cmd_nf(args) -> dict:
    w = _parse_word(args.word, args.strands)
    nf = normal_form(w)
    return {
        "strands": nf.index,
        "half_twist_power": nf.infimum,
        "canonical_length": nf.canonical_length(),
        "factors": [[f(k) for k in range(1, nf.index + 1)] for f in nf.factors],
        "normal_form": str(nf),
        "trivial": nf.infimum == 0 and nf.canonical_length() == 0,
    }


def _cmd_eq(args) -> dict:
    strands = _strand_count(args.strands, args.left, args.right)
    left = parse_braid(args.left, strands)
    right = parse_braid(args.right, strands)
    return {"equal": words_equal(left, right)}


def _cmd_closure_info(args) -> dict:
    w = _parse_word(args.word, args.strands)
    if args.closure_kind == "trace":
        d = closure_trace(w)
        return {
            "closure": "trace",
            "strands": w.index,
            "components": d.component_count(),
            "crossings": d.crossing_count(),
            "writhe": d.writhe(),
        }
    profile = plat_profile(w)
    return {
        "closure": "plat",
        "strands": w.index,
        "components": profile.component_count,
        "crossings": len(w.letters),
        "writhe": profile.writhe,
        "self_writhe": list(profile.self_writhe),
        "cup_counts": list(profile.cup_count),
        "pair_components": list(profile.pair_component),
        "linking_sum": profile.linking_sum(),
    }


def _cmd_jones(args) -> dict:
    w = _parse_word(args.word, args.strands)
    close = closure_trace if args.closure_kind == "trace" else closure_plat
    poly = jones_polynomial(close(w))
    payload = {
        "closure": args.closure_kind,
        "strands": w.index,
        "polynomial": {
            "variable": "t",
            "terms": poly.to_json_terms(),
            "pretty": poly.format("t"),
        },
    }
    if args.at_root is not None:
        value = evaluate_at_root(poly, args.at_root)
        payload["value_at_root"] = {
            "r": args.at_root,
            "re": value.real,
            "im": value.imag,
        }
    return payload


def _parse_colors(text: str) -> list[int]:
    colors = []
    for token in text.split(","):
        token = token.strip()
        if not re.fullmatch(r"\d+", token):
            raise ParseError(
                f"colors must be comma-separated nonnegative integers "
                f"(doubled spins), got {token!r}",
                0,
            )
        colors.append(int(token))
    return colors


def _cmd_colored(args) -> dict:
    w = _parse_word(args.word, args.strands)
    colors = _parse_colors(args.colors)
    r = args.root
    value = colored_invariant(w, colors, r)
    writhe = plat_profile(w).writhe
    if args.normalize != "none":
        regular = value * cmath.exp(3j * math.pi * writhe / (2 * r))
        value = (
            regular
            if args.normalize == "regular"
            else normalize_ambient(regular, writhe, r)
        )
    return {
        "root": r,
        "colors": colors,
        "components": len(colors),
        "writhe": writhe,
        "normalization": args.normalize,
        "value_re": value.real,
        "value_im": value.imag,
    }


def _cmd_approx(args) -> tuple[dict, list[str]]:
    w = _parse_word(args.word, args.strands)
    estimate = approx_jones(w, args.root, args.delta, args.confidence, args.seed)
    notes = []
    if estimate.tractable_root:
        notes.append(
            f"note: r = {args.root} is a classically tractable evaluation "
            f"point; sampling buys nothing there"
        )
    return estimate.to_json_dict(), notes


def _trace_jones(w: BraidWord) -> object:
    return jones_polynomial(closure_trace(w))


def _random_closure(rng: random.Random):
    """A seeded small braid closure, kept within the state-sum budget."""
    n = rng.randint(2, 4)
    length = rng.randint(3, 6)
    w = random_braid(n, length, rng.randrange(2**32))
    return w, closure_trace(w)


def _invariance_trial(family: str, seed_text: str) -> bool:
    rng = random.Random(seed_text)
    w, d = _random_closure(rng)
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


def _cmd_invariance_test(args) -> dict:
    if args.trials < 1:
        raise DomainError(f"trial count must be positive, got {args.trials}")
    results = {}
    for family in _INVARIANCE_FAMILIES:
        passed = sum(
            _invariance_trial(family, f"{family}:{args.seed}:{t}")
            for t in range(args.trials)
        )
        results[family] = {"passed": passed, "trials": args.trials}
    return {
        "trials": args.trials,
        "seed": args.seed,
        "results": results,
        "all_passed": all(
            row["passed"] == row["trials"] for row in results.values()
        ),
    }


# ---------------------------------------------------------------------------
# rendering


def _render(command: str, payload: dict) -> str:
    lines: list[str] = []
    if command == "parse":
        lines.append(f"word: {payload['word'] or '(empty)'}")
        lines.append(f"strands: {payload['strands']}")
        lines.append(f"length: {payload['length']}")
        lines.append(f"exponent sum: {payload['exponent_sum']}")
        lines.append(f"permutation: {payload['permutation']}")
    elif command == "nf":
        lines.append(f"normal form: {payload['normal_form']}")
        lines.append(f"half-twist power: {payload['half_twist_power']}")
        lines.append(f"canonical length: {payload['canonical_length']}")
        lines.append(f"trivial: {str(payload['trivial']).lower()}")
    elif command == "eq":
        lines.append("equal" if payload["equal"] else "not equal")
    elif command == "closure-info":
        lines.append(f"closure: {payload['closure']}")
        lines.append(f"components: {payload['components']}")
        lines.append(f"crossings: {payload['crossings']}")
        lines.append(f"writhe: {payload['writhe']}")
        if payload["closure"] == "plat":
            lines.append(f"self-writhe by component: {payload['self_writhe']}")
            lines.append(f"linking sum: {payload['linking_sum']}")
    elif command == "jones":
        lines.append(f"jones ({payload['closure']} closure): "
                     f"{payload['polynomial']['pretty']}")
        if "value_at_root" in payload:
            at = payload["value_at_root"]
            lines.append(
                f"at r = {at['r']}: {at['re']:.12g} + {at['im']:.12g}i"
            )
    elif command == "colored":
        lines.append(
            f"colored invariant (r = {payload['root']}, colors "
            f"{payload['colors']}, normalization {payload['normalization']}):"
        )
        lines.append(f"  {payload['value_re']:.12g} + {payload['value_im']:.12g}i")
    elif command == "approx":
        lines.append(
            f"Z = {payload['Z_re']:.6g} + {payload['Z_im']:.6g}i "
            f"(delta {payload['delta']}, confidence {payload['confidence']})"
        )
        if payload["exact_available"]:
            lines.append(
                f"exact = {payload['exact_re']:.6g} + {payload['exact_im']:.6g}i"
            )
        lines.append(
            f"samples: {payload['samples']}  seed: {payload['seed']}  "
            f"generator: {payload['generator']}  scale: {payload['scale']:.6g}"
        )
    elif command == "invariance-test":
        for family, row in payload["results"].items():
            lines.append(f"{family}: {row['passed']}/{row['trials']} passed")
        lines.append(f"all passed: {str(payload['all_passed']).lower()}")
    else:
        lines.append(json.dumps(payload, indent=2, sort_keys=True))
    return "\n".join(lines)


_HANDLERS = {
    "parse": _cmd_parse,
    "nf": _cmd_nf,
    "eq": _cmd_eq,
    "closure-info": _cmd_closure_info,
    "jones": _cmd_jones,
    "colored": _cmd_colored,
    "approx": _cmd_approx,
    "invariance-test": _cmd_invariance_test,
}


def run(argv: list[str]) -> CommandResult:
    """Execute one command line and return its result without printing."""
    parser = _build_parser()
    diagnostics: list[str] = []
    command = ""
    json_mode = False
    try:
        args = parser.parse_args(argv)
        command = args.command
        json_mode = getattr(args, "json", False)
        outcome = _HANDLERS[command](args)
        payload, notes = outcome if isinstance(outcome, tuple) else (outcome, [])
        diagnostics.extend(notes)
        rendered = (
            json.dumps(payload, indent=2, sort_keys=True)
            if json_mode
            else _render(command, payload)
        )
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
    except DomainError as exc:
        payload = {"error": str(exc), "kind": "domain"}
        return CommandResult(1, payload, diagnostics, command, f"error: {exc}")
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
