"""Paired runs of the benchmark: a base revision against the worktree.

    python3 tools/bench.py --base REV [--workload W ...] [--first-seed K]
        [--out FILE]

Builds two trees under ``.bench_build/``: REV by ``git archive`` and the
worktree's tracked files as they are on disk, so uncommitted edits to
tracked files count and untracked files do not.  Then, for each workload
(default: every workload of ``BENCHMARK.json``) and each of PAIRS pairs,
it runs ``perfbench/run.py --trace 0`` for ``run_seconds`` once in each
tree with the same seed (``--first-seed`` plus the pair's number),
alternating which tree runs first, with ``PYTHONDONTWRITEBYTECODE=1`` so
that neither tree gains a ``__pycache__``.

For each workload and end-to-end metric of ``BENCHMARK.json`` it prints
each side's median and quartiles, the ratio of the medians (change over
base), the pairs the change wins (ties count for neither side; which
direction is better comes from ``BENCHMARK.json``) and a two-sided sign
test p.  ``--out`` writes the commits, the command, the seeds, every
result line verbatim and the summary as JSON.  The tool only reports: it
gates nothing and its exit code does not depend on the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

#: Pairs of runs per workload: a change that wins 9 of 10 has sign p 0.0215.
PAIRS = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, metavar="REV")
    p.add_argument("--workload", action="append", dest="workloads", metavar="W",
                   help="a workload to run (repeatable; default: every workload)")
    p.add_argument("--first-seed", type=int, default=1, metavar="K")
    p.add_argument("--out", type=Path, default=None, metavar="FILE")
    return p.parse_args(argv)


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout


def build_trees(base: str) -> dict[str, Path]:
    """The base tree from ``git archive`` and the change tree from the
    worktree's tracked files, each rebuilt from empty."""
    trees = {"base": BUILD / "base", "change": BUILD / "change"}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", base], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(trees["base"])], input=archive, check=True)
    for name in _git("ls-files", "-z").split("\0"):
        source = ROOT / name
        if name and source.is_file():
            target = trees["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return trees


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> str:
    """The result line of one benchmark run in ``tree``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{tree.name} {workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr.strip()[-2000:]}")
    return lines[-1]


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p of ``wins`` against ``losses`` (ties left out)."""
    n = wins + losses
    tail = sum(comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles, by the inclusive method perfbench uses."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric, each side's spread, the ratio of medians, the change's
    wins and losses over the pairs of (base, change) results, and the
    sign-test p; plus each side's failed operations."""
    summary = {}
    for metric, direction in better.items():
        base = [b["metrics"][metric]["value"] for b, _ in pairs]
        change = [c["metrics"][metric]["value"] for _, c in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
        sides = {"base": spread(base), "change": spread(change)}
        summary[metric] = {
            **sides,
            "ratio": sides["change"]["median"] / sides["base"]["median"],
            "wins": wins,
            "losses": losses,
            "pairs": len(pairs),
            "sign_p": sign_test_p(wins, losses),
        }
    summary["failed"] = {
        "base": sum(b["failed"] for b, _ in pairs),
        "change": sum(c["failed"] for _, c in pairs),
    }
    return summary


def format_summary(workload: str, summary: dict) -> list[str]:
    def side(s):
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"

    failed = summary["failed"]
    lines = [f"{workload}: failed operations base {failed['base']}, change {failed['change']}",
             f"  {'metric':<12} {'base median [q1, q3]':<28} {'change median [q1, q3]':<28} "
             f"{'ratio':>6} {'wins':>6} {'sign p':>7}"]
    for metric, m in summary.items():
        if metric != "failed":
            lines.append(f"  {metric:<12} {side(m['base']):<28} {side(m['change']):<28} "
                         f"{m['ratio']:>6.3f} {m['wins']:>3}/{m['pairs']:<2} {m['sign_p']:>7.4f}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = [args.first_seed + i for i in range(PAIRS)]
    commits = {
        "base": _git("rev-parse", f"{args.base}^{{commit}}").strip(),
        "change": _git("rev-parse", "HEAD").strip(),
        "change_has_uncommitted_edits": bool(_git("status", "--porcelain",
                                                  "--untracked-files=no").strip()),
    }
    trees = build_trees(args.base)
    runs, summaries, report = [], {}, []
    for workload in workloads:
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            result = {}
            for side in order:
                line = run_once(trees[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: {line}", file=sys.stderr)
                runs.append({"workload": workload, "seed": seed, "tree": side, "line": line})
                result[side] = json.loads(line)
            pairs.append((result["base"], result["change"]))
        summaries[workload] = summarize(pairs, better)
        report += format_summary(workload, summaries[workload])
    print("\n".join(report))
    if args.out is not None:
        record = {"commits": commits, "command": ["tools/bench.py", *argv],
                  "seconds": seconds, "seeds": seeds, "runs": runs, "summary": summaries}
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
