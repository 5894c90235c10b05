"""The knit benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload jones-exact --seed 1 --seconds 15 --trace 0

Run from the root of a source tree; knit is imported from its ``src``.
One client sends seeded jobs in a closed loop from this process, round
after round, and stops at the first round boundary after ``--seconds`` of
job time.  Every output is checked after the timed loop.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs each job untraced and again with spans around calls into
each layer (a CLI request also replays its library calls), until the
untraced runs reach a third of ``--seconds``, and reports the per-layer
metrics; spans go to ``.bench_build/perfbench/``.

The last line of standard output is the result object; the lines before
it say what ran, and standard error gets the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 7

#: Wall time of each reference of ``reference_times`` on the machine the
#: bounds were set on (2 vCPUs, Python 3.11, OpenBLAS on 2 threads) when no
#: other tenant slowed it down.
REFERENCE_S = {"python": 220e-6, "blas": 240e-6}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    """Interpreter, numpy, BLAS and its threads, CPUs and source commit."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "cpus": os.cpu_count(),
        "commit": _commit(),
    }


def _blas_threads(np) -> int | None:
    """Threads of the OpenBLAS bundled with numpy, unpinned; None if unknown."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit() -> str:
    """The git commit of the source tree, or 'unknown' outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def reference_matrix():
    """The fixed operand of the BLAS reference."""
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))


def reference_times(matrix) -> dict[str, float]:
    """Wall times of two fixed pieces of work that call no knit code.

    The machine's cores are shared with other tenants, under whose load
    every program on it can run up to twice as slowly for seconds to
    minutes at a time, and pure-Python code more so than BLAS calls.  So
    the references are a pure-Python loop like knit's inner loops and a
    complex matrix product like su2q's dense contraction.  They are timed
    after every job, and a job's time is divided by the ``slowdowns`` of
    its round for the kind of work that bounds it, so that it reads as on
    the unloaded machine.
    """
    start = time.perf_counter()
    seen: dict = {}
    for i in range(400):
        key = tuple(sorted((i * 7919 % 13, i % 5, i % 3)))
        seen[key] = seen.get(key, 0) + i
    middle = time.perf_counter()
    matrix @ matrix
    return {"python": middle - start, "blas": time.perf_counter() - middle}


def slowdowns(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per kind of work, the median reference time of ``samples`` over ``REFERENCE_S``."""
    return {kind: statistics.median(s[kind] for s in samples) / base
            for kind, base in REFERENCE_S.items()}


def setup_seconds(probe: str) -> tuple[float, bool]:
    """Median wall time of fresh interpreters answering the smallest request,
    and whether every one of them answered it correctly.

    It is not divided by a slowdown: starting an interpreter is mostly file
    reads, page faults and linking, which the references do not track.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    times, ok = [], True
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            print(f"set-up probe failed: {done.stderr.strip()[-500:]}", file=sys.stderr)
            ok = False
    return statistics.median(times), ok


def timed_call(workload, job):
    """The job's output, or the exception it raised so that its check fails,
    and its wall time."""
    start = time.perf_counter()
    try:
        out = workload.call(job)
    except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
        out = exc
    return out, time.perf_counter() - start


def traced_call(workload, job, tracer, index: int):
    """``timed_call`` with spans, then the replay of a CLI request's library calls."""
    with tracer.installed():
        tracer.job = index
        out, took = timed_call(workload, job)
        if workload.replay is not None and not isinstance(out, Exception):
            with tracer.under_last_root():
                workload.replay(job)
    return out, took


def timed_rounds(workload, seed: int, seconds: float, tracer=None):
    """Jobs, their (output, time) pairs and the slowdown of their round for
    the kind of work that bounds them, round by round, until ``seconds`` of
    job time, after one warm-up round.

    With a tracer each job also runs traced, after its untraced run for
    even jobs and before it for odd ones, so that drift in machine speed
    and warm caches fall on both sides alike.
    """
    for job in workload.round(seed, -1):
        workload.call(job)
    matrix = reference_matrix()
    jobs, plain, traced, slow = [], [], [], []
    busy = 0.0
    index = 0
    while busy < seconds or not jobs:
        references, start = [], len(jobs)
        for job in workload.round(seed, index):
            k = len(jobs)
            if tracer is not None and k % 2:
                traced.append(traced_call(workload, job, tracer, k))
            plain.append(timed_call(workload, job))
            if tracer is not None and not k % 2:
                traced.append(traced_call(workload, job, tracer, k))
            references.append(reference_times(matrix))
            jobs.append(job)
            busy += plain[-1][1]
        factors = slowdowns(references)
        slow += [factors[workload.bound(job)] for job in jobs[start:]]
        index += 1
    return jobs, plain, traced, slow


def count_failed(workload, jobs, outputs) -> int:
    """Jobs that raised or failed their check, plus one if the run-level check fails."""
    failed = 0
    for job, out in zip(jobs, outputs):
        ok = False
        if not isinstance(out, Exception):
            try:
                ok = workload.check(job, out)
            except Exception:  # noqa: BLE001 - a check that raises is a failed job
                traceback.print_exc()
        if not ok:
            failed += 1
            if failed == 1:
                print(f"first failed job: {job} -> {out!r}", file=sys.stderr)
    if workload.rerun is not None:
        try:
            ok = workload.rerun(jobs, outputs)
        except Exception:  # noqa: BLE001 - a rerun that raises fails the check
            traceback.print_exc()
            ok = False
        if not ok:
            print("run-level check failed", file=sys.stderr)
            failed += 1
    return failed


def percentile(times, q: int) -> float:
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def end_to_end(workload, seed: int, seconds: float):
    """Metrics, jobs attempted and jobs failed of an untraced run.

    Times are wall times divided by the slowdown of the machine measured
    around them (see ``reference_times``); the summary line gives both.
    """
    metrics = {}
    metrics["setup_s"], probe_ok = setup_seconds(workload.probe)
    jobs, plain, _, slow = timed_rounds(workload, seed, seconds)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = [t for _, t in plain]
    times = [t / factor for t, factor in zip(raw, slow)]
    metrics["jobs_per_s"] = len(times) / sum(times)
    metrics["job_p50_ms"] = 1e3 * percentile(times, 50)
    metrics["job_p90_ms"] = 1e3 * percentile(times, 90)
    # the set-up probe is one more request, answered by a fresh interpreter
    failed = count_failed(workload, jobs, [out for out, _ in plain]) + (not probe_ok)
    beyond = sum(1 for t in times if t > metrics["job_p90_ms"] / 1e3)
    print(f"{workload.name} seed {seed}: {len(jobs)} jobs in {sum(raw):.2f} s of job time, "
          f"{beyond} beyond p90, {failed} failed; slowdown {statistics.median(slow):.3f}; "
          f"unscaled jobs_per_s {len(raw) / sum(raw):.4g}, job_p50_ms "
          f"{1e3 * percentile(raw, 50):.4g}, job_p90_ms {1e3 * percentile(raw, 90):.4g}")
    return metrics, len(jobs) + 1, failed


def per_layer(workload, seed: int, seconds: float):
    """Metrics, jobs attempted and jobs failed of a traced run."""
    import spans
    import workloads

    tracer = spans.Tracer()
    jobs, plain, traced, _ = timed_rounds(workload, seed, seconds / 3, tracer)
    outputs = [out for out, _ in traced]
    metrics = spans.layer_metrics(tracer.spans, len(jobs))
    metrics["qsim.bound_held_frac"] = workloads.bound_held_frac(outputs)
    metrics["trace.overhead_frac"] = sum(t for _, t in traced) / sum(t for _, t in plain) - 1
    failed = (count_failed(workload, jobs, [out for out, _ in plain])
              + count_failed(workload, jobs, outputs))
    print(f"{workload.name} seed {seed}: {len(jobs)} jobs, each untraced and traced; "
          f"{failed} failed")
    print("self-time share: " + ", ".join(
        f"{layer} {share:.3f}" for layer, share in spans.self_time_shares(tracer.spans).items()))
    spans.write_spans(tracer.spans, ROOT / ".bench_build" / "perfbench"
                      / f"spans-{workload.name}-{seed}.jsonl")
    return metrics, 2 * len(jobs), failed


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "knit" / "__init__.py").is_file():
        print(f"error: no knit source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import knit
    import workloads

    if Path(knit.__file__).resolve().parent != SRC / "knit":
        print(f"error: imported knit from {knit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print("environment: " + json.dumps(environment()), file=sys.stderr)

    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed = measure(workload, args.seed, args.seconds)
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}",
              file=sys.stderr)
        return 1
    for name, value in metrics.items():
        if not math.isfinite(value):
            print(f"error: metric {name} is {value}", file=sys.stderr)
            failed += 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
