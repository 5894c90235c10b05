"""Tests of the benchmark itself: seeded inputs, the checks, the metric names.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from knit import cli, garside, laurent, parse_braid  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def first_jobs(name, seed, count, keep):
    """The first ``count`` jobs of round 0 whose slot passes ``keep``."""
    wl = workloads.WORKLOADS[name]
    return wl, [job for job in wl.round(seed, 0) if keep(job.slot)][:count]


# Slot filters that leave out the jobs taking seconds, so the tests stay quick.
def short_words(slot):
    return slot[1] <= 40


def few_crossings(slot):
    return slot[2] <= 11


def small_paths(slot):
    return slot[0] < 8 or 2 not in slot[2]


def few_readings(slot):
    return slot[3] >= 0.2


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    wl = workloads.WORKLOADS[name]
    assert wl.round(5, 0) == wl.round(5, 0)
    assert wl.round(5, 0) != wl.round(6, 0)
    assert wl.round(5, 0) != wl.round(5, -1)
    assert sorted(map(repr, (j.slot for j in wl.round(5, 0)))) == sorted(map(repr, wl.slots))


def test_word_pair_labels_agree_with_garside():
    wl, jobs = first_jobs("word-problem", 11, 12, short_words)
    assert {job.expect for job in jobs} == {True, False}
    for job in jobs:
        n, a, b = job.args
        assert garside.words_equal(parse_braid(a, n), parse_braid(b, n)) is job.expect


def test_word_pair_check_catches_a_flipped_label():
    wl, jobs = first_jobs("word-problem", 3, 4, short_words)
    for job in jobs:
        out = wl.call(job)
        assert wl.check(job, out)
        assert not wl.check(job, not out)


def test_jones_check_catches_a_perturbed_polynomial_and_value():
    wl, jobs = first_jobs("jones-exact", 4, 30, few_crossings)
    trace_job = next(j for j in jobs if j.slot[0] == "trace")
    plat_job = next(j for j in jobs if j.slot[0] == "plat")
    for job in (trace_job, plat_job):
        assert wl.check(job, wl.call(job))

    out = wl.call(trace_job)
    terms = out.payload["polynomial"]["terms"]
    poly = laurent.LaurentPoly.from_json_terms(terms) + laurent.LaurentPoly.monomial(1, 3)
    bad = dataclasses.replace(out, payload={**out.payload, "polynomial": {
        **out.payload["polynomial"], "terms": poly.to_json_terms()}})
    assert not wl.check(trace_job, bad)

    out = wl.call(plat_job)
    at = out.payload["value_at_root"]
    bad = dataclasses.replace(out, payload={**out.payload, "value_at_root": {
        **at, "re": at["re"] + 1e-6}})
    assert not wl.check(plat_job, bad)
    failed = cli.CommandResult(1, {"error": "x"})
    assert not wl.check(plat_job, failed)


def test_colored_check_catches_a_perturbed_or_non_finite_value():
    wl, jobs = first_jobs("colored", 8, 30, small_paths)
    job = next(j for j in jobs if j.expect)
    out = wl.call(job)
    assert wl.check(job, out)
    assert not wl.check(job, out + 1e-6)
    assert not wl.check(job, complex(float("nan"), 0.0))
    unchecked = dataclasses.replace(job, expect=False)
    assert not wl.check(unchecked, complex(float("inf"), 0.0))


def test_sampled_checks_catch_a_changed_reading_and_a_short_plan():
    wl, jobs = first_jobs("sampled", 2, 6, few_readings)
    outputs = [wl.call(job) for job in jobs]
    assert all(wl.check(job, out) for job, out in zip(jobs, outputs))
    assert [out.samples_used for out in outputs] == [workloads.planned_readings(j) for j in jobs]
    assert wl.rerun(jobs, outputs)

    first = outputs[0]
    moved = dataclasses.replace(first, value=first.value + 2 * first.delta / first.samples_used)
    assert not wl.rerun(jobs, [moved] + outputs[1:])
    short = dataclasses.replace(first, samples_used=workloads.planned_readings(jobs[0]) - 2,
                                scale=1e3)
    assert not wl.check(jobs[0], short)
    assert not wl.check(jobs[0], dataclasses.replace(first, value=complex("nan")))


def test_bound_held_frac_counts_estimates_within_delta():
    wl, jobs = first_jobs("sampled", 2, 4, few_readings)
    outputs = [wl.call(job) for job in jobs]
    assert workloads.bound_held_frac(outputs) == 1.0
    far = dataclasses.replace(outputs[0], value=outputs[0].exact + 2 * outputs[0].delta)
    assert workloads.bound_held_frac([far] + outputs[1:]) == 0.75
    assert not wl.rerun(jobs, [outputs[0], far, far, far])


@pytest.mark.parametrize("trace", [0, 1])
def test_a_short_run_prints_every_metric_of_benchmark_json(trace, capsys):
    code = run.main(["--workload", "sampled", "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in listed}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_emit_every_per_layer_name_and_charge_self_time():
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.job = 0
        garside.words_equal(parse_braid("s1 s2 s1", 3), parse_braid("s2 s1 s2", 3))
    names = [s.name for s in tracer.spans]
    assert names == ["garside.words_equal", "garside.normal_form", "garside.normal_form"]
    assert garside.normal_form.__name__ == "normal_form"  # restored
    metrics = spans.layer_metrics(tracer.spans, 1)
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert set(metrics) == layer_names - {"qsim.bound_held_frac", "trace.overhead_frac"}
    assert metrics["garside.calls"] == 2 and metrics["garside.letters"] == 6
    whole = tracer.spans[0].duration
    assert metrics["garside.normal_form_s"] == pytest.approx(whole)


def test_cli_replay_is_charged_to_the_request():
    wl, jobs = first_jobs("jones-exact", 1, 1, few_crossings)
    tracer = spans.Tracer()
    out, _ = run.traced_call(wl, jobs[0], tracer, 0)
    assert wl.check(jobs[0], out)
    root, *replayed = tracer.spans
    assert root.name == "cli.run" and root.parent is None
    assert [s.name for s in replayed] == ["braid.parse", "diagram.closure", "jones.bracket"]
    assert all(s.parent == 0 for s in replayed)
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["cli.overhead_s"] == pytest.approx(
        root.duration - sum(s.duration for s in replayed))


def test_run_refuses_a_tree_without_knit_source(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "sampled", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_an_error_is_charged_once_to_the_innermost_layer():
    from knit import su2q
    from knit.errors import KnitError

    tracer = spans.Tracer()
    with tracer.installed():
        with pytest.raises(KnitError):
            su2q.jones_value_from_plat(parse_braid("s1 s2", 3), 5)
    assert [(s.name, s.error) for s in tracer.spans] == [
        ("su2q.jones_value", False), ("diagram.plat_profile", True)]
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["diagram.errors"] == 1 and metrics["su2q.errors"] == 0


def test_every_job_gets_the_slowdown_of_its_round_for_its_kind_of_work():
    wl = dataclasses.replace(workloads.WORKLOADS["colored"], call=lambda job: 1j,
                             slots=((8, 7, (2,), 3), (4, 5, (1,), 3), (4, 7, (1,), 3)))
    jobs, plain, traced, slow = run.timed_rounds(wl, 1, 0.0)
    assert len(jobs) == len(plain) == len(slow) == 3 and traced == []
    kinds = [wl.bound(job) for job in jobs]
    assert sorted(kinds) == ["blas", "python", "python"]
    python = {f for f, kind in zip(slow, kinds) if kind == "python"}
    assert len(python) == 1 and min(slow) > 0
    assert run.slowdowns([run.REFERENCE_S] * 3) == {"python": 1.0, "blas": 1.0}
