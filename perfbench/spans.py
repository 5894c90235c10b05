"""Spans around calls into knit's layers, recorded from outside the package.

``Tracer.installed`` swaps each binding in ``PATCHES`` for a wrapper that
records a span, and puts the original back on exit.  A binding is the
name a caller looks up, so ``knit.su2q.plat_profile`` is wrapped apart
from ``knit.diagram.plat_profile``: the first times the diagram work
su2q asks for, the second stays free for the benchmark's own counters.
A binding the package no longer has is skipped, and its metrics read 0.

Spans are held in memory; ``layer_metrics`` turns them into the per-layer
figures and ``write_spans`` saves them at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from importlib import import_module

from knit import diagram, su2q
from knit.errors import KnitError

#: Layers in the order the per-layer table lists them.
LAYERS = ("braid", "garside", "diagram", "jones", "cli", "su2q", "qsim")


def _path_dim(args, _out) -> dict:
    w, colors, r = args[:3]
    pairs = diagram.plat_profile(w).pair_component
    strands = [colors[c] for c in pairs for _ in (0, 1)]
    return {"letters": len(w.letters), "path_dim": su2q.ColoredSpace(strands, r).coupled_dimension}


def _estimate(_args, out) -> dict:
    return {"readings": out.samples_used, "crossing_steps": out.crossing_steps}


# (module, attribute, span name, counter of (args, result) or None).
PATCHES = (
    ("knit.braid", "parse_braid", "braid.parse", lambda a, out: {"letters": len(out.letters)}),
    ("knit.garside", "words_equal", "garside.words_equal", None),
    ("knit.garside", "normal_form", "garside.normal_form",
     lambda a, out: {"calls": 1, "letters": len(a[0].letters), "factors": len(out.factors)}),
    ("knit.diagram", "closure_trace", "diagram.closure", lambda a, out: {"crossings": out.crossing_count()}),
    ("knit.diagram", "closure_plat", "diagram.closure", lambda a, out: {"crossings": out.crossing_count()}),
    ("knit.su2q", "plat_profile", "diagram.plat_profile", lambda a, out: {"crossings": len(a[0].letters)}),
    ("knit.qsim", "plat_profile", "diagram.plat_profile", lambda a, out: {"crossings": len(a[0].letters)}),
    ("knit.jones", "jones_polynomial", "jones.bracket",
     lambda a, out: {"states": 2 ** a[0].crossing_count()}),
    ("knit.su2q", "colored_invariant", "su2q.colored", _path_dim),
    ("knit.su2q", "jones_value_from_plat", "su2q.jones_value", None),
    ("knit.qsim", "colored_invariant", "su2q.colored", _path_dim),
    ("knit.qsim", "jones_value_from_plat", "su2q.jones_value", None),
    ("knit.qsim", "approx_jones", "qsim.approx_jones", _estimate),
    ("knit.qsim", "estimate_markov_trace", "qsim.estimate_markov_trace", _estimate),
    ("knit.cli", "run", "cli.run", None),
)


@dataclass
class Span:
    name: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``job`` tags every span opened until it changes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0
        self._open: list[int] = []
        self._last_root: int | None = None
        self._last_error: BaseException | None = None

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, self.job, parent, time.perf_counter())
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            if parent is None:
                self._last_root = len(self.spans) - 1
            try:
                out = fn(*args, **kwargs)
            except KnitError as exc:
                # charge an error once, to the innermost span it left
                span.error = exc is not self._last_error
                self._last_error = exc
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the counts, not the job
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding in ``PATCHES`` for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, counter in PATCHES:
                module = import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    @contextmanager
    def under_last_root(self):
        """Make spans opened in the block children of the last top-level span.

        A replayed library call is charged to the CLI request that made
        it, although it runs after that request's span has closed.
        """
        self._open.append(self._last_root)
        try:
            yield
        finally:
            self._open.pop()


def _self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span], jobs: int) -> dict[str, float]:
    """Per-layer figures of a traced run, per job unless named otherwise.

    ``<layer>.errors`` counts KnitErrors over the whole run.
    """
    self_time = {layer: 0.0 for layer in LAYERS}
    errors = {layer: 0 for layer in LAYERS}
    counts: dict[str, float] = {}
    cli_total = companion = 0.0
    for s, own in zip(spans, _self_times(spans)):
        self_time[s.layer] += own
        errors[s.layer] += s.error
        for key, value in s.counts.items():
            counts[f"{s.layer}.{key}"] = counts.get(f"{s.layer}.{key}", 0) + value
        if s.layer == "cli":
            cli_total += s.duration
        if s.layer == "su2q" and s.parent is not None and spans[s.parent].layer == "qsim":
            companion += s.duration
    readings = counts.get("qsim.readings", 0)
    per_job = {
        "braid.parse_s": self_time["braid"],
        "braid.letters": counts.get("braid.letters", 0),
        "garside.normal_form_s": self_time["garside"],
        "garside.calls": counts.get("garside.calls", 0),
        "garside.letters": counts.get("garside.letters", 0),
        "garside.factors": counts.get("garside.factors", 0),
        "diagram.closure_s": self_time["diagram"],
        "diagram.crossings": counts.get("diagram.crossings", 0),
        "jones.bracket_s": self_time["jones"],
        "jones.bracket_states": counts.get("jones.states", 0),
        "cli.run_s": cli_total,
        "cli.overhead_s": self_time["cli"],
        "su2q.colored_s": self_time["su2q"],
        "su2q.path_dim": counts.get("su2q.path_dim", 0),
        "su2q.letters": counts.get("su2q.letters", 0),
        "qsim.estimate_s": self_time["qsim"],
        "qsim.exact_companion_s": companion,
        "qsim.readings": readings,
        "qsim.crossing_steps": counts.get("qsim.crossing_steps", 0),
    }
    out = {name: value / jobs for name, value in per_job.items()}
    out["qsim.us_per_reading"] = 1e6 * self_time["qsim"] / readings if readings else 0.0
    out.update({f"{layer}.errors": errors[layer] for layer in LAYERS})
    return out


def self_time_shares(spans: list[Span]) -> dict[str, float]:
    """Each layer's share of the summed self time of all spans."""
    total = {layer: 0.0 for layer in LAYERS}
    for s, own in zip(spans, _self_times(spans)):
        total[s.layer] += own
    whole = sum(total.values()) or 1.0
    return {layer: t / whole for layer, t in total.items()}


def write_spans(spans: list[Span], path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for k, s in enumerate(spans):
            f.write(json.dumps({"id": k, **asdict(s)}) + "\n")
