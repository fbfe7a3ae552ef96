"""In-memory spans around the calls the statespec CLI makes into each module.

The tracer replaces the public names that ``statespec.cli`` and
``statespec.io`` look up at call time with thin wrappers, so every call the
CLI makes into ``ssm``, ``adaptive``, ``segmentation``, ``tapers``,
``metrics``, ``simulate`` and ``io`` records a span: name, start, end,
parent span and pass id.  Nothing inside the package is edited; the
wrappers are installed only around the traced passes and removed
afterwards.  Each wrapper also times its own work outside the wrapped call,
which gives the tracing overhead per pass.

`layer_metrics` turns the spans of the traced passes into per-module
numbers, and `consistency_problems` checks that every expected span fired,
that child spans never add up to more than their parent, and that each
command span agrees with the command's time measured outside the tracer.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

METHODS = ("mt", "ssmt", "assmt")

# Spans each command must produce.  A refactor that stops the CLI from
# calling one of these names makes the traced run fail instead of quietly
# reporting zero time for that module.
_ESTIMATE_SPANS = (
    "tapers.dpss",
    "io.read_signal",
    "segmentation.segment",
    "segmentation.eigen_coefficients",
    "io.write_matrix",
    "io.write_vector_csv",
    "io.write_manifest",
)
EXPECTED_SPANS = {
    "simulate": (
        "simulate.gen_benchmark",
        "simulate.truth_spectrogram",
        "io.write_signal",
        "io.write_matrix",
        "io.write_vector_csv",
        "io.write_manifest",
    ),
    "estimate_mt": _ESTIMATE_SPANS + ("ssm.mt_spectrogram",),
    "estimate_ssmt": _ESTIMATE_SPANS + ("ssm.em_fit", "ssm.filter_all", "ssm.ssmt_spectrogram"),
    "estimate_assmt": _ESTIMATE_SPANS
    + ("ssm.em_fit", "adaptive.assmt_filter", "ssm.ssmt_spectrogram"),
    "compare": ("io.read_matrix_csv", "io.read_vector_csv", "metrics.itakura_saito"),
}

# Slack for float rounding when child durations are summed against a parent.
_SUM_SLACK_S = 1e-9
# A command's time measured outside the tracer also covers redirecting its
# output and opening its span: microseconds, or a garbage collection.
_OUTER_SLACK_S = 5e-3


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int | str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _em_attrs(args, kwargs, fit) -> dict:
    return {
        "n_iter": fit.n_iter,
        "converged": fit.converged,
        "final_ll": float(fit.log_likelihoods[-1]),
    }


def _assmt_attrs(args, kwargs, result) -> dict:
    params = args[1] if len(args) > 1 else kwargs["params"]
    state_var_trace = result[1]
    raised = state_var_trace > params.baseline_state_var[None, :, :]
    return {"raised_cells": int(raised.sum()), "cells": int(raised.size)}


def _coeff_attrs(args, kwargs, eig) -> dict:
    return {"coeff_bytes": int(eig.coeffs.nbytes)}


def _read_attrs(args, kwargs, result) -> dict:
    return {"bytes": _file_bytes(args[0])}


def _write_attrs(args, kwargs, result) -> dict:
    # write_matrix and write_signal add the suffix and return the real path
    return {"bytes": _file_bytes(result if isinstance(result, Path) else args[0])}


class Tracer:
    """Records spans around wrapped module functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id: int | str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # seconds spent in wrapper code outside the wrapped calls, per pass
        self._overhead: dict[int | str | None, float] = {}

    @contextmanager
    def span(self, name: str, **attrs):
        index = self._open(name, attrs)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pass_id, attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, on_result=None):
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            index = self._open(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            span = self.spans[index]
            if on_result is not None:
                span.attrs.update(on_result(args, kwargs, result))
            own = time.perf_counter() - entered - span.duration
            self._overhead[span.pass_id] = self._overhead.get(span.pass_id, 0.0) + own
            return result

        return traced

    def overhead_by_pass(self) -> dict[int | str | None, float]:
        """Seconds each pass spent in wrapper code, outside the wrapped calls."""
        return dict(self._overhead)

    def _patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, on_result))

    @contextmanager
    def installed(self):
        """Wrap the CLI's module-level names for the duration of the block."""
        from statespec import cli, io, simulate

        hooks = {
            "em_fit": _em_attrs,
            "assmt_filter": _assmt_attrs,
            "eigen_coefficients": _coeff_attrs,
        }
        for attr, value in list(vars(cli).items()):
            module = getattr(value, "__module__", "") or ""
            if (
                callable(value)
                and not isinstance(value, type)
                and module.startswith("statespec.")
                and module != "statespec.cli"
            ):
                short = module.rsplit(".", 1)[1]
                self._patch(cli, attr, f"{short}.{attr}", hooks.get(attr))
        for attr in io.__all__:
            if callable(getattr(io, attr)):
                on_result = _read_attrs if attr.startswith("read_") else _write_attrs
                self._patch(io, attr, f"io.{attr}", on_result)
        self._patch(simulate.GroundTruth, "spectrogram", "simulate.truth_spectrogram")
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def to_records(self) -> list[dict]:
        return [
            {
                "id": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "pass": s.pass_id,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for i, s in enumerate(self.spans)
        ]


def _children(spans: list[Span]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    return children


def consistency_problems(spans: list[Span]) -> list[str]:
    """Missing expected spans per command, children outlasting parents, and
    command spans that disagree with the command's own timing."""
    problems = []
    children = _children(spans)
    for i, s in enumerate(spans):
        kids = children.get(i, [])
        if s.parent is None:
            names = {spans[k].name for k in kids}
            for expected in EXPECTED_SPANS.get(s.attrs.get("command", ""), ()):
                if expected not in names:
                    problems.append(f"span {expected} missing under {s.name} (pass {s.pass_id})")
            outer = s.attrs.get("outer_s")
            if outer is None or not 0.0 <= outer - s.duration <= _OUTER_SLACK_S:
                problems.append(
                    f"{s.name} (pass {s.pass_id}) lasts {s.duration:.6f} s but the "
                    f"command took {outer} s"
                )
        covered = sum(spans[k].duration for k in kids)
        if covered > s.duration + _SUM_SLACK_S:
            problems.append(
                f"children of {s.name} (pass {s.pass_id}) sum to {covered:.6f} s "
                f"> parent {s.duration:.6f} s"
            )
    return problems


def _command_totals(spans: list[Span]) -> list[tuple[Span, dict[str, float], dict[str, float]]]:
    """For each command span: (span, seconds by child name, summed attrs by key)."""
    children = _children(spans)
    out = []
    for i, s in enumerate(spans):
        if s.parent is not None or "command" not in s.attrs:
            continue
        seconds: dict[str, float] = {}
        attrs: dict[str, float] = {}
        for k in children.get(i, []):
            child = spans[k]
            seconds[child.name] = seconds.get(child.name, 0.0) + child.duration
            for key, value in child.attrs.items():
                tag = f"{child.name}:{key}"
                attrs[tag] = attrs.get(tag, 0.0) + float(value)
        out.append((s, seconds, attrs))
    return out


def _io_seconds(seconds: dict[str, float], prefix: str) -> float:
    return sum(v for k, v in seconds.items() if k.startswith(prefix))


def _io_bytes(attrs: dict[str, float], prefix: str) -> float:
    return sum(v for k, v in attrs.items() if k.startswith(prefix) and k.endswith(":bytes"))


def layer_metrics(spans: list[Span], methods: tuple[str, ...]) -> dict[str, list[float]]:
    """Per-module samples from traced spans, one sample per command call.

    Only direct children of a command span count, so an io function that
    calls another io function is counted once, at the outer call.
    """
    samples: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(float(value))

    for cmd, secs, attrs in _command_totals(spans):
        kind = cmd.attrs["command"]
        add(f"cli.self_s.{kind}", cmd.duration - sum(secs.values()))
        if kind == "simulate":
            add("simulate.gen_benchmark_s", secs.get("simulate.gen_benchmark", 0.0))
            add("simulate.truth_spectrogram_s", secs.get("simulate.truth_spectrogram", 0.0))
            continue
        m = cmd.attrs["method"]
        if kind == "compare":
            add(f"io.read_matrix_s.{m}", _io_seconds(secs, "io.read_"))
            add(f"io.bytes_read_compare.{m}", _io_bytes(attrs, "io.read_"))
            add(f"metrics.itakura_saito_s.{m}", secs.get("metrics.itakura_saito", 0.0))
            continue
        add(f"tapers.dpss_s.{m}", secs.get("tapers.dpss", 0.0))
        add(f"io.read_signal_s.{m}", secs.get("io.read_signal", 0.0))
        add(f"io.write_s.{m}", _io_seconds(secs, "io.write_"))
        add(f"io.bytes_written.{m}", _io_bytes(attrs, "io.write_"))
        add(f"io.bytes_read_estimate.{m}", _io_bytes(attrs, "io.read_"))
        add(f"segmentation.segment_s.{m}", secs.get("segmentation.segment", 0.0))
        add(f"segmentation.eigen_coefficients_s.{m}",
            secs.get("segmentation.eigen_coefficients", 0.0))
        add("segmentation.coeff_mb",
            attrs.get("segmentation.eigen_coefficients:coeff_bytes", 0.0) / 1e6)
        spect = "ssm.mt_spectrogram" if m == "mt" else "ssm.ssmt_spectrogram"
        add(f"ssm.spectrogram_s.{m}", secs.get(spect, 0.0))
        if m == "mt":
            continue
        em_s = secs.get("ssm.em_fit", 0.0)
        iters = attrs.get("ssm.em_fit:n_iter", 0.0)
        add(f"ssm.em_fit_s.{m}", em_s)
        add(f"ssm.em_iters.{m}", iters)
        add(f"ssm.em_iter_s.{m}", em_s / iters if iters else 0.0)
        add(f"ssm.em_converged.{m}", attrs.get("ssm.em_fit:converged", 0.0))
        add(f"ssm.em_final_ll.{m}", attrs.get("ssm.em_fit:final_ll", 0.0))
        if m == "ssmt":
            add("ssm.filter_all_s.ssmt", secs.get("ssm.filter_all", 0.0))
        else:
            add("adaptive.assmt_filter_s", secs.get("adaptive.assmt_filter", 0.0))
            cells = attrs.get("adaptive.assmt_filter:cells", 0.0)
            raised = attrs.get("adaptive.assmt_filter:raised_cells", 0.0)
            add("adaptive.raised_frac", raised / cells if cells else 0.0)

    # bytes read per method: the estimate's signal plus the compare's matrices
    for m in methods:
        est = samples.pop(f"io.bytes_read_estimate.{m}", [])
        cmp_ = samples.pop(f"io.bytes_read_compare.{m}", [])
        if est and cmp_:
            samples[f"io.bytes_read.{m}"] = [
                statistics.median(est) + statistics.median(cmp_)
            ]
    return samples
