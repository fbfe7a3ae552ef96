"""Smoke test of the benchmark itself, on two-minute records.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json prints with its unit in
both modes, that a failing command is counted instead of aborting the run,
and that the benchmark refuses to run without the statespec sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracing import EXPECTED_SPANS, Span, consistency_problems  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_SECONDS = 120.0


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every workload on a two-minute record, outputs under tmp_path."""
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path / "out")
    for name, workload in list(bench.WORKLOADS.items()):
        monkeypatch.setitem(
            bench.WORKLOADS, name, dataclasses.replace(workload, duration_s=TINY_SECONDS)
        )


def _run(capsys, workload: str, trace: int) -> tuple[dict, dict]:
    code = bench.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                       "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _expected(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(tiny, capsys, workload, trace, kind):
    report, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["failures"] or report["trace_problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _expected(kind)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    context = report["context"]
    assert context["seed"] == 3 and context["workload"] == workload
    assert context["sizes"]["label"].startswith("computed")


def test_failing_command_is_counted_not_fatal(tiny, capsys, monkeypatch):
    real = bench.Session.pass_commands

    def with_missing_input(self):
        commands = real(self)
        argv = list(commands[0].argv)
        argv[argv.index("--input") + 1] = str(self.workdir / "missing.csv")
        return commands + [bench.Command("estimate", "mt", argv)]

    monkeypatch.setattr(bench.Session, "pass_commands", with_missing_input)
    report, result = _run(capsys, "hour_assmt", 0)
    assert result["correct"] is False
    passes = report["summaries"]["pass_s"]["n"] + 1  # timed passes plus the memory pass
    assert result["failed"] == passes
    assert report["failed_frac"] == pytest.approx(result["failed"] / result["attempted"])
    assert all("exit code 3" in f["problems"][0] for f in report["failures"])
    assert set(result["metrics"]) == set(_expected("end_to_end"))


def test_span_checks_flag_missing_overlong_and_mistimed_spans():
    expected = EXPECTED_SPANS["estimate_ssmt"]
    command = Span("cli.estimate", 0.0, 1.0, None, 1,
                   {"command": "estimate_ssmt", "outer_s": 1.001})
    spans = [command] + [Span(name, 0.1, 0.2, 0, 1)
                         for name in expected if name != "ssm.em_fit"]
    assert consistency_problems(spans) == [
        "span ssm.em_fit missing under cli.estimate (pass 1)"
    ]
    spans.append(Span("ssm.em_fit", 0.0, 0.5, 0, 1))
    problems = consistency_problems(spans)
    assert len(problems) == 1 and problems[0].startswith("children of cli.estimate")
    spans.pop()
    for outer in (0.9, 1.1, None):  # span outlasts the command, falls short, untimed
        command.attrs["outer_s"] = outer
        problems = consistency_problems(spans)
        assert len(problems) == 2 and "but the command took" in problems[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hour_assmt", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
