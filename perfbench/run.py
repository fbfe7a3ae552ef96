"""statespec benchmark: closed-loop CLI sessions with every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload hour_assmt --seed 0 --seconds 40 --trace 0

One client in one process: the record is generated with ``statespec
simulate``, then each pass regenerates it once more (a ``setup_s`` sample)
and runs every ``estimate`` of the workload followed by a ``compare`` of
each result against the ground truth, all through
``statespec.cli.main(argv)``, each command starting after the previous one
returns.  BLAS/OpenMP threads are pinned to 1.  A fixed reference workload
runs before every command; result-line times are scaled by its speed in
the same pass (see `Reference`).  With ``--trace 0`` the last stdout line
carries the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
carries the per-module metrics from a traced run.  The line before it is a
JSON report with the run context, the scaled samples and unscaled medians,
percentiles, sample counts and every failure.  Reports and spans are also
written under ``.perfbench-out/`` at the repository root.

Exit codes: 0 after a result line (even when ``correct`` is false), 2 when
the statespec sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io as _stdio
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

# Pinned before numpy is first imported (by load_cli).
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SAMPLE_RATE_HZ = 36.0
WINDOW_SECONDS = 6.0  # CLI default
TAPERS = 3  # CLI default
MIN_PASSES = 3


@dataclass(frozen=True)
class Estimate:
    method: str
    args: tuple[str, ...] = ()
    baseline_seconds: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    duration_s: float
    estimates: tuple[Estimate, ...]
    # methods whose IS must be below mt's on every pass
    must_beat_mt: tuple[str, ...]
    # every fit's manifest must report em.converged
    check_converged: bool = False


# Each workload runs all three methods because BENCHMARK.json's metric list
# is the same for every workload; see perfbench/README.md for why each one
# exists and which module it stresses.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bench600_tol",
            600.0,
            (
                Estimate("mt"),
                Estimate("ssmt", ("--em-tol", "1e-6", "--em-max-iter", "5000")),
                Estimate("assmt", ("--em-tol", "1e-6", "--em-max-iter", "5000"),
                         baseline_seconds=300.0),
            ),
            # Converged ssmt scores worse than mt here (IS 4.96 vs 3.32 at
            # seed 0), so only assmt is held to beating mt.
            must_beat_mt=("assmt",),
            check_converged=True,
        ),
        Workload(
            "hour_assmt",
            3600.0,
            (
                Estimate("mt"),
                Estimate("ssmt", baseline_seconds=60.0),
                Estimate("assmt", baseline_seconds=60.0),
            ),
            must_beat_mt=("ssmt", "assmt"),
        ),
    )
}

# Reported in the result line.  The report also has compare_<method>_s and
# is_ssmt: the first are parts of compare_s, and converged ssmt's IS differs
# between seeds by more than any allowed bound (see perfbench/README.md).
END_TO_END = ("setup_s", "pass_s", "estimate_mt_s", "estimate_ssmt_s", "estimate_assmt_s",
              "compare_s", "peak_mb", "is_mt", "is_assmt")


@dataclass
class Command:
    kind: str  # simulate | estimate | compare
    method: str | None
    argv: list[str]
    out_dir: Path | None = None  # where simulate or estimate writes

    @property
    def label(self) -> str:
        if self.kind == "estimate":
            return f"estimate_{self.method}"
        return self.kind


@dataclass
class Outcome:
    command: Command
    seconds: float
    code: int | None
    stdout: str
    stderr: str
    problems: list[str] = field(default_factory=list)
    is_total: float | None = None
    peak_bytes: int | None = None


class Session:
    """One benchmark run: inputs, commands, checks and their tallies."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, main):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.main = main
        self.sim_dir = workdir / "sim"
        self.attempted = 0
        self.failures: list[dict] = []
        self._reference_hashes: dict[str, str] = {}

    # -- commands ---------------------------------------------------------

    def simulate_command(self, out_dir: Path) -> Command:
        return Command(
            "simulate",
            None,
            ["simulate", "--out-dir", str(out_dir), "--seed", str(self.seed),
             "--duration", repr(self.workload.duration_s),
             "--sample-rate", repr(SAMPLE_RATE_HZ)],
            out_dir,
        )

    def pass_commands(self) -> list[Command]:
        """Every estimate of the workload, then a compare of each."""
        commands = []
        for est in self.workload.estimates:
            out_dir = self.workdir / est.method
            argv = ["estimate", "--input", str(self.sim_dir / "signal.csv"),
                    "--sample-rate", repr(SAMPLE_RATE_HZ), "--method", est.method,
                    "--out-dir", str(out_dir), *est.args]
            if est.baseline_seconds:
                argv += ["--baseline-seconds", repr(est.baseline_seconds)]
            commands.append(Command("estimate", est.method, argv, out_dir))
        for est in self.workload.estimates:
            commands.append(Command(
                "compare", est.method,
                ["compare", "--estimate", str(self.workdir / est.method),
                 "--truth", str(self.sim_dir)],
            ))
        return commands

    def run(self, cmd: Command, tracer=None, measure_memory: bool = False) -> Outcome:
        out, err = _stdio.StringIO(), _stdio.StringIO()
        span = (
            tracer.span(f"cli.{cmd.kind}", command=cmd.label, method=cmd.method)
            if tracer is not None else contextlib.nullcontext()
        )
        code: int | None = None
        crash = None
        if measure_memory:
            tracemalloc.start()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span as s:
            try:
                code = self.main(cmd.argv)
            except Exception as exc:  # a crash is a failed command, not a dead run
                crash = f"{type(exc).__name__}: {exc}"
        outcome = Outcome(cmd, time.perf_counter() - start, code, out.getvalue(), err.getvalue())
        if tracer is not None:
            # timed apart from the tracer, so a tracer clock bug shows
            s.attrs["outer_s"] = outcome.seconds
        if measure_memory:
            outcome.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        self.attempted += 1
        if crash is not None:
            outcome.problems.append(f"raised {crash}")
        elif outcome.code != 0:
            outcome.problems.append(
                f"exit code {outcome.code}: {outcome.stderr.strip()[-300:]}")
        else:
            self._check(outcome)
        return outcome

    # -- checks -----------------------------------------------------------

    def _check(self, o: Outcome) -> None:
        cmd = o.command
        if cmd.kind == "compare":
            for line in o.stdout.splitlines():
                if line.startswith("IS_TOTAL="):
                    try:
                        o.is_total = float(line.partition("=")[2])
                    except ValueError:
                        pass
            if o.is_total is None or not math.isfinite(o.is_total):
                o.problems.append(f"IS_TOTAL missing or not finite: {o.is_total}")
            return
        if cmd.kind == "simulate":
            for name in ("signal.csv", "truth_spectrogram.csv"):
                self._check_identical(o, f"simulate/{name}", cmd.out_dir / name)
            return
        out_dir = cmd.out_dir
        self._check_identical(o, f"{cmd.method}/spectrogram.csv", out_dir / "spectrogram.csv")
        if self.workload.check_converged and cmd.method != "mt":
            try:
                em = json.loads((out_dir / "manifest.json").read_text()).get("em", {})
            except (OSError, ValueError) as exc:
                o.problems.append(f"unreadable manifest: {exc}")
                return
            if em.get("converged") is not True:
                o.problems.append(f"EM not converged after {em.get('n_iter')} iterations")

    def _check_identical(self, o: Outcome, key: str, path: Path) -> None:
        """Outputs must be byte-identical across the repeats of one run."""
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as exc:
            o.problems.append(f"missing output {path.name}: {exc}")
            return
        reference = self._reference_hashes.setdefault(key, digest)
        if digest != reference:
            o.problems.append(f"{path.name} differs from the first pass of this run")

    def check_pass(self, outcomes: list[Outcome]) -> None:
        scores = {o.command.method: o.is_total for o in outcomes
                  if o.command.kind == "compare" and o.is_total is not None}
        if "mt" not in scores:
            return
        for o in outcomes:
            m = o.command.method
            if o.command.kind == "compare" and m in self.workload.must_beat_mt and m in scores:
                if not scores[m] < scores["mt"]:
                    o.problems.append(f"IS {m} {scores[m]:.9g} not below mt {scores['mt']:.9g}")

    def record(self, outcomes: list[Outcome], pass_id) -> None:
        for o in outcomes:
            if o.problems:
                self.failures.append(
                    {"pass": pass_id, "command": " ".join(o.command.argv), "problems": o.problems}
                )

    def memory_pass(self) -> list[Outcome]:
        """Every estimate once, untimed, under tracemalloc for peak memory.

        Also warms lazy imports and caches before the timed passes.
        """
        outcomes = [self.run(c, measure_memory=True)
                    for c in self.pass_commands() if c.kind == "estimate"]
        self.record(outcomes, "memory")
        return outcomes

    def run_pass(self, pass_id, tracer=None, before=None) -> tuple[float, list[Outcome]]:
        """Every command of a pass; returns the sum of their times and outcomes."""
        gc.collect()
        outcomes = []
        for c in self.pass_commands():
            if before is not None:
                before()
            outcomes.append(self.run(c, tracer))
        seconds = sum(o.seconds for o in outcomes)
        self.check_pass(outcomes)
        self.record(outcomes, pass_id)
        return seconds, outcomes


# -- statistics and context ------------------------------------------------


def summarize(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "samples": values}
    if n >= 11:
        out["tail_percentile"] = round(100.0 * (n - 10) / n, 2)
        out["tail_value"] = ordered[n - 11]
    return out


def git_sha(root: Path) -> str:
    """HEAD commit of the checkout, or "unknown" outside a git work tree."""
    # the ceiling stops git from reporting an enclosing repository instead
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def computed_sizes(workload: Workload) -> dict:
    """Array shapes implied by the workload's settings (computed, not measured)."""
    window = int(round(WINDOW_SECONDS * SAMPLE_RATE_HZ))
    samples = int(round(workload.duration_s * SAMPLE_RATE_HZ))
    windows = (samples - window) // window + 1
    fits = {}
    for est in workload.estimates:
        if est.method == "mt":
            continue
        k = windows
        if est.baseline_seconds:
            base = int(round(est.baseline_seconds * SAMPLE_RATE_HZ))
            k = min((base - window) // window + 1, windows)
        fits[est.method] = {"K": k, "J": window, "M": TAPERS}
    return {
        "label": "computed from the workload settings",
        "samples": samples,
        "coefficients": {"K": windows, "J": window, "M": TAPERS},
        "coefficient_bytes": windows * window * TAPERS * 16,
        "em_fits": fits,
    }


def run_context(workload: Workload, seed: int, session: Session) -> dict:
    import numpy
    import scipy
    import statespec

    files = {}
    for path in sorted(session.sim_dir.glob("*")):
        files[path.name] = path.stat().st_size
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "workload": workload.name,
        "seed": seed,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "statespec": statespec.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "sizes": computed_sizes(workload),
        "input_file_bytes": files,
    }


# -- the run ------------------------------------------------------------------


def load_cli():
    """Import statespec from the sources next to this benchmark, or exit 2."""
    if not (SRC / "statespec" / "__init__.py").is_file():
        print(f"error: statespec sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import statespec.cli

    if not Path(statespec.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported statespec from {statespec.cli.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return statespec.cli.main


# Median of Reference.run on the development VM.  Each timing in the result
# line is scaled by REFERENCE_NOMINAL_S / (median reference time of its
# pass), so it reads as seconds on a host running at that speed.
REFERENCE_NOMINAL_S = 0.04


class Reference:
    """Fixed numpy and plain-Python work that does not touch statespec.

    The shared host this benchmark was built on changes speed by up to 1.7x
    within seconds to minutes, and CPU time drifts with wall time, so raw
    medians of runs disagree by more than any useful bound.  The reference
    runs before every command, so its median over a pass measures how fast
    the host was while that pass ran.  Its mix follows the
    program's: a Kalman-style loop over complex (J, M) arrays (EM and the
    filters), FFTs and sorts of a long array, and formatting and parsing
    numbers (CSV output and input).
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20211119)
        self._np = np
        self._obs = rng.standard_normal((216, 3)) + 1j * rng.standard_normal((216, 3))
        self._var = np.abs(rng.standard_normal((216, 3))) + 1.0
        self._noise = np.abs(rng.standard_normal(3)) + 0.5
        self._long = rng.standard_normal(1 << 17)
        self.samples: list[float] = []

    def run(self) -> None:
        np = self._np
        start = time.perf_counter()
        mean, var, ll = np.zeros_like(self._obs), self._var.copy(), 0.0
        for _ in range(600):
            pred = var + self._var
            innov_var = pred + self._noise[None, :]
            innov = self._obs - mean
            gain = pred / innov_var
            mean = mean + gain * innov
            var = (1.0 - gain) * pred
            ll += float(np.sum(-np.log(np.pi * innov_var) - np.abs(innov) ** 2 / innov_var))
        for _ in range(3):
            np.fft.rfft(self._long)
            np.sort(self._long)
        lines = [",".join(f"{v:.9g}" for v in row) for row in self._long[:9000].reshape(-1, 12)]
        parsed = [np.array([float(v) for v in line.split(",")]) for line in lines]
        self.samples.append(time.perf_counter() - start)
        assert len(parsed) == 750 and math.isfinite(ll)


def timed_passes(session: Session, seconds: float, reference: Reference, tracer=None):
    """Closed loop of passes until the next one would overrun ``seconds``.

    Each pass starts with a fresh ``simulate`` into a scratch directory (a
    ``setup_s`` sample, checked byte-identical to the inputs), and the
    reference work runs before every command.  Returns the setups, the
    passes, and each pass's host scale: REFERENCE_NOMINAL_S over the median
    reference time of that pass.
    """
    setups: list[Outcome] = []
    passes: list[tuple[float, list[Outcome]]] = []
    scales: list[float] = []
    start = time.perf_counter()
    pass_id = 1
    while True:
        if tracer is not None:
            tracer.pass_id = pass_id
        first_ref = len(reference.samples)
        reference.run()
        setups.append(session.run(session.simulate_command(session.workdir / "resim"), tracer))
        session.record(setups[-1:], pass_id)
        passes.append(session.run_pass(pass_id, tracer, before=reference.run))
        scales.append(REFERENCE_NOMINAL_S / statistics.median(reference.samples[first_ref:]))
        elapsed = time.perf_counter() - start
        typical = statistics.median(s + o.seconds for (s, _), o in zip(passes, setups))
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return setups, passes, scales
        pass_id += 1


def end_to_end_metrics(setups: list[Outcome], passes, memory: list[Outcome],
                       scales: list[float]) -> tuple[dict, dict]:
    """Result-line metrics; each time is multiplied by its pass's scale.

    The summaries hold the scaled samples; ``raw_median`` is the unscaled one.
    """
    samples: dict[str, list[float]] = {"setup_s": [], "pass_s": [], "compare_s": []}
    raw: dict[str, list[float]] = {}

    def add(name: str, value: float, scale: float = 1.0) -> None:
        samples.setdefault(name, []).append(value * scale)
        raw.setdefault(name, []).append(value)

    for setup, (seconds, outcomes), scale in zip(setups, passes, scales):
        if setup.code == 0:
            add("setup_s", setup.seconds, scale)
        add("pass_s", seconds, scale)
        add("compare_s", sum(o.seconds for o in outcomes if o.command.kind == "compare"), scale)
        for o in outcomes:
            if o.code != 0:
                continue
            if o.command.kind == "estimate":
                add(f"estimate_{o.command.method}_s", o.seconds, scale)
            else:
                add(f"compare_{o.command.method}_s", o.seconds, scale)
                if o.is_total is not None:
                    add(f"is_{o.command.method}", o.is_total)
    peaks = [o.peak_bytes for o in memory if o.peak_bytes is not None]
    if peaks:
        add("peak_mb", max(peaks) / 1e6)
    summaries = {name: {**summarize(values), "raw_median": statistics.median(raw[name])}
                 for name, values in samples.items() if values}
    metrics = {}
    for name in END_TO_END:
        if name in summaries:
            unit = "s" if name.endswith("_s") else "MB" if name == "peak_mb" else "1"
            metrics[name] = {"value": summaries[name]["median"], "unit": unit}
    return metrics, summaries


LAYER_UNITS = {
    "em_iters": "count",
    "em_converged": "1",
    "em_final_ll": "nats",
    "raised_frac": "ratio",
    "coeff_mb": "MB",
    "bytes_written": "B",
    "bytes_read": "B",
    "is_total": "1",
}


def layer_unit(name: str) -> str:
    stem = name.split(".")[1]
    return "s" if stem.endswith("_s") else LAYER_UNITS[stem]


def per_layer_metrics(tracer, passes, methods, reference: Reference) -> tuple[dict, dict]:
    from tracing import layer_metrics

    samples = layer_metrics(tracer.spans, methods)
    for _, outcomes in passes:
        for o in outcomes:
            if o.is_total is not None:
                samples.setdefault(f"metrics.is_total.{o.command.method}", []).append(o.is_total)
    samples["trace.overhead_s"] = list(tracer.overhead_by_pass().values())
    samples["bench.reference_s"] = reference.samples
    metrics, summaries = {}, {}
    for name, values in sorted(samples.items()):
        summaries[name] = summarize(values)
        metrics[name] = {"value": summaries[name]["median"], "unit": layer_unit(name)}
    return metrics, summaries


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool, main) -> dict:
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    out_dir = OUT_DIR
    workdir = out_dir / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    session = Session(workload, seed, workdir, main)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    reference = Reference()
    try:
        first = session.run(session.simulate_command(session.sim_dir))
        session.record([first], "setup")
        memory = session.memory_pass() if tracer is None else []
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            setups, passes, scales = timed_passes(session, seconds, reference, tracer)
        context = run_context(workload, seed, session)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    methods = tuple(e.method for e in workload.estimates)
    problems: list[str] = []
    context["host_scale"] = summarize(scales)
    if tracer is None:
        metrics, summaries = end_to_end_metrics(setups, passes, memory, scales)
    else:
        from tracing import consistency_problems

        problems = consistency_problems(tracer.spans)
        metrics, summaries = per_layer_metrics(tracer, passes, methods, reference)
    failed = len(session.failures)
    report = {
        "context": context,
        "attempted": session.attempted,
        "failed": failed,
        "failed_frac": failed / session.attempted,
        "failures": session.failures,
        "trace_problems": problems,
        "summaries": summaries,
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps({**report, "result": result}, indent=1))
    if tracer is not None:
        with open(out_dir / f"{tag}.spans.jsonl", "w") as fh:
            for record in tracer.to_records():
                fh.write(json.dumps(record) + "\n")
    return {"report": report, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli_main = load_cli()
    outcome = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), cli_main)
    print(json.dumps(outcome["report"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
