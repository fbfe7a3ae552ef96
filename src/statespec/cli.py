"""Command-line front end: simulate, estimate, compare, tapers.

Exit codes: 0 on success, 2 for configuration errors (bad flags or
incompatible settings), 3 for data errors (missing, empty, or malformed
input).  ``simulate``, ``estimate`` and ``tapers`` write a ``manifest.json``
into their output directory; ``simulate`` and ``estimate`` replay one bit
for bit with ``--from-manifest``, optionally into a different directory.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import shutil
import sys
import tempfile
import warnings
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import io
from ._util import append_in_place, owned
from ._version import __version__
from .adaptive import AdaptiveParams, assmt_filter
from .metrics import itakura_saito
from .segmentation import (EigenCoefficients, TimeSeries, _checked_window_count, _window_count,
                           _window_times, eigen_coefficients, segment)
from .simulate import benchmark_config, gen_benchmark
from .ssm import (
    EMConfig,
    Spectrogram,
    _unfold,
    em_fit,
    filter_all,
    mt_spectrogram,
    ssmt_spectrogram,
)
from .tapers import _bank_args, dpss

__all__ = ["ConfigError", "DataError", "RunConfig", "run_pipeline", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


class ConfigError(Exception):
    """Settings that can never work, regardless of the data."""


class DataError(Exception):
    """Input that cannot be processed under valid settings."""


# the values each field annotation admits
_KINDS = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,)}


def _check_types(config) -> None:
    """Reject settings of the wrong type, which a replayed manifest can hold.

    Each field must match its annotation: ``bool``, ``int``, ``float`` or
    ``str``, optionally ``| None``.  A bool is an int to Python, so it is
    turned away where a count or a quantity is meant; a float or a string
    is never taken for a flag.
    """
    for field in fields(config):
        value = getattr(config, field.name)
        kind, _, optional = field.type.partition(" | ")
        if value is None and optional == "None":
            continue
        if not isinstance(value, _KINDS[kind]) or (isinstance(value, bool) and kind != "bool"):
            raise ConfigError(f"{field.name} must be {field.type}, got {value!r}")


def _window_grid(name: str, seconds: float, rate: float, overlap: float = 0.0) -> tuple[int, int]:
    """Samples in ``seconds`` at ``rate``, and the hop that ``overlap`` leaves.

    Estimates and the simulated truth share this rounding, which keeps
    their window grids aligned for ``compare``.  ``name`` is what the
    span is, for the error when its sample count is out of range.
    """
    try:
        window = int(round(seconds * rate))
        return window, max(1, int(round(window * (1.0 - overlap))))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} sample count out of range: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings of one estimation run."""

    method: str
    input_path: str
    output_dir: str
    sample_rate_hz: float
    window_seconds: float = 6.0
    overlap_fraction: float = 0.0
    tapers: int = 3
    nw: float | None = None
    alpha: float = 0.95
    baseline_seconds: float = 0.0
    scale: str = "dB"
    one_sided: bool = True
    demean: bool = False
    em_tol: float = 1e-6
    em_max_iter: int = 100
    input_format: str | None = None
    output_format: str = "csv"

    def __post_init__(self):
        _check_types(self)
        if self.method not in ("mt", "ssmt", "assmt"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.input_format not in (None, "csv", "bin"):
            raise ConfigError(
                f"input_format must be 'csv', 'bin' or null, got {self.input_format!r}"
            )
        if not 0 < self.sample_rate_hz < math.inf:
            raise ConfigError("sample rate must be positive and finite")
        if not 0 < self.window_seconds < math.inf:
            raise ConfigError("window length must be positive and finite")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ConfigError("overlap must lie in [0, 1)")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if not 0 <= self.baseline_seconds < math.inf:
            raise ConfigError("baseline seconds must be non-negative and finite")
        if self.method == "assmt" and not self.baseline_seconds > 0:
            raise ConfigError("assmt requires --baseline-seconds > 0")
        if self.scale not in ("linear", "dB"):
            raise ConfigError("scale must be 'linear' or 'dB'")
        try:
            em = EMConfig(tol=self.em_tol, max_iter=self.em_max_iter)
        except ValueError as exc:
            raise ConfigError(f"em settings: {exc}") from exc
        if self.output_format not in ("csv", "bin"):
            raise ConfigError("output format must be 'csv' or 'bin'")
        # the sample counts window_samples, hop and baseline_windows depend on the
        # settings alone, so one that overflows or is too short fails before any I/O
        window, hop = _window_grid("window", self.window_seconds, self.sample_rate_hz,
                                   self.overlap_fraction)
        baseline, _ = _window_grid("baseline", self.baseline_seconds, self.sample_rate_hz)
        # the taper count and NW the window can hold, checked without the bank
        try:
            _bank_args(window, self.time_half_bandwidth, self.tapers)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        baseline_windows = _window_count(baseline, window, hop)
        if self.method != "mt" and self.baseline_seconds > 0 and baseline_windows < 2:
            raise ConfigError(
                f"baseline of {self.baseline_seconds:g} s holds fewer than two windows"
            )
        object.__setattr__(self, "window_samples", window)
        object.__setattr__(self, "hop", hop)
        object.__setattr__(self, "baseline_windows", baseline_windows)
        object.__setattr__(self, "em", em)

    @property
    def time_half_bandwidth(self) -> float:
        return self.nw if self.nw is not None else _default_nw(self.tapers)


def _default_nw(tapers: int) -> float:
    """The time-bandwidth product NW = (tapers + 1) / 2 that ``--nw`` defaults to."""
    try:
        return (tapers + 1) / 2.0
    except OverflowError:
        raise ConfigError("tapers is past the float range") from None


@dataclass(frozen=True)
class SimulateConfig:
    """Resolved settings of one simulation run, as its manifest stores them."""

    duration_s: float
    sample_rate_hz: float
    seed: int
    snr_db: float
    carrier_freq_hz: float
    window_seconds: float
    overlap: float
    full_grid: bool
    format: str
    out_dir: str

    def __post_init__(self):
        _check_types(self)
        if not 0 < self.duration_s < math.inf:
            raise ConfigError("duration must be positive and finite")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not 0 < self.sample_rate_hz < math.inf:
            raise ConfigError("sample rate must be positive and finite")
        if not math.isfinite(self.window_seconds):
            raise ConfigError("window seconds must be finite")
        if not 0.0 <= self.overlap < 1.0:
            raise ConfigError("overlap must lie in [0, 1)")
        if self.format not in ("csv", "bin"):
            raise ConfigError("format must be 'csv' or 'bin'")
        window, hop = _window_grid("window", self.window_seconds, self.sample_rate_hz,
                                   self.overlap)
        # the sample count gen_benchmark will produce, so a grid that cannot
        # cut the record fails before the record is generated
        n_samples, _ = _window_grid("record", self.duration_s, self.sample_rate_hz)
        _check_window_grid(window, hop, n_samples)
        object.__setattr__(self, "window_samples", window)
        object.__setattr__(self, "hop", hop)


def _check_window_grid(window: int, hop: int, n_samples: int) -> None:
    """`_checked_window_count`'s rule, as a ConfigError."""
    try:
        _checked_window_count(n_samples, window, hop)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_manifest(path) -> dict:
    """A manifest that holds a config section."""
    try:
        stored = io.read_manifest(path)
    except ValueError as exc:
        raise DataError(f"{path}: not a JSON manifest: {exc}") from exc
    if not isinstance(stored, dict) or not isinstance(stored.get("config"), dict):
        raise DataError(f"{path}: manifest has no config section")
    return stored


def _settings(cls, args: argparse.Namespace, out_field: str):
    """``cls`` from the flags, or from the config of the replayed manifest.

    On replay the stored config is used as it is, except that ``--out-dir``,
    when given, replaces the output directory held in ``out_field``.
    """
    if args.from_manifest:
        stored = _read_manifest(args.from_manifest)
        if stored.get("command") != args.command:
            raise ConfigError(f"{args.from_manifest} is not a {args.command} manifest")
        values = stored["config"]
        if getattr(args, out_field):
            values[out_field] = getattr(args, out_field)
    else:
        values = {field.name: getattr(args, field.name) for field in fields(cls)}
    # a replayed config can hold values of any JSON type and any keys, so a
    # TypeError (or an integer too large for a float) is a bad setting just
    # like a ValueError
    try:
        return cls(**values)
    except (TypeError, ValueError, OverflowError) as exc:
        prefix = f"{args.from_manifest}: " if args.from_manifest else ""
        raise ConfigError(f"{prefix}{exc}") from exc


def run_pipeline(config: RunConfig) -> dict[str, Path]:
    """Run one estimation end to end and write its outputs.

    The outputs are written block by block into a temporary directory and
    moved into the output directory once all of them are complete; a failed
    run removes the temporary directory, and leaves the file system as it
    found it.
    """
    try:
        return _run_pipeline(config)
    except ValueError as exc:
        # settings are valid by now, so what the reader or the numerics reject
        # (unparseable or non-finite samples, power that overflows) is the data
        raise DataError(f"{config.input_path}: {exc}") from exc


def _run_pipeline(config: RunConfig) -> dict[str, Path]:
    out = Path(config.output_dir)
    # the temporary directory goes in the nearest existing directory at or
    # above the output directory: on its file system, so no rename copies
    parent = out
    while not parent.is_dir():
        parent = parent.parent
    staging = Path(tempfile.mkdtemp(prefix=".statespec-", dir=parent))
    try:
        _estimate(config, staging)
        out.mkdir(parents=True, exist_ok=True)
        # the manifest last, once every file it describes is in place
        names = sorted(path.name for path in staging.iterdir())
        names.append(names.pop(names.index("manifest.json")))
        for name in names:
            os.replace(staging / name, out / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return {Path(name).stem: out / name for name in names}


# Cells (windows x stored bins x tapers) an estimate transforms, filters and
# writes at a time, so its memory does not grow with the record
_BLOCK_CELLS = 1 << 14


class _Record:
    """The samples of a signal, read block by block as its windows need
    them, and dropped once the windows that use them are transformed; the
    one place that decides where a block of windows ends and what it holds.

    Every block read is checked to be finite, so a non-finite sample is
    rejected wherever it lies, after the last window too.
    """

    def __init__(self, blocks, config: RunConfig):
        self._blocks = blocks
        self._config = config
        # the samples from the start of window `_first` on, an array no view
        # is taken of until it is replaced, so it can grow in place
        self._samples = np.empty(0)
        self._first = 0
        # a record that cannot fill one window is rejected as `segment` rejects it
        if not self.count(1):
            _checked_window_count(self.held, config.window_samples, config.hop)
        self._bank = dpss(config.window_samples, config.time_half_bandwidth, config.tapers)

    @property
    def held(self) -> int:
        return self._samples.size

    def count(self, stop: int | None = None) -> int:
        """How many of windows 0..``stop - 1`` the record holds, or of all
        its windows when ``stop`` is None; reads only as far as that takes."""
        j, hop = self._config.window_samples, self._config.hop
        need = math.inf if stop is None else (stop - self._first - 1) * hop + j
        while self.held < need:
            block = next(self._blocks, None)
            if block is None:
                break
            if not np.all(np.isfinite(block)):
                raise ValueError("samples must be finite")
            append_in_place(self._samples, block)
            # copied: not held while the next block is read
            del block
        windows = self._first + _window_count(self.held, j, hop)
        return windows if stop is None else min(stop, windows)

    def coefficients(self, stop: int) -> EigenCoefficients:
        """The windows not yet transformed, up to ``stop - 1``, from their
        own samples: each window's bits are those of the whole record's
        transform.  Samples no later window uses are then dropped.

        ssmt and assmt get them copied into the window-major layout the
        filters step through; mt's taper mean keeps the transform's own layout.
        """
        config, first = self._config, self._first
        j, hop = config.window_samples, config.hop
        block = TimeSeries(samples=owned(self._samples[:(stop - first - 1) * hop + j]),
                           sample_rate_hz=config.sample_rate_hz)
        # a copy, so the transformed samples are not kept alive by a view
        self._samples, self._first = self._samples[(stop - first) * hop:].copy(), stop
        eig = eigen_coefficients(segment(block, j, hop, demean=config.demean), self._bank)
        coeffs = eig.coeffs if config.method == "mt" else np.ascontiguousarray(eig.coeffs)
        times = _window_times(first, stop, j, hop, config.sample_rate_hz)
        return EigenCoefficients(owned(coeffs), eig.frequencies_hz, times)

    def blocks(self, fit: EigenCoefficients | None = None):
        """``(first, stop, last, coefficients)`` of each block of windows
        ``first``..``stop - 1`` in turn, ``last`` true of the last.  ``fit``
        holds the record's first windows, already transformed; blocks end
        where it does: each slices its rows, released with its last block,
        or transforms its own samples.  Each is yielded off a one-item list,
        so only the consumer holds it."""
        config = self._config
        n_fit = 0 if fit is None else fit.shape[0]
        step = max(1, _BLOCK_CELLS // ((config.window_samples // 2 + 1) * config.tapers))
        first, last = 0, False
        while not last:
            stop = self.count(min(first + step, n_fit) if first < n_fit else first + step)
            # one window more tells whether this block is the last
            last = self.count(stop + 1) == stop
            if first < n_fit:
                eig = [EigenCoefficients(owned(fit.coeffs[first:stop]), fit.frequencies_hz,
                                         fit.window_times_s[first:stop])]
                fit = fit if stop < n_fit else None
            else:
                eig = [self.coefficients(stop)]
            yield first, stop, last, eig.pop()
            first = stop


def _estimate(config: RunConfig, staging: Path) -> None:
    """Estimate and write every output file into ``staging``.

    EM fits the baseline windows, or all of them without a baseline.  Then
    each of `_Record.blocks` is filtered, from the previous block's last
    posterior and tracker, and written.  The last block restates the window
    count in the headers of the files written in blocks.
    """
    j = config.window_samples
    manifest = {"command": "estimate", "version": __version__, "config": asdict(config)}
    blocks = io.read_signal(config.input_path, config.input_format, blocks=True)
    with contextlib.closing(blocks):
        record, fit_obs = _Record(blocks, config), None
        if config.method != "mt":
            fit_obs = record.coefficients(record.count(config.baseline_windows or None))
            fit = em_fit(fit_obs, config.em)
            params = fit.params
            manifest["em"] = {"converged": fit.converged, "n_iter": fit.n_iter,
                              "log_likelihoods": [float(v) for v in fit.log_likelihoods]}
            # the fit holds bins 0..J//2; state_var.csv holds the model's (J, M) grid
            io.write_matrix(staging / "state_var", _unfold(params.state_var, j, axis=0),
                            fmt=config.output_format)
            # the state variances on the traces' columns, where the tracker keeps them
            baseline = params.state_var
            if not config.one_sided:
                baseline = _unfold(baseline, j, axis=0)
            io.write_vector_csv(staging / "obs_var.csv", params.obs_var)
            # warm start at the first observation: the state prior has no
            # knowledge of absolute level, so seeding with window 0 avoids a
            # long ramp-in at bins whose power sits far above the prior mean
            mean = fit_obs.coeffs[0].copy()
            var = np.broadcast_to(params.obs_var[None, :], params.state_var.shape).copy()
            adaptive, tracker = AdaptiveParams.from_model_params(params), None
        windows = record.blocks(fit_obs)
        del fit_obs  # the record's blocks release the fit's rows
        for first, stop, last, eig in windows:
            # the window count, for the headers, once it is known
            rows = stop if last else None
            if config.method == "mt":
                spect = mt_spectrogram(eig, one_sided=config.one_sided)
            elif config.method == "ssmt":
                trace = filter_all(eig, params, init_mean=mean, init_var=var)
            else:
                trace, sv_trace, tracker = assmt_filter(
                    eig, adaptive, alpha=config.alpha, init_mean=mean, init_var=var,
                    tracker=tracker,
                )
            del eig  # the block's coefficients have no user left
            if config.method == "assmt":
                # one column per row of frequencies.csv; the gains follow from these
                if not config.one_sided:
                    sv_trace = _unfold(sv_trace, j)
                for m in range(config.tapers):
                    # most windows keep the baseline, whose text is formatted once
                    io.write_matrix(staging / f"state_var_trace_taper{m}", sv_trace[:, :, m],
                                    fmt=config.output_format, rows=rows, append=first > 0,
                                    baseline=baseline[:, m])
                del sv_trace
            if config.method != "mt":
                # the next block starts from this one's last posterior
                mean, var = trace.means[-1].copy(), trace.variances[-1].copy()
                spect = ssmt_spectrogram(trace, one_sided=config.one_sided)
                del trace
            if config.scale == "dB":
                spect = spect.to_db()
            frequencies = spect.frequencies_hz
            io.write_matrix(staging / "spectrogram", spect.power, fmt=config.output_format,
                            scale=spect.scale, rows=rows, append=first > 0)
            # nothing of this block is held while the next one is made
            del spect
    io.write_vector_csv(staging / "frequencies.csv", frequencies)
    io.write_vector_csv(staging / "times.csv",
                        _window_times(0, stop, j, config.hop, config.sample_rate_hz))
    io.write_manifest(staging / "manifest.json", manifest)


def _cmd_estimate(args: argparse.Namespace) -> int:
    paths = run_pipeline(_settings(RunConfig, args, "output_dir"))
    print(f"wrote {paths['spectrogram']}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _settings(SimulateConfig, args, "out_dir")
    try:
        series, truth = gen_benchmark(benchmark_config(
            duration_s=config.duration_s,
            sample_rate_hz=config.sample_rate_hz,
            seed=config.seed,
            snr_db=config.snr_db,
            carrier_freq_hz=config.carrier_freq_hz,
        ))
        spect = truth.spectrogram(config.window_samples, config.hop,
                                  one_sided=not config.full_grid)
    except (ValueError, OverflowError) as exc:
        prefix = f"{args.from_manifest}: " if args.from_manifest else ""
        raise ConfigError(f"{prefix}{exc}") from exc

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    signal_path = io.write_signal(out / "signal", series.samples, fmt=config.format)
    io.write_matrix(out / "truth_spectrogram", spect.power, fmt=config.format,
                    scale=spect.scale)
    io.write_vector_csv(out / "truth_frequencies.csv", spect.frequencies_hz)
    io.write_vector_csv(out / "truth_times.csv", spect.window_times_s)
    io.write_manifest(
        out / "manifest.json",
        {"command": "simulate", "version": __version__, "config": asdict(config),
         "noise_var": truth.noise_var},
    )
    print(f"wrote {signal_path}")
    return EXIT_OK


def _load_spectrogram(directory: Path, names: tuple[str, ...]) -> Spectrogram:
    """The first spectrogram of ``names`` found under ``directory``, as linear power.

    A directory with a manifest holds its run's spectrogram in the format
    the manifest names, and a file of the other format there is not read:
    it is left over from an earlier run.  Without a manifest a ``.csv`` is
    taken before a ``.f32``.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    manifest = _read_manifest(manifest_path) if manifest_path.exists() else None
    if manifest is None:
        suffixes = tuple(io.MATRIX_SUFFIXES.values())
    else:
        fmt = None
        if manifest.get("command") == "estimate":
            fmt = manifest["config"].get("output_format")
        elif manifest.get("command") == "simulate":
            fmt = manifest["config"].get("format")
        # any JSON value can stand here, and a list is not hashable
        if not isinstance(fmt, str) or fmt not in io.MATRIX_SUFFIXES:
            raise DataError(f"{manifest_path}: no output format of a spectrogram")
        suffixes = (io.MATRIX_SUFFIXES[fmt],)
    candidates = [directory / f"{name}{suffix}" for name in names for suffix in suffixes]
    matrix_path = next((path for path in candidates if path.exists()), None)
    if matrix_path is None:
        tried = names if manifest is None else [path.name for path in candidates]
        raise DataError(f"no spectrogram found under {directory} (tried {', '.join(tried)})")
    stem = matrix_path.stem
    if matrix_path.suffix == io.MATRIX_SUFFIXES["csv"]:
        power, meta = io.read_matrix_csv(matrix_path)
        scale = meta.get("scale", "linear")
    else:
        power = io.read_matrix_bin(matrix_path)
        if manifest is None:
            raise DataError(f"{directory}: binary spectrogram without a manifest to supply its scale")
        if "scale" in manifest["config"]:
            scale = manifest["config"]["scale"]
        elif manifest.get("command") == "simulate":
            # a simulate manifest holds no scale: its truth is linear
            scale = "linear"
        else:
            raise DataError(
                f"{manifest_path}: no config.scale to give the scale of {stem}.f32"
            )
    prefix = "truth_" if stem.startswith("truth_") else ""
    freqs = io.read_vector_csv(directory / f"{prefix}frequencies.csv")
    times = io.read_vector_csv(directory / f"{prefix}times.csv")
    # the arrays just read are adopted, not copied; a read error names its
    # file, and an error of the arrays together names their directory
    try:
        return Spectrogram(owned(power), owned(freqs), owned(times), scale=scale).to_linear()
    except ValueError as exc:
        raise DataError(f"{directory}: {exc}") from exc


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        estimate = _load_spectrogram(Path(args.estimate), ("spectrogram", "truth_spectrogram"))
        truth = _load_spectrogram(Path(args.truth), ("truth_spectrogram", "spectrogram"))
        report = itakura_saito(estimate, truth)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    used = int(np.sum(report.bins_used))
    lines = [
        "itakura-saito divergence",
        f"  windows   : {report.per_window.size}",
        f"  bins used : {used} of {report.bins_used.size}",
        f"  total     : {report.total:.6g}",
        f"  per-window: min={report.per_window.min():.6g} "
        f"median={np.median(report.per_window):.6g} max={report.per_window.max():.6g}",
        f"IS_TOTAL={report.total:.9g}",
        f"IS_WINDOWS={report.per_window.size}",
        f"IS_BINS_USED={used}",
        f"IS_PER_WINDOW_MIN={report.per_window.min():.9g}",
        f"IS_PER_WINDOW_MAX={report.per_window.max():.9g}",
    ]
    text = "\n".join(lines)
    print(text)
    if args.report:
        Path(args.report).write_text(text + "\n")
    return EXIT_OK


def _cmd_tapers(args: argparse.Namespace) -> int:
    if args.window_length is not None:
        window = args.window_length
    elif args.window_seconds is not None and args.sample_rate is not None:
        window, _ = _window_grid("window", args.window_seconds, args.sample_rate)
    else:
        raise ConfigError("give --window-length, or --window-seconds with --sample-rate")
    nw = args.nw if args.nw is not None else _default_nw(args.tapers)
    try:
        bank = dpss(window, nw, args.tapers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = io.write_matrix(out / "tapers", bank.tapers, fmt=args.format)
    io.write_vector_csv(out / "concentrations.csv", bank.concentrations)
    io.write_manifest(
        out / "manifest.json",
        {
            "command": "tapers",
            "version": __version__,
            "config": {
                "window_length": window,
                "tapers": args.tapers,
                "nw": nw,
                "format": args.format,
            },
        },
    )
    print(f"wrote {path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statespec",
        description="Multitaper and state-space multitaper spectrogram estimation.",
    )
    parser.add_argument("--version", action="version", version=f"statespec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate the benchmark record and its ground truth")
    sim.add_argument("--out-dir", help="directory for signal, truth, and manifest")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--duration", dest="duration_s", type=float, default=600.0,
                     help="record length in seconds")
    sim.add_argument("--sample-rate", dest="sample_rate_hz", type=float, default=36.0)
    sim.add_argument("--snr-db", type=float, default=30.0)
    sim.add_argument("--carrier-freq-hz", type=float, default=0.02)
    sim.add_argument("--window-seconds", type=float, default=6.0,
                     help="window grid for the written ground truth")
    sim.add_argument("--overlap", type=float, default=0.0)
    sim.add_argument("--full-grid", action="store_true",
                     help="write the full frequency grid instead of one-sided")
    sim.add_argument("--format", choices=("csv", "bin"), default="csv")
    sim.add_argument("--from-manifest", help="replay a previous simulate run")
    sim.set_defaults(func=_cmd_simulate)

    # each dest is a RunConfig field, whose default is the flag's default
    est = sub.add_parser("estimate", help="estimate a spectrogram from a signal file")
    est.add_argument("--input", dest="input_path",
                     help="signal file (csv or raw little-endian float64)")
    est.add_argument("--input-format", choices=("csv", "bin"),
                     help="inferred from the extension when omitted")
    est.add_argument("--sample-rate", dest="sample_rate_hz", type=float)
    est.add_argument("--method", choices=("mt", "ssmt", "assmt"), default="mt")
    est.add_argument("--out-dir", dest="output_dir")
    est.add_argument("--window-seconds", type=float)
    est.add_argument("--overlap", dest="overlap_fraction", type=float)
    est.add_argument("--tapers", type=int)
    est.add_argument("--nw", type=float, help="time-bandwidth product; default (tapers + 1) / 2")
    est.add_argument("--alpha", type=float)
    est.add_argument("--baseline-seconds", type=float,
                     help="initial stretch used to fit model parameters")
    est.add_argument("--scale", choices=("linear", "dB"))
    est.add_argument("--full-grid", dest="one_sided", action="store_false")
    est.add_argument("--demean", action="store_true", help="remove each window's mean")
    est.add_argument("--em-tol", type=float)
    est.add_argument("--em-max-iter", type=int)
    est.add_argument("--format", dest="output_format", choices=("csv", "bin"))
    est.add_argument("--from-manifest", help="replay a previous estimate run")
    est.set_defaults(func=_cmd_estimate, **{
        field.name: field.default for field in fields(RunConfig) if field.default is not MISSING
    })

    cmp_ = sub.add_parser("compare", help="score an estimate against a reference spectrogram")
    cmp_.add_argument("--estimate", required=True, help="directory written by estimate")
    cmp_.add_argument("--truth", required=True, help="directory holding the reference")
    cmp_.add_argument("--report", help="also write the report to this file")
    cmp_.set_defaults(func=_cmd_compare)

    tap = sub.add_parser("tapers", help="write a taper bank and its concentrations")
    tap.add_argument("--window-length", type=int, help="window length in samples")
    tap.add_argument("--window-seconds", type=float)
    tap.add_argument("--sample-rate", type=float)
    tap.add_argument("--tapers", type=int, default=3)
    tap.add_argument("--nw", type=float, default=None)
    tap.add_argument("--format", choices=("csv", "bin"), default="csv")
    tap.add_argument("--out-dir", required=True)
    tap.set_defaults(func=_cmd_tapers)
    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # a warning shown on stderr is one line, like an error, with no source
    # path or line; it is still raised, so filters and pytest.warns see it
    saved = warnings.formatwarning
    warnings.formatwarning = _warning_line
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        warnings.formatwarning = saved


if __name__ == "__main__":
    sys.exit(main())
