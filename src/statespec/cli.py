"""Command-line front end: simulate, estimate, compare, tapers.

Exit codes: 0 on success, 2 for configuration errors (bad flags or
incompatible settings), 3 for data errors (missing, empty, or malformed
input).  Every run writes a ``manifest.json`` into its output directory;
``--from-manifest`` replays a previous run bit for bit, optionally into
a different directory.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import io
from ._util import owned
from ._version import __version__
from .adaptive import AdaptiveParams, assmt_filter
from .metrics import itakura_saito
from .segmentation import EigenCoefficients, TimeSeries, eigen_coefficients, segment
from .simulate import benchmark_config, gen_benchmark
from .ssm import (
    EMConfig,
    Spectrogram,
    em_fit,
    filter_all,
    mt_spectrogram,
    ssmt_spectrogram,
)
from .tapers import dpss

__all__ = ["ConfigError", "DataError", "RunConfig", "run_pipeline", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


class ConfigError(Exception):
    """Settings that can never work, regardless of the data."""


class DataError(Exception):
    """Input that cannot be processed under valid settings."""


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
        if self.method not in ("mt", "ssmt", "assmt"):
            raise ConfigError(f"unknown method {self.method!r}")
        if not isinstance(self.input_path, str) or not isinstance(self.output_dir, str):
            raise ConfigError("input path and output directory must be strings")
        if not 0 < self.sample_rate_hz < math.inf:
            raise ConfigError("sample rate must be positive and finite")
        if not 0 < self.window_seconds < math.inf:
            raise ConfigError("window length must be positive and finite")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ConfigError("overlap must lie in [0, 1)")
        if self.tapers < 1:
            raise ConfigError("taper count must be at least 1")
        # math.isfinite and math.isnan raise OverflowError on an integer too
        # large for a float, which a replayed manifest can hold
        if self.nw is not None and not (self.nw > 0 and math.isfinite(self.nw)):
            raise ConfigError("nw must be positive and finite")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if not 0 <= self.baseline_seconds < math.inf:
            raise ConfigError("baseline seconds must be non-negative and finite")
        if self.method == "assmt" and not self.baseline_seconds > 0:
            raise ConfigError("assmt requires --baseline-seconds > 0")
        if self.scale not in ("linear", "dB"):
            raise ConfigError("scale must be 'linear' or 'dB'")
        if math.isnan(self.em_tol) or self.em_tol < 0:
            raise ConfigError("em tolerance must be non-negative")
        if self.em_max_iter < 1:
            raise ConfigError("em max iterations must be at least 1")
        if self.output_format not in ("csv", "bin"):
            raise ConfigError("output format must be 'csv' or 'bin'")
        # the sample counts window_samples, hop and baseline_windows depend on the
        # settings alone, so one that overflows or is too short fails before any I/O
        try:
            window = int(round(self.window_seconds * self.sample_rate_hz))
            hop = max(1, int(round(window * (1.0 - self.overlap_fraction))))
            baseline = int(round(self.baseline_seconds * self.sample_rate_hz))
        except OverflowError as exc:
            raise ConfigError(f"window or baseline sample count out of range: {exc}") from exc
        baseline_windows = (baseline - window) // hop + 1
        if self.method != "mt" and self.baseline_seconds > 0 and baseline_windows < 2:
            raise ConfigError(
                f"baseline of {self.baseline_seconds:g} s holds fewer than two windows"
            )
        object.__setattr__(self, "window_samples", window)
        object.__setattr__(self, "hop", hop)
        object.__setattr__(self, "baseline_windows", baseline_windows)

    @property
    def time_half_bandwidth(self) -> float:
        return self.nw if self.nw is not None else (self.tapers + 1) / 2.0


def run_pipeline(config: RunConfig) -> dict[str, Path]:
    """Run one estimation end to end and write its outputs.

    Everything is computed before the first byte is written, so a failed
    run leaves no partial files behind.
    """
    try:
        return _run_pipeline(config)
    except ValueError as exc:
        # settings are valid by now, so what the reader or the numerics reject
        # (unparseable or non-finite samples, power that overflows) is the data
        raise DataError(f"{config.input_path}: {exc}") from exc


def _run_pipeline(config: RunConfig) -> dict[str, Path]:
    samples = io.read_signal(config.input_path, config.input_format)
    if samples.size < config.window_samples:
        raise DataError(
            f"insufficient data: {config.input_path} holds {samples.size} samples, "
            f"fewer than one {config.window_samples}-sample window"
        )
    try:
        bank = dpss(config.window_samples, config.time_half_bandwidth, config.tapers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    series = TimeSeries(samples=owned(samples), sample_rate_hz=config.sample_rate_hz)
    eig = eigen_coefficients(
        segment(series, config.window_samples, config.hop, demean=config.demean), bank
    )

    em_info = None
    extras: dict[str, np.ndarray] = {}
    if config.method == "mt":
        spect = mt_spectrogram(eig, one_sided=config.one_sided)
    else:
        if config.baseline_seconds > 0:
            n_base = min(config.baseline_windows, eig.shape[0])
            fit_obs = EigenCoefficients(
                coeffs=eig.coeffs[:n_base],
                frequencies_hz=eig.frequencies_hz,
                window_times_s=eig.window_times_s[:n_base],
            )
        else:
            fit_obs = eig
        fit = em_fit(fit_obs, EMConfig(tol=config.em_tol, max_iter=config.em_max_iter))
        # warm start at the first observation: the state prior has no
        # knowledge of absolute level, so seeding with window 0 avoids a
        # long ramp-in at bins whose power sits far above the prior mean
        init_mean = eig.coeffs[0].copy()
        init_var = np.broadcast_to(
            fit.params.obs_var[None, :], fit.params.state_var.shape
        ).copy()
        if config.method == "ssmt":
            trace = filter_all(eig, fit.params, init_mean=init_mean, init_var=init_var)
        else:
            trace, sv_trace = assmt_filter(
                eig,
                AdaptiveParams.from_model_params(fit.params),
                alpha=config.alpha,
                init_mean=init_mean,
                init_var=init_var,
            )
            for m in range(sv_trace.shape[2]):
                extras[f"state_var_trace_taper{m}"] = sv_trace[:, :, m]
        # the filter was the last user of the coefficients and the samples
        # (init_mean is a copy, not a view that would keep eig alive)
        del eig, fit_obs, series, samples
        spect = ssmt_spectrogram(trace, one_sided=config.one_sided)
        extras["state_var"] = fit.params.state_var
        extras["obs_var"] = fit.params.obs_var
        for m in range(trace.gains.shape[2]):
            extras[f"gain_trace_taper{m}"] = trace.gains[:, :, m]
        em_info = {
            "converged": fit.converged,
            "n_iter": fit.n_iter,
            "log_likelihoods": [float(v) for v in fit.log_likelihoods],
        }
    if config.scale == "dB":
        spect = spect.to_db()

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    paths["spectrogram"] = io.write_matrix(
        out / "spectrogram", spect.power, fmt=config.output_format, scale=spect.scale
    )
    io.write_vector_csv(out / "frequencies.csv", spect.frequencies_hz)
    io.write_vector_csv(out / "times.csv", spect.window_times_s)
    paths["frequencies"] = out / "frequencies.csv"
    paths["times"] = out / "times.csv"
    for name, values in extras.items():
        if values.ndim == 1:
            io.write_vector_csv(out / f"{name}.csv", values)
            paths[name] = out / f"{name}.csv"
        else:
            paths[name] = io.write_matrix(out / name, values, fmt=config.output_format)
    manifest = {
        "command": "estimate",
        "version": __version__,
        "config": asdict(config),
    }
    if em_info is not None:
        manifest["em"] = em_info
    io.write_manifest(out / "manifest.json", manifest)
    paths["manifest"] = out / "manifest.json"
    return paths


def _manifest_config(path, command: str) -> dict:
    """The config section of a manifest that ``command`` wrote."""
    try:
        stored = io.read_manifest(path)
    except ValueError as exc:
        raise DataError(f"{path}: not a JSON manifest: {exc}") from exc
    if not isinstance(stored, dict) or not isinstance(stored.get("config"), dict):
        raise DataError(f"{path}: manifest has no config section")
    if stored.get("command") != command:
        raise ConfigError(f"{path} is not a {command} manifest")
    return stored["config"]


def _cmd_estimate(args: argparse.Namespace) -> int:
    if args.from_manifest:
        cfg_dict = _manifest_config(args.from_manifest, "estimate")
        if args.out_dir:
            cfg_dict["output_dir"] = args.out_dir
        try:
            config = RunConfig(**cfg_dict)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{args.from_manifest}: {exc}") from exc
    else:
        if not args.input or not args.out_dir or args.sample_rate is None:
            raise ConfigError("--input, --sample-rate, and --out-dir are required")
        config = RunConfig(
            method=args.method,
            input_path=args.input,
            output_dir=args.out_dir,
            sample_rate_hz=args.sample_rate,
            window_seconds=args.window_seconds,
            overlap_fraction=args.overlap,
            tapers=args.tapers,
            nw=args.nw,
            alpha=args.alpha,
            baseline_seconds=args.baseline_seconds,
            scale=args.scale,
            one_sided=not args.full_grid,
            demean=args.demean,
            em_tol=args.em_tol,
            em_max_iter=args.em_max_iter,
            input_format=args.input_format,
            output_format=args.format,
        )
    paths = run_pipeline(config)
    print(f"wrote {paths['spectrogram']}")
    return EXIT_OK


def _check_window_grid(window: int, hop: int, n_samples: int) -> None:
    """Reject a window length or hop, in samples, that cannot cut the record."""
    if window < 1:
        raise ConfigError(f"window must hold at least one sample, got {window}")
    if window > n_samples:
        raise ConfigError(
            f"window of {window} samples is longer than the {n_samples}-sample record"
        )
    if not 1 <= hop <= window:
        raise ConfigError(f"hop must lie in [1, {window}] samples, got {hop}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = {
        "duration_s": args.duration,
        "sample_rate_hz": args.sample_rate,
        "seed": args.seed,
        "snr_db": args.snr_db,
        "carrier_freq_hz": args.carrier_freq_hz,
        "window_seconds": args.window_seconds,
        "overlap": args.overlap,
        "full_grid": args.full_grid,
        "format": args.format,
        "out_dir": args.out_dir,
    }
    if args.from_manifest:
        stored = _manifest_config(args.from_manifest, "simulate")
        if args.out_dir:
            stored["out_dir"] = args.out_dir
        missing = sorted(cfg.keys() - stored.keys())
        unknown = sorted(stored.keys() - cfg.keys())
        if missing or unknown:
            raise ConfigError(
                f"{args.from_manifest}: simulate config has missing keys {missing} "
                f"and unknown keys {unknown}"
            )
        cfg = stored
    elif not args.out_dir:
        raise ConfigError("--out-dir is required")
    # a replayed config can hold values of any JSON type, so a TypeError
    # (or an integer too large for a float) here is a bad setting just
    # like a ValueError
    try:
        if not 0 < cfg["duration_s"] < math.inf:
            raise ConfigError("duration must be positive and finite")
        if not 0 < cfg["sample_rate_hz"] < math.inf:
            raise ConfigError("sample rate must be positive and finite")
        if not math.isfinite(cfg["window_seconds"]):
            raise ConfigError("window seconds must be finite")
        if not math.isfinite(cfg["carrier_freq_hz"]):
            raise ConfigError("carrier frequency must be finite")
        if math.isnan(cfg["snr_db"]):
            raise ConfigError("snr_db must not be NaN (inf means noise-free)")
        if not 0.0 <= cfg["overlap"] < 1.0:
            raise ConfigError("overlap must lie in [0, 1)")
        if cfg["format"] not in ("csv", "bin"):
            raise ConfigError("format must be 'csv' or 'bin'")
        out = Path(cfg["out_dir"])
        config = benchmark_config(
            duration_s=cfg["duration_s"],
            sample_rate_hz=cfg["sample_rate_hz"],
            seed=cfg["seed"],
            snr_db=cfg["snr_db"],
            carrier_freq_hz=cfg["carrier_freq_hz"],
        )
        window_samples = int(round(cfg["window_seconds"] * cfg["sample_rate_hz"]))
        hop = max(1, int(round(window_samples * (1.0 - cfg["overlap"]))))
        # the sample count gen_benchmark will produce, so a grid that cannot
        # cut the record fails before the record is generated
        n_samples = int(round(cfg["duration_s"] * cfg["sample_rate_hz"]))
        _check_window_grid(window_samples, hop, n_samples)
        series, truth = gen_benchmark(config)
        spect = truth.spectrogram(window_samples, hop, one_sided=not cfg["full_grid"])
    except (TypeError, ValueError, OverflowError) as exc:
        prefix = f"{args.from_manifest}: " if args.from_manifest else ""
        raise ConfigError(f"{prefix}{exc}") from exc

    out.mkdir(parents=True, exist_ok=True)
    signal_path = io.write_signal(out / "signal", series.samples, fmt=cfg["format"])
    io.write_matrix(out / "truth_spectrogram", spect.power, fmt=cfg["format"], scale=spect.scale)
    io.write_vector_csv(out / "truth_frequencies.csv", spect.frequencies_hz)
    io.write_vector_csv(out / "truth_times.csv", spect.window_times_s)
    io.write_manifest(
        out / "manifest.json",
        {"command": "simulate", "version": __version__, "config": cfg,
         "noise_var": truth.noise_var},
    )
    print(f"wrote {signal_path}")
    return EXIT_OK


def _load_spectrogram(directory: Path, names: tuple[str, ...]) -> Spectrogram:
    directory = Path(directory)
    stem = None
    for name in names:
        for suffix in (".csv", ".f32"):
            if (directory / f"{name}{suffix}").exists():
                stem = name
                break
        if stem:
            break
    if stem is None:
        raise DataError(f"no spectrogram found under {directory} (tried {', '.join(names)})")
    matrix_path = directory / f"{stem}.csv"
    if matrix_path.exists():
        power, meta = io.read_matrix_csv(matrix_path)
        scale = meta.get("scale", "linear")
    else:
        power = io.read_matrix_bin(directory / f"{stem}.f32")
        manifest_path = directory / "manifest.json"
        if not manifest_path.exists():
            raise DataError(f"{directory}: binary spectrogram without a manifest to supply its scale")
        manifest = io.read_manifest(manifest_path)
        scale = manifest.get("config", {}).get("scale", "linear")
    prefix = "truth_" if stem.startswith("truth_") else ""
    freqs = io.read_vector_csv(directory / f"{prefix}frequencies.csv")
    times = io.read_vector_csv(directory / f"{prefix}times.csv")
    spect = Spectrogram(power, freqs, times, scale=scale)
    return spect.to_linear()


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
        try:
            window = int(round(args.window_seconds * args.sample_rate))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"window sample count out of range: {exc}") from exc
    else:
        raise ConfigError("give --window-length, or --window-seconds with --sample-rate")
    nw = args.nw if args.nw is not None else (args.tapers + 1) / 2.0
    try:
        bank = dpss(window, nw, args.tapers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    io.write_matrix(out / "tapers", bank.tapers, fmt=args.format)
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
    print(f"wrote {out / 'tapers'}.{ 'csv' if args.format == 'csv' else 'f32' }")
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
    sim.add_argument("--duration", type=float, default=600.0, help="record length in seconds")
    sim.add_argument("--sample-rate", type=float, default=36.0)
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

    est = sub.add_parser("estimate", help="estimate a spectrogram from a signal file")
    est.add_argument("--input", help="signal file (csv or raw little-endian float64)")
    est.add_argument("--input-format", choices=("csv", "bin"), default=None,
                     help="inferred from the extension when omitted")
    est.add_argument("--sample-rate", type=float)
    est.add_argument("--method", choices=("mt", "ssmt", "assmt"), default="mt")
    est.add_argument("--out-dir")
    est.add_argument("--window-seconds", type=float, default=6.0)
    est.add_argument("--overlap", type=float, default=0.0)
    est.add_argument("--tapers", type=int, default=3)
    est.add_argument("--nw", type=float, default=None,
                     help="time-bandwidth product; default (tapers + 1) / 2")
    est.add_argument("--alpha", type=float, default=0.95)
    est.add_argument("--baseline-seconds", type=float, default=0.0,
                     help="initial stretch used to fit model parameters")
    est.add_argument("--scale", choices=("linear", "dB"), default="dB")
    est.add_argument("--full-grid", action="store_true")
    est.add_argument("--demean", action="store_true", help="remove each window's mean")
    est.add_argument("--em-tol", type=float, default=1e-6)
    est.add_argument("--em-max-iter", type=int, default=100)
    est.add_argument("--format", choices=("csv", "bin"), default="csv")
    est.add_argument("--from-manifest", help="replay a previous estimate run")
    est.set_defaults(func=_cmd_estimate)

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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
