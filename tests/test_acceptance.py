"""End-to-end checks of the package's published claims.

Each test covers one claim, evaluates it completely, and emits a single
PASS or FAIL line (visible with ``pytest -s``) before asserting, so a
full run reads as a checklist.  Tolerances are stated next to the
assertions; none of them are tuned to the implementation, only to the
arithmetic involved.
"""
import time
import warnings

import numpy as np
from oracles import (
    dense_concentration_matrix,
    gaussian_conditioning_means,
    random_walk_realization,
)

from statespec import (
    AdaptiveParams,
    EMConfig,
    EigenCoefficients,
    NonstationarityTracker,
    TimeSeries,
    adaptive_state_variance,
    ar_coefficients,
    assmt_filter,
    assmt_spectrogram,
    benchmark_config,
    dpss,
    eigen_coefficients,
    em_fit,
    ema_update,
    filter_all,
    gen_benchmark,
    gen_regime_switch,
    itakura_saito,
    kalman_gain,
    kalman_step,
    FilterState,
    mt_spectrogram,
    segment,
    ssmt_spectrogram,
    steady_state_gain,
)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _fit_quiet(obs, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return em_fit(obs, config)


def _first_windows(eig: EigenCoefficients, k: int) -> EigenCoefficients:
    return EigenCoefficients(
        coeffs=eig.coeffs[:k],
        frequencies_hz=eig.frequencies_hz,
        window_times_s=eig.window_times_s[:k],
    )


def _ll_non_decreasing(fit) -> bool:
    # exact EM ascends; allow only round-off shadow
    lls = fit.log_likelihoods
    return bool(np.all(np.diff(lls) >= -1e-10 * np.abs(lls[:-1])))


# ---------------------------------------------------------------------------
# Benchmark ordering.  Divergence levels the benchmark was designed
# around, one per method; a run is accepted within a factor of 1.5 of
# each and the ordering must be strict on every seed.

BENCH_TARGET = {"mt": 6.51, "ssmt": 3.16, "assmt": 2.75}
BENCH_SEEDS = (0, 1, 2, 3, 4)
BENCH_TIME_BUDGET_S = 60.0


def _benchmark_divergences(seed: int):
    """MT, fixed-filter, and adaptive-filter divergence on one record.

    The fixed filter gets variances fitted on the whole record; the
    adaptive filter gets a baseline fitted on the first half only and
    must handle the rest through its tracker.  Both filters start at the
    first observation so neither pays a ramp-in penalty at bins far
    above the zero-mean prior.
    """
    cfg = benchmark_config(seed=seed)
    series, truth = gen_benchmark(cfg)
    j = int(round(6.0 * cfg.sample_rate_hz))
    eig = eigen_coefficients(segment(series, j), dpss(j, 2.0, 3))
    tru = truth.spectrogram(j, one_sided=True)
    is_mt = itakura_saito(mt_spectrogram(eig, one_sided=True), tru).total

    fit_full = _fit_quiet(eig, EMConfig(max_iter=100))
    fit_base = _fit_quiet(
        _first_windows(eig, eig.coeffs.shape[0] // 2), EMConfig(max_iter=100)
    )
    assert _ll_non_decreasing(fit_full) and _ll_non_decreasing(fit_base)

    shape = fit_full.params.state_var.shape
    init_mean = eig.coeffs[0]
    trace = filter_all(
        eig,
        fit_full.params,
        init_mean=init_mean,
        init_var=np.broadcast_to(fit_full.params.obs_var[None, :], shape).copy(),
    )
    is_ssmt = itakura_saito(ssmt_spectrogram(trace, one_sided=True), tru).total

    tr_adaptive, _, _ = assmt_filter(
        eig,
        AdaptiveParams.from_model_params(fit_base.params),
        alpha=0.95,
        init_mean=init_mean,
        init_var=np.broadcast_to(fit_base.params.obs_var[None, :], shape).copy(),
    )
    is_assmt = itakura_saito(assmt_spectrogram(tr_adaptive, one_sided=True), tru).total
    return is_mt, is_ssmt, is_assmt


def test_benchmark_ordering():
    rows = []
    slowest = 0.0
    for seed in BENCH_SEEDS:
        t0 = time.perf_counter()
        rows.append(_benchmark_divergences(seed))
        slowest = max(slowest, time.perf_counter() - t0)
    rows = np.array(rows)
    mt, ssmt, assmt = rows.T
    ordered = bool(np.all(assmt < ssmt) and np.all(ssmt < mt))
    in_band = all(
        np.all(vals >= 0.5 * BENCH_TARGET[name]) and np.all(vals <= 1.5 * BENCH_TARGET[name])
        for name, vals in (("mt", mt), ("ssmt", ssmt), ("assmt", assmt))
    )
    fast = slowest < BENCH_TIME_BUDGET_S
    _verdict(
        "benchmark ordering: adaptive < fixed < multitaper on every seed",
        ordered and in_band and fast,
        f"{len(BENCH_SEEDS)} seeds, means MT {mt.mean():.2f} / fixed {ssmt.mean():.2f} "
        f"/ adaptive {assmt.mean():.2f}, slowest seed {slowest:.1f}s",
    )


# ---------------------------------------------------------------------------
# Filtered means against brute-force joint-Gaussian conditioning.


def test_filter_matches_conditioning_oracle():
    rng = np.random.default_rng(41)
    trials = 100
    worst = 0.0
    for _ in range(trials):
        k = int(rng.integers(1, 7))
        j = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        state_var = rng.uniform(0.0, 2.0, size=(j, m))
        state_var[rng.uniform(size=(j, m)) < 0.1] = 0.0
        obs_var = rng.uniform(0.1, 2.0, size=m)
        init_mean = rng.standard_normal((j, m)) + 1j * rng.standard_normal((j, m))
        init_var = rng.uniform(0.0, 2.0, size=(j, m))
        scale = 10.0 ** rng.uniform(-1, 1)
        coeffs = scale * (
            rng.standard_normal((k, j, m)) + 1j * rng.standard_normal((k, j, m))
        )
        eig = EigenCoefficients(
            coeffs=coeffs,
            frequencies_hz=np.arange(j, dtype=float),
            window_times_s=np.arange(k, dtype=float),
        )
        from statespec import ModelParams

        trace = filter_all(
            eig,
            ModelParams(state_var=state_var, obs_var=obs_var),
            init_mean=init_mean,
            init_var=init_var,
        )
        for jj in range(j):
            for mm in range(m):
                want = gaussian_conditioning_means(
                    coeffs[:, jj, mm],
                    state_var[jj, mm],
                    obs_var[mm],
                    init_mean=init_mean[jj, mm],
                    init_var=init_var[jj, mm],
                )
                got = trace.means[:, jj, mm]
                err = np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-12)
                worst = max(worst, err)
    _verdict(
        "filtered means equal joint-Gaussian conditioning",
        worst <= 1e-8,
        f"{trials} trials, worst relative error {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# EM recovery of known variances.


def _model_draw(rng, k, state_var, obs_var):
    j, m = state_var.shape
    coeffs = np.empty((k, j, m), dtype=complex)
    for jj in range(j):
        for mm in range(m):
            _, y = random_walk_realization(rng, k, state_var[jj, mm], obs_var[mm])
            coeffs[:, jj, mm] = y
    return EigenCoefficients(
        coeffs=coeffs,
        frequencies_hz=np.arange(j, dtype=float),
        window_times_s=np.arange(k, dtype=float),
    )


def test_em_recovers_known_variances():
    cases = [
        (np.array([[0.8, 2.0], [1.5, 0.6]]), np.array([1.0, 0.7]), 11),
        (np.array([[0.4], [1.0], [2.5]]), np.array([0.5]), 12),
        (np.array([[5.0], [0.9]]), np.array([2.0]), 13),
    ]
    worst = 0.0
    monotone = True
    for state_var, obs_var, seed in cases:
        rng = np.random.default_rng(seed)
        eig = _model_draw(rng, 2000, state_var, obs_var)
        fit = _fit_quiet(eig, EMConfig(tol=1e-8, max_iter=400))
        monotone &= _ll_non_decreasing(fit)
        worst = max(
            worst,
            float(np.max(np.abs(fit.params.state_var - state_var) / state_var)),
            float(np.max(np.abs(fit.params.obs_var - obs_var) / obs_var)),
        )
    _verdict(
        "em recovers known variances within 15%, likelihood never decreases",
        worst <= 0.15 and monotone,
        f"{len(cases)} instances of 2000 windows, worst relative error {worst:.3f}",
    )


# ---------------------------------------------------------------------------
# Steady-state gain: iterated recursion against the closed form.


def test_steady_state_gain_reaches_closed_form():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        obs_var = 10.0 ** rng.uniform(-3, 3)
        state_var = obs_var * 10.0 ** rng.uniform(-2, 2)
        var = state_var
        gain = 0.0
        for _ in range(200):
            gain = kalman_gain(var, state_var, obs_var)
            var = (1.0 - gain) * (var + state_var)
        worst = max(worst, abs(gain - steady_state_gain(state_var, obs_var)))
    golden = abs(steady_state_gain(1.0, 1.0) - (np.sqrt(5.0) - 1.0) / 2.0)
    _verdict(
        "iterated gain recursion reaches the closed form",
        worst <= 1e-10 and golden <= 1e-10,
        f"20 pairs within 200 iterations, worst gap {worst:.2e}, "
        f"unit-ratio gap {golden:.2e}",
    )


# ---------------------------------------------------------------------------
# Taper bank against dense concentration-matrix eigenvectors.


def test_tapers_match_dense_eigenvectors():
    worst = 0.0
    for j in (8, 16, 32):
        nw, m = 2.5, 4
        bank = dpss(j, nw, m)
        dense = dense_concentration_matrix(j, nw / j)
        _, vecs = np.linalg.eigh(dense)
        vecs = vecs[:, ::-1][:, :m]  # most concentrated first
        for i in range(m):
            v = vecs[:, i]
            if v @ bank.tapers[i] < 0:
                v = -v
            worst = max(worst, float(np.max(np.abs(v - bank.tapers[i]))))
    big = dpss(1000, 3.0, 5)
    gram_err = float(np.max(np.abs(big.tapers @ big.tapers.T - np.eye(5))))
    _verdict(
        "taper bank equals dense eigenvectors and stays orthonormal",
        worst <= 1e-6 and gram_err <= 1e-8,
        f"J in (8, 16, 32) worst gap {worst:.2e}; J=1000 gram error {gram_err:.2e}",
    )


# ---------------------------------------------------------------------------
# Reduction: when the tracker never crosses the threshold, the adaptive
# filter must reproduce the fixed filter.


def test_adaptive_reduces_to_fixed_filter_below_threshold():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(3, 13))
        j = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        state_var = rng.uniform(0.0, 1.5, size=(j, m))
        obs_var = rng.uniform(0.5, 2.0, size=m)
        # a nearly constant record: squared differences stay far below
        # twice the observation noise, so the moving average can never
        # exceed the threshold
        start = rng.standard_normal((j, m)) + 1j * rng.standard_normal((j, m))
        steps = 1e-3 * (
            rng.standard_normal((k, j, m)) + 1j * rng.standard_normal((k, j, m))
        )
        coeffs = start[None, :, :] + np.cumsum(steps, axis=0)
        eig = EigenCoefficients(
            coeffs=coeffs,
            frequencies_hz=np.arange(j, dtype=float),
            window_times_s=np.arange(k, dtype=float),
        )
        from statespec import ModelParams

        params = ModelParams(state_var=state_var, obs_var=obs_var)
        fixed = ssmt_spectrogram(filter_all(eig, params))
        tr, sv_used, _ = assmt_filter(eig, AdaptiveParams.from_model_params(params))
        assert np.array_equal(sv_used, np.broadcast_to(state_var, sv_used.shape))
        moving = assmt_spectrogram(tr)
        worst = max(worst, float(np.max(np.abs(moving.power - fixed.power))))
    _verdict(
        "adaptive filter reduces to the fixed filter on quiet inputs",
        worst <= 1e-12,
        f"50 cases, worst elementwise gap {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# Regime-switch tracking.  A narrow 10 Hz band hides at a tenth of the
# noise floor, jumps by a factor of 100 for 15 seconds, and drops back.
# The adaptive filter must notice both switches within 3 windows and
# follow the band power to within 3 dB of the multitaper estimate, while
# the fixed filter, stuck with baseline variances, must stay more than
# 10 dB below it.


def test_regime_switch_tracking():
    fs = 50.0
    j = int(fs)
    t_up, t_down, duration = 60.0, 75.0, 110.0
    rng = np.random.default_rng(0)
    base_coeffs = ar_coefficients([10.0], [0.95], fs)

    # innovation scale so the band peak sits at a tenth of the per-bin
    # noise power during the quiet segments
    omega = 2.0 * np.pi * np.arange(4096) / 4096
    a = np.r_[1.0, -base_coeffs]
    peak = float(
        (1.0 / np.abs(np.exp(-1j * np.outer(omega, np.arange(a.size))) @ a) ** 2).max()
    )
    innovation_std = np.sqrt(0.1 / peak)

    banded = gen_regime_switch(
        [1.0, 100.0, 1.0], [t_up, t_down], duration, fs, base_coeffs,
        rng, innovation_std=innovation_std,
    )
    series = TimeSeries(
        samples=banded.samples + rng.standard_normal(banded.samples.size),
        sample_rate_hz=fs,
    )
    eig = eigen_coefficients(segment(series, j), dpss(j, 2.0, 3))
    k_up, k_down = int(t_up), int(t_down)

    fit = _fit_quiet(_first_windows(eig, k_up), EMConfig(max_iter=600))
    params = AdaptiveParams.from_model_params(fit.params)
    tr_fixed = filter_all(eig, fit.params)
    tr_adaptive, sv_trace, _ = assmt_filter(eig, params)

    mt = mt_spectrogram(eig, one_sided=True)
    fixed = ssmt_spectrogram(tr_fixed, one_sided=True)
    moving = assmt_spectrogram(tr_adaptive, one_sided=True)
    band = (mt.frequencies_hz >= 8.0) & (mt.frequencies_hz <= 12.0)
    n_bins = j // 2 + 1

    crossed = (
        sv_trace[:, :n_bins, :][:, band, :] > params.threshold[:n_bins][band][None]
    ).any(axis=(1, 2))
    detected = bool(crossed[k_up:k_up + 3].any() and crossed[k_down:k_down + 3].any())

    high = slice(k_up, k_down)
    band_power = lambda sp: sp.power[:, band].sum(axis=1)
    adaptive_off = 10.0 * np.log10(band_power(moving)[high] / band_power(mt)[high])
    fixed_off = 10.0 * np.log10(band_power(fixed)[high] / band_power(mt)[high])
    adaptive_tracks = bool(
        np.any(np.abs(adaptive_off) <= 3.0) and np.median(np.abs(adaptive_off)) <= 3.0
    )
    fixed_stuck = bool(np.all(fixed_off < -10.0))

    _verdict(
        "regime switches detected and tracked; fixed filter left behind",
        detected and adaptive_tracks and fixed_stuck,
        f"detected {detected}, adaptive median offset "
        f"{np.median(np.abs(adaptive_off)):.1f} dB, fixed filter at best "
        f"{fixed_off.max():.1f} dB below multitaper",
    )


# ---------------------------------------------------------------------------
# Speed: one adaptive pass against 20 full-record EM iterations on a
# 30-minute record.


def test_adaptive_pass_beats_full_refit_tenfold():
    cfg = benchmark_config(duration_s=1800.0, seed=0)
    series, _ = gen_benchmark(cfg)
    j = int(round(6.0 * cfg.sample_rate_hz))
    eig = eigen_coefficients(segment(series, j), dpss(j, 2.0, 3))
    baseline = _fit_quiet(
        _first_windows(eig, eig.coeffs.shape[0] // 2), EMConfig(max_iter=50)
    )
    params = AdaptiveParams.from_model_params(baseline.params)

    t0 = time.perf_counter()
    _fit_quiet(eig, EMConfig(tol=0.0, max_iter=20))
    em_seconds = time.perf_counter() - t0

    adaptive_seconds = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        trace, _, _ = assmt_filter(eig, params, alpha=0.95)
        assmt_spectrogram(trace, one_sided=True)
        adaptive_seconds = min(adaptive_seconds, time.perf_counter() - t0)

    ratio = em_seconds / adaptive_seconds
    _verdict(
        "single adaptive pass is at least 10x faster than a full refit",
        ratio >= 10.0,
        f"EM 20 iterations {em_seconds:.2f}s, adaptive pass "
        f"{adaptive_seconds * 1e3:.0f}ms, ratio {ratio:.0f}x",
    )


# ---------------------------------------------------------------------------
# Invariant suites, 1000 randomized cases each.

N_CASES = 1000


def test_gain_stays_in_unit_interval():
    rng = np.random.default_rng(311)
    prior = np.abs(rng.standard_normal(N_CASES)) * 10.0 ** rng.uniform(-3, 3, N_CASES)
    state = np.abs(rng.standard_normal(N_CASES)) * 10.0 ** rng.uniform(-3, 3, N_CASES)
    prior[rng.uniform(size=N_CASES) < 0.05] = 0.0
    state[rng.uniform(size=N_CASES) < 0.05] = 0.0
    obs = 10.0 ** rng.uniform(-6, 3, N_CASES)
    gains = kalman_gain(prior, state, obs)
    ok = bool(np.all(gains >= 0.0) and np.all(gains < 1.0))
    _verdict(
        "gain stays in [0, 1)",
        ok,
        f"{N_CASES} cases, range [{gains.min():.3e}, {gains.max():.10f}]",
    )


def test_posterior_variance_never_negative():
    rng = np.random.default_rng(313)
    worst = np.inf
    for _ in range(N_CASES):
        prev = FilterState(
            mean=complex(rng.standard_normal(), rng.standard_normal()),
            variance=float(np.abs(rng.standard_normal()) * 10.0 ** rng.uniform(-4, 4)),
            gain=float(rng.uniform(0.0, 1.0)),
        )
        state = kalman_step(
            prev,
            complex(rng.standard_normal(), rng.standard_normal()),
            float(np.abs(rng.standard_normal()) * 10.0 ** rng.uniform(-4, 4)),
            float(10.0 ** rng.uniform(-4, 4)),
        )
        worst = min(worst, state.variance)
    _verdict(
        "posterior variance never negative",
        worst >= 0.0,
        f"{N_CASES} cases, smallest variance {worst:.3e}",
    )


def test_adaptive_variance_respects_baseline_floor():
    rng = np.random.default_rng(317)
    ok = True
    for _ in range(N_CASES):
        j = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        ema = np.abs(rng.standard_normal((j, m))) * 10.0 ** rng.uniform(-3, 3)
        baseline = np.abs(rng.standard_normal((j, m))) * 10.0 ** rng.uniform(-3, 3)
        obs = 10.0 ** rng.uniform(-3, 3, size=m)
        out = adaptive_state_variance(ema, baseline, obs[None, :])
        ok &= bool(np.all(out >= baseline))
    _verdict("adaptive state variance never drops below the baseline", ok,
             f"{N_CASES} cases")


def test_tapered_transform_preserves_energy():
    rng = np.random.default_rng(331)
    banks = {}
    worst = 0.0
    for _ in range(N_CASES):
        j = int(rng.integers(8, 65))
        if j not in banks:
            banks[j] = dpss(j, 2.0, 3)
        bank = banks[j]
        x = rng.standard_normal(j) * 10.0 ** rng.uniform(-2, 2)
        series = TimeSeries(samples=x, sample_rate_hz=float(j))
        eig = eigen_coefficients(segment(series, j), bank)
        # bins 0..J//2 are stored; bins 1..J - J//2 - 1 stand for their mirrors too
        weight = np.ones(j // 2 + 1)
        weight[1 : j - j // 2] = 2.0
        for m in range(bank.num_tapers):
            spectral = float(np.sum(weight * np.abs(eig.coeffs[0, :, m]) ** 2))
            temporal = float(np.sum((bank.tapers[m] * x) ** 2))
            worst = max(worst, abs(spectral - temporal) / temporal)
    _verdict(
        "tapered transform preserves energy",
        worst <= 1e-9,
        f"{N_CASES} cases, worst relative mismatch {worst:.2e}",
    )


def test_tracker_degenerate_weights():
    rng = np.random.default_rng(337)
    ok = True
    for i in range(N_CASES):
        j = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        ema = np.abs(rng.standard_normal((j, m)))
        prev = rng.standard_normal((j, m)) + 1j * rng.standard_normal((j, m))
        obs = rng.standard_normal((j, m)) + 1j * rng.standard_normal((j, m))
        alpha = float(i % 2)  # alternate the two degenerate weights
        tracker = NonstationarityTracker(ema=ema, alpha=alpha, prev_obs=prev)
        updated = ema_update(tracker, obs)
        diff = obs - prev
        diff2 = diff.real**2 + diff.imag**2
        # a second tracker with a different starting average: weight 1
        # must erase it, weight 0 must ignore the observation entirely
        other = ema_update(
            NonstationarityTracker(ema=ema + 1.0, alpha=alpha, prev_obs=prev), obs
        )
        if alpha == 0.0:
            ok &= bool(np.array_equal(updated.ema, ema))
            ok &= bool(np.array_equal(other.ema, ema + 1.0))
        else:
            ok &= bool(np.array_equal(updated.ema, diff2))
            ok &= bool(np.array_equal(other.ema, updated.ema))
        ok &= bool(np.array_equal(updated.prev_obs, obs))
    _verdict("tracker weights 0 and 1 behave exactly", ok, f"{N_CASES} cases")
