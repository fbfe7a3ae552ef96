"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive: dense matrices, explicit loops,
textbook formulas.  Slowness is the point; these must be obviously
correct rather than efficient.
"""
from pathlib import Path

import numpy as np

from statespec import io
from statespec.adaptive import AdaptiveParams, assmt_filter
from statespec.segmentation import EigenCoefficients, TimeSeries, eigen_coefficients, segment
from statespec.ssm import (
    EMConfig,
    ModelParams,
    em_fit,
    filter_all,
    mt_spectrogram,
    ssmt_spectrogram,
)
from statespec.tapers import dpss


def gaussian_conditioning_means(observations, state_var, obs_var, init_mean=0.0, init_var=None):
    """Filtered means of one chain by brute-force joint-Gaussian conditioning.

    The latent walk and the observations are jointly circular complex
    Gaussian, so E[Z_k | Y_1..Y_k] follows from the covariance blocks
    Cov(Z_i, Z_j) = init_var + state_var * min(i, j) (1-based) and
    Cov(Y_i, Y_j) = Cov(Z_i, Z_j) + obs_var * delta_ij.
    """
    y = np.asarray(observations, dtype=complex)
    k_windows = y.size
    if init_var is None:
        init_var = state_var
    idx = np.arange(1, k_windows + 1)
    cov_z = init_var + state_var * np.minimum(idx[:, None], idx[None, :])
    means = np.empty(k_windows, dtype=complex)
    for k in range(1, k_windows + 1):
        cov_yy = cov_z[:k, :k] + obs_var * np.eye(k)
        cov_zy = cov_z[k - 1, :k]
        weights = np.linalg.solve(cov_yy, cov_zy)
        means[k - 1] = init_mean + weights @ (y[:k] - init_mean)
    return means


def dense_log_likelihood(coeffs, state_var, obs_var, init_var, weight):
    """Exact log-likelihood of (K, B, M) ``coeffs`` from each chain's dense covariance.

    Chain (b, m) is circular complex Gaussian with zero mean and
    Cov(Y_k, Y_l) = init_var + state_var * min(k, l) + obs_var * delta_kl
    (1-based), so its log density is -(K log pi + log det C + y^H C^-1 y);
    it counts ``weight[b]`` times.
    """
    k_windows = coeffs.shape[0]
    idx = np.arange(1, k_windows + 1)
    cov = (init_var[..., None, None] + state_var[..., None, None] * np.minimum.outer(idx, idx)
           + obs_var[:, None, None] * np.eye(k_windows))  # (B, M, K, K)
    chol = np.linalg.cholesky(cov)
    # the real and imaginary parts as two real columns: |L^-1 y|^2 summed over both
    parts = np.stack([coeffs.real, coeffs.imag], axis=-1).transpose(1, 2, 0, 3)
    white = np.linalg.solve(chol, parts)
    log_det = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    ll = -(k_windows * np.log(np.pi) + log_det + (white**2).sum(axis=(-2, -1)))
    return float((weight[:, None] * ll).sum())


def random_walk_realization(rng, k_windows, state_var, obs_var, init_var=None):
    """Draw (latent, observed) from the scalar complex random-walk model."""
    if init_var is None:
        init_var = state_var

    def draw(var, size=None):
        scale = np.sqrt(var / 2.0)
        return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))

    z = np.empty(k_windows, dtype=complex)
    z_prev = draw(init_var)
    for k in range(k_windows):
        z_prev = z_prev + draw(state_var)
        z[k] = z_prev
    y = z + draw(obs_var, k_windows)
    return z, y


def dense_concentration_matrix(j, half_bandwidth):
    """Sinc-kernel operator whose leading eigenvectors are the tapers."""
    t = np.arange(j)
    diff = t[:, None] - t[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        mat = np.sin(2.0 * np.pi * half_bandwidth * diff) / (np.pi * diff)
    mat[np.diag_indices(j)] = 2.0 * half_bandwidth
    return mat


def correlate_concentration(taper, half_bandwidth):
    """In-band energy fraction from the O(J^2) direct autocorrelation."""
    j = taper.size
    acf = np.correlate(taper, taper, mode="full")[j:]  # lags 1 .. J-1
    lags = np.arange(1, j)
    kernel = np.sin(2.0 * np.pi * half_bandwidth * lags) / (np.pi * lags)
    return 2.0 * half_bandwidth * float(taper @ taper) + 2.0 * float(kernel @ acf)


def one_shot_eigen_coefficients(windows, tapers):
    """(K, J//2 + 1, M) coefficients from one tapered product and one rfft of them all.

    The whole-record transform `statespec.segmentation.eigen_coefficients`
    made before it ran in blocks of windows, with its strided layout: bins
    contiguous per (window, taper).
    """
    k = windows.shape[0]
    m = tapers.shape[0]
    half = np.fft.rfft(windows[:, :, None] * tapers.T[None, :, :], axis=1, norm="ortho")
    coeffs = np.empty((k, m, half.shape[1]), dtype=complex).transpose(0, 2, 1)
    coeffs[...] = half
    return coeffs


def full_grid_coefficients(half, j):
    """All J bins of a real signal's coefficients from its bins 0..J//2.

    Bin J - j is the conjugate of bin j.  The layout is the strided one of
    `one_shot_eigen_coefficients`, bins contiguous per (window, taper).
    """
    k, h, m = half.shape
    coeffs = np.empty((k, m, j), dtype=complex).transpose(0, 2, 1)
    coeffs[:, :h] = half
    np.conjugate(half[:, j - h : 0 : -1], out=coeffs[:, h:])
    return coeffs


def matrix_csv_text(values, scale=None):
    """Matrix CSV text, one f-string per value."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    header = f"# rows={values.shape[0]} cols={values.shape[1]}"
    if scale is not None:
        header += f" scale={scale}"
    lines = [header]
    lines.extend(",".join(f"{v:.9g}" for v in row) for row in values)
    return "\n".join(lines) + "\n"


def read_matrix_csv_rows(path):
    """Matrix and header fields from a CSV file, one numpy row per line."""
    text = Path(path).read_text().strip().splitlines()
    meta = {}
    start = 0
    if text and text[0].startswith("#"):
        for token in text[0].lstrip("#").split():
            if "=" in token:
                key, _, value = token.partition("=")
                meta[key] = value
        start = 1
    rows = [np.array([float(v) for v in line.split(",")]) for line in text[start:] if line]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    values = np.vstack(rows)
    expected = (int(meta["rows"]), int(meta["cols"])) if "rows" in meta and "cols" in meta else None
    if expected is not None and values.shape != expected:
        raise ValueError(f"{path}: header says {expected}, data is {values.shape}")
    return values, meta


def signal_csv_text(samples):
    """Signal CSV text, one f-string per sample."""
    samples = np.asarray(samples, dtype=float)
    return "\n".join(f"{v:.17g}" for v in samples) + "\n"


def parse_signal_csv(text):
    """Signal samples from CSV text, one line at a time."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        return np.array([])
    try:
        float(lines[0].split(",")[0])
    except ValueError:
        lines = lines[1:]
    return np.array([float(line.split(",")[0]) for line in lines])


def full_grid_em(coeffs, tol=1e-6, max_iter=50):
    """EM on every (bin, taper) chain, mirrored bins included.

    Moment start, then E-step and M-step over the full grid with
    unweighted means, in the same arithmetic as `statespec.ssm.em_fit`.
    That fit must match this one bit for bit on the same J bins, and to
    round-off on a real signal's bins 0..J//2, of which this one gets the
    conjugate-unfolded grid.
    Returns ``(state_var, obs_var, log_likelihoods, converged)``.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    k_windows, j_bins, m_tapers = coeffs.shape
    dbar = (np.abs(np.diff(coeffs, axis=0)) ** 2).mean(axis=0)
    obs_var = np.maximum(0.25 * np.median(dbar, axis=0), np.finfo(float).tiny)
    state_var = np.maximum(dbar - 2.0 * obs_var[None, :], 0.05 * dbar)
    state_var = np.maximum(state_var, np.finfo(float).tiny)
    init_var = state_var.copy()

    lls = []
    converged = False
    for _ in range(max_iter):
        zf, pf, _ = allocating_forward_pass(coeffs, state_var, obs_var, init_var=init_var)
        pp = pf[:-1] + state_var
        innov = coeffs - zf[:-1]
        innov_var = pp + obs_var[None, :]
        nll = (innov.real**2 + innov.imag**2) / innov_var + np.log(np.pi * innov_var)
        lls.append(-float(np.cumsum(nll.sum(axis=(1, 2)))[-1]))
        if len(lls) > 1 and abs(lls[-1] - lls[-2]) <= tol * abs(lls[-2]):
            converged = True
            break

        zs = np.empty_like(zf)
        ps = np.empty_like(pf)
        zs[k_windows] = zf[k_windows]
        ps[k_windows] = pf[k_windows]
        sgain = np.empty((k_windows, j_bins, m_tapers))
        for k in range(k_windows - 1, -1, -1):
            g = pf[k] / pp[k]
            zs[k] = zf[k] + g * (zs[k + 1] - zf[k])
            ps[k] = pf[k] + g**2 * (ps[k + 1] - pp[k])
            sgain[k] = g

        # E|Z_{k+1} - Z_k|^2 with Cov(Z_{k+1}, Z_k | all data) = sgain[k] ps[k+1]
        dz = zs[1:] - zs[:-1]
        increments = dz.real**2 + dz.imag**2 + ps[:-1] + (1.0 - 2.0 * sgain) * ps[1:]
        state_var = np.maximum(increments.mean(axis=0), 0.0)
        resid = np.abs(coeffs - zs[1:]) ** 2 + ps[1:]
        obs_var = np.maximum(resid.mean(axis=(0, 1)), np.finfo(float).tiny)
    return state_var, obs_var, np.asarray(lls), converged


def allocating_em(coeffs, j_bins, tol=1e-6, max_iter=50):
    """`statespec.ssm.em_fit` as it was before it smoothed in place: a frozen copy.

    Separate smoothed arrays beside the filter's, a complex innovation and a
    complex window difference, and each iteration's moments held while the
    next E-step runs.  ``coeffs`` holds B of the ``j_bins`` grid bins, B = J
    or J//2 + 1, and bins 1..J - B count twice.  The fit must match this
    one bit for bit.  Returns ``(state_var, obs_var, log_likelihoods,
    n_iter, converged)``.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=complex)
    k_windows, b_bins, _ = coeffs.shape
    weight = np.ones(b_bins)
    weight[1 : j_bins - b_bins + 1] = 2.0
    diff2 = np.abs(np.diff(coeffs, axis=0)) ** 2
    dbar = diff2.mean(axis=0)
    obs_var = 0.25 * np.median(np.repeat(dbar, weight.astype(int), axis=0), axis=0)
    obs_var = np.maximum(obs_var, np.finfo(float).tiny)
    state_var = np.maximum(dbar - 2.0 * obs_var[None, :], 0.05 * dbar)
    state_var = np.maximum(state_var, np.finfo(float).tiny)
    init_var = state_var

    lls = []
    converged = False
    for _ in range(max_iter):
        zf, pf = allocating_forward_pass(coeffs, state_var, obs_var, init_var=init_var)[:2]
        pp = pf[:-1] + state_var
        innov = coeffs - zf[:-1]
        innov_var = pp + obs_var[None, :]
        nll = innov.real**2 + innov.imag**2
        nll /= innov_var
        innov_var *= np.pi
        nll += np.log(innov_var, out=innov_var)
        nll *= weight[:, None]
        lls.append(-float(np.cumsum(nll.sum(axis=(1, 2)))[-1]))
        zs = np.empty_like(zf)
        ps = np.empty_like(pf)
        zs[k_windows] = zf[k_windows]
        ps[k_windows] = pf[k_windows]
        sgain = pf[:-1] / pp
        for k in range(k_windows - 1, -1, -1):
            g = sgain[k]
            zs[k] = zf[k] + g * (zs[k + 1] - zf[k])
            ps[k] = pf[k] + g**2 * (ps[k + 1] - pp[k])
        if len(lls) > 1 and abs(lls[-1] - lls[-2]) <= tol * abs(lls[-2]):
            converged = True
            break
        dz = zs[1:] - zs[:-1]
        increments = dz.real**2 + dz.imag**2 + ps[:-1] + (1.0 - 2.0 * sgain) * ps[1:]
        state_var = np.maximum(increments.mean(axis=0), 0.0)
        resid = np.abs(coeffs - zs[1:]) ** 2 + ps[1:]
        resid *= weight[:, None]
        obs_var = np.maximum(resid.sum(axis=(0, 1)) / (k_windows * j_bins), np.finfo(float).tiny)
    return state_var, obs_var, np.asarray(lls), len(lls), converged


def allocating_forward_pass(coeffs, state_var, obs_var, init_mean=None, init_var=None):
    """`statespec.ssm._forward_pass` as it was before it wrote into rows made
    once: a frozen copy.

    Each window indexes its rows and makes its own temporaries, and the gain
    is cast to complex by numpy for g (y - m).  ``state_var`` is (B, M) or
    (K, B, M).  The fast path must match this one bit for bit.  Returns
    ``(means, variances, gains)``, means and variances with the prior in row 0.
    """
    shape = coeffs.shape[1:]
    state_var = np.broadcast_to(state_var, coeffs.shape)
    mean = np.zeros(shape, complex) if init_mean is None else np.asarray(init_mean, complex)
    var = state_var[0] if init_var is None else np.asarray(init_var, float)
    obs_var = np.broadcast_to(obs_var, shape).copy()
    means = np.empty((len(coeffs) + 1, *shape), dtype=complex)
    variances = np.empty((len(coeffs) + 1, *shape))
    gains = np.empty(coeffs.shape)
    means[0] = mean
    variances[0] = var
    for k in range(len(coeffs)):
        prior = variances[k] + state_var[k]
        gain = np.divide(prior, obs_var + prior, out=gains[k])
        np.add(means[k], gain * (coeffs[k] - means[k]), out=means[k + 1])
        np.multiply(1.0 - gain, prior, out=variances[k + 1])
    return means, variances, gains


def lag_one_covariance_recursion(pf, sgain, last_gain):
    """Cov(Z_{k+1}, Z_k | all data) by its own backward recursion.

    The lag-one recursion of Shumway and Stoffer (Property 6.3) for the
    random walk: ``pf`` holds the K + 1 filtered variances (row 0 the
    prior), ``sgain`` the K smoother gains pf[k] / (pf[k] + state_var), and
    ``last_gain`` the filter gain of window K.  Row k of the result is
    Cov(Z_{k+1}, Z_k | all data).
    """
    k_windows = sgain.shape[0]
    cross = np.empty(sgain.shape)
    cross[k_windows - 1] = (1.0 - last_gain) * pf[k_windows - 1]
    for k in range(k_windows - 1, 0, -1):
        cross[k - 1] = sgain[k - 1] * (pf[k] + sgain[k] * (cross[k] - pf[k]))
    return cross


def arma_recursion_loop(a_rows, b_rows, innovations):
    """Direct-form ARMA recursion, one numpy scalar at a time.

    Sample t is ``w[t] + sum_i b[t, i] w[t-i] - sum_i a[t, i] x[t-i]``,
    each sum in order of increasing lag, with lags before the record
    start left out.
    """
    n = innovations.size
    p = a_rows.shape[1] - 1
    q = b_rows.shape[1] - 1
    x = np.zeros(n)
    w = innovations
    for t in range(n):
        acc = w[t]
        for i in range(1, min(q, t) + 1):
            acc += b_rows[t, i] * w[t - i]
        for i in range(1, min(p, t) + 1):
            acc -= a_rows[t, i] * x[t - i]
        x[t] = acc
    return x


def poly_rows_loop(freqs, radii, sample_rate_hz):
    """Per-row product of conjugate-pair quadratics, one column at a time."""
    n, pairs = freqs.shape
    poly = np.ones((n, 1))
    for p in range(pairs):
        theta = 2.0 * np.pi * freqs[:, p] / sample_rate_hz
        quad = np.stack(
            [np.ones(n), -2.0 * radii[:, p] * np.cos(theta), radii[:, p] ** 2], axis=1
        )
        out = np.zeros((n, poly.shape[1] + 2))
        for i in range(poly.shape[1]):
            for k in range(3):
                out[:, i + k] += poly[:, i] * quad[:, k]
        poly = out
    return poly


def full_grid_estimate(config):
    """Every array an estimate writes, by file stem, with mt or the filter
    run on all J bins.

    ``config`` is the estimate's `statespec.cli.RunConfig`.  The full grid
    is this module's own: `one_shot_eigen_coefficients` unfolded by
    `full_grid_coefficients`.  EM fits bins 0..J//2, the real signal's
    distinct chains, and its state variances are mirrored onto all J bins
    by index before the filter runs.  Returns ``(arrays, scale,
    diagnostics)``: the spectrogram, the state variances and, with
    ``config.traces``, assmt's per-window state-variance traces as (rows,
    cols) arrays, the frequencies, times and observation variances as
    vectors, the spectrogram's scale, and assmt's manifest ``diagnostics``
    (None for mt and ssmt).  Each trace has one column per frequency: bins
    0..J//2 when one-sided.  The diagnostics count the cells of bins
    0..J//2, those the filter runs on.
    """
    j = config.window_samples
    samples = io.read_signal(config.input_path, config.input_format)
    series = TimeSeries(samples=samples, sample_rate_hz=config.sample_rate_hz)
    bank = dpss(j, config.time_half_bandwidth, config.tapers)
    seg = segment(series, j, config.hop, demean=config.demean)
    half = one_shot_eigen_coefficients(seg.windows, bank.tapers)
    grid = eigen_coefficients(seg, bank)
    eig = EigenCoefficients(coeffs=full_grid_coefficients(half, j),
                            frequencies_hz=grid.frequencies_hz, window_times_s=grid.window_times_s)
    arrays, diagnostics = {}, None
    if config.method == "mt":
        spect = mt_spectrogram(eig, one_sided=config.one_sided)
    else:
        n_base = eig.shape[0]
        if config.baseline_seconds > 0:
            n_base = min(config.baseline_windows, n_base)
        fit = em_fit(
            EigenCoefficients(coeffs=half[:n_base], frequencies_hz=eig.frequencies_hz,
                              window_times_s=eig.window_times_s[:n_base]),
            EMConfig(tol=config.em_tol, max_iter=config.em_max_iter),
        )
        mirror = np.minimum(np.arange(j), -np.arange(j) % j)
        params = ModelParams(state_var=fit.params.state_var[mirror], obs_var=fit.params.obs_var)
        init_var = np.broadcast_to(params.obs_var[None, :], params.state_var.shape)
        arrays = {"state_var": params.state_var, "obs_var": params.obs_var}
        if config.method == "ssmt":
            trace = filter_all(eig, params, init_mean=eig.coeffs[0], init_var=init_var)
        else:
            trace, state_var_trace, _ = assmt_filter(
                eig, AdaptiveParams.from_model_params(params), alpha=config.alpha,
                init_mean=eig.coeffs[0], init_var=init_var,
            )
            if config.traces:
                for m in range(config.tapers):
                    arrays[f"state_var_trace_taper{m}"] = state_var_trace[:, :, m]
            diagnostics = assmt_diagnostics(state_var_trace[:, :j // 2 + 1],
                                            params.state_var[:j // 2 + 1])
        spect = ssmt_spectrogram(trace, one_sided=config.one_sided)
    for name in arrays:
        if "_trace_" in name:
            arrays[name] = arrays[name][:, :spect.frequencies_hz.size]
    if config.scale == "dB":
        spect = spect.to_db()
    arrays["spectrogram"] = spect.power
    arrays["frequencies"] = spect.frequencies_hz
    arrays["times"] = spect.window_times_s
    return arrays, spect.scale, diagnostics


def assmt_diagnostics(state_var_trace, baseline):
    """The manifest's summary of a (K, B, M) trace of state variances over
    its (B, M) baseline: per taper, the fraction of cells raised above the
    baseline, and the largest ratio of a state variance to a positive
    baseline, 1.0 when there is none."""
    positive = baseline > 0
    ratio = np.where(positive, state_var_trace / np.where(positive, baseline, 1.0), 1.0)
    return {"raised_frac": (state_var_trace > baseline).mean(axis=(0, 1)).tolist(),
            "max_ratio": ratio.max(axis=(0, 1)).tolist()}
