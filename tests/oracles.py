"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive: dense matrices, explicit loops,
textbook formulas.  Slowness is the point; these must be obviously
correct rather than efficient.
"""
import numpy as np

from statespec.ssm import _forward_pass


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


def matrix_csv_text(values, scale=None):
    """Matrix CSV text, one f-string per value."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    header = f"# rows={values.shape[0]} cols={values.shape[1]}"
    if scale is not None:
        header += f" scale={scale}"
    lines = [header]
    lines.extend(",".join(f"{v:.9g}" for v in row) for row in values)
    return "\n".join(lines) + "\n"


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


def full_grid_em(coeffs, tol=1e-6, max_iter=50, init_params=None):
    """EM on every (bin, taper) chain, mirrored bins included.

    Moment start, then E-step and M-step over the full grid with
    unweighted means, in the same arithmetic as `statespec.ssm.em_fit`.
    That fit must match this one bit for bit on non-Hermitian input and to
    round-off on a real signal's coefficients, where it fits half the bins.
    Returns ``(state_var, obs_var, log_likelihoods, converged)``.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    k_windows, j_bins, m_tapers = coeffs.shape
    if init_params is not None:
        state_var = init_params.state_var.copy()
        obs_var = init_params.obs_var.copy()
    else:
        dbar = (np.abs(np.diff(coeffs, axis=0)) ** 2).mean(axis=0)
        obs_var = np.maximum(0.25 * np.median(dbar, axis=0), np.finfo(float).tiny)
        state_var = np.maximum(dbar - 2.0 * obs_var[None, :], 0.05 * dbar)
        state_var = np.maximum(state_var, np.finfo(float).tiny)
    init_var = state_var.copy()

    lls = []
    converged = False
    for _ in range(max_iter):
        zf, pf, gains = _forward_pass(coeffs, state_var, obs_var, init_var=init_var)
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
        cross = np.empty((k_windows, j_bins, m_tapers))
        cross[k_windows - 1] = (1.0 - gains[-1]) * pf[k_windows - 1]
        for k in range(k_windows - 1, 0, -1):
            cross[k - 1] = sgain[k - 1] * (pf[k] + sgain[k] * (cross[k] - pf[k]))

        second = ps + zs.real**2 + zs.imag**2
        lag = cross + (zs[1:] * np.conj(zs[:-1])).real
        increments = second[1:] + second[:-1] - 2.0 * lag
        state_var = np.maximum(increments.mean(axis=0), 0.0)
        resid = np.abs(coeffs - zs[1:]) ** 2 + ps[1:]
        obs_var = np.maximum(resid.mean(axis=(0, 1)), np.finfo(float).tiny)
    return state_var, obs_var, np.asarray(lls), converged
