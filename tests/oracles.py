"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive: dense matrices, explicit loops,
textbook formulas.  Slowness is the point; these must be obviously
correct rather than efficient.
"""
import numpy as np


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
