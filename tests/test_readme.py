"""The Python examples of README.md run as written, and its gain recipe
gives the filter's gains."""
import contextlib
import re
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from statespec import AdaptiveParams, EigenCoefficients, assmt_filter, cli, filter_all, io
from statespec.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


@pytest.fixture(scope="module")
def readme():
    """The namespace the README's Python blocks leave, run in order, and the
    first block's output."""
    blocks = python_blocks()
    assert len(blocks) == 3
    namespace = {}
    with contextlib.redirect_stdout(StringIO()) as out:
        # the quick start caps EM at 100 iterations, short of its tolerance
        with pytest.warns(UserWarning, match="em_fit did not converge"):
            exec(compile(blocks[0], "README.md", "exec"), namespace)
    for block in blocks[1:]:
        exec(compile(block, "README.md", "exec"), namespace)
    return namespace, out.getvalue()


def test_quick_start_assmt_beats_mt(readme):
    _, out = readme
    mt_total, assmt_total = map(float, out.split())
    assert assmt_total < mt_total


def test_quick_start_raised_cells_are_the_non_baseline_ones(readme):
    namespace, _ = readme
    state_var, baseline = namespace["state_var"], namespace["fit"].params.state_var
    raised = namespace["raised"]
    assert raised.any() and not raised.all()
    assert np.array_equal(raised, state_var != np.broadcast_to(baseline, state_var.shape))


class TestGainRecipe:
    """`kalman_gains` from the state variances a filter used gives its gains."""

    def test_filter_all_bit_for_bit(self, readme):
        namespace, _ = readme
        eig, fit = namespace["eig"], namespace["fit"]
        init_var = np.broadcast_to(fit.params.obs_var, fit.params.state_var.shape)
        trace = filter_all(eig, fit.params, init_mean=eig.coeffs[0], init_var=init_var)
        gains = namespace["kalman_gains"]([fit.params.state_var] * eig.shape[0],
                                          fit.params.obs_var)
        assert np.array_equal(np.array(list(gains)), trace.gains)

    def test_assmt_filter_in_two_blocks_bit_for_bit(self, readme):
        namespace, _ = readme
        eig, fit = namespace["eig"], namespace["fit"]
        params = AdaptiveParams.from_model_params(fit.params)
        mean = eig.coeffs[0]
        var = np.broadcast_to(fit.params.obs_var, fit.params.state_var.shape)
        tracker, gains, state_vars = None, [], []
        for block in (slice(0, 37), slice(37, None)):
            part = EigenCoefficients(coeffs=eig.coeffs[block],
                                     frequencies_hz=eig.frequencies_hz,
                                     window_times_s=eig.window_times_s[block])
            trace, state_var, tracker = assmt_filter(part, params, init_mean=mean,
                                                     init_var=var, tracker=tracker)
            mean, var = trace.means[-1], trace.variances[-1]
            gains.append(trace.gains)
            state_vars.append(state_var)
        recomputed = namespace["kalman_gains"](np.concatenate(state_vars), fit.params.obs_var)
        assert np.array_equal(np.array(list(recomputed)), np.concatenate(gains))

    @pytest.mark.parametrize("grid", [(), ("--full-grid",)], ids=["one-sided", "full-grid"])
    @pytest.mark.parametrize("method, extra",
                             [("ssmt", ()), ("assmt", ("--baseline-seconds", "30", "--traces"))])
    def test_estimate_files(self, readme, tmp_path, monkeypatch, method, extra, grid):
        namespace, _ = readme
        signal = io.write_signal(tmp_path / "signal",
                                 np.random.default_rng(3).standard_normal(90 * 16))
        # the gains of every block the command line filters
        filtered = []
        name = "filter_all" if method == "ssmt" else "assmt_filter"
        real = getattr(cli, name)

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            filtered.append((result if method == "ssmt" else result[0]).gains)
            return result

        monkeypatch.setattr(cli, name, spy)
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="em_fit did not converge"):
            code = main(["estimate", "--input", str(signal), "--sample-rate", "16",
                         "--method", method, "--em-max-iter", "5", "--out-dir", str(out),
                         *extra, *grid])
        assert code == EXIT_OK
        assert not list(out.glob("gain_trace*"))
        gains = np.concatenate(filtered)
        if grid:
            # the filter runs on bins 0..J/2; bin J - j mirrors bin j
            j = io.read_vector_csv(out / "frequencies.csv").size
            gains = gains[:, np.minimum(np.arange(j), -np.arange(j) % j)]
        np.testing.assert_allclose(namespace["estimate_gains"](out), gains, rtol=1e-8, atol=0)
