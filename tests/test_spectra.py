import numpy as np
import pytest

from nlspec.spectra import (
    SpectrumError,
    diagonal_offdiagonal_weight,
    envelope_fit,
    response_spectrum,
    spectrum_2d,
)


class TestResponseSpectrum:
    def test_constant_series_is_silent(self):
        spec = response_spectrum(np.full(64, 3.7), dt=0.1)
        assert np.max(spec.magnitudes) < 1e-12

    def test_on_grid_tone_is_single_bin(self):
        n, dt = 51, 0.1
        k = 5
        t = dt * np.arange(n)
        omega = 2 * np.pi * k / (n * dt)
        spec = response_spectrum(np.sin(omega * t), dt=dt)
        mags = spec.magnitudes
        assert np.argmax(mags) == k
        others = np.delete(mags, k)
        assert np.max(others) < 1e-10 * mags[k]

    def test_two_tone_ratio(self):
        n, dt = 64, 0.05
        t = dt * np.arange(n)
        w0 = 2 * np.pi * 4 / (n * dt)
        series = np.sin(w0 * t) + 0.5 * np.sin(2 * w0 * t)
        spec = response_spectrum(series, dt=dt)
        assert spec.magnitudes[4] / spec.magnitudes[8] == pytest.approx(2.0, abs=1e-9)

    def test_mean_invariance(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=40)
        a = response_spectrum(series, dt=0.2).magnitudes
        b = response_spectrum(series + 11.5, dt=0.2).magnitudes
        assert np.max(np.abs(a - b)) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(1)
        n = 50
        series = rng.normal(size=n)
        centered = series - series.mean()
        spec = response_spectrum(series, dt=0.1)
        # one-sided sum: double the interior bins (n even: bin n/2 unpaired)
        mags2 = np.abs(spec.amplitudes) ** 2
        weights = np.full(mags2.size, 2.0)
        weights[0] = 1.0
        if n % 2 == 0:
            weights[-1] = 1.0
        total = np.sum(weights * mags2) / n
        assert total == pytest.approx(np.sum(centered**2), rel=1e-9)

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(SpectrumError):
            response_spectrum([0.0, 1.0, 0.0], times=[0.0, 0.1, 0.3])

    def test_times_of_another_length_rejected(self):
        # unchecked, 6 values with 2 times gave a spectrum at the 2 times' spacing
        with pytest.raises(SpectrumError, match="2 times for 6 values"):
            response_spectrum(np.arange(6.0), times=[0.0, 0.5])

    def test_frequency_convention(self):
        spec = response_spectrum(np.arange(10.0), dt=0.5)
        assert spec.frequencies[1] == pytest.approx(2 * np.pi / (10 * 0.5))


class TestNonFinite:
    @pytest.mark.parametrize(
        "transform",
        [
            lambda: response_spectrum([0.0, 1.0, np.nan, 0.5], dt=0.5),
            lambda: response_spectrum([0.0, 1.0, 0.0, 0.5], times=[0.0, 0.5, np.inf, 1.5]),
            lambda: spectrum_2d(np.array([[0.0, 1.0], [np.inf, 0.5]]), 0.5, 0.5),
        ],
        ids=["series", "time", "2d"],
    )
    def test_rejected(self, transform):
        with pytest.raises(SpectrumError, match="must be finite"):
            transform()

    @pytest.mark.parametrize("spacing", [np.inf, np.nan])
    @pytest.mark.parametrize(
        "transform",
        [
            lambda dt: response_spectrum([0.0, 1.0, 0.0, 0.5], dt=dt),
            lambda dt: spectrum_2d(np.eye(2), dt, 0.5),
            lambda dt: spectrum_2d(np.eye(2), 0.5, dt),
        ],
        ids=["series", "2d_axis_1", "2d_axis_2"],
    )
    def test_spacing_rejected(self, transform, spacing):
        # unchecked, an infinite spacing gave all-zero frequencies
        with pytest.raises(SpectrumError, match="finite"):
            transform(spacing)


class TestEnvelopeFit:
    def test_recovers_decay(self):
        t = np.arange(0, 5, 0.02)
        fit, corrected = envelope_fit(np.exp(-0.5 * t) * np.sin(5 * t), t)
        assert fit.gamma == pytest.approx(0.5, abs=0.02)
        assert fit.alpha == pytest.approx(1.0, abs=0.02)
        # the corrected series should be undamped up to the fit residual
        refit, _ = envelope_fit(corrected, t)
        assert abs(refit.gamma) < 0.02

    def test_undamped_gives_zero_rate(self):
        t = np.arange(0, 5, 0.02)
        fit, _ = envelope_fit(np.sin(5 * t), t)
        assert abs(fit.gamma) < 1e-3

    def test_pure_decay_rejected(self):
        t = np.arange(0, 5, 0.02)
        with pytest.raises(SpectrumError):
            envelope_fit(np.exp(-0.3 * t), t)

    def test_times_of_another_length_rejected(self):
        # unchecked, a bare IndexError or a broadcasting ValueError
        t = np.arange(0, 5, 0.02)
        series = np.exp(-0.5 * t) * np.sin(5 * t)
        with pytest.raises(SpectrumError, match="100 times for 250 values"):
            envelope_fit(series, t[:100])

    def test_roundtrip_within_residual(self):
        t = np.arange(0, 6, 0.02)
        series = 1.3 * np.exp(-0.4 * t) * np.cos(4 * t + 0.3)
        fit, corrected = envelope_fit(series, t)
        rebuilt = corrected * fit.alpha * np.exp(-fit.gamma * t)
        assert np.max(np.abs(rebuilt - series)) < 1e-9


class TestSpectrum2D:
    def test_zero_array(self):
        spec = spectrum_2d(np.zeros((16, 16)), 0.1, 0.1)
        assert np.max(spec.magnitudes) == 0.0

    def test_separable_diagonal_peak(self):
        n, dt = 32, 0.2
        t = dt * np.arange(n)
        w = 2 * np.pi * 3 / (n * dt)
        grid = np.outer(np.sin(w * t), np.sin(w * t))
        spec = spectrum_2d(grid, dt, dt)
        i, j = np.unravel_index(np.argmax(spec.magnitudes), spec.magnitudes.shape)
        assert (i, j) == (3, 3)

    def test_offdiagonal_peak(self):
        n, dt = 32, 0.2
        t = dt * np.arange(n)
        w1 = 2 * np.pi * 3 / (n * dt)
        w2 = 2 * np.pi * 7 / (n * dt)
        grid = np.outer(np.sin(w1 * t), np.sin(w2 * t))
        spec = spectrum_2d(grid, dt, dt)
        i, j = np.unravel_index(np.argmax(spec.magnitudes), spec.magnitudes.shape)
        assert (i, j) == (3, 7)

    def test_separable_equals_outer_product(self):
        n, dt = 40, 0.15
        t = dt * np.arange(n)
        f = np.sin(2 * np.pi * 4 * np.arange(n) / n)
        g = np.sin(2 * np.pi * 9 * np.arange(n) / n)
        grid = np.outer(f, g)
        spec2 = spectrum_2d(grid, dt, dt)
        s_f = response_spectrum(f, dt=dt)
        s_g = response_spectrum(g, dt=dt)
        outer = np.outer(s_f.magnitudes, s_g.magnitudes)
        assert np.max(np.abs(spec2.magnitudes - outer)) < 1e-9 * outer.max()


class TestDiagonalWeights:
    def _spec(self, grid, dt=0.2):
        return spectrum_2d(grid, dt, dt)

    def test_diagonal_only(self):
        n, dt = 32, 0.2
        t = dt * np.arange(n)
        w = 2 * np.pi * 5 / (n * dt)
        spec = self._spec(np.outer(np.sin(w * t), np.sin(w * t)), dt)
        p_diag, p_off = diagonal_offdiagonal_weight(spec)
        assert p_off < 1e-18 * p_diag

    def test_offdiagonal_only(self):
        n, dt = 32, 0.2
        t = dt * np.arange(n)
        w1 = 2 * np.pi * 2 / (n * dt)
        w2 = 2 * np.pi * 9 / (n * dt)
        spec = self._spec(np.outer(np.sin(w1 * t), np.sin(w2 * t)), dt)
        p_diag, p_off = diagonal_offdiagonal_weight(spec)
        assert p_diag < 1e-18 * p_off

    def test_equal_peaks_balance(self):
        n, dt = 32, 0.2
        t = dt * np.arange(n)
        w1 = 2 * np.pi * 2 / (n * dt)
        w2 = 2 * np.pi * 9 / (n * dt)
        diag = np.outer(np.sin(w1 * t), np.sin(w1 * t))
        off = np.outer(np.sin(w1 * t), np.sin(w2 * t))
        spec = self._spec(diag + off, dt)
        p_diag, p_off = diagonal_offdiagonal_weight(spec)
        assert p_diag / p_off == pytest.approx(1.0, abs=1e-10)
