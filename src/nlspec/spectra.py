"""Frequency-domain post-processing: 1D/2D spectra, envelope fits, weights.

Angular-frequency convention: a length-n series with spacing dt maps to
bins omega_k = 2 pi k / (n dt).  Transforms subtract the series mean first
and return the one-sided (k = 0 .. n//2) amplitudes, without windowing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class SpectrumError(ValueError):
    """Invalid input for spectral post-processing."""


@dataclass(frozen=True, eq=False)
class SpectrumGrid:
    """One-sided spectrum of a real time series."""

    frequencies: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        freq = np.asarray(self.frequencies, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        freq.flags.writeable = False
        amps.flags.writeable = False
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.amplitudes)


@dataclass(frozen=True, eq=False)
class Spectrum2D:
    """One-sided 2D spectrum over (omega_1, omega_2)."""

    frequencies_1: np.ndarray
    frequencies_2: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        f1 = np.asarray(self.frequencies_1, dtype=float)
        f2 = np.asarray(self.frequencies_2, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (f1.size, f2.size):
            raise SpectrumError("amplitude shape must match the frequency axes")
        for arr in (f1, f2, amps):
            arr.flags.writeable = False
        object.__setattr__(self, "frequencies_1", f1)
        object.__setattr__(self, "frequencies_2", f2)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.amplitudes)


@dataclass(frozen=True)
class EnvelopeFit:
    """Exponential envelope a(t) = alpha * exp(-gamma t) fitted to |extrema|."""

    alpha: float
    gamma: float
    residual: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise SpectrumError("fitted envelope amplitude must be positive")


#: extremum magnitude at or below which ``envelope_fit`` ignores a peak
_ENVELOPE_FLOOR = 1e-6


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise SpectrumError("values must be finite")


def _check_uniform(times: np.ndarray) -> float:
    steps = np.diff(times)
    if steps.size == 0:
        raise SpectrumError("need at least two samples")
    if not np.all(np.isfinite(steps)):
        raise SpectrumError("time steps must be finite")
    dt = float(steps[0])
    if dt <= 0 or np.max(np.abs(steps - dt)) > 1e-9 * max(1.0, abs(dt)):
        raise SpectrumError("time grid must be uniform and ascending")
    return dt


def _check_times(series: np.ndarray, times: Sequence[float]) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.shape != series.shape:
        raise SpectrumError(f"times: {t.size} times for {series.size} values")
    return t


def response_spectrum(
    values: Sequence[float],
    dt: float | None = None,
    times: Sequence[float] | None = None,
) -> SpectrumGrid:
    """One-sided DFT of a real series after mean subtraction.

    Provide either ``dt`` or the time grid itself (checked for uniformity and
    for one time per value).
    """
    series = np.asarray(values, dtype=float)
    _check_finite(series)
    if times is not None:
        dt = _check_uniform(_check_times(series, times))
    if dt is None or not 0 < dt < np.inf:
        raise SpectrumError("a positive, finite sample spacing is required")
    n = series.size
    amps = np.fft.rfft(series - series.mean())
    freqs = 2.0 * np.pi * np.arange(amps.size) / (n * dt)
    return SpectrumGrid(freqs, amps)


def envelope_fit(
    values: Sequence[float],
    times: Sequence[float],
) -> tuple[EnvelopeFit, np.ndarray]:
    """Fit alpha * exp(-gamma t) to the local extrema of |series|.

    Needs at least three interior extrema above ``_ENVELOPE_FLOOR``.  Returns
    the fit and the envelope-corrected series values * exp(gamma t) / alpha.
    """
    series = np.asarray(values, dtype=float)
    t = _check_times(series, times)
    mag = np.abs(series)
    interior = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:]) & (mag[1:-1] > _ENVELOPE_FLOOR)
    # strict on at least one side so plateaus do not flood the fit
    strict = (mag[1:-1] > mag[:-2]) | (mag[1:-1] > mag[2:])
    idx = np.where(interior & strict)[0] + 1
    if idx.size < 3:
        raise SpectrumError(
            f"envelope fit needs >= 3 local extrema above {_ENVELOPE_FLOOR:g}; found {idx.size}"
        )
    design = np.vstack([np.ones(idx.size), t[idx]]).T
    coeffs, *_ = np.linalg.lstsq(design, np.log(mag[idx]), rcond=None)
    log_alpha, slope = coeffs
    alpha = float(np.exp(log_alpha))
    gamma = float(-slope)
    residual = float(np.sqrt(np.mean((design @ coeffs - np.log(mag[idx])) ** 2)))
    corrected = series * np.exp(gamma * t) / alpha
    return EnvelopeFit(alpha, gamma, residual), corrected


def spectrum_2d(
    values: np.ndarray,
    dt_1: float,
    dt_2: float,
) -> Spectrum2D:
    """Mean-subtracted 2D DFT of a real array, one-sided along both axes."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 2:
        raise SpectrumError("expected a 2D array")
    _check_finite(grid)
    if not (0 < dt_1 < np.inf and 0 < dt_2 < np.inf):
        raise SpectrumError("sample spacings must be positive and finite")
    n1, n2 = grid.shape
    full = np.fft.fft2(grid - grid.mean())
    half1 = n1 // 2 + 1
    half2 = n2 // 2 + 1
    amps = full[:half1, :half2]
    f1 = 2.0 * np.pi * np.arange(half1) / (n1 * dt_1)
    f2 = 2.0 * np.pi * np.arange(half2) / (n2 * dt_2)
    return Spectrum2D(f1, f2, amps)


def diagonal_offdiagonal_weight(spec: Spectrum2D) -> tuple[float, float]:
    """Split total spectral power into |w1 - w2| <= band and the remainder.

    The band half-width is one frequency bin.  Requires a square frequency
    mesh.
    """
    f1, f2 = spec.frequencies_1, spec.frequencies_2
    if f1.size != f2.size or np.max(np.abs(f1 - f2)) > 1e-9 * max(1.0, f1[-1]):
        raise SpectrumError("diagonal weights need a square frequency mesh")
    band_halfwidth = float(f1[1] - f1[0]) if f1.size > 1 else 0.0
    power = spec.magnitudes**2
    dist = np.abs(f1[:, None] - f2[None, :])
    diag_mask = dist <= band_halfwidth + 1e-12
    p_diag = float(power[diag_mask].sum())
    p_off = float(power.sum() - p_diag)
    return p_diag, p_off
