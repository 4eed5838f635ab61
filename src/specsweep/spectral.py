"""Frequency-domain primitives: signal power spectra, filter responses, overlaps.

All frequencies are in GHz, symbol rates in GBd. Power spectral densities are
normalized to unit total power (1/GHz units) so that overlap and filtering
integrals stay dimensionless.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from specsweep.errors import ConfigurationError

DEFAULT_RESOLUTION = 0.05
DEFAULT_ROLL_OFF = 0.19
# Upper bound on integration grid points, checked before the grid is built
# (8 MB per float array at the bound).
MAX_GRID_POINTS = 1_000_000
# Upper bound on a filter's super-Gaussian order, far above any real passband.
MAX_FILTER_ORDER = 100
LN2 = np.log(2.0)


def occupied_width(symbol_rate, roll_off):
    """Spectral width (1 + roll_off) * symbol_rate of an RRC-shaped signal."""
    if symbol_rate <= 0:
        raise ValueError(f"symbol_rate must be > 0, got {symbol_rate}")
    if not 0.0 <= roll_off <= 1.0:
        raise ValueError(f"roll_off must be in [0, 1], got {roll_off}")
    return (1.0 + roll_off) * symbol_rate


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform integration grid from start to stop (GHz)."""

    start: float
    stop: float
    resolution: float = DEFAULT_RESOLUTION

    def __post_init__(self):
        if self.start >= self.stop:
            raise ValueError(f"grid start {self.start} must be < stop {self.stop}")
        if self.resolution <= 0:
            raise ValueError(f"grid resolution must be > 0, got {self.resolution}")
        if not (self.stop - self.start) / self.resolution < MAX_GRID_POINTS:
            raise ValueError(f"grid must contain at most {MAX_GRID_POINTS} points")
        if self.npoints < 2:
            raise ValueError("grid must contain at least 2 points")

    @property
    def npoints(self):
        return int(np.floor((self.stop - self.start) / self.resolution)) + 1

    def points(self):
        return _grid_points(self.start, self.resolution, self.npoints)


@lru_cache(maxsize=64)
def _grid_points(start, resolution, npoints):
    return start + resolution * np.arange(npoints)


@dataclass(frozen=True)
class SignalSpectrum:
    """Raised-cosine power spectrum of an RRC-shaped signal.

    ``center`` is the absolute carrier frequency; ``signal_psd`` takes
    offsets relative to it.
    """

    symbol_rate: float
    roll_off: float = DEFAULT_ROLL_OFF
    center: float = 0.0

    def __post_init__(self):
        occupied_width(self.symbol_rate, self.roll_off)  # validates

    @property
    def occupied_width(self):
        return (1.0 + self.roll_off) * self.symbol_rate


def signal_psd(offset, spectrum):
    """Raised-cosine PSD: flat plateau 1/SR, cosine-squared roll-off edges.

    Exactly zero outside +/- occupied_width / 2; integrates to 1.
    """
    sr = spectrum.symbol_rate
    r = spectrum.roll_off
    f = np.abs(offset)
    inner = (1.0 - r) * sr / 2.0
    outer = (1.0 + r) * sr / 2.0
    out = np.zeros_like(f)
    out[f <= inner] = 1.0 / sr
    if r > 0:
        edge = (f > inner) & (f < outer)
        out[edge] = np.cos(np.pi * (f[edge] - inner) / (2.0 * r * sr)) ** 2 / sr
    return out


@dataclass(frozen=True)
class Ripple:
    """Sinusoidal ripple (dB) on a filter response or on a GSNR profile."""

    amplitude_db: float
    period_ghz: float
    phase_rad: float = 0.0

    def __post_init__(self):
        if self.amplitude_db < 0:
            raise ValueError("ripple amplitude_db must be >= 0")
        if self.period_ghz <= 0:
            raise ValueError("ripple period_ghz must be > 0")


@dataclass(frozen=True)
class FilterElement:
    """Super-Gaussian power response of order n, optionally with ripple.

    |H(f)|^2 = exp(-ln2 * (2 f / B)^(2 n)); order 1 is Gaussian (AWG-like),
    orders 3-6 approximate flat-top WSS passbands.
    """

    center: float
    bandwidth_3db: float
    order: int = 1
    ripple: Optional[Ripple] = None

    def __post_init__(self):
        if self.bandwidth_3db <= 0:
            raise ValueError("bandwidth_3db must be > 0")
        if not 1 <= self.order <= MAX_FILTER_ORDER:
            raise ValueError(f"filter order must be in [1, {MAX_FILTER_ORDER}], got {self.order}")


def filter_power_response(offset, filt):
    """Super-Gaussian power transmission, times the ripple term if present."""
    with np.errstate(over="ignore"):  # far out of band the power overflows: exp(-inf) = 0
        resp = np.exp(-LN2 * np.abs(2.0 * offset / filt.bandwidth_3db) ** (2 * filt.order))
    if filt.ripple is not None:
        rip = filt.ripple
        resp = resp * 10.0 ** (
            rip.amplitude_db * np.sin(2.0 * np.pi * offset / rip.period_ghz + rip.phase_rad) / 10.0
        )
    return resp


def cascade_power_response(filters, f):
    """Product of the filters' power responses at the absolute frequencies ``f``."""
    resp = np.ones_like(f)
    for filt in filters:
        resp = resp * filter_power_response(f - filt.center, filt)
    return resp


def overlap_coefficient(victim, interferer, spacing, resolution=DEFAULT_RESOLUTION):
    """Self-normalized spectral overlap of two unit-power PSDs.

    chi(spacing) = int Sv(f) Si(f - spacing) df / int Sv(f)^2 df, so that two
    identical co-located signals give exactly 1 and disjoint supports give 0.
    """
    if spacing < 0:
        raise ValueError("spacing must be >= 0")
    min_sr = min(victim.symbol_rate, interferer.symbol_rate)
    if resolution > min_sr / 20.0:
        raise ConfigurationError(
            f"integration resolution {resolution} GHz too coarse for "
            f"symbol rate {min_sr} GBd (max {min_sr / 20.0:.3f} GHz)"
        )
    if spacing >= (victim.occupied_width + interferer.occupied_width) / 2.0:
        return 0.0
    f, sv, den = _victim_support(victim.symbol_rate, victim.roll_off, resolution)
    si = signal_psd(f - spacing, interferer)
    num = np.trapezoid(sv * si, f)
    return float(num / den)


@lru_cache(maxsize=64)
def _victim_support(symbol_rate, roll_off, resolution):
    """Offsets across a victim's occupied band, its PSD there and int Sv^2 df.

    The PSD does not depend on the carrier, so one entry serves every
    spacing of a guard-band bisection and every carrier of a sweep.
    """
    victim = SignalSpectrum(symbol_rate, roll_off)
    half_v = victim.occupied_width / 2.0
    f = np.arange(-half_v, half_v + resolution, resolution)
    sv = signal_psd(f, victim)
    return f, sv, np.trapezoid(sv * sv, f)
