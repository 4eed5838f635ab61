"""Frequency-domain primitives: slots, signal power spectra, filter responses, overlaps.

All frequencies are in GHz, symbol rates in GBd. Power spectral densities are
normalized to unit total power (1/GHz units) so that overlap and filtering
integrals stay dimensionless.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

DEFAULT_RESOLUTION = 0.05
# Overlaps are integrated at DEFAULT_RESOLUTION, which resolves a spectrum
# 20 steps wide or more: the narrowest symbol rate a spectrum may have.
MIN_SYMBOL_RATE_GBD = 20 * DEFAULT_RESOLUTION
DEFAULT_ROLL_OFF = 0.19
# Upper bound on integration grid points, checked before the grid is built
# (8 MB per float array at the bound).
MAX_GRID_POINTS = 1_000_000
# Upper bound on a filter's super-Gaussian order, far above any real passband.
MAX_FILTER_ORDER = 100
# Bounds on carrier and filter centers, grid ends, and ripple amplitudes and
# periods, checked when an object is built: beyond them the model's
# arithmetic overflows.
MAX_CENTER_GHZ = 1e6
MAX_RIPPLE_DB = 100.0
MIN_RIPPLE_PERIOD_GHZ = 1e-3
LN2 = np.log(2.0)


def check_center(center):
    if not abs(center) <= MAX_CENTER_GHZ:
        raise ValueError(f"center must be within +/-{MAX_CENTER_GHZ:g} GHz, got {center}")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform integration grid from start to stop (GHz)."""

    start: float
    stop: float
    resolution: float = DEFAULT_RESOLUTION

    def __post_init__(self):
        if self.start >= self.stop:
            raise ValueError(f"grid start {self.start} must be < stop {self.stop}")
        if not (-MAX_CENTER_GHZ <= self.start and self.stop <= MAX_CENTER_GHZ):
            raise ValueError(f"grid start and stop must be within +/-{MAX_CENTER_GHZ:g} GHz")
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
        return self.start + self.resolution * np.arange(self.npoints)


@dataclass(frozen=True)
class MediaChannel:
    """One leased frequency slot (absolute GHz)."""

    center: float
    width: float

    def __post_init__(self):
        check_center(self.center)
        if self.width <= 0:
            raise ValueError("media channel width must be > 0")
        if self.start == self.stop:  # the tilt divides by the span
            raise ValueError(
                f"media channel width {self.width} GHz vanishes at center {self.center} GHz"
            )

    @property
    def start(self):
        return self.center - self.width / 2.0

    @property
    def stop(self):
        return self.center + self.width / 2.0


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
        if not self.symbol_rate >= MIN_SYMBOL_RATE_GBD:
            raise ValueError(
                f"symbol_rate must be >= {MIN_SYMBOL_RATE_GBD:g} GBd, got {self.symbol_rate}"
            )
        if not 0.0 <= self.roll_off <= 1.0:
            raise ValueError(f"roll_off must be in [0, 1], got {self.roll_off}")
        check_center(self.center)

    @property
    def occupied_width(self):
        """Spectral width (1 + roll_off) * symbol_rate."""
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
    edge = (f > inner) & (f < outer)  # empty at roll_off 0, so nothing divides by it
    out[edge] = np.cos(np.pi * (f[edge] - inner) / (2.0 * r * sr)) ** 2 / sr
    return out


@dataclass(frozen=True)
class Ripple:
    """Sinusoidal ripple (dB) on a filter response or on a GSNR profile."""

    amplitude_db: float
    period_ghz: float
    phase_rad: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.amplitude_db <= MAX_RIPPLE_DB:
            raise ValueError(
                f"ripple amplitude_db must be in [0, {MAX_RIPPLE_DB:g}], got {self.amplitude_db}"
            )
        if not self.period_ghz >= MIN_RIPPLE_PERIOD_GHZ:
            raise ValueError(
                f"ripple period_ghz must be >= {MIN_RIPPLE_PERIOD_GHZ:g}, got {self.period_ghz}"
            )

    def db(self, f):
        """The ripple (dB) at the frequencies ``f``."""
        return self.amplitude_db * np.sin(2.0 * np.pi * f / self.period_ghz + self.phase_rad)


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
        check_center(self.center)
        if self.bandwidth_3db <= 0:
            raise ValueError("bandwidth_3db must be > 0")
        if not 1 <= self.order <= MAX_FILTER_ORDER:
            raise ValueError(f"filter order must be in [1, {MAX_FILTER_ORDER}], got {self.order}")


def filter_power_response(offset, filt):
    """Super-Gaussian power transmission, times the ripple term if present."""
    with np.errstate(over="ignore"):  # far out of band the power overflows: exp(-inf) = 0
        resp = np.exp(-LN2 * np.abs(2.0 * offset / filt.bandwidth_3db) ** (2 * filt.order))
    if filt.ripple is not None:
        resp = resp * 10.0 ** (filt.ripple.db(offset) / 10.0)
    return resp


def cascade_power_response(filters, f):
    """Product of the filters' power responses at the absolute frequencies ``f``."""
    resp = np.ones_like(f)
    for filt in filters:
        resp = resp * filter_power_response(f - filt.center, filt)
    return resp


def overlap_coefficient(victim, interferer, spacing):
    """Self-normalized spectral overlap of two unit-power PSDs.

    chi(spacing) = int Sv(f) Si(f - spacing) df / int Sv(f)^2 df, so that two
    identical co-located signals give exactly 1 and disjoint supports give 0.
    The integral runs at DEFAULT_RESOLUTION, whatever grid a scenario uses.
    """
    if spacing < 0:
        raise ValueError("spacing must be >= 0")
    if spacing >= (victim.occupied_width + interferer.occupied_width) / 2.0:
        return 0.0
    f, sv, den = _victim_support(victim.symbol_rate, victim.roll_off)
    si = signal_psd(f - spacing, interferer)
    num = np.trapezoid(sv * si, f)
    return float(num / den)


@lru_cache(maxsize=64)
def _victim_support(symbol_rate, roll_off):
    """Offsets across a victim's occupied band, its PSD there and int Sv^2 df.

    The PSD does not depend on the carrier, so one entry serves every
    spacing of a guard-band bisection and every carrier of a sweep.
    """
    victim = SignalSpectrum(symbol_rate, roll_off)
    half_v = victim.occupied_width / 2.0
    f = np.arange(-half_v, half_v + DEFAULT_RESOLUTION, DEFAULT_RESOLUTION)
    sv = signal_psd(f, victim)
    return f, sv, np.trapezoid(sv * sv, f)
