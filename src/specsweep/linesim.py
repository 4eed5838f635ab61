"""Ground-truth line-system model and the black-box measurement function.

A Scenario fully describes one simulated spectrum service: slot geometry,
filter cascade, GSNR profile, neighbor channels and calibration constants.
``measure`` produces the Q-factor a field transceiver would read at a given
carrier; ``open_session`` wraps a scenario behind the narrow probe interface
that the sweep engine and diagnosis are allowed to see.
"""

import hashlib
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from specsweep.errors import ConfigurationError
from specsweep.formats import (
    CatalogEntry,
    DEFAULT_OUTAGE_BER,
    ber_from_snr,
    denormalize_gsnr,
    q_db_from_ber,
)
from specsweep.spectral import (
    DEFAULT_ROLL_OFF,
    FilterElement,
    FrequencyGrid,
    Ripple,
    SignalSpectrum,
    cascade_power_response,
    overlap_coefficient,
    signal_psd,
)

# Bounds on carrier centers, neighbor power offsets and read noise, checked
# when a scenario is built: beyond them the model's arithmetic overflows.
MAX_CENTER_GHZ = 1e6
MAX_POWER_OFFSET_DB = 100.0
MAX_NOISE_SIGMA_DB = 10.0


def _check_center(center):
    if not abs(center) <= MAX_CENTER_GHZ:
        raise ValueError(f"center must be within +/-{MAX_CENTER_GHZ:g} GHz, got {center}")


@dataclass(frozen=True)
class MediaChannel:
    """One leased frequency slot (absolute GHz)."""

    center: float
    width: float

    def __post_init__(self):
        _check_center(self.center)
        if self.width <= 0:
            raise ValueError("media channel width must be > 0")

    @property
    def start(self):
        return self.center - self.width / 2.0

    @property
    def stop(self):
        return self.center + self.width / 2.0


@dataclass(frozen=True)
class GsnrProfile:
    """GSNR over frequency: base at the anchor center, linear tilt, ripple.

    The anchor defaults to the scenario's media channel; it is set explicitly
    when a multi-slot layout is split into per-victim scenarios so that all
    victims see the same underlying profile.
    """

    base_gsnr_db: float
    tilt_db: float = 0.0
    ripple_components: Tuple[Ripple, ...] = ()
    anchor_center: Optional[float] = None
    anchor_width: Optional[float] = None

    def evaluate(self, f, channel):
        center = self.anchor_center if self.anchor_center is not None else channel.center
        width = self.anchor_width if self.anchor_width is not None else channel.width
        g = self.base_gsnr_db + self.tilt_db * (f - center) / width
        for rip in self.ripple_components:
            g = g + rip.amplitude_db * np.sin(2.0 * np.pi * f / rip.period_ghz + rip.phase_rad)
        return g


@dataclass(frozen=True)
class NeighborChannel:
    """An interfering carrier outside the probed slot."""

    spectrum: SignalSpectrum
    power_offset_db: float = 0.0

    def __post_init__(self):
        _check_center(self.spectrum.center)
        if not abs(self.power_offset_db) <= MAX_POWER_OFFSET_DB:
            raise ValueError(
                f"power_offset_db must be within +/-{MAX_POWER_OFFSET_DB:g}, "
                f"got {self.power_offset_db}"
            )


@dataclass(frozen=True)
class Scenario:
    media_channels: Tuple[MediaChannel, ...]
    gsnr_profile: GsnrProfile
    filters: Tuple[FilterElement, ...] = ()
    neighbors: Tuple[NeighborChannel, ...] = ()
    crosstalk_coupling: float = 1.0
    filtering_exponent: float = 2.0
    measurement_noise_sigma_db: float = 0.1
    outage_ber: float = DEFAULT_OUTAGE_BER
    seed: int = 0
    grid: FrequencyGrid = FrequencyGrid(-300.0, 300.0)

    def __post_init__(self):
        if not self.media_channels:
            raise ValueError("scenario needs at least one media channel")
        if self.crosstalk_coupling < 0:
            raise ValueError("crosstalk_coupling must be >= 0")
        if self.filtering_exponent < 1.0:
            raise ValueError("filtering_exponent must be >= 1")
        if not 0.0 <= self.measurement_noise_sigma_db <= MAX_NOISE_SIGMA_DB:
            raise ValueError(
                f"measurement_noise_sigma_db must be in [0, {MAX_NOISE_SIGMA_DB:g}], "
                f"got {self.measurement_noise_sigma_db}"
            )
        if not 0.0 < self.outage_ber < 0.5:
            raise ValueError(f"outage_ber must be in (0, 0.5), got {self.outage_ber}")

    @property
    def span(self):
        return (
            min(mc.start for mc in self.media_channels),
            max(mc.stop for mc in self.media_channels),
        )


@dataclass(frozen=True)
class ProbeConfig:
    """One transceiver configuration used for probing.

    Launch power follows the constant-PSD rule (power proportional to symbol
    rate), and the model depends only on power ratios, so no absolute launch
    power is configured.
    """

    entry: CatalogEntry
    roll_off: float = DEFAULT_ROLL_OFF

    def __post_init__(self):
        if not 0.0 <= self.roll_off <= 1.0:
            raise ValueError("roll_off must be in [0, 1]")

    @property
    def probe_id(self):
        return f"{self.entry.name}/r{self.roll_off:g}"

    @property
    def symbol_rate(self):
        return self.entry.symbol_rate

    def spectrum_at(self, carrier):
        return SignalSpectrum(self.entry.symbol_rate, self.roll_off, carrier)


@dataclass(frozen=True)
class MeasurementResult:
    """One Q reading; ``q_db`` is None on outage (no valid reading)."""

    q_db: Optional[float]

    @property
    def outage(self):
        return self.q_db is None


@lru_cache(maxsize=32)
def _cascade_on_grid(filters, grid):
    return cascade_power_response(filters, grid.points())


def local_gsnr_db(scenario, f):
    """Underlying GSNR profile at the absolute frequencies ``f`` (extrapolates)."""
    return scenario.gsnr_profile.evaluate(f, scenario.media_channels[0])


def _occupied_slice(grid, spectrum):
    """Grid indices covering the signal's occupied band, one more point each side."""
    half = spectrum.occupied_width / 2.0
    n = grid.npoints

    def index(freq):  # clamped just off the grid: far off it, the index overflows an int
        return min(max((freq - grid.start) / grid.resolution, -2.0), n + 2.0)

    lo = math.floor(index(spectrum.center - half)) - 1
    hi = math.ceil(index(spectrum.center + half)) + 1
    return slice(max(lo, 0), max(min(hi + 1, n), 0))


def _filtered_psd(scenario, spectrum):
    """Grid, PSD after the filter cascade, its power and rho, the transmitted power fraction.

    The PSD is zero outside the occupied band, so only the grid points that
    cover it are integrated.
    """
    window = _occupied_slice(scenario.grid, spectrum)
    f = scenario.grid.points()[window]
    s = signal_psd(f - spectrum.center, spectrum)
    s_total = np.trapezoid(s, f)
    if s_total <= 0.0:
        raise ConfigurationError(
            f"signal at {spectrum.center} GHz lies outside the scenario grid"
        )
    if scenario.filters:
        weight = s * _cascade_on_grid(scenario.filters, scenario.grid)[window]
    else:
        weight = s
    norm = np.trapezoid(weight, f)
    return f, weight, norm, float(norm / s_total)


def filtering_penalty_db(scenario, spectrum):
    """Penalty from truncation of ``spectrum`` by the filter cascade (dB >= 0).

    penalty = -beta * 10 log10(rho) with rho the transmitted power fraction.
    Returns inf when the signal falls entirely outside the cascade.
    """
    *_, rho = _filtered_psd(scenario, spectrum)
    if rho <= 0.0:
        return float("inf")
    return -scenario.filtering_exponent * 10.0 * np.log10(min(rho, 1.0))


def crosstalk_lin(scenario, victim):
    """Aggregate linear crosstalk term from all neighbors.

    Each neighbor's power follows the constant-PSD rule relative to the
    victim (ratio SR_n / SR_v) plus its power_offset_db, so the result does
    not depend on the absolute victim power.
    """
    total = 0.0
    for nb in scenario.neighbors:
        ratio = (nb.spectrum.symbol_rate / victim.symbol_rate) * 10.0 ** (
            nb.power_offset_db / 10.0
        )
        chi = overlap_coefficient(
            victim,
            nb.spectrum,
            abs(nb.spectrum.center - victim.center),
            resolution=scenario.grid.resolution,
        )
        total += ratio * chi
    return scenario.crosstalk_coupling * total


def _q_noise_db(scenario, carrier, probe, trial_index):
    if scenario.measurement_noise_sigma_db == 0.0:
        return 0.0
    key = f"{scenario.seed}|{carrier:.6f}|{probe.probe_id}|{trial_index}"
    digest = hashlib.sha256(key.encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return float(rng.normal(0.0, scenario.measurement_noise_sigma_db))


@lru_cache(maxsize=32)
def _noiseless_q_db(scenario, carrier, probe):
    """Q (dB) before read noise, or None on outage.

    The cache only has to span the trials of one point, which are read in a
    row, and a crosstalk scan's re-read of its aligned carrier a few points
    later. Chain: profile average weighted by the received spectrum, filtering
    penalty, crosstalk added inverse-linearly, then GSNR -> in-band SNR ->
    BER -> Q.
    """
    spectrum = probe.spectrum_at(carrier)
    f, weight, norm, rho = _filtered_psd(scenario, spectrum)
    if rho <= 0.0:
        return None

    # Past the float range the profile reads +-inf dB: -inf is an exact zero,
    # and an inf or NaN (0 * inf) average is decided below, so neither warns.
    with np.errstate(over="ignore", invalid="ignore"):
        profile_lin = 10.0 ** (local_gsnr_db(scenario, f) / 10.0)
        g_profile = float(np.trapezoid(weight * profile_lin, f) / norm)
    try:
        g_filtered = g_profile * rho ** scenario.filtering_exponent
    except OverflowError:
        return None  # a ripple gain (rho > 1) to a huge exponent: no finite GSNR
    if not g_filtered > 0.0:
        return None  # nothing left after filtering, or the profile underflowed
    inv_g_eff = 1.0 / g_filtered + crosstalk_lin(scenario, spectrum)
    if not 0.0 < inv_g_eff < math.inf:
        return None  # g_eff is not a finite positive GSNR
    g_eff = 1.0 / inv_g_eff

    snr_db = denormalize_gsnr(10.0 * np.log10(g_eff), probe.symbol_rate)
    ber = ber_from_snr(probe.entry.format, snr_db)
    if ber > scenario.outage_ber:
        return None
    return q_db_from_ber(ber)


def measure(scenario, carrier, probe, trial_index=0):
    """Black-box Q reading of ``probe`` at ``carrier`` (deterministic).

    The noiseless Q of the point plus seeded Gaussian read noise; outage
    is decided before the noise, so every trial of a point agrees on it.
    """
    lo, hi = scenario.span
    if not lo <= carrier <= hi:
        raise ValueError(
            f"carrier {carrier} GHz outside media channel span [{lo}, {hi}]"
        )
    q_db = _noiseless_q_db(scenario, carrier, probe)
    if q_db is not None:
        q_db += _q_noise_db(scenario, carrier, probe, trial_index)
    return MeasurementResult(q_db)


class BlackBoxProbe:
    """What a spectrum customer actually has: a tunable probe on one slot.

    Exposes only carrier/probe selection, Q readout and the slot boundaries.
    Scenario internals (filters, profile, neighbors) stay private.
    """

    def __init__(self, scenario):
        self.__scenario = scenario
        self.__carrier = None
        self.__probe = None

    @property
    def slot(self):
        mc = self.__scenario.media_channels[0]
        return MediaChannel(mc.center, mc.width)

    def set_carrier(self, carrier):
        self.__carrier = float(carrier)

    def set_probe(self, probe):
        self.__probe = probe

    def read_q(self, trial_index=0):
        if self.__carrier is None or self.__probe is None:
            raise ConfigurationError("set_carrier and set_probe before read_q")
        return measure(self.__scenario, self.__carrier, self.__probe, trial_index)


def open_session(scenario):
    """Open an independent black-box probing session on a scenario."""
    return BlackBoxProbe(scenario)


class CrosstalkBench:
    """Multi-slot layout where every slot carries one carrier.

    Builds, per victim slot, a single-channel scenario in which all other
    slots appear as neighbor channels; the middle slot's carrier can be
    offset to emulate a drifting customer. The sweep engine only ever sees
    the sessions this bench hands out.
    """

    def __init__(self, scenario, slot_probes):
        if len(scenario.media_channels) != len(slot_probes):
            raise ConfigurationError(
                "need exactly one probe configuration per media channel"
            )
        if len(slot_probes) < 3:
            raise ConfigurationError("crosstalk bench needs at least 3 slots")
        self._scenario = scenario
        self._probes = tuple(slot_probes)
        lo, hi = scenario.span
        profile = scenario.gsnr_profile
        if profile.anchor_center is None:
            profile = replace(
                profile, anchor_center=(lo + hi) / 2.0, anchor_width=hi - lo
            )
        self._profile = profile

    @property
    def slot_count(self):
        return len(self._probes)

    @property
    def middle_index(self):
        return len(self._probes) // 2

    @property
    def middle_slot(self):
        return self._scenario.media_channels[self.middle_index]

    def probe_for(self, index):
        return self._probes[index]

    def victim_carrier(self, victim_index, central_offset):
        center = self._scenario.media_channels[victim_index].center
        if victim_index == self.middle_index:
            return center + central_offset
        return center

    def session(self, victim_index, central_offset):
        """Black-box session for one victim slot, middle carrier offset applied."""
        half = self.middle_slot.width / 2.0
        if abs(central_offset) > half:
            raise ValueError(
                f"central offset {central_offset} exceeds the middle slot half-width {half}"
            )
        neighbors = tuple(
            NeighborChannel(
                self._probes[k].spectrum_at(self.victim_carrier(k, central_offset))
            )
            for k in range(self.slot_count)
            if k != victim_index
        )
        victim_scenario = replace(
            self._scenario,
            media_channels=(self._scenario.media_channels[victim_index],),
            gsnr_profile=self._profile,
            neighbors=neighbors,
        )
        return open_session(victim_scenario)
