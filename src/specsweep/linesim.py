"""Ground-truth line-system model and the black-box measurement function.

A Scenario fully describes one simulated spectrum service: slot geometry,
filter cascade, GSNR profile, neighbor channels and calibration constants.
``measure`` produces the Q-factor a field transceiver would read at a given
carrier; ``open_session`` wraps a scenario behind the narrow probe interface
that the sweep engine and diagnosis are allowed to see.
"""

import hashlib
import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Optional, Tuple

import numpy as np

from specsweep.formats import OUTAGE_BER, ber_from_snr, denormalize_gsnr, q_db_from_ber
from specsweep.spectral import (
    FilterElement,
    FrequencyGrid,
    MediaChannel,
    Ripple,
    SignalSpectrum,
    cascade_power_response,
    overlap_coefficient,
    signal_psd,
)

# Bound on read noise, checked when a scenario is built: beyond it the
# model's arithmetic overflows.
MAX_NOISE_SIGMA_DB = 10.0


@dataclass(frozen=True)
class GsnrProfile:
    """GSNR over frequency: base at the anchor center, linear tilt, ripple.

    The anchor is the span of the scenario's media channels (see
    ``local_gsnr_db``), so every slot of a layout reads one profile.
    """

    base_gsnr_db: float
    tilt_db: float = 0.0
    ripple_components: Tuple[Ripple, ...] = ()


@dataclass(frozen=True)
class NeighborChannel(SignalSpectrum):
    """An interfering carrier outside the probed slot: a spectrum whose center is required.

    Like every carrier, it follows the constant-PSD rule (see ``crosstalk_lin``).
    """

    center: float = field(kw_only=True)


@dataclass(frozen=True)
class Scenario:
    media_channels: Tuple[MediaChannel, ...]
    gsnr_profile: GsnrProfile
    filters: Tuple[FilterElement, ...] = ()
    neighbors: Tuple[NeighborChannel, ...] = ()
    crosstalk_coupling: float = 1.0
    filtering_exponent: float = 2.0
    measurement_noise_sigma_db: float = 0.1
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

    @cached_property  # read on every measurement
    def span(self):
        return (
            min(mc.start for mc in self.media_channels),
            max(mc.stop for mc in self.media_channels),
        )


@dataclass(frozen=True)
class MeasurementResult:
    """One Q reading; ``q_db`` is None on outage (no valid reading)."""

    q_db: Optional[float]

    @property
    def outage(self):
        return self.q_db is None


@lru_cache(maxsize=1)
def _cascade_on_grid(filters, grid):
    """The grid's points and the cascade's power response there, kept for one scenario's reads."""
    points = grid.points()
    return points, cascade_power_response(filters, points)


def local_gsnr_db(scenario, f):
    """Underlying GSNR profile at the absolute frequencies ``f`` (extrapolates).

    The tilt is anchored at the span of the media channels.
    """
    lo, hi = scenario.span
    profile = scenario.gsnr_profile
    g = profile.base_gsnr_db + profile.tilt_db * (f - (lo + hi) / 2.0) / (hi - lo)
    for rip in profile.ripple_components:
        g = g + rip.db(f)
    return g


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
    points, cascade = _cascade_on_grid(scenario.filters, scenario.grid)
    window = _occupied_slice(scenario.grid, spectrum)
    f = points[window]
    s = signal_psd(f - spectrum.center, spectrum)
    s_total = np.trapezoid(s, f)
    if s_total <= 0.0:
        raise ValueError(f"signal at {spectrum.center} GHz lies outside the scenario grid")
    weight = s * cascade[window]
    norm = np.trapezoid(weight, f)
    return f, weight, norm, float(norm / s_total)


def crosstalk_lin(scenario, victim):
    """Aggregate linear crosstalk term from all neighbors.

    Each neighbor's power follows the constant-PSD rule relative to the
    victim (ratio SR_n / SR_v), the rule the customer side's guard bands
    assume, so the result does not depend on the absolute victim power.
    """
    total = 0.0
    for nb in scenario.neighbors:
        ratio = nb.symbol_rate / victim.symbol_rate
        chi = overlap_coefficient(victim, nb, abs(nb.center - victim.center))
        total += ratio * chi
    return scenario.crosstalk_coupling * total


def _q_noise_db(scenario, carrier, probe, trial_index):
    if scenario.measurement_noise_sigma_db == 0.0:
        return 0.0
    key = f"{scenario.seed}|{carrier:.6f}|{probe.probe_id}|{trial_index}"
    digest = hashlib.sha256(key.encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return float(rng.normal(0.0, scenario.measurement_noise_sigma_db))


@lru_cache(maxsize=1)
def _noiseless_q_db(scenario, carrier, probe):
    """Q (dB) before read noise, or None on outage.

    The cache only has to span the trials of one point, which are read in a
    row. Chain: profile average weighted by the received spectrum, filtering
    penalty, crosstalk added inverse-linearly, then GSNR -> in-band SNR ->
    BER -> Q.
    """
    spectrum = probe.spectrum_at(carrier)
    f, weight, norm, rho = _filtered_psd(scenario, spectrum)

    # Past the float range the profile reads +-inf dB: -inf is an exact zero, and
    # an inf or NaN average (0 * inf, or 0 / 0 when rho = 0) is an outage below.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        profile_lin = 10.0 ** (local_gsnr_db(scenario, f) / 10.0)
        g_profile = float(np.trapezoid(weight * profile_lin, f) / norm)
    try:
        g_filtered = g_profile * rho ** scenario.filtering_exponent
        g_eff = 1.0 / (1.0 / g_filtered + crosstalk_lin(scenario, spectrum))
    except (OverflowError, ZeroDivisionError):
        return None  # rho > 1 to a huge exponent, or a zero GSNR or inverse
    if not 0.0 < g_eff < math.inf:
        return None  # no finite positive GSNR: nothing passed, or NaN on the way

    snr_db = denormalize_gsnr(10.0 * np.log10(g_eff), probe.symbol_rate)
    ber = ber_from_snr(probe.format, snr_db)
    if ber > OUTAGE_BER:
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
    """What a spectrum customer actually has: a tunable probe.

    Exposes only carrier/probe selection and Q readout; the slot to sweep
    comes with the sweep plan. Scenario internals (filters, profile,
    neighbors) stay private.
    """

    def __init__(self, scenario):
        self.__scenario = scenario
        self.__carrier = None
        self.__probe = None

    def set_carrier(self, carrier):
        self.__carrier = float(carrier)

    def set_probe(self, probe):
        self.__probe = probe

    def read_q(self, trial_index=0):
        if self.__carrier is None or self.__probe is None:
            raise ValueError("set_carrier and set_probe before read_q")
        return measure(self.__scenario, self.__carrier, self.__probe, trial_index)


def open_session(scenario):
    """Open an independent black-box probing session on a scenario."""
    return BlackBoxProbe(scenario)


class CrosstalkBench:
    """Multi-slot layout where every slot carries one carrier.

    Builds, per victim slot, the layout's scenario with every other slot's
    carrier as a neighbor channel after the scenario's own neighbors; the
    middle slot's carrier can be offset within its slot to emulate a
    drifting customer.
    The crosstalk scan only ever sees the sessions this bench hands out, its
    ``probes`` (one per slot), ``victim_carrier`` and ``check_offset``.

    Every slot's carrier is built once, at its aligned center; a session
    rebuilds only the middle one, at its offset. The neighbors are the same
    values, in the same order, as built afresh.
    """

    def __init__(self, scenario, slot_probes):
        if len(scenario.media_channels) != len(slot_probes):
            raise ValueError(
                f"need one probe per media channel ({len(scenario.media_channels)}), "
                f"got {len(slot_probes)}"
            )
        if len(slot_probes) < 3:
            raise ValueError("crosstalk bench needs at least 3 slots")
        self._scenario = scenario
        self._middle_index = len(slot_probes) // 2
        self.probes = tuple(slot_probes)
        self.middle_slot = scenario.media_channels[self._middle_index]
        self._carriers = tuple(
            NeighborChannel(**asdict(p.spectrum_at(mc.center)))
            for p, mc in zip(self.probes, scenario.media_channels)
        )

    def victim_carrier(self, victim_index, central_offset):
        center = self._scenario.media_channels[victim_index].center
        if victim_index == self._middle_index:
            return center + central_offset
        return center

    def check_offset(self, offset):
        """Raise ValueError unless the middle carrier at ``offset`` stays in its slot."""
        half = self.middle_slot.width / 2.0
        if not abs(offset) <= half:
            raise ValueError(f"offset {offset} GHz leaves the middle slot (+/-{half} GHz)")

    def session(self, victim_index, central_offset):
        """Black-box session for one victim slot, middle carrier offset applied."""
        self.check_offset(central_offset)
        carriers = list(self._carriers)
        middle = self._middle_index
        carriers[middle] = replace(
            carriers[middle], center=self.victim_carrier(middle, central_offset)
        )
        del carriers[victim_index]
        victim_scenario = replace(self._scenario, neighbors=(*self._scenario.neighbors, *carriers))
        return open_session(victim_scenario)
