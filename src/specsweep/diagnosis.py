"""Turns sweep curves into findings: bandwidth, misalignment, tilt/ripple,
carrier recommendations, guard bands and pre-emphasis.

All estimators work purely on SweepResult data; nothing here may look at
scenario internals.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from specsweep.errors import UndiagnosableError
from specsweep.formats import bisect, required_gsnr
from specsweep.spectral import DEFAULT_ROLL_OFF, SignalSpectrum, occupied_width, overlap_coefficient

PENALTY_THRESHOLD_DB = 0.5
DEFAULT_GUARD_PENALTY_DB = 0.1
GUARD_BAND_TOL_GHZ = 0.01
PRE_EMPHASIS_CLIP_DB = 3.0
_CURVATURE_FLOOR = 1e-6  # dB per step^2; below this a peak is considered flat


@dataclass(frozen=True)
class OffsetEstimate:
    offset_ghz: float
    low_confidence: bool = False


@dataclass(frozen=True)
class EffectiveBandwidth:
    lower_bound_ghz: float
    upper_bound_ghz: float
    threshold_db: float
    filter_limited: bool
    degenerate: bool = False
    # Occupied width of the widest probe with any finite reading, before the
    # lower bound is clamped to stay <= upper bound.
    widest_working_width_ghz: Optional[float] = None


@dataclass(frozen=True)
class TiltRippleEstimate:
    tilt_db: float
    ripple_pp_db: float


@dataclass(frozen=True)
class CarrierAssignment:
    center_ghz: float
    entry_name: str
    predicted_margin_db: float
    occupied_width_ghz: float


@dataclass(frozen=True)
class CarrierPlan:
    assignments: Tuple[CarrierAssignment, ...]
    guard_ghz: float
    # Per-entry worst-case GSNR shortfall (dB) when nothing could be placed.
    shortfalls_db: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class GuardBandResult:
    """Bisection result for one format pair.

    min_spacing_ghz is the smallest center-to-center spacing keeping the
    modeled crosstalk penalty below the threshold; guard_band_ghz is that
    spacing minus the half occupied widths, floored at zero.
    """

    min_spacing_ghz: float
    guard_band_ghz: float


@dataclass(frozen=True)
class DiagnosisReport:
    effective_bandwidth: Optional[EffectiveBandwidth]
    center_offset: Optional[OffsetEstimate]
    tilt_db: Optional[float]
    ripple_pp_db: Optional[float]
    per_probe_penalty_curves: Dict[str, Tuple[Tuple[float, Optional[float]], ...]]
    carrier_plan: Optional[CarrierPlan]
    guard_band_recommendations: Dict[str, GuardBandResult]
    pre_emphasis: Tuple[Tuple[float, float], ...]


def _finite(curve):
    c = curve.carriers()
    g = curve.gsnr_db()
    mask = np.isfinite(g)
    return c, g, mask


def estimate_center_offset(sweep):
    """Signed offset of the passband center from the nominal slot center.

    Each usable probe contributes a 3-point parabolic peak fit; estimates are
    averaged with curvature-squared weights (sharper peaks count more). A
    flat channel yields 0 with the low-confidence flag set.
    """
    nominal = sweep.slot.center
    fits = []
    any_finite = False
    for curve in sweep.curves:
        c, g, mask = _finite(curve)
        if np.count_nonzero(mask) == 0:
            continue
        any_finite = True
        if np.count_nonzero(mask) < 3:
            continue
        idx = int(np.nanargmax(np.where(mask, g, -np.inf)))
        if idx == 0 or idx == len(c) - 1:
            continue
        if not (mask[idx - 1] and mask[idx + 1]):
            continue
        y0, y1, y2 = g[idx - 1], g[idx], g[idx + 1]
        curvature = y0 - 2.0 * y1 + y2  # negative at a genuine peak
        if curvature >= -_CURVATURE_FLOOR:
            continue
        vertex = c[idx] + 0.5 * sweep.step * (y0 - y2) / curvature
        fits.append((vertex - nominal, curvature * curvature))
    if not any_finite:
        raise UndiagnosableError("all probes in outage; cannot estimate offset")
    if not fits:
        return OffsetEstimate(0.0, low_confidence=True)
    offsets = np.array([f[0] for f in fits])
    weights = np.array([f[1] for f in fits])
    return OffsetEstimate(float(np.sum(offsets * weights) / np.sum(weights)))


def estimate_effective_bandwidth(sweep):
    """Bracket the usable optical bandwidth from the sweep curves.

    Upper bound: occupied width of the narrowest probe plus the extent of
    the contiguous carrier range (around its peak) within threshold of the
    peak, plus one step of quantization slack. Lower bound: occupied width
    of the widest probe that returned any finite reading, clamped to the
    upper bound when the two cross.
    """
    widths = [curve.probe.spectrum_at(0.0).occupied_width for curve in sweep.curves]
    order = np.argsort(widths)
    narrow = sweep.curves[order[0]]
    c, g, mask = _finite(narrow)
    if np.count_nonzero(mask) == 0:
        raise UndiagnosableError("narrowest probe has no finite readings")
    peak_idx = int(np.nanargmax(np.where(mask, g, -np.inf)))
    peak = g[peak_idx]
    ok = mask & (peak - np.where(mask, g, np.inf) <= PENALTY_THRESHOLD_DB)
    lo = hi = peak_idx
    while lo > 0 and ok[lo - 1]:
        lo -= 1
    while hi < len(c) - 1 and ok[hi + 1]:
        hi += 1
    narrow_width = widths[order[0]]
    upper = narrow_width + (c[hi] - c[lo]) + sweep.step
    degenerate = bool(np.count_nonzero(mask) == 1)

    working = [
        widths[i]
        for i in range(len(sweep.curves))
        if np.count_nonzero(np.isfinite(sweep.curves[i].gsnr_db())) > 0
    ]
    widest_working = max(working) if working else narrow_width
    lower = min(widest_working, upper)
    return EffectiveBandwidth(
        lower_bound_ghz=float(lower),
        upper_bound_ghz=float(upper),
        threshold_db=PENALTY_THRESHOLD_DB,
        filter_limited=bool(upper < sweep.slot.width),
        degenerate=degenerate,
        widest_working_width_ghz=float(widest_working),
    )


def _reference_curve(sweep):
    """Widest probe with >= 80% finite samples, else the narrowest probe."""
    widths = [curve.probe.spectrum_at(0.0).occupied_width for curve in sweep.curves]
    candidates = [
        (widths[i], i)
        for i in range(len(sweep.curves))
        if sweep.curves[i].finite_fraction() >= 0.8
    ]
    if candidates:
        return sweep.curves[max(candidates)[1]]
    return sweep.curves[int(np.argmin(widths))]


def estimate_tilt_ripple(sweep):
    """Least-squares tilt across the slot and peak-to-peak ripple residual."""
    curve = _reference_curve(sweep)
    c, g, mask = _finite(curve)
    if np.count_nonzero(mask) < 4:
        raise UndiagnosableError("fewer than 4 finite points for tilt regression")
    x, y = c[mask], g[mask]
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    tilt = slope * sweep.slot.width
    return TiltRippleEstimate(float(tilt), float(residuals.max() - residuals.min()))


def _band_min_gsnr(curve, lo, hi):
    """Minimum interpolated GSNR of ``curve`` over [lo, hi]; -inf if unusable."""
    c, g, mask = _finite(curve)
    if np.count_nonzero(mask) < 2:
        return -np.inf
    # Any outage sample inside the band disqualifies it outright.
    inside = (c >= lo - 1e-9) & (c <= hi + 1e-9)
    if np.any(inside & ~mask):
        return -np.inf
    cf, gf = c[mask], g[mask]
    if lo < cf[0] or hi > cf[-1]:
        return -np.inf
    probe_pts = np.concatenate(([lo, hi], cf[(cf > lo) & (cf < hi)]))
    return float(np.min(np.interp(probe_pts, cf, gf)))


def _nearest_rate_curve(sweep, symbol_rate):
    rates = [curve.probe.symbol_rate for curve in sweep.curves]
    return sweep.curves[int(np.argmin(np.abs(np.array(rates) - symbol_rate)))]


def recommend_carriers(sweep, catalog, guard_ghz=0.0):
    """Greedy left-to-right carrier packing over the sweep grid.

    At each candidate center the highest-net-rate entry whose predicted
    minimum GSNR over its occupied band clears required_gsnr wins; ties go
    to the lower symbol rate. The cursor then advances by the occupied
    width plus the guard. Deterministic regardless of catalog order.
    """
    if not catalog:
        raise ValueError("catalog must be non-empty")
    entries = sorted(catalog, key=lambda e: (-e.net_data_rate_gbps, e.symbol_rate))
    slot = sweep.slot
    carriers = sweep.curves[0].carriers()
    assignments: List[CarrierAssignment] = []
    shortfalls: Dict[str, float] = {}
    cursor = slot.start
    for center in carriers:
        placed = None
        for entry in entries:
            width = occupied_width(entry.symbol_rate, DEFAULT_ROLL_OFF)
            lo, hi = center - width / 2.0, center + width / 2.0
            if lo < cursor - 1e-9 or lo < slot.start - 1e-9 or hi > slot.stop + 1e-9:
                continue
            min_gsnr = _band_min_gsnr(
                _nearest_rate_curve(sweep, entry.symbol_rate), lo, hi
            )
            margin = min_gsnr - required_gsnr(entry)
            if margin >= 0.0:
                placed = CarrierAssignment(float(center), entry.name, float(margin), width)
                break
            if np.isfinite(min_gsnr):
                prev = shortfalls.get(entry.name)
                shortfalls[entry.name] = min(-margin, prev) if prev is not None else -margin
        if placed is not None:
            assignments.append(placed)
            cursor = placed.center_ghz + placed.occupied_width_ghz / 2.0 + guard_ghz
    if assignments:
        shortfalls = {}
    return CarrierPlan(tuple(assignments), guard_ghz, shortfalls)


def _pair_penalty_db(spacing, victim, interferer, link_gsnr_db):
    """Modeled crosstalk penalty of one equal-power interferer at a spacing.

    Power follows the constant-PSD rule, so the interferer-to-victim power
    ratio is SR_i / SR_v; worse of the two victim/interferer directions.
    """
    g = 10.0 ** (link_gsnr_db / 10.0)
    worst = 0.0
    for v, i in ((victim, interferer), (interferer, victim)):
        ratio = i.symbol_rate / v.symbol_rate
        chi = overlap_coefficient(v, i, spacing)
        worst = max(worst, 10.0 * np.log10(1.0 + g * ratio * chi))
    return worst


def guard_band(entry_a, entry_b, link_gsnr_db, max_penalty_db=DEFAULT_GUARD_PENALTY_DB):
    """Smallest spacing keeping mutual crosstalk below max_penalty_db.

    Bisection over center-to-center spacing; the guard band proper is the
    spacing beyond the two half occupied widths, floored at zero (with
    strictly band-limited spectra the penalty vanishes at support
    separation, so the informative figure is min_spacing_ghz).
    """
    if max_penalty_db <= 0:
        raise ValueError("max_penalty_db must be > 0")
    a = SignalSpectrum(entry_a.symbol_rate)
    b = SignalSpectrum(entry_b.symbol_rate)
    half_sum = (a.occupied_width + b.occupied_width) / 2.0
    if _pair_penalty_db(0.0, a, b, link_gsnr_db) <= max_penalty_db:
        return GuardBandResult(0.0, 0.0)
    spacing = bisect(
        lambda s: _pair_penalty_db(s, a, b, link_gsnr_db) > max_penalty_db,
        0.0,
        half_sum,
        GUARD_BAND_TOL_GHZ,
    )
    return GuardBandResult(float(spacing), float(max(0.0, spacing - half_sum)))


def _penalties(curve):
    """(carrier, drop below the curve's peak GSNR in dB, or None at outage) per point."""
    c, g, mask = _finite(curve)
    peak = np.max(g[mask], initial=-np.inf)
    return tuple((float(x), float(peak - y) if ok else None) for x, y, ok in zip(c, g, mask))


def pre_emphasis(sweep):
    """Advisory per-carrier launch-power offsets that would flatten the slot."""
    return tuple(
        (c, min(p, PRE_EMPHASIS_CLIP_DB))
        for c, p in _penalties(_reference_curve(sweep))
        if p is not None
    )


def diagnose(sweep, catalog=None, guard_ghz=0.0):
    """Full diagnosis of one sweep; sub-estimates degrade to None when the
    data cannot support them instead of failing the whole report."""
    if all(curve.finite_fraction() == 0.0 for curve in sweep.curves):
        raise UndiagnosableError("every probe is in outage at every carrier")

    def _try(estimator):
        try:
            return estimator(sweep)
        except UndiagnosableError:
            return None

    bandwidth = _try(estimate_effective_bandwidth)
    offset = _try(estimate_center_offset)
    tilt_ripple = _try(estimate_tilt_ripple)

    plan = None
    guards = {}
    if catalog:
        plan = recommend_carriers(sweep, catalog, guard_ghz)
        gsnr = np.concatenate([curve.gsnr_db() for curve in sweep.curves])
        link = float(np.median(gsnr[np.isfinite(gsnr)]))
        for i, ea in enumerate(catalog):
            for eb in catalog[i:]:
                key = f"{ea.name}|{eb.name}"
                guards[key] = guard_band(ea, eb, link)

    return DiagnosisReport(
        effective_bandwidth=bandwidth,
        center_offset=offset,
        tilt_db=tilt_ripple.tilt_db if tilt_ripple else None,
        ripple_pp_db=tilt_ripple.ripple_pp_db if tilt_ripple else None,
        per_probe_penalty_curves={
            curve.probe.probe_id: _penalties(curve) for curve in sweep.curves
        },
        carrier_plan=plan,
        guard_band_recommendations=guards,
        pre_emphasis=pre_emphasis(sweep),
    )
