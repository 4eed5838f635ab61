"""Turns sweep curves into findings: bandwidth, misalignment, tilt/ripple,
carrier recommendations, guard bands and pre-emphasis.

All estimators work purely on SweepResult data; nothing here may look at
scenario internals.
"""

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from specsweep.errors import UndiagnosableError
from specsweep.formats import bisect, required_gsnr
from specsweep.spectral import overlap_coefficient

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
    entry: str
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
class PenaltyPoint:
    """Drop of a probe's GSNR below its peak at one carrier; None at outage."""

    carrier: float
    penalty_db: Optional[float]


@dataclass(frozen=True)
class EmphasisPoint:
    """Advisory launch-power offset at one carrier."""

    carrier: float
    offset_db: float


@dataclass(frozen=True)
class DiagnosisReport:
    """The diagnosis report; its field names are the report's JSON keys."""

    effective_bandwidth: Optional[EffectiveBandwidth]
    center_offset: Optional[OffsetEstimate]
    tilt_db: Optional[float]
    ripple_pp_db: Optional[float]
    per_probe_penalty_curves: Dict[str, Tuple[PenaltyPoint, ...]]
    carrier_plan: Optional[CarrierPlan]
    guard_band_recommendations: Dict[str, GuardBandResult]
    pre_emphasis: Tuple[EmphasisPoint, ...]


def _readings(sweep):
    """The sweep as probes x carriers: GSNR readings (NaN at outage), where
    they are finite, and each probe's occupied width, in curve order."""
    g = np.array([curve.gsnr_db for curve in sweep.curves], dtype=float)
    return g, np.isfinite(g), np.array([curve.probe.occupied_width for curve in sweep.curves])


def estimate_center_offset(sweep):
    """Signed offset of the passband center from the nominal slot center.

    Each usable probe contributes a 3-point parabolic peak fit; estimates are
    averaged with curvature-squared weights (sharper peaks count more). A
    flat channel yields 0 with the low-confidence flag set.
    """
    readings, finite, _ = _readings(sweep)
    if not finite.any():
        raise UndiagnosableError("all probes in outage; cannot estimate offset")
    c = sweep.plan.carriers()
    fits = []
    for g, mask in zip(readings, finite):
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
        vertex = c[idx] + 0.5 * sweep.plan.step * (y0 - y2) / curvature
        fits.append((vertex - sweep.plan.slot.center, curvature * curvature))
    if not fits:
        return OffsetEstimate(0.0, low_confidence=True)
    offsets = np.array([f[0] for f in fits])
    weights = np.array([f[1] for f in fits])
    return OffsetEstimate(float(np.sum(offsets * weights) / np.sum(weights)))


def estimate_effective_bandwidth(sweep):
    """Bracket the usable optical bandwidth from the sweep curves.

    Upper bound: occupied width of the narrowest probe (the first listed of
    equal widths) plus the extent of the contiguous carrier range (around
    its peak) within threshold of the peak, plus one step of quantization
    slack. Lower bound: occupied width of the widest probe that returned
    any finite reading, clamped to the upper bound when the two cross.
    """
    readings, finite, widths = _readings(sweep)
    narrowest = int(np.argmin(widths))
    g, mask = readings[narrowest], finite[narrowest]
    c = sweep.plan.carriers()
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
    upper = widths[narrowest] + (c[hi] - c[lo]) + sweep.plan.step
    degenerate = bool(np.count_nonzero(mask) == 1)

    widest_working = widths[finite.any(axis=1)].max()
    lower = min(widest_working, upper)
    return EffectiveBandwidth(
        lower_bound_ghz=float(lower),
        upper_bound_ghz=float(upper),
        threshold_db=PENALTY_THRESHOLD_DB,
        filter_limited=bool(upper < sweep.plan.slot.width),
        degenerate=degenerate,
        widest_working_width_ghz=float(widest_working),
    )


def _reference(sweep):
    """Row and mask of the widest probe with >= 80% finite samples (the last
    listed of equal widths), else of the narrowest probe (the first listed)."""
    readings, finite, widths = _readings(sweep)
    candidates = [(w, i) for i, w in enumerate(widths) if finite[i].mean() >= 0.8]
    i = max(candidates)[1] if candidates else int(np.argmin(widths))
    return readings[i], finite[i]


def estimate_tilt_ripple(sweep):
    """Least-squares tilt across the slot and peak-to-peak ripple residual."""
    g, mask = _reference(sweep)
    if np.count_nonzero(mask) < 4:
        raise UndiagnosableError("fewer than 4 finite points for tilt regression")
    x, y = sweep.plan.carriers()[mask], g[mask]
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    tilt = slope * sweep.plan.slot.width
    return TiltRippleEstimate(float(tilt), float(residuals.max() - residuals.min()))


def _band_min_gsnr(g, mask, c, lo, hi):
    """Minimum interpolated GSNR of the row ``g`` (finite where ``mask``),
    read at ``c``, over [lo, hi]; -inf if unusable."""
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


def recommend_carriers(sweep, catalog, guard_ghz=0.0):
    """Greedy left-to-right carrier packing over the sweep grid.

    At each candidate center the highest-net-rate entry whose predicted
    minimum GSNR over its occupied band clears required_gsnr wins; ties go
    to the lower symbol rate. The cursor then advances by the occupied
    width plus the guard. Deterministic regardless of catalog order. An
    entry's GSNR is read from the probe nearest its symbol rate, the first
    listed of equally near ones.
    """
    if not catalog:
        raise ValueError("catalog must be non-empty")
    entries = sorted(catalog, key=lambda e: (-e.net_data_rate_gbps, e.symbol_rate))
    readings, finite, _ = _readings(sweep)
    rates = np.array([curve.probe.symbol_rate for curve in sweep.curves])
    nearest = np.argmin(np.abs(rates - np.array([[e.symbol_rate] for e in entries])), axis=1)
    slot = sweep.plan.slot
    carriers = sweep.plan.carriers()
    assignments: List[CarrierAssignment] = []
    shortfalls: Dict[str, float] = {}
    cursor = slot.start
    for center in carriers:
        placed = None
        for entry, row in zip(entries, nearest):
            width = entry.occupied_width
            lo, hi = center - width / 2.0, center + width / 2.0
            if lo < cursor - 1e-9 or lo < slot.start - 1e-9 or hi > slot.stop + 1e-9:
                continue
            min_gsnr = _band_min_gsnr(readings[row], finite[row], carriers, lo, hi)
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


def _pair_exceeds(spacing, a, b, link_lin, max_penalty_db):
    """Whether the modeled crosstalk penalty of a pair at ``spacing`` is over the limit.

    Each spectrum is the victim of the other in turn; the penalty of one
    direction is 10*log10(1 + g*ratio*chi), with g the linear link GSNR and,
    by the constant-PSD rule, ratio = SR_interferer / SR_victim. Equal spectra
    have a single direction, and the first direction over the limit decides.
    For a positive limit that is the same answer as comparing the worse of
    the two directions.
    """
    for v, i in dict.fromkeys(((a, b), (b, a))):
        ratio = i.symbol_rate / v.symbol_rate
        chi = overlap_coefficient(v, i, spacing)
        if 10.0 * np.log10(1.0 + link_lin * ratio * chi) > max_penalty_db:
            return True
    return False


def guard_band(entry_a, entry_b, link_gsnr_db, max_penalty_db=DEFAULT_GUARD_PENALTY_DB):
    """Smallest spacing keeping mutual crosstalk below max_penalty_db.

    Bisection over center-to-center spacing; each step only asks whether the
    penalty in either direction is over the limit (``_pair_exceeds``). The
    guard band proper is the spacing beyond the two half occupied widths,
    floored at zero (with strictly band-limited spectra the penalty vanishes
    at support separation, so the informative figure is min_spacing_ghz).
    ``max_penalty_db`` must be finite and positive, and ``link_gsnr_db``
    finite with a linear value that fits a float; anything else raises
    ValueError.
    """
    if not (math.isfinite(max_penalty_db) and max_penalty_db > 0):
        raise ValueError(f"max_penalty_db must be finite and > 0, got {max_penalty_db}")
    if not math.isfinite(link_gsnr_db):
        raise ValueError(f"link_gsnr_db must be finite, got {link_gsnr_db}")
    try:
        link_lin = 10.0 ** (link_gsnr_db / 10.0)
    except OverflowError:
        raise ValueError(f"link_gsnr_db is too large, got {link_gsnr_db}") from None
    a = entry_a.spectrum_at(0.0)
    b = entry_b.spectrum_at(0.0)
    half_sum = (a.occupied_width + b.occupied_width) / 2.0
    if not _pair_exceeds(0.0, a, b, link_lin, max_penalty_db):
        return GuardBandResult(0.0, 0.0)
    spacing = bisect(
        lambda s: _pair_exceeds(s, a, b, link_lin, max_penalty_db),
        0.0,
        half_sum,
        GUARD_BAND_TOL_GHZ,
    )
    return GuardBandResult(float(spacing), float(max(0.0, spacing - half_sum)))


def _penalties(g, mask, c):
    """The drop below the row ``g``'s peak GSNR (finite where ``mask``) at each carrier of ``c``."""
    peak = np.max(g[mask], initial=-np.inf)
    return tuple(
        PenaltyPoint(float(x), float(peak - y) if ok else None) for x, y, ok in zip(c, g, mask)
    )


def pre_emphasis(sweep):
    """Advisory per-carrier launch-power offsets that would flatten the slot."""
    return tuple(
        EmphasisPoint(p.carrier, min(p.penalty_db, PRE_EMPHASIS_CLIP_DB))
        for p in _penalties(*_reference(sweep), sweep.plan.carriers())
        if p.penalty_db is not None
    )


def diagnose(sweep, catalog=None, guard_ghz=0.0):
    """Full diagnosis of one sweep; sub-estimates degrade to None when the
    data cannot support them instead of failing the whole report."""
    readings, finite, _ = _readings(sweep)
    if not finite.any():
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
        link = statistics.median(readings[finite].tolist())
        for i, ea in enumerate(catalog):
            for eb in catalog[i:]:
                key = f"{ea.name}|{eb.name}"
                guards[key] = guard_band(ea, eb, link)

    carriers = sweep.plan.carriers()
    return DiagnosisReport(
        effective_bandwidth=bandwidth,
        center_offset=offset,
        tilt_db=tilt_ripple.tilt_db if tilt_ripple else None,
        ripple_pp_db=tilt_ripple.ripple_pp_db if tilt_ripple else None,
        per_probe_penalty_curves={
            curve.probe.probe_id: _penalties(g, mask, carriers)
            for curve, g, mask in zip(sweep.curves, readings, finite)
        },
        carrier_plan=plan,
        guard_band_recommendations=guards,
        pre_emphasis=pre_emphasis(sweep),
    )
