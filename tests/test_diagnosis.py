"""Diagnosis-layer tests: estimators, recommender, guard bands."""

import ast
import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

import specsweep
from specsweep import diagnosis
from specsweep.diagnosis import (
    GUARD_BAND_TOL_GHZ,
    GuardBandResult,
    diagnose,
    estimate_center_offset,
    estimate_effective_bandwidth,
    estimate_tilt_ripple,
    guard_band,
    pre_emphasis,
    recommend_carriers,
)
from specsweep.errors import UndiagnosableError
from specsweep.formats import BUILTIN_CATALOG, bisect, catalog_entry, required_gsnr
from specsweep.linesim import (
    GsnrProfile,
    MediaChannel,
    Scenario,
    open_session,
)
from specsweep.probe import ProbeCurve, SweepPlan, SweepResult, run_sweep
from specsweep.spectral import FilterElement, Ripple, SignalSpectrum, overlap_coefficient

QPSK69 = catalog_entry("200G-69GBd-DP-QPSK")
HYB46 = catalog_entry("200G-46GBd-DP-P-16QAM")
QAM34 = catalog_entry("200G-34GBd-DP-16QAM")
PROBES_200G = (QPSK69, HYB46, QAM34)


def make_sweep(
    base=18.5,
    width=100.0,
    filters=(),
    tilt=0.0,
    ripple=(),
    sigma=0.0,
    seed=3,
    probes=PROBES_200G,
    trials=1,
    step=6.25,
):
    sc = Scenario(
        media_channels=(MediaChannel(0.0, width),),
        filters=tuple(filters),
        gsnr_profile=GsnrProfile(base, tilt_db=tilt, ripple_components=tuple(ripple)),
        measurement_noise_sigma_db=sigma,
        seed=seed,
    )
    plan = SweepPlan(sc.media_channels[0], tuple(probes), step=step, trials_per_point=trials)
    return run_sweep(open_session(sc), plan)


def test_offset_zero_for_symmetric_scenario():
    sweep = make_sweep(filters=[FilterElement(0.0, 62.0, order=4)])
    est = estimate_center_offset(sweep)
    assert abs(est.offset_ghz) <= 0.5
    assert not est.low_confidence


def test_offset_recovers_configured_misalignment():
    sweep = make_sweep(filters=[FilterElement(9.0, 62.0, order=4)])
    est = estimate_center_offset(sweep)
    assert est.offset_ghz == pytest.approx(9.0, abs=3.125)


def test_offset_flat_channel_low_confidence():
    sweep = make_sweep(filters=[])
    est = estimate_center_offset(sweep)
    assert est.offset_ghz == 0.0
    assert est.low_confidence


def test_offset_undiagnosable_when_all_outage():
    sweep = make_sweep(base=2.0, probes=(QAM34,))
    with pytest.raises(UndiagnosableError):
        estimate_center_offset(sweep)


def test_offset_property_over_random_scenarios():
    """Randomized misalignments are recovered within half a sweep step."""
    rng = np.random.default_rng(2024)
    hits, n = 0, 60
    for k in range(n):
        offset = rng.uniform(-12.0, 12.0)
        sweep = make_sweep(
            filters=[FilterElement(offset, rng.uniform(55.0, 70.0), order=int(rng.integers(3, 6)))],
            sigma=rng.uniform(0.0, 0.1),
            seed=k,
        )
        est = estimate_center_offset(sweep)
        if abs(est.offset_ghz - offset) <= 3.125:
            hits += 1
    assert hits / n >= 0.95


def test_effective_bandwidth_filtered():
    sweep = make_sweep(base=16.4, filters=[FilterElement(0.0, 50.0, order=6)])
    bw = estimate_effective_bandwidth(sweep)
    assert bw.filter_limited
    assert bw.lower_bound_ghz <= bw.upper_bound_ghz
    assert bw.upper_bound_ghz < 100.0


def test_effective_bandwidth_unfiltered_slot():
    sweep = make_sweep(base=20.0, width=400.0)
    bw = estimate_effective_bandwidth(sweep)
    assert not bw.filter_limited
    assert bw.upper_bound_ghz >= 400.0


def test_effective_bandwidth_bounds_bracket_truth():
    """lower <= true cascade 3-dB width <= upper for a computable cascade.

    The base GSNR is set so the 69 GBd probe is in outage everywhere while
    the narrower probes survive, which is the regime the bracketing rule is
    designed for.
    """
    robust34 = catalog_entry("100G-34GBd-DP-QPSK")
    sweep = make_sweep(
        base=13.2,
        filters=[FilterElement(0.0, 58.0, order=5)],
        probes=(QPSK69, HYB46, robust34),
    )
    assert all(g is None for g in sweep.curves[0].gsnr_db)
    bw = estimate_effective_bandwidth(sweep)
    assert bw.lower_bound_ghz <= 58.0 <= bw.upper_bound_ghz


def test_tilt_recovery_noiseless():
    sweep = make_sweep(base=20.6, width=400.0, tilt=2.5)
    est = estimate_tilt_ripple(sweep)
    assert est.tilt_db == pytest.approx(2.5, abs=0.05)
    assert est.ripple_pp_db < 0.1


def test_ripple_recovery_flat_profile():
    # Ripple period well above the probe's occupied width, so the in-band
    # spectral averaging barely attenuates it.
    sweep = make_sweep(
        base=20.0,
        width=400.0,
        # Cosine phase keeps the sinusoid orthogonal to the fitted line.
        ripple=[Ripple(0.4, 200.0, np.pi / 2)],
        probes=(QAM34,),
    )
    est = estimate_tilt_ripple(sweep)
    assert est.tilt_db == pytest.approx(0.0, abs=0.1)
    # Peak-to-peak residual ~ 2x the configured amplitude.
    assert 0.5 < est.ripple_pp_db <= 0.85


def test_tilt_with_noise_over_seeds():
    errs = []
    for seed in range(30):
        sweep = make_sweep(base=20.6, width=400.0, tilt=2.5, sigma=0.1, seed=seed, trials=5)
        errs.append(abs(estimate_tilt_ripple(sweep).tilt_db - 2.5))
    assert max(errs) <= 0.3


def test_tilt_needs_enough_points():
    sweep = make_sweep(base=2.0, probes=(QAM34,))
    with pytest.raises(UndiagnosableError):
        estimate_tilt_ripple(sweep)


def test_recommender_flat_channel_packs_best_entry():
    sweep = make_sweep(base=22.0, width=400.0)
    catalog = [catalog_entry("300G-52GBd-DP-16QAM"), catalog_entry("300G-69GBd-DP-P-16QAM")]
    plan = recommend_carriers(sweep, catalog)
    assert plan.assignments
    # Uniformly high GSNR: the tie-break picks the narrower 52 GBd entry
    # everywhere, and every placed carrier has non-negative margin.
    assert {a.entry for a in plan.assignments} == {"300G-52GBd-DP-16QAM"}
    assert all(a.predicted_margin_db >= 0.0 for a in plan.assignments)


def test_recommender_splits_tilted_slot():
    sweep = make_sweep(base=20.6, width=400.0, tilt=2.5)
    catalog = [catalog_entry("300G-69GBd-DP-P-16QAM"), catalog_entry("300G-52GBd-DP-16QAM")]
    plan = recommend_carriers(sweep, catalog)
    hybrids = [a for a in plan.assignments if a.entry == "300G-69GBd-DP-P-16QAM"]
    qams = [a for a in plan.assignments if a.entry == "300G-52GBd-DP-16QAM"]
    assert hybrids and qams
    assert max(a.center_ghz for a in hybrids) < min(a.center_ghz for a in qams)


def test_recommender_catalog_order_invariance():
    sweep = make_sweep(base=20.6, width=400.0, tilt=2.5)
    catalog = [catalog_entry("300G-69GBd-DP-P-16QAM"), catalog_entry("300G-52GBd-DP-16QAM")]
    a = recommend_carriers(sweep, catalog)
    b = recommend_carriers(sweep, catalog[::-1])
    assert a == b


def test_recommender_infeasible_reports_shortfalls():
    # Low but finite GSNR: the probes read ~14 dB, far below the 300G
    # 16QAM requirement.
    sweep = make_sweep(base=14.0, width=400.0, probes=(QPSK69,))
    catalog = [catalog_entry("300G-52GBd-DP-16QAM")]
    plan = recommend_carriers(sweep, catalog)
    assert not plan.assignments
    assert plan.shortfalls_db["300G-52GBd-DP-16QAM"] > 0.0


def test_recommender_honors_guard():
    sweep = make_sweep(base=22.0, width=400.0)
    catalog = [catalog_entry("300G-52GBd-DP-16QAM")]
    tight = recommend_carriers(sweep, catalog, guard_ghz=0.0)
    spaced = recommend_carriers(sweep, catalog, guard_ghz=20.0)
    assert len(spaced.assignments) < len(tight.assignments)
    for a, b in zip(spaced.assignments, spaced.assignments[1:]):
        assert b.center_ghz - a.center_ghz >= a.occupied_width_ghz + 20.0 - 1e-9


def test_guard_band_disjoint_supports_zero():
    a = catalog_entry("200G-69GBd-DP-QPSK")
    res = guard_band(a, a, link_gsnr_db=15.0)
    # Band-limited spectra: penalty hits zero at support separation, so the
    # guard beyond the half-widths is always zero; the informative output
    # is the minimum spacing.
    assert res.guard_band_ghz == 0.0
    assert 0.0 < res.min_spacing_ghz <= 82.11 + 0.02


def test_guard_band_huge_threshold_zero():
    a = catalog_entry("200G-69GBd-DP-QPSK")
    res = guard_band(a, a, link_gsnr_db=15.0, max_penalty_db=100.0)
    assert res.min_spacing_ghz == 0.0 and res.guard_band_ghz == 0.0


def test_guard_band_monotonicity():
    a = catalog_entry("200G-69GBd-DP-QPSK")
    b = catalog_entry("200G-34GBd-DP-16QAM")
    spacings = [
        guard_band(a, b, link_gsnr_db=15.0, max_penalty_db=p).min_spacing_ghz
        for p in (0.05, 0.1, 0.2, 0.5, 1.0)
    ]
    assert all(s2 <= s1 + 1e-6 for s1, s2 in zip(spacings, spacings[1:]))
    by_gsnr = [
        guard_band(a, b, link_gsnr_db=g, max_penalty_db=0.1).min_spacing_ghz
        for g in (10.0, 15.0, 20.0, 25.0)
    ]
    assert all(s2 >= s1 - 1e-6 for s1, s2 in zip(by_gsnr, by_gsnr[1:]))


BUILTIN_PAIRS = tuple(itertools.combinations_with_replacement(BUILTIN_CATALOG, 2))
# The reference visits the same midpoints over and over; memoising its
# overlaps keeps the bit-for-bit test fast without changing any value.
_chi = functools.cache(overlap_coefficient)


def plain_guard_band(entry_a, entry_b, link_gsnr_db, max_penalty_db):
    """guard_band with the penalty worked out in full: the worse of both directions."""
    a = SignalSpectrum(entry_a.symbol_rate)
    b = SignalSpectrum(entry_b.symbol_rate)
    g = 10.0 ** (link_gsnr_db / 10.0)

    def penalty_db(spacing):
        worst = 0.0
        for v, i in ((a, b), (b, a)):
            ratio = i.symbol_rate / v.symbol_rate
            worst = max(worst, 10.0 * np.log10(1.0 + g * ratio * _chi(v, i, spacing)))
        return worst

    half_sum = (a.occupied_width + b.occupied_width) / 2.0
    if penalty_db(0.0) <= max_penalty_db:
        return GuardBandResult(0.0, 0.0)
    spacing = bisect(lambda s: penalty_db(s) > max_penalty_db, 0.0, half_sum, GUARD_BAND_TOL_GHZ)
    return GuardBandResult(float(spacing), float(max(0.0, spacing - half_sum)))


@pytest.mark.parametrize("max_penalty_db", (0.05, 0.1, 1.0))
@pytest.mark.parametrize("link_gsnr_db", (8.0, 15.0, 19.3, 26.0))
def test_guard_band_matches_plain_two_direction_max(link_gsnr_db, max_penalty_db):
    for a, b in BUILTIN_PAIRS:
        assert guard_band(a, b, link_gsnr_db, max_penalty_db) == plain_guard_band(
            a, b, link_gsnr_db, max_penalty_db
        ), (a.name, b.name)


def test_guard_band_overlap_calls_short_circuit(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return overlap_coefficient(*args)

    monkeypatch.setattr(diagnosis, "overlap_coefficient", counting)
    for a, b in BUILTIN_PAIRS:
        guard_band(a, b, link_gsnr_db=15.0)
    # Both directions at every step would be 588 calls (14 steps per pair);
    # equal spectra take one direction, and a step ends at the first
    # direction over the limit.
    assert len(calls) == 384


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"max_penalty_db": float("nan")}, "max_penalty_db"),
        ({"max_penalty_db": float("inf")}, "max_penalty_db"),
        ({"max_penalty_db": 0.0}, "max_penalty_db"),
        ({"max_penalty_db": -0.1}, "max_penalty_db"),
        ({"link_gsnr_db": float("nan")}, "link_gsnr_db"),
        ({"link_gsnr_db": float("-inf")}, "link_gsnr_db"),
        ({"link_gsnr_db": 1e6}, "link_gsnr_db"),
    ],
)
def test_guard_band_rejects_bad_arguments(kwargs, name):
    args = {"link_gsnr_db": 19.0, **kwargs}
    with pytest.raises(ValueError, match=name):
        guard_band(catalog_entry("200G-69GBd-DP-QPSK"), catalog_entry("200G-34GBd-DP-16QAM"), **args)


def test_pre_emphasis_flat_and_tilted():
    flat = make_sweep(base=20.0, width=400.0)
    assert all(p.offset_db == 0.0 for p in pre_emphasis(flat))
    tilted = make_sweep(base=20.6, width=400.0, tilt=2.5)
    offs = {p.carrier: p.offset_db for p in pre_emphasis(tilted)}
    assert offs[200.0] == pytest.approx(0.0, abs=0.05)
    assert offs[-200.0] == pytest.approx(2.5, abs=0.15)
    steep = make_sweep(base=21.0, width=400.0, tilt=7.0, probes=(QPSK69,))
    assert max(p.offset_db for p in pre_emphasis(steep)) == 3.0


def test_diagnose_aggregates():
    sweep = make_sweep(base=20.6, width=400.0, tilt=2.5)
    catalog = [catalog_entry("300G-69GBd-DP-P-16QAM"), catalog_entry("300G-52GBd-DP-16QAM")]
    report = diagnose(sweep, catalog=catalog)
    assert report.tilt_db == pytest.approx(2.5, abs=0.1)
    assert report.effective_bandwidth is not None
    assert report.carrier_plan is not None and report.carrier_plan.assignments
    assert report.guard_band_recommendations
    assert report.pre_emphasis
    for pts in report.per_probe_penalty_curves.values():
        assert len(pts) == 65


def test_diagnose_all_outage_raises():
    sweep = make_sweep(base=2.0, probes=(QAM34,))
    with pytest.raises(UndiagnosableError):
        diagnose(sweep)


def test_equal_width_probe_ties():
    """Two 69 GBd probes of one occupied width, one falling and one rising
    across the slot: the bandwidth bracket and the recommender read the first
    listed, tilt and pre-emphasis the last listed."""
    hyb69 = catalog_entry("300G-69GBd-DP-P-16QAM")
    assert QPSK69.occupied_width == hyb69.occupied_width == 82.11
    plan = SweepPlan(MediaChannel(0.0, 100.0), (QPSK69, hyb69), step=12.5)
    falling = (20.0, 19.9, 19.8, 19.7, 19.6, 19.5, 19.4, 19.3, 19.2)
    rising = (17.0, 17.2, 17.4, 17.6, 17.8, 18.0, 18.2, 18.4, 18.6)
    q = (None,) * 9
    sweep = SweepResult(plan, (ProbeCurve(QPSK69, falling, q), ProbeCurve(hyb69, rising, q)))

    assert estimate_effective_bandwidth(sweep).upper_bound_ghz == pytest.approx(157.11)
    assert estimate_tilt_ripple(sweep).tilt_db == pytest.approx(1.6)
    offsets = [p.offset_db for p in pre_emphasis(sweep)]
    assert offsets == pytest.approx([18.6 - g for g in rising])

    first = recommend_carriers(sweep, [QPSK69]).assignments[0]
    c = plan.carriers()
    half = QPSK69.occupied_width / 2.0
    band = [first.center_ghz - half, first.center_ghz + half]
    band += [x for x in c if band[0] < x < band[1]]
    expected = min(np.interp(band, c, falling)) - required_gsnr(QPSK69)
    assert first.predicted_margin_db == pytest.approx(expected)


def test_readings_are_one_view():
    """In diagnosis only _readings reads a curve's gsnr_db; every estimator
    takes rows of its probes x carriers view, and no package module defines
    a per-curve finite_fraction beside it."""
    package = Path(specsweep.__file__).parent
    readers = {
        getattr(node, "name", None)
        for node in ast.parse((package / "diagnosis.py").read_text()).body
        if any(isinstance(n, ast.Attribute) and n.attr == "gsnr_db" for n in ast.walk(node))
    }
    assert readers == {"_readings"}
    finite_fractions = [
        module.stem
        for module in package.glob("*.py")
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "finite_fraction"
    ]
    assert finite_fractions == []
