"""Acceptance suite: ten criteria, one test (and one pass/fail line) each.

Criteria 3, 6 and 7 are regressions against the frozen calibrated fixtures
in src/specsweep/scenarios/; the rest are property checks at the stated
tolerances.
"""

import numpy as np
import pytest
from scipy.special import erfc, erfcinv

from specsweep import load_fixture
from specsweep.diagnosis import (
    estimate_center_offset,
    estimate_effective_bandwidth,
    estimate_tilt_ripple,
    guard_band,
    recommend_carriers,
)
from specsweep.formats import (
    BUILTIN_CATALOG,
    DP_16QAM,
    DP_QPSK,
    ber_from_q_db,
    ber_from_snr,
    catalog_entry,
    denormalize_gsnr,
    normalize_gsnr,
    q_db_from_ber,
    snr_from_ber,
)
from specsweep.linesim import (
    CrosstalkBench,
    GsnrProfile,
    MediaChannel,
    ProbeConfig,
    Scenario,
    open_session,
)
from specsweep.probe import SweepPlan, crosstalk_scan, run_sweep
from specsweep.spectral import FilterElement, SignalSpectrum, occupied_width

PROBES_200G = tuple(
    ProbeConfig(catalog_entry(name))
    for name in ("200G-69GBd-DP-QPSK", "200G-46GBd-DP-P-16QAM", "200G-34GBd-DP-16QAM")
)


def sweep_fixture(name):
    sf = load_fixture(name)
    plan = SweepPlan(
        sf.scenario.media_channels[0],
        sf.probes,
        step=sf.sweep_step,
        trials_per_point=sf.trials_per_point,
    )
    return sf, run_sweep(open_session(sf.scenario), plan)


def scan_fixture(name, offsets):
    sf = load_fixture(name)
    bench = CrosstalkBench(sf.scenario, sf.slot_probes)
    return crosstalk_scan(bench, offsets)


def test_criterion_01_spectral_width_rule():
    """occupied_width reproduces (1+r)*SR exactly for every catalog entry."""
    for entry in BUILTIN_CATALOG:
        for r in (0.0, 0.19):
            assert occupied_width(entry.symbol_rate, r) == (1.0 + r) * entry.symbol_rate


def test_criterion_02_ecp_premise():
    """Equal normalized GSNR (within 0.1 dB) for all probes on a clean channel."""
    sc = Scenario(
        media_channels=(MediaChannel(0.0, 100.0),),
        filters=(),
        gsnr_profile=GsnrProfile(17.0),
        measurement_noise_sigma_db=0.0,
        seed=1,
    )
    sweep = run_sweep(open_session(sc), SweepPlan(sc.media_channels[0], PROBES_200G))
    curves = [c.gsnr_db() for c in sweep.curves]
    for other in curves[1:]:
        np.testing.assert_allclose(curves[0], other, atol=0.1)


def test_criterion_03_route_a_regression():
    """2.0 +/- 0.4 dB penalty for 34 GBd at +18.75 GHz; wider probes in
    outage there; effective-bandwidth upper bound below 50 GHz."""
    _, sweep = sweep_fixture("route_a.json")
    by_rate = {c.probe.symbol_rate: c for c in sweep.curves}
    for rate in (69.0, 46.0):
        curve = by_rate[rate]
        idx = int(np.argmin(np.abs(curve.carriers() - 18.75)))
        assert curve.points[idx].gsnr_db is None

    curve34 = by_rate[34.0]
    g = curve34.gsnr_db()
    idx = int(np.argmin(np.abs(curve34.carriers() - 18.75)))
    penalty = np.nanmax(g) - g[idx]
    assert penalty == pytest.approx(2.0, abs=0.4)

    bw = estimate_effective_bandwidth(sweep)
    assert bw.upper_bound_ghz < 50.0


def test_criterion_04_route_b_offset_detection():
    """Configured misalignment recovered within half a step in >= 95% of
    200 randomized scenarios (offset +/-12 GHz, sigma <= 0.1 dB)."""
    rng = np.random.default_rng(777)
    hits, n = 0, 200
    for k in range(n):
        offset = float(rng.uniform(-12.0, 12.0))
        sc = Scenario(
            media_channels=(MediaChannel(0.0, 100.0),),
            filters=(
                FilterElement(
                    offset,
                    float(rng.uniform(55.0, 70.0)),
                    order=int(rng.integers(3, 6)),
                ),
            ),
            gsnr_profile=GsnrProfile(18.5),
            measurement_noise_sigma_db=float(rng.uniform(0.0, 0.1)),
            seed=k,
        )
        sweep = run_sweep(open_session(sc), SweepPlan(sc.media_channels[0], PROBES_200G))
        est = estimate_center_offset(sweep)
        if abs(est.offset_ghz - offset) <= 3.125:
            hits += 1
    assert hits / n >= 0.95


def test_criterion_05_route_c_tilt_and_split():
    """2.5 +/- 0.3 dB tilt recovered with noise; recommender puts the 6-bit
    hybrid at the low-GSNR end and 16QAM at the high end."""
    sf, sweep = sweep_fixture("route_c.json")
    assert sf.scenario.measurement_noise_sigma_db == 0.1
    assert sf.trials_per_point == 5
    est = estimate_tilt_ripple(sweep)
    assert est.tilt_db == pytest.approx(2.5, abs=0.3)

    catalog = [catalog_entry(name) for name in sf.recommend_catalog]
    plan = recommend_carriers(sweep, catalog, sf.recommend_guard_ghz)
    hybrids = [a for a in plan.assignments if a.entry_name == "300G-69GBd-DP-P-16QAM"]
    qams = [a for a in plan.assignments if a.entry_name == "300G-52GBd-DP-16QAM"]
    assert hybrids and qams
    assert max(a.center_ghz for a in hybrids) < min(a.center_ghz for a in qams)
    assert plan.assignments[0].entry_name == "300G-69GBd-DP-P-16QAM"
    assert plan.assignments[-1].entry_name == "300G-52GBd-DP-16QAM"


def test_criterion_06_crosstalk_regression_all_69():
    """Central-channel penalties 0.8/2.5/>4.4 dB at 6.25/12.5/18.75 GHz
    spacing reductions (frozen five-slot fixture)."""
    scan = scan_fixture("xtalk_5slot.json", (0.0, 6.25, 12.5, 18.75))
    pens = scan.channel(2).penalties_db
    assert pens[1] == pytest.approx(0.8, abs=0.3)
    assert pens[2] == pytest.approx(2.5, abs=0.3)
    assert pens[3] > 4.4


def test_criterion_07_mixed_rate_crosstalk():
    """34 GBd central vs 69 GBd neighbors at 25 GHz offset: 1.2 +/- 0.3 dB
    vs 0.9 +/- 0.3 dB, central worst; next-nearest below 0.05 dB."""
    scan = scan_fixture("xtalk_mixed.json", (0.0, 25.0))
    central = scan.channel(2).penalties_db[1]
    approached = scan.channel(3).penalties_db[1]
    assert central == pytest.approx(1.2, abs=0.3)
    assert approached == pytest.approx(0.9, abs=0.3)
    assert central > approached
    for idx in (0, 4):
        assert abs(scan.channel(idx).penalties_db[1]) < 0.05


def test_criterion_08_symmetry_and_determinism():
    """Equal-rate penalties symmetric in sweep direction (sigma 0);
    repeated runs byte-identical."""
    offsets = (-18.75, -12.5, -6.25, 0.0, 6.25, 12.5, 18.75)
    scan_a = scan_fixture("xtalk_5slot.json", offsets)
    central = scan_a.channel(2).penalties_db
    for i in range(3):
        assert central[i] == pytest.approx(central[-1 - i], abs=0.05)
    left, right = scan_a.channel(1).penalties_db, scan_a.channel(3).penalties_db
    for i in range(len(offsets)):
        assert left[i] == pytest.approx(right[-1 - i], abs=0.05)

    scan_b = scan_fixture("xtalk_5slot.json", offsets)
    assert scan_a == scan_b
    _, sweep_a = sweep_fixture("route_b.json")
    _, sweep_b = sweep_fixture("route_b.json")
    assert sweep_a == sweep_b


def test_criterion_09_conversion_round_trips():
    """ber<->snr within 0.01 dB, ber<->Q within 1e-6 relative, normalize
    round trip exact, all against independent oracles."""

    def oracle_ber(fmt, snr_db):
        s = 10.0 ** (snr_db / 10.0)
        qpsk = 0.5 * erfc(np.sqrt(s / 2.0))
        qam16 = (3.0 / 8.0) * erfc(np.sqrt(s / 10.0))
        return {DP_QPSK: qpsk, DP_16QAM: qam16}.get(fmt, np.sqrt(qpsk * qam16))

    for fmt in (DP_QPSK, DP_16QAM):
        for snr in np.linspace(0.0, 25.0, 26):
            ber = ber_from_snr(fmt, snr)
            assert ber == pytest.approx(oracle_ber(fmt, snr), rel=1e-9)
            if 0.0 < ber < 0.5:
                assert snr_from_ber(fmt, ber) == pytest.approx(snr, abs=0.01)

    for ber in (4e-2, 2e-2, 1e-3, 1e-6):
        q = q_db_from_ber(ber)
        assert q == pytest.approx(20 * np.log10(np.sqrt(2) * erfcinv(2 * ber)), abs=1e-9)
        assert ber_from_q_db(q) == pytest.approx(ber, rel=1e-6)

    for sr in (12.5, 34.0, 46.0, 52.0, 69.0):
        assert denormalize_gsnr(normalize_gsnr(11.1, sr), sr) == pytest.approx(
            11.1, abs=1e-12
        )


def test_criterion_10_guard_band_monotonicity():
    """guard_band non-increasing in allowed penalty over a 20x20 grid and
    zero penalty exactly when supports are disjoint."""
    a = catalog_entry("200G-69GBd-DP-QPSK")
    b = catalog_entry("200G-34GBd-DP-16QAM")
    penalties = np.linspace(0.02, 2.0, 20)
    gsnrs = np.linspace(10.0, 25.0, 20)
    for g in gsnrs:
        spacings = [
            guard_band(a, b, link_gsnr_db=g, max_penalty_db=p).min_spacing_ghz
            for p in penalties
        ]
        assert all(s2 <= s1 + 0.02 for s1, s2 in zip(spacings, spacings[1:]))
    for p in penalties:
        spacings = [
            guard_band(a, b, link_gsnr_db=g, max_penalty_db=p).min_spacing_ghz
            for g in gsnrs
        ]
        assert all(s2 >= s1 - 0.02 for s1, s2 in zip(spacings, spacings[1:]))

    # Disjoint supports carry zero penalty, hence zero guard band proper.
    sv, si = SignalSpectrum(69.0, 0.19), SignalSpectrum(34.0, 0.19)
    half_sum = (sv.occupied_width + si.occupied_width) / 2.0
    from specsweep.spectral import overlap_coefficient

    assert overlap_coefficient(sv, si, half_sum) == 0.0
    for g in (10.0, 18.0, 25.0):
        assert guard_band(a, b, link_gsnr_db=g).guard_band_ghz == 0.0
