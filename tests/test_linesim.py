"""Tests of the ground-truth model and the black-box measurement chain."""

import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest

from specsweep.formats import (
    OUTAGE_BER,
    ber_from_snr,
    catalog_entry,
    denormalize_gsnr,
    q_db_from_ber,
)
from specsweep.linesim import (
    _filtered_psd,
    _noiseless_q_db,
    CrosstalkBench,
    GsnrProfile,
    MediaChannel,
    NeighborChannel,
    Scenario,
    crosstalk_lin,
    local_gsnr_db,
    measure,
    open_session,
)
from specsweep.spectral import (
    FilterElement,
    FrequencyGrid,
    Ripple,
    SignalSpectrum,
    cascade_power_response,
    signal_psd,
)

QPSK69 = catalog_entry("200G-69GBd-DP-QPSK")
QAM34 = catalog_entry("200G-34GBd-DP-16QAM")
HYB46 = catalog_entry("200G-46GBd-DP-P-16QAM")


def flat_scenario(base=17.0, **kwargs):
    defaults = dict(
        media_channels=(MediaChannel(0.0, 100.0),),
        filters=(),
        gsnr_profile=GsnrProfile(base),
        measurement_noise_sigma_db=0.0,
        seed=5,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


def test_local_gsnr_profile():
    sc = flat_scenario(17.0)
    assert local_gsnr_db(sc, np.array([33.0])).tolist() == [17.0]
    tilted = flat_scenario(
        17.0,
        media_channels=(MediaChannel(0.0, 400.0),),
        gsnr_profile=GsnrProfile(17.0, tilt_db=2.5),
    )
    assert local_gsnr_db(tilted, np.array([200.0]))[0] == pytest.approx(17.0 + 1.25)
    rippled = flat_scenario(
        17.0,
        gsnr_profile=GsnrProfile(17.0, ripple_components=(Ripple(0.5, 40.0),)),
    )
    assert local_gsnr_db(rippled, np.array([10.0]))[0] == pytest.approx(17.5)  # sin peak at P/4


def filtering_penalty_db(scenario, spectrum):
    """-beta * 10 log10(rho), with rho the power fraction the filter cascade passes."""
    *_, rho = _filtered_psd(scenario, spectrum)
    return -scenario.filtering_exponent * 10.0 * np.log10(min(rho, 1.0))


def test_filtering_penalty_empty_cascade():
    assert filtering_penalty_db(flat_scenario(), SignalSpectrum(34.0, 0.19)) == 0.0


def test_filtering_penalty_wide_flat_top():
    spec = SignalSpectrum(34.0, 0.19)
    sc = flat_scenario(filters=(FilterElement(0.0, 3 * spec.occupied_width, order=6),))
    assert filtering_penalty_db(sc, spec) < 0.05


def test_filtering_penalty_grows_with_offset():
    sc = flat_scenario(filters=(FilterElement(0.0, 45.0, order=1),))
    pens = [
        filtering_penalty_db(sc, SignalSpectrum(34.0, 0.19, center=c))
        for c in (0.0, 5.0, 10.0, 15.0, 20.0)
    ]
    assert pens[0] > 0.0
    assert all(b > a for a, b in zip(pens, pens[1:]))


def test_crosstalk_lin_terms():
    victim = SignalSpectrum(69.0, 0.19, center=0.0)
    assert crosstalk_lin(flat_scenario(), victim) == 0.0
    twin = flat_scenario(neighbors=(NeighborChannel(69.0, 0.19, center=0.0),))
    assert crosstalk_lin(twin, victim) == pytest.approx(1.0, abs=1e-9)
    one = flat_scenario(neighbors=(NeighborChannel(69.0, 0.19, center=75.0),))
    both = flat_scenario(
        neighbors=(
            NeighborChannel(69.0, 0.19, center=75.0),
            NeighborChannel(69.0, 0.19, center=-75.0),
        )
    )
    x1 = crosstalk_lin(one, victim)
    assert x1 > 0.0
    assert crosstalk_lin(both, victim) == pytest.approx(2 * x1, abs=1e-12)


def test_crosstalk_lin_ignores_grid_resolution():
    """Overlaps integrate at one fixed resolution, so the scenario's grid
    leaves the crosstalk term unchanged to the last bit."""
    victim = SignalSpectrum(34.0, 0.19, center=10.0)
    neighbors = (
        NeighborChannel(69.0, 0.19, center=60.0),
        NeighborChannel(46.0, 0.5, center=-25.0),
        NeighborChannel(1.0, 0.0, center=20.0),
    )
    terms = {
        resolution: crosstalk_lin(
            flat_scenario(
                neighbors=neighbors,
                crosstalk_coupling=0.1,
                grid=FrequencyGrid(-300.0, 300.0, resolution),
            ),
            victim,
        )
        for resolution in (0.05, 0.025, 2.0)
    }
    assert terms[0.05] > 0.0
    assert terms[0.025] == terms[0.05] == terms[2.0]


def test_measure_ideal_matches_closed_form():
    sc = flat_scenario(17.0)
    for probe in (QPSK69, HYB46, QAM34):
        res = measure(sc, 0.0, probe)
        snr = denormalize_gsnr(17.0, probe.symbol_rate)
        expected = q_db_from_ber(ber_from_snr(probe.format, snr))
        assert not res.outage
        assert res.q_db == pytest.approx(expected, abs=1e-9)


def test_measure_crosstalk_composition():
    """A co-located twin with kappa = 1/g0 exactly halves the linear GSNR."""
    sc = flat_scenario(
        20.0,
        neighbors=(NeighborChannel(69.0, 0.19, center=0.0),),
        crosstalk_coupling=0.01,  # = 1/g0_lin -> 1/g = 2/g0
    )
    res = measure(sc, 0.0, QPSK69)
    snr = denormalize_gsnr(20.0 - 10 * np.log10(2.0), 69.0)
    expected = q_db_from_ber(ber_from_snr(QPSK69.format, snr))
    assert res.q_db == pytest.approx(expected, abs=1e-6)


def test_measure_outage_when_gsnr_too_low():
    res = measure(flat_scenario(3.0), 0.0, QAM34)
    assert res.outage and res.q_db is None


def test_measure_outage_when_no_finite_gsnr_remains():
    """Extreme finite inputs whose GSNR has no finite positive value read as outage."""
    rippled = (FilterElement(0.0, 79.0, order=10, ripple=Ripple(0.9, 31.25)),)
    for sc in (
        flat_scenario(17.0, filters=rippled, filtering_exponent=1e308),  # rho > 1 overflows
        flat_scenario(17.0, filters=(FilterElement(0.0, 40.0),), filtering_exponent=1e308),
        flat_scenario(-1e308),  # the profile underflows to 0
        flat_scenario(17.0, gsnr_profile=GsnrProfile(17.0, tilt_db=1e308)),
        flat_scenario(17.0, filters=(FilterElement(5000.0, 1.0, order=100),)),  # rho = 0
    ):
        for carrier in (-20.0, 0.0, 20.0):
            res = measure(sc, carrier, QPSK69)
            assert res.outage and res.q_db is None


def test_measure_rejects_carrier_outside_span():
    with pytest.raises(ValueError):
        measure(flat_scenario(), 51.0, QAM34)


def test_measure_is_deterministic():
    sc = flat_scenario(17.0, measurement_noise_sigma_db=0.1)
    a = measure(sc, 6.25, QPSK69, trial_index=3)
    b = measure(sc, 6.25, QPSK69, trial_index=3)
    assert a == b
    c = measure(sc, 6.25, QPSK69, trial_index=4)
    assert c.q_db != a.q_db  # different trial draws different noise


def test_noise_changes_with_seed():
    sc = flat_scenario(17.0, measurement_noise_sigma_db=0.1)
    other = replace(sc, seed=6)
    assert measure(sc, 0.0, QPSK69).q_db != measure(other, 0.0, QPSK69).q_db


def test_impairment_monotonicity():
    base = measure(flat_scenario(17.0), 0.0, QAM34).q_db
    with_filter = flat_scenario(17.0, filters=(FilterElement(0.0, 60.0, order=2),))
    with_neigh = flat_scenario(
        17.0, neighbors=(NeighborChannel(34.0, 0.19, center=30.0),)
    )
    assert measure(with_filter, 0.0, QAM34).q_db < base
    impaired = measure(with_neigh, 0.0, QAM34)
    assert impaired.outage or impaired.q_db < base


def test_symmetric_scenario_symmetric_q():
    sc = flat_scenario(17.0, filters=(FilterElement(0.0, 55.0, order=3),))
    for d in (6.25, 12.5, 18.75):
        left = measure(sc, -d, QAM34)
        right = measure(sc, d, QAM34)
        assert left.q_db == pytest.approx(right.q_db, abs=1e-9)


def test_session_black_box_surface():
    session = open_session(flat_scenario())
    public = [n for n in dir(session) if not n.startswith("_")]
    assert sorted(public) == ["read_q", "set_carrier", "set_probe"]
    with pytest.raises(ValueError, match="set_carrier and set_probe before read_q"):
        session.read_q()
    session.set_carrier(0.0)
    session.set_probe(QPSK69)
    assert session.read_q() == session.read_q()


def test_two_sessions_identical():
    sc = flat_scenario(measurement_noise_sigma_db=0.1)
    s1, s2 = open_session(sc), open_session(sc)
    for s in (s1, s2):
        s.set_carrier(12.5)
        s.set_probe(HYB46)
    assert s1.read_q(trial_index=1) == s2.read_q(trial_index=1)


def five_slot_bench(kappa=0.0957, probes=None):
    slots = tuple(MediaChannel(c, 75.0) for c in (-150, -75, 0, 75, 150))
    sc = Scenario(
        media_channels=slots,
        filters=(),
        gsnr_profile=GsnrProfile(20.0),
        crosstalk_coupling=kappa,
        measurement_noise_sigma_db=0.0,
        seed=42,
    )
    return CrosstalkBench(sc, probes or (QPSK69,) * 5)


def test_bench_geometry_and_validation():
    bench = five_slot_bench()
    assert len(bench.probes) == 5
    assert bench.middle_slot == MediaChannel(0, 75.0)
    assert bench.victim_carrier(2, 10.0) == 10.0
    assert bench.victim_carrier(3, 10.0) == 75.0
    with pytest.raises(ValueError):
        bench.session(2, 40.0)
    with pytest.raises(ValueError, match=r"need one probe per media channel \(5\), got 3"):
        CrosstalkBench(five_slot_bench()._scenario, (QPSK69,) * 3)


def test_bench_sessions_see_neighbors():
    bench = five_slot_bench()
    aligned = bench.session(2, 0.0)
    aligned.set_carrier(0.0)
    aligned.set_probe(QPSK69)
    q0 = aligned.read_q().q_db
    shifted = bench.session(2, 18.75)
    shifted.set_carrier(18.75)
    shifted.set_probe(QPSK69)
    assert shifted.read_q().q_db < q0


def full_grid_psd(scenario, spectrum):
    """_filtered_psd integrated over the whole grid."""
    f = scenario.grid.points()
    s = signal_psd(f - spectrum.center, spectrum)
    weight = s * cascade_power_response(scenario.filters, f)
    norm = np.trapezoid(weight, f)
    return f, weight, norm, norm / np.trapezoid(s, f)


def reference_q_db(scenario, carrier, probe):
    """Noiseless Q recomputed from scratch over the full grid (None on outage)."""
    spectrum = probe.spectrum_at(carrier)
    f, weight, norm, rho = full_grid_psd(scenario, spectrum)
    if rho <= 0.0:
        return None
    profile_lin = 10.0 ** (local_gsnr_db(scenario, f) / 10.0)
    g = np.trapezoid(weight * profile_lin, f) / norm * rho**scenario.filtering_exponent
    g_eff = 1.0 / (1.0 / g + crosstalk_lin(scenario, spectrum))
    snr_db = denormalize_gsnr(10.0 * np.log10(g_eff), probe.symbol_rate)
    ber = ber_from_snr(probe.format, snr_db)
    return None if ber > OUTAGE_BER else q_db_from_ber(ber)


def reference_noise_db(scenario, carrier, probe, trial_index):
    key = f"{scenario.seed}|{carrier:.6f}|{probe.probe_id}|{trial_index}"
    seed = int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "little")
    return float(np.random.default_rng(seed).normal(0.0, scenario.measurement_noise_sigma_db))


def test_measure_equals_uncached_full_grid_reference():
    """Interleaved reads agree with the chain recomputed per read over the whole grid.

    Covers carriers at both slot edges, a probe overhanging the grid edge,
    a filtered slot whose edge carriers go into outage, and neighbors.
    """
    narrow_grid = FrequencyGrid(-100.0, 100.0)
    scenarios = (
        flat_scenario(17.0, measurement_noise_sigma_db=0.1),
        flat_scenario(
            19.0,
            media_channels=(MediaChannel(10.0, 150.0),),
            filters=(FilterElement(12.0, 120.0, order=4, ripple=Ripple(0.4, 31.25, 0.3)),),
            gsnr_profile=GsnrProfile(19.0, tilt_db=2.0),
            filtering_exponent=4.0,
            measurement_noise_sigma_db=0.1,
            seed=11,
        ),
        # Edge carriers put the probe's band past the grid's ends.
        flat_scenario(18.0, media_channels=(MediaChannel(0.0, 190.0),), grid=narrow_grid),
        flat_scenario(
            20.0,
            neighbors=(NeighborChannel(46.0, 0.19, center=75.0),),
            crosstalk_coupling=0.05,
            measurement_noise_sigma_db=0.2,
        ),
    )
    reads = [
        (sc, carrier, probe, trial)
        for sc in scenarios
        for carrier in (sc.span[0], sc.span[0] + 3.125, sc.media_channels[0].center, sc.span[1])
        for probe in (QPSK69, HYB46, QAM34)
        for trial in range(3)
    ]
    random.Random(7).shuffle(reads)
    _noiseless_q_db.cache_clear()
    outages = 0
    for sc, carrier, probe, trial in reads:
        res = measure(sc, carrier, probe, trial)
        clean = reference_q_db(sc, carrier, probe)
        if clean is None:
            outages += 1
            assert res.outage
            continue
        noiseless = _noiseless_q_db(sc, carrier, probe)
        assert noiseless == pytest.approx(clean, rel=1e-12)
        assert res.q_db == noiseless + reference_noise_db(sc, carrier, probe, trial)
    assert 0 < outages < len(reads)


def test_windowed_integral_matches_full_grid():
    grid = FrequencyGrid(-100.0, 100.0)
    sc = flat_scenario(filters=(FilterElement(5.0, 70.0, order=3),), grid=grid)
    for center in (-110.0, -95.0, -17.3, 0.0, 41.0, 99.99, 110.0):
        for spectrum in (SignalSpectrum(69.0, 0.19, center), SignalSpectrum(34.0, 0.0, center)):
            _, _, norm, rho = _filtered_psd(sc, spectrum)
            _, _, full_norm, full_rho = full_grid_psd(sc, spectrum)
            assert norm == pytest.approx(full_norm, rel=1e-12)
            assert rho == pytest.approx(full_rho, rel=1e-12)


def test_signal_off_the_grid_still_raises():
    sc = flat_scenario(media_channels=(MediaChannel(300.0, 100.0),), grid=FrequencyGrid(-100.0, 100.0))
    off_grid = "GHz lies outside the scenario grid"
    for carrier in (260.0, 300.0):
        with pytest.raises(ValueError, match=f"signal at {carrier} {off_grid}"):
            measure(sc, carrier, QPSK69)
    with pytest.raises(ValueError, match=f"signal at -300.0 {off_grid}"):
        _filtered_psd(sc, SignalSpectrum(69.0, 0.19, -300.0))
    # So far off a fine grid that the grid index of the band overflows a float.
    tiny = flat_scenario(grid=FrequencyGrid(0.0, 1e-300, 1e-305))
    for center in (1e6, -1e6):
        with pytest.raises(ValueError, match=f"signal at {center} {off_grid}"):
            _filtered_psd(tiny, SignalSpectrum(69.0, 0.19, center))
