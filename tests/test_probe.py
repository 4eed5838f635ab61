"""Probe-engine tests: sweeping, GSNR conversion, crosstalk scan."""

import json
from dataclasses import replace

import numpy as np
import pytest

from specsweep import fixture_path, load_fixture
from specsweep.cli import main
from specsweep.formats import ber_from_q_db, catalog_entry, normalize_gsnr, snr_from_ber
from specsweep.linesim import (
    CrosstalkBench,
    GsnrProfile,
    MediaChannel,
    NeighborChannel,
    Scenario,
    open_session,
)
from specsweep.probe import SweepPlan, crosstalk_scan, probe_point, run_sweep
from specsweep.scenario_io import crosstalk_result_dict
from specsweep.spectral import FilterElement

QPSK69 = catalog_entry("200G-69GBd-DP-QPSK")
HYB46 = catalog_entry("200G-46GBd-DP-P-16QAM")
QAM34 = catalog_entry("200G-34GBd-DP-16QAM")
PROBES_200G = (QPSK69, HYB46, QAM34)


def flat_scenario(base=17.0, width=100.0, sigma=0.0, seed=5, **kwargs):
    defaults = dict(
        media_channels=(MediaChannel(0.0, width),),
        filters=(),
        gsnr_profile=GsnrProfile(base),
        measurement_noise_sigma_db=sigma,
        seed=seed,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


def test_probe_point_inverts_measure():
    session = open_session(flat_scenario(17.0))
    for probe in PROBES_200G:
        gsnr, _ = probe_point(session, 0.0, probe)
        assert gsnr == pytest.approx(17.0, abs=0.01)


def test_probe_point_outage_propagates():
    session = open_session(flat_scenario(3.0))
    assert probe_point(session, 0.0, QAM34) == (None, None)


def test_probe_point_median_suppresses_noise():
    """Median of 5 trials beats a single reading and stays near truth.

    The Q-to-GSNR slope slightly amplifies read noise, so the practical
    bound for sigma 0.1 dB is ~0.15 dB rather than the raw sigma.
    """
    hits = 0
    err1 = err5 = 0.0
    seeds = range(300)
    for seed in seeds:
        session = open_session(flat_scenario(17.0, sigma=0.1, seed=seed))
        gsnr5, _ = probe_point(session, 0.0, QPSK69, trials=5)
        gsnr1, _ = probe_point(session, 0.0, QPSK69, trials=1)
        err5 += abs(gsnr5 - 17.0)
        err1 += abs(gsnr1 - 17.0)
        if abs(gsnr5 - 17.0) <= 0.15:
            hits += 1
    assert hits / len(seeds) >= 0.97
    assert err5 < err1  # aggregation really helps


@pytest.mark.parametrize("trials", (2, 4))
def test_probe_point_even_trials_match_numpy_median(trials):
    """An even count's median is the mean of the middle two Qs, as np.median
    takes it; the fixtures and the bench read 1 or 5 trials, never an even count."""
    sf = load_fixture("route_c.json")
    assert sf.scenario.measurement_noise_sigma_db == 0.1
    for seed in range(3):
        session = open_session(replace(sf.scenario, seed=seed))
        for probe in sf.probes:
            for carrier in sf.plan.carriers()[::8]:
                point = probe_point(session, carrier, probe, trials)
                qs = [session.read_q(trial_index=t).q_db for t in range(trials)]
                q = float(np.median(qs))
                snr = snr_from_ber(probe.format, ber_from_q_db(q))
                gsnr = normalize_gsnr(snr, probe.symbol_rate)
                assert point == (gsnr, q)


def test_sweep_grid_arithmetic():
    plan = SweepPlan(MediaChannel(0.0, 100.0), (QAM34,), step=6.25)
    carriers = plan.carriers()
    assert len(carriers) == 17
    assert carriers[0] == -50.0 and carriers[-1] == pytest.approx(50.0)


def test_sweep_carriers_end_at_the_slot_stop(tmp_path, capsys):
    """start + step * (n - 1) can round a few 1e-14 GHz past the slot stop,
    and such a carrier failed every read of the sweep. Over single slots
    37.5-400 GHz wide at 5 centers, with steps width / k for k = 2..59,
    no carrier passes the stop and the last is the stop, to within rounding."""
    for width in np.arange(37.5, 400.0 + 1e-9, 12.5):
        for center in (-187.5, -31.25, 0.0, 43.75, 193.1):
            slot = MediaChannel(center, float(width))
            for k in range(2, 60):
                carriers = SweepPlan(slot, (QAM34,), step=float(width) / k).carriers()
                assert len(carriers) == k + 1 and carriers.max() <= slot.stop
                assert carriers[-1] == pytest.approx(slot.stop, rel=0, abs=1e-9)
    # route_b narrowed to 62.5 GHz and unfiltered: 12.5 / 3 GHz steps landed
    # the last carrier at 31.250000000000007 GHz, and sweep exited 2.
    doc = json.loads(fixture_path("route_b.json").read_text())
    doc["scenario"]["media_channels"][0]["width"] = 62.5
    doc["scenario"]["filters"] = []
    doc["sweep"]["step"] = 12.5 / 3
    p = tmp_path / "narrow.json"
    p.write_text(json.dumps(doc))
    for command in ("sweep", "diagnose"):
        assert main([command, "--scenario", str(p)]) == 0, capsys.readouterr().err


def test_run_sweep_requires_probes():
    plan = SweepPlan(MediaChannel(0.0, 100.0), ())
    with pytest.raises(ValueError, match="sweep plan has no probes"):
        run_sweep(open_session(flat_scenario()), plan)


def test_ecp_premise_flat_channel():
    """All probes' normalized GSNR curves coincide on a clean channel."""
    session = open_session(flat_scenario(17.0))
    plan = SweepPlan(MediaChannel(0.0, 100.0), PROBES_200G)
    sweep = run_sweep(session, plan)
    curves = [np.array(c.gsnr_db, dtype=float) for c in sweep.curves]
    for other in curves[1:]:
        np.testing.assert_allclose(curves[0], other, atol=0.1)


def test_sweep_deterministic_and_order_independent():
    sc = flat_scenario(17.0, sigma=0.1)
    plan = SweepPlan(MediaChannel(0.0, 100.0), PROBES_200G)
    a = run_sweep(open_session(sc), plan)
    b = run_sweep(open_session(sc), plan)
    assert a == b
    reordered = SweepPlan(MediaChannel(0.0, 100.0), PROBES_200G[::-1])
    c = run_sweep(open_session(sc), reordered)
    assert c.curves[::-1] == a.curves


def test_sweep_records_edge_outage_as_data():
    sc = flat_scenario(16.4, filters=(FilterElement(0.0, 50.0, order=4),))
    sweep = run_sweep(open_session(sc), SweepPlan(MediaChannel(0.0, 100.0), (QPSK69,)))
    gsnr = sweep.curves[0].gsnr_db
    assert gsnr[0] is None  # slot edge, band far outside the filter
    assert any(g is not None for g in gsnr)


def _bench(kappa, probes, seed=42, base=20.0):
    slots = tuple(MediaChannel(c, 75.0) for c in (-150, -75, 0, 75, 150))
    sc = Scenario(
        media_channels=slots,
        filters=(),
        gsnr_profile=GsnrProfile(base),
        crosstalk_coupling=kappa,
        measurement_noise_sigma_db=0.0,
        seed=seed,
    )
    return CrosstalkBench(sc, probes)


def test_crosstalk_scan_all_equal_rates():
    bench = _bench(0.0957, (QPSK69,) * 5)
    scan = crosstalk_scan(bench, (-12.5, -6.25, 0.0, 6.25, 12.5))
    central = scan.channels[2]
    # Aligned grid is the reference: zero penalty at offset 0.
    assert central.penalties_db[2] == pytest.approx(0.0, abs=1e-12)
    # Moving toward a side raises the central penalty monotonically.
    assert central.penalties_db[4] > central.penalties_db[3] > 0.0
    # Next-nearest neighbors barely notice.
    for idx in (0, 4):
        assert all(abs(p) < 0.05 for p in scan.channels[idx].penalties_db)


def test_crosstalk_scan_symmetry():
    bench = _bench(0.0957, (QPSK69,) * 5)
    scan = crosstalk_scan(bench, (-18.75, -6.25, 0.0, 6.25, 18.75))
    central = scan.channels[2]
    assert central.penalties_db[0] == pytest.approx(central.penalties_db[4], abs=0.05)
    assert central.penalties_db[1] == pytest.approx(central.penalties_db[3], abs=0.05)
    # Approached neighbors mirror each other too.
    left, right = scan.channels[1], scan.channels[3]
    assert left.penalties_db[0] == pytest.approx(right.penalties_db[4], abs=0.05)


def test_crosstalk_scan_mixed_rates_later_onset():
    narrow_center = (QPSK69, QPSK69, catalog_entry("100G-34GBd-DP-QPSK"), QPSK69, QPSK69)
    mixed = crosstalk_scan(_bench(0.05644, narrow_center), (0.0, 12.5, 25.0))
    all69 = crosstalk_scan(_bench(0.05644, (QPSK69,) * 5), (0.0, 12.5, 25.0))
    # The 34 GBd central channel overlaps its neighbors only at larger
    # offsets: no measurable penalty yet at 12.5 GHz, unlike the 69 GBd case.
    assert mixed.channels[2].penalties_db[1] == pytest.approx(0.0, abs=1e-9)
    assert all69.channels[2].penalties_db[1] > 0.3


def test_crosstalk_outage_is_none_and_left_out_of_the_report():
    """At 13 dB the 16QAM center channel is in outage while its QPSK
    neighbors read: its readings and penalties are None, and its report
    points carry neither a GSNR nor a penalty."""
    qam = catalog_entry("200G-34GBd-DP-16QAM")
    bench = _bench(0.0957, (QPSK69, QPSK69, qam, QPSK69, QPSK69), base=13.0)
    scan = crosstalk_scan(bench, (0.0, 6.25, 12.5))
    center = scan.channels[2]
    assert center.gsnr_db == center.penalties_db == (None, None, None)
    assert all(g is not None for g in scan.channels[1].gsnr_db)
    points = crosstalk_result_dict(scan)["channels"][2]["points"]
    assert points == [{"offset": off, "outage": True} for off in (0.0, 6.25, 12.5)]


class _CountingBench:
    """A crosstalk bench whose sessions count their reads."""

    def __init__(self, bench):
        self._bench = bench
        self.reads = 0

    def __getattr__(self, name):
        return getattr(self._bench, name)

    def session(self, victim_index, central_offset):
        session = self._bench.session(victim_index, central_offset)
        read_q = session.read_q

        def counted(trial_index=0):
            self.reads += 1
            return read_q(trial_index)

        session.read_q = counted
        return session


@pytest.mark.parametrize("offsets", [(-6.25, 0.0, 6.25), (6.25, 12.5)])
def test_crosstalk_scan_reads_each_channel_once_per_distinct_offset(offsets):
    """The aligned reading is the baseline and, when 0 is an offset, that
    offset's reading too: 5 channels x 3 distinct offsets (0 included)."""
    bench = _CountingBench(_bench(0.0957, (QPSK69,) * 5))
    scan = crosstalk_scan(bench, offsets)
    assert bench.reads == 15
    assert scan == crosstalk_scan(bench._bench, offsets)


def test_crosstalk_victims_see_the_scenario_neighbors():
    """A file neighbor between slots 0 and 1 lowers slot 0's reading on the
    aligned grid, as it does slot 0's sweep point, and puts slot 1 in
    outage; the other slots, 100 GHz or more away, read as without it."""
    sf = load_fixture("xtalk_5slot.json")
    nb = NeighborChannel(69.0, center=-100.0)
    with_nb = replace(sf, scenario=replace(sf.scenario, neighbors=(nb,)))
    point = probe_point(open_session(sf.scenario), -150.0, sf.slot_probes[0])[0]
    point_nb = probe_point(open_session(with_nb.scenario), -150.0, with_nb.slot_probes[0])[0]
    assert point_nb < point
    alone = [ch.gsnr_db[0] for ch in crosstalk_scan(sf.bench, (0.0,)).channels]
    seen = [ch.gsnr_db[0] for ch in crosstalk_scan(with_nb.bench, (0.0,)).channels]
    assert None not in alone
    assert seen[0] < alone[0]
    assert seen[1:] == [None, *alone[2:]]


def test_crosstalk_scan_rejects_offsets_outside_slot():
    bench = _bench(0.1, (QPSK69,) * 5)
    with pytest.raises(ValueError):
        crosstalk_scan(bench, (40.0,))


def test_crosstalk_penalties_bounded_below_at_zero_sigma():
    """Approached channels only lose GSNR; receding side channels may gain
    back at most their (tiny) aligned-grid crosstalk contribution."""
    bench = _bench(0.0957, (QPSK69,) * 5)
    scan = crosstalk_scan(bench, tuple(np.arange(-37.5, 37.5 + 1e-9, 6.25)))
    for pen in scan.channels[2].penalties_db:
        assert pen is None or pen >= 0.0
    for idx in (0, 1, 3, 4):
        for pen in scan.channels[idx].penalties_db:
            assert pen is None or pen >= -0.1


def test_layout_profile_is_one_for_sweep_and_crosstalk():
    """On a tilted layout every victim's aligned reading and a sweep over
    slot 0 follow one profile, anchored at the whole layout's span."""
    base, tilt = 20.0, 2.5
    slots = tuple(MediaChannel(c, 75.0) for c in (-150, -75, 0, 75, 150))
    sc = Scenario(
        media_channels=slots,
        gsnr_profile=GsnrProfile(base, tilt_db=tilt),
        crosstalk_coupling=0.0,
        measurement_noise_sigma_db=0.0,
    )

    def expected(f):  # the layout spans [-187.5, 187.5] GHz
        return base + tilt * f / 375.0

    scan = crosstalk_scan(CrosstalkBench(sc, (QPSK69,) * 5), (0.0,))
    for slot, ch in zip(slots, scan.channels):
        assert ch.gsnr_db[0] == pytest.approx(expected(slot.center), abs=0.01)
    sweep = run_sweep(open_session(sc), SweepPlan(slots[0], (QPSK69,)))
    for carrier, g in zip(sweep.plan.carriers(), sweep.curves[0].gsnr_db):
        assert g == pytest.approx(expected(carrier), abs=0.01)


def test_results_hold_python_floats():
    """GSNR readings and penalties are Python floats, as annotated, not numpy scalars."""
    sf = load_fixture("route_c.json")
    sweep = run_sweep(open_session(sf.scenario), sf.plan)
    values = [v for c in sweep.curves for v in (*c.gsnr_db, *c.q_db)]
    sf = load_fixture("xtalk_5slot.json")
    scan = crosstalk_scan(sf.bench, sf.crosstalk_offsets.values())
    values += [v for ch in scan.channels for v in (*ch.gsnr_db, *ch.penalties_db)]
    readings = [v for v in values if v is not None]
    assert readings and all(type(v) is float for v in readings)
