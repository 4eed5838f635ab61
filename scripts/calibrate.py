#!/usr/bin/env python3
"""Calibration helper for the bundled scenario fixtures.

Re-derives the fitted constants (crosstalk coupling, base GSNR, filter
shape) that make the frozen fixtures hit their regression targets, and
prints the achieved numbers. It reads the bundled fixtures and changes only
the knob it fits. Run from the repo root after any change to the
measurement chain:

    PYTHONPATH=src python3 scripts/calibrate.py

The printed values are fits of the simulator's free knobs, not measured
constants; the chosen values are hard-coded in src/specsweep/scenarios/.
"""

from dataclasses import replace

import numpy as np

from specsweep import diagnosis, load_fixture
from specsweep.formats import bisect, catalog_entry
from specsweep.linesim import CrosstalkBench, open_session
from specsweep.probe import SweepPlan, crosstalk_scan, run_sweep
from specsweep.spectral import SignalSpectrum, overlap_coefficient


def fixture_scan(fixture, kappa, offsets):
    """Crosstalk scan of a five-slot fixture with its coupling set to ``kappa``."""
    sf = load_fixture(fixture)
    scenario = replace(sf.scenario, crosstalk_coupling=kappa)
    return crosstalk_scan(CrosstalkBench(scenario, sf.slot_probes), offsets)


def crosstalk_all69(kappa):
    scan = fixture_scan("xtalk_5slot.json", kappa, (0.0, 6.25, 12.5, 18.75, 25.0))
    central = scan.channel(2)
    return {off: float(pen) for off, pen in zip(central.offsets, central.penalties_db)}


def crosstalk_mixed(kappa):
    scan = fixture_scan("xtalk_mixed.json", kappa, (0.0, 25.0))
    return {
        "central": float(scan.channel(2).penalties_db[1]),
        "approached": float(scan.channel(3).penalties_db[1]),
        "next_nearest": float(scan.channel(4).penalties_db[1]),
    }


def fit_kappa(target_fn, key, target, lo, hi, tol=1e-5):
    """Bisection on kappa so that target_fn(kappa)[key] == target."""
    return bisect(lambda kappa: target_fn(kappa)[key] < target, lo, hi, tol)


def fixture_sweep(fixture):
    sf = load_fixture(fixture)
    plan = SweepPlan(sf.scenario.media_channels[0], sf.probes, sf.sweep_step, sf.trials_per_point)
    return sf, run_sweep(open_session(sf.scenario), plan)


def route_a_check():
    _, sweep = fixture_sweep("route_a.json")
    out = {}
    for curve in sweep.curves:
        c = curve.carriers()
        g = curve.gsnr_db()
        peak = float(np.nanmax(g))
        at = {off: float(g[np.argmin(np.abs(c - off))]) for off in (6.25, 18.75)}
        out[curve.probe.probe_id] = {
            "peak": peak,
            "pen@6.25": peak - at[6.25],
            "pen@18.75": peak - at[18.75],
        }
    bw = diagnosis.estimate_effective_bandwidth(sweep)
    out["effective_bw"] = (bw.lower_bound_ghz, bw.upper_bound_ghz)
    return out


def route_c_check():
    sf, sweep = fixture_sweep("route_c.json")
    tilt = diagnosis.estimate_tilt_ripple(sweep)
    catalog = [catalog_entry(name) for name in sf.recommend_catalog]
    plan = diagnosis.recommend_carriers(sweep, catalog, sf.recommend_guard_ghz)
    return {
        "tilt": round(tilt.tilt_db, 3),
        "ripple_pp": round(tilt.ripple_pp_db, 3),
        "plan": [(a.center_ghz, a.entry_name, round(a.predicted_margin_db, 2)) for a in plan.assignments],
    }


def main():
    chi = {
        d: overlap_coefficient(SignalSpectrum(69.0), SignalSpectrum(69.0), d)
        for d in (56.25, 62.5, 68.75, 75.0)
    }
    print("chi(69,69):", {k: round(v, 6) for k, v in chi.items()})

    # All-69GBd five-slot fixture. The feasible window is narrow: the
    # 18.75 GHz penalty must exceed 4.4 dB while the 12.5 GHz penalty stays
    # at or below 2.8 dB; kappa * g0_lin ~ 9.57 sits in the middle of it.
    kappa69 = 0.0957
    print(f"kappa (all-69 fixture) = {kappa69:.6f}")
    print("penalties:", {k: round(v, 3) for k, v in crosstalk_all69(kappa69).items()})

    # Mixed-rate fixture: pin the central 34GBd penalty at 25 GHz to 1.4 dB
    # (inside 1.2 +/- 0.3) so the approached 69GBd neighbor clears the
    # 0.9 - 0.3 lower edge with some room.
    kappa_mixed = fit_kappa(crosstalk_mixed, "central", 1.4, 0.005, 0.3)
    print(f"kappa (mixed fixture) = {kappa_mixed:.6f}")
    print("mixed:", {k: round(v, 3) for k, v in crosstalk_mixed(kappa_mixed).items()})

    print("route A:", route_a_check())
    print("route C:", route_c_check())


if __name__ == "__main__":
    main()
