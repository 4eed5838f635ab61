"""Detection over populations: diagnose() against the line side's known truth.

The scenarios are the bench's own ``sweep_trials`` and ``diagnose_catalog``
files (bench/workloads.py), at seeds fixed here before anything was
measured. Truth comes from the scenario, which diagnosis never sees:

- a slot is filtered when its scenario has a filter;
- its true tilt is ``gsnr_profile.tilt_db``.

The bounds are the figures the estimators reach today. They hold a floor
under later changes, which may tighten them but not loosen them. Run with
``-s`` to see the confusion matrices and tilt errors.
"""

import json
import statistics

import pytest
from test_io_cli import bench_workloads

from specsweep.diagnosis import diagnose
from specsweep.linesim import open_session
from specsweep.probe import run_sweep
from specsweep.scenario_io import parse_scenario_file

SEEDS = range(4)
# Per workload: (most false alarms, most misses), and per truth (filtered or
# not) the largest median and largest maximum tilt error in dB. None where
# the population holds no such slot.
BOUNDS = {
    "sweep_trials": ((12, 0), {False: (0.017, 0.049), True: (0.857, 1.718)}),
    "diagnose_catalog": ((0, 1), {False: None, True: (0.660, 5.154)}),
}


def _population(name):
    """(filtered, filter_limited, tilt error in dB) per slot of the workload's seeds."""
    workload = bench_workloads().WORKLOADS[name]
    out = []
    for seed in SEEDS:
        for text in workload.pool(seed):
            sf = parse_scenario_file(json.loads(text))
            report = diagnose(run_sweep(open_session(sf.scenario), sf.plan))
            bandwidth = report.effective_bandwidth
            flagged = None if bandwidth is None else bandwidth.filter_limited
            error = None
            if report.tilt_db is not None:
                error = abs(report.tilt_db - sf.scenario.gsnr_profile.tilt_db)
            out.append((bool(sf.scenario.filters), flagged, error))
    return out


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_detection_over_population(name):
    (max_false_alarms, max_misses), tilt_bounds = BOUNDS[name]
    population = _population(name)
    matrix = {
        (truth, flag): sum(1 for t, f, _ in population if (t, f) == (truth, flag))
        for truth in (True, False)
        for flag in (True, False, None)
    }
    print(f"\n{name}: filter_limited by truth (rows) and flag (columns)")
    print("             flagged  clear  no estimate")
    for truth in (True, False):
        row = [matrix[truth, flag] for flag in (True, False, None)]
        print(f"  {'filtered' if truth else 'clean':<9} {row[0]:>9} {row[1]:>6} {row[2]:>12}")
    false_alarms = matrix[False, True]
    misses = matrix[True, False] + matrix[True, None]
    assert false_alarms <= max_false_alarms
    assert misses <= max_misses

    for truth, bound in tilt_bounds.items():
        slots = [t for t, _, _ in population if t == truth]
        errors = [e for t, _, e in population if t == truth and e is not None]
        if bound is None:
            assert not slots
            continue
        assert len(errors) == len(slots), "every slot gets a tilt estimate"
        median, worst = statistics.median(errors), max(errors)
        print(
            f"  tilt error, {'filtered' if truth else 'clean'}: "
            f"median {median:.3f} dB, max {worst:.3f} dB over {len(errors)} slots"
        )
        assert median <= bound[0]
        assert worst <= bound[1]
