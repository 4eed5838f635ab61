"""Metamorphic gate: symmetries of the line model, checked on the fixtures.

At zero read noise (the noise key includes the carrier, so a moved carrier
draws other noise) every GSNR reading of a sweep and of a crosstalk scan,
and every sweep point's Q, must survive two transformations of the scenario
file (the mirror's Q to within 1e-12 dB, see its test):

- translation: every absolute frequency (media channels, filter and
  neighbor centers, grid ends) moves by a multiple of the grid resolution
  and of every GSNR-profile ripple period; the carriers move with it;
- mirror: every frequency is negated, the grid ends swap, ``tilt_db``
  changes sign, each ripple phase maps to pi - phi, and the slots and their
  probes reverse; sweep curves reverse, and crosstalk offset o reads as -o.

Two more relations hold at zero read noise, on the same fixtures and on
seeded random scenario files (``test_io_cli.random_scenario_file``, drawn
as ``test_fuzz`` draws its cases):

- noise: no reading depends on ``seed`` or on ``trials_per_point``;
- monotonicity: with a neighbor beside the last slot, raising
  ``crosstalk_coupling`` never raises a reading (an outage counts as the
  lowest reading).
"""

import copy
import functools
import json
import math
import random
from dataclasses import replace

import pytest
from test_io_cli import random_scenario_file

from specsweep import fixture_path
from specsweep.linesim import open_session
from specsweep.probe import crosstalk_scan, run_sweep
from specsweep.scenario_io import parse_scenario_file, serialize_scenario_file

FIXTURES = ("route_a", "route_b", "route_c", "xtalk_5slot", "xtalk_mixed")
GENERATED = tuple(f"generated{k}" for k in range(8))


@functools.cache
def generated_docs():
    """The generator's first files, from the seed that ``test_fuzz`` draws its cases with."""
    rng = random.Random(20211029)
    return [serialize_scenario_file(random_scenario_file(rng)) for _ in GENERATED]


def noiseless_doc(name):
    if name in GENERATED:
        doc = copy.deepcopy(generated_docs()[GENERATED.index(name)])
    else:
        doc = json.loads(fixture_path(f"{name}.json").read_text())
    doc["scenario"]["measurement_noise_sigma_db"] = 0.0
    return doc


def translated(doc, delta):
    doc = copy.deepcopy(doc)
    scenario = doc["scenario"]
    for key in ("media_channels", "filters", "neighbors"):
        for item in scenario.get(key, ()):
            item["center"] += delta
    scenario["grid"]["start"] += delta
    scenario["grid"]["stop"] += delta
    return doc


def mirrored(doc):
    doc = copy.deepcopy(doc)
    scenario = doc["scenario"]
    for key in ("media_channels", "filters", "neighbors"):
        for item in scenario.get(key, ()):
            item["center"] = -item["center"]
    scenario["media_channels"].reverse()
    grid = scenario["grid"]
    grid["start"], grid["stop"] = -grid["stop"], -grid["start"]
    profile = scenario["gsnr_profile"]
    profile["tilt_db"] = -profile.get("tilt_db", 0.0)
    ripples = [f["ripple"] for f in scenario.get("filters", ()) if "ripple" in f]
    for ripple in ripples + profile.get("ripple_components", []):
        ripple["phase_rad"] = math.pi - ripple.get("phase_rad", 0.0)
    if "slot_probes" in doc:
        doc["slot_probes"].reverse()
    offsets = doc.get("crosstalk_offsets")
    if offsets:
        offsets["start"], offsets["stop"] = -offsets["stop"], -offsets["start"]
    return doc


def sweep(doc, slot_index=0):
    """Every probe's (carrier, GSNR, Q) readings across one media channel."""
    sf = parse_scenario_file(doc)
    plan = replace(sf.plan, slot=sf.scenario.media_channels[slot_index])
    result = run_sweep(open_session(sf.scenario), plan)
    carriers = result.plan.carriers().tolist()
    return [list(zip(carriers, curve.gsnr_db, curve.q_db)) for curve in result.curves]


def scan(doc):
    """Per offset, every channel's GSNR reading, or None without slot probes."""
    sf = parse_scenario_file(doc)
    if not sf.slot_probes:
        return None
    result = crosstalk_scan(sf.bench, sf.crosstalk_offsets.values(), trials=sf.trials_per_point)
    readings = [dict(zip(result.offsets, ch.gsnr_db)) for ch in result.channels]
    return result.offsets, readings


@functools.cache
def noiseless(name):
    """A fixture or a generated file at zero noise: its document, sweep and scan readings."""
    doc = noiseless_doc(name)
    return doc, sweep(doc), scan(doc)


def test_most_generated_sweeps_read():
    """The relations check generated files only where they read: at least half
    of the generated sweeps have a reading, not only outages."""
    reading = [
        name
        for name in GENERATED
        if any(g is not None for curve in noiseless(name)[1] for _, g, _ in curve)
    ]
    assert len(reading) >= len(GENERATED) / 2, reading


@pytest.fixture(params=FIXTURES)
def baseline(request):
    return noiseless(request.param)


@pytest.fixture(params=FIXTURES + GENERATED)
def any_file(request):
    return noiseless(request.param)


@pytest.mark.parametrize("delta", (12.5, 100.0))
def test_translation_keeps_every_reading(baseline, delta):
    doc, curves, scanned = baseline
    moved = translated(doc, delta)
    assert sweep(moved) == [[(c + delta, g, q) for c, g, q in curve] for curve in curves]
    assert scan(moved) == scanned


def test_mirror_keeps_every_reading(baseline):
    doc, curves, scanned = baseline
    flipped = mirrored(doc)
    # The mirror of the first slot is the mirrored file's last slot. Its
    # integrals run over the mirrored grid in the opposite order, so Q may
    # differ in the last bits; GSNR is the Q->SNR bisection's midpoint, which
    # an error that small does not move.
    flipped_curves = sweep(flipped, slot_index=-1)
    for curve, flipped_curve in zip(curves, flipped_curves, strict=True):
        for (c, g, q), (fc, fg, fq) in zip(curve, reversed(flipped_curve), strict=True):
            assert (-fc, fg) == (c, g)
            assert fq == pytest.approx(q, rel=0.0, abs=1e-12)
    if scanned is None:
        return
    offsets, readings = scanned
    flipped_offsets, flipped_readings = scan(flipped)
    assert sorted(flipped_offsets) == sorted(-o for o in offsets)
    for channel, flipped_channel in zip(readings, reversed(flipped_readings), strict=True):
        assert {o: flipped_channel[-o] for o in offsets} == channel


def readings(doc):
    """Every sweep and crosstalk GSNR reading of a file, in order; an outage is -inf."""
    values = [g for curve in sweep(doc) for _, g, _ in curve]
    scanned = scan(doc)
    if scanned is not None:
        values += [g for channel in scanned[1] for g in channel.values()]
    return [-math.inf if g is None else g for g in values]


def with_neighbor(doc, coupling):
    """The file with a 69 GBd neighbor 30 GHz past its last slot's edge."""
    doc = copy.deepcopy(doc)
    scenario = doc["scenario"]
    edge = max(mc["center"] + mc["width"] / 2.0 for mc in scenario["media_channels"])
    scenario["neighbors"] = [{"symbol_rate": 69.0, "center": edge + 30.0}]
    scenario["crosstalk_coupling"] = coupling
    return doc


def test_seed_changes_no_reading(any_file):
    doc, curves, scanned = any_file
    reseeded = copy.deepcopy(doc)
    reseeded["scenario"]["seed"] += 1
    assert sweep(reseeded) == curves
    assert scan(reseeded) == scanned


@pytest.mark.parametrize("trials", (1, 3))
def test_trials_change_no_reading(any_file, trials):
    doc, curves, scanned = any_file
    repeated = copy.deepcopy(doc)
    repeated.setdefault("sweep", {})["trials_per_point"] = trials
    assert sweep(repeated) == curves
    assert scan(repeated) == scanned


def test_more_crosstalk_never_raises_a_reading(baseline):
    doc = baseline[0]
    base = readings(with_neighbor(doc, coupling=0.05))
    more = readings(with_neighbor(doc, coupling=0.2))
    assert all(m <= b for m, b in zip(more, base, strict=True))
    assert more != base


@pytest.mark.parametrize("name", GENERATED)
def test_more_crosstalk_never_raises_a_generated_reading(name):
    doc = noiseless(name)[0]
    base = readings(with_neighbor(doc, coupling=0.05))
    more = readings(with_neighbor(doc, coupling=0.2))
    assert all(m <= b for m, b in zip(more, base, strict=True))
