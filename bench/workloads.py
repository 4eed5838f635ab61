"""Seeded scenario generators, the per-op pipelines and their output checks.

Each workload is a pool of scenario files generated from ``--seed`` as JSON
text. The program only ever sees that text: every op parses it with
``scenario_io.parse_scenario_file``, opens a session or crosstalk bench,
probes, optionally diagnoses, and serializes the result sections the way
the CLI report does.

The pools are stratified: the seed permutes the pool and draws filter
shapes, tilts, GSNRs and probe mixes, but the set of slot widths and slot
counts is fixed, so the work in one pass over a pool barely depends on the
seed and runs with different seeds can be compared.
"""

import hashlib
import json
import math
import random

import numpy as np

from specsweep import diagnosis, formats, linesim, probe, scenario_io

GRID = {"start": -300.0, "stop": 300.0, "resolution": 0.05}
SWEEP_PROBES = ["200G-69GBd-DP-QPSK", "200G-46GBd-DP-P-16QAM", "200G-34GBd-DP-16QAM"]
CATALOG = [entry.name for entry in formats.BUILTIN_CATALOG]
STEP_GHZ = 6.25
XTALK_SLOT_GHZ = 75.0
XTALK_OFFSETS = {"start": -37.5, "stop": 37.5, "step": 6.25}  # 13 central offsets


# --- generation -------------------------------------------------------------


def _doc(scenario, probes, **extra):
    return {"schema_version": 1, "scenario": scenario, "probes": probes, **extra}


def _gen_sweep_trials(rng):
    """route_c shape: wide single slots, 3 probes, 5 trials, noise on.

    Nine widths 200..400 GHz; the narrower of each adjacent pair is filtered.
    """
    widths = [200.0 + 25.0 * k for k in range(9)]
    shapes = [(w, k % 2 == 0) for k, w in enumerate(widths)]
    rng.shuffle(shapes)
    docs = []
    for width, filtered in shapes:
        center = rng.choice([-25.0, -12.5, 0.0, 12.5, 25.0])
        filters = []
        if filtered:
            filters.append(
                {
                    "center": center + round(rng.uniform(-5.0, 5.0), 2),
                    "bandwidth_3db": round(width * rng.uniform(0.85, 0.95), 2),
                    "order": rng.randint(2, 6),
                }
            )
        scenario = {
            "media_channels": [{"center": center, "width": width}],
            "filters": filters,
            "gsnr_profile": {
                "base_gsnr_db": round(rng.uniform(17.0, 22.0), 2),
                "tilt_db": round(rng.uniform(-3.0, 3.0), 2),
            },
            "crosstalk_coupling": 0.0,
            "measurement_noise_sigma_db": 0.1,
            "seed": rng.randrange(1 << 31),
            "grid": GRID,
        }
        docs.append(
            _doc(
                scenario,
                [{"entry": name} for name in SWEEP_PROBES],
                sweep={"step": STEP_GHZ, "trials_per_point": 5},
            )
        )
    return docs


def _gen_xtalk_scan(rng):
    """Multi-slot layouts of 3, 5 and 7 slots (four each), mixed slot probes.

    A layout of n slots carries the first n catalog entries (cycling), in a
    seeded order, so the seed moves formats between slots but keeps the mix.
    """
    counts = [3, 5, 7] * 4
    rng.shuffle(counts)
    docs = []
    for n in counts:
        probes = [CATALOG[k % len(CATALOG)] for k in range(n)]
        rng.shuffle(probes)
        channels = [
            {"center": (k - n // 2) * XTALK_SLOT_GHZ, "width": XTALK_SLOT_GHZ}
            for k in range(n)
        ]
        scenario = {
            "media_channels": channels,
            "filters": [],
            "gsnr_profile": {"base_gsnr_db": round(rng.uniform(18.0, 22.0), 2)},
            "crosstalk_coupling": round(rng.uniform(0.03, 0.1), 4),
            "measurement_noise_sigma_db": 0.0,
            "seed": rng.randrange(1 << 31),
            "grid": GRID,
        }
        docs.append(
            _doc(
                scenario,
                [{"entry": SWEEP_PROBES[0]}],
                slot_probes=[{"entry": name} for name in probes],
                crosstalk_offsets=XTALK_OFFSETS,
                sweep={"step": STEP_GHZ, "trials_per_point": 1},
            )
        )
    return docs


def _gen_diagnose_catalog(rng):
    """Filtered 75..150 GHz slots (two of each width), 1 trial, full catalog."""
    widths = [75.0 + 12.5 * k for k in range(7)] * 2
    rng.shuffle(widths)
    docs = []
    for width in widths:
        filt = {
            "center": round(rng.uniform(-6.0, 6.0), 2),
            "bandwidth_3db": round(width * rng.uniform(0.75, 0.95), 2),
            "order": rng.randint(2, 10),
        }
        if rng.random() < 0.5:
            filt["ripple"] = {
                "amplitude_db": round(rng.uniform(0.3, 0.9), 2),
                "period_ghz": 31.25,
                "phase_rad": round(rng.uniform(-math.pi, math.pi), 3),
            }
        scenario = {
            "media_channels": [{"center": 0.0, "width": width}],
            "filters": [filt],
            "gsnr_profile": {
                "base_gsnr_db": round(rng.uniform(16.0, 21.0), 2),
                "tilt_db": round(rng.uniform(-1.0, 1.0), 2),
            },
            "crosstalk_coupling": 0.0,
            "filtering_exponent": rng.choice([2.0, 4.0]),
            "measurement_noise_sigma_db": rng.choice([0.0, 0.1]),
            "seed": rng.randrange(1 << 31),
            "grid": GRID,
        }
        docs.append(
            _doc(
                scenario,
                [{"entry": name} for name in SWEEP_PROBES],
                sweep={"step": STEP_GHZ, "trials_per_point": 1},
                recommend={"catalog": CATALOG, "guard_ghz": 0.0},
            )
        )
    return docs


# --- the op pipeline ---------------------------------------------------------


class ReadCounter:
    """Probe points, simulated Q reads and outages, counted at the session."""

    def __init__(self):
        self.points = 0
        self.reads = 0
        self.outages = 0


class CountingSession:
    """Forwards the black-box probe interface and counts each Q read."""

    def __init__(self, session, counter):
        self._session = session
        self._counter = counter

    @property
    def slot(self):
        return self._session.slot

    def set_carrier(self, carrier):
        self._counter.points += 1  # the probe engine sets the carrier once per point
        self._session.set_carrier(carrier)

    def set_probe(self, probe_config):
        self._session.set_probe(probe_config)

    def read_q(self, trial_index=0):
        result = self._session.read_q(trial_index)
        self._counter.reads += 1
        self._counter.outages += result.outage
        return result


class CountingBench:
    """A CrosstalkBench whose sessions count their reads."""

    def __init__(self, bench, counter):
        self._bench = bench
        self._counter = counter

    def __getattr__(self, name):
        return getattr(self._bench, name)

    def session(self, victim_index, central_offset):
        return CountingSession(self._bench.session(victim_index, central_offset), self._counter)


def _numpy_scalar(obj):
    # Canonicaliser choice: numpy scalars become Python scalars here. At the
    # commit that defined this benchmark `diagnosis_report_dict` leaks a
    # numpy.bool that json cannot encode; the fixture pass counts that CLI
    # defect, the generated ops measure the work around it.
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def parse(text):
    """scenario_io layer: JSON text -> validated ScenarioFile."""
    return scenario_io.parse_scenario_file(json.loads(text))


def serialize(**sections):
    """scenario_io layer: result objects -> report sections -> JSON text."""
    body = {key: to_dict(obj) for key, (to_dict, obj) in sections.items()}
    return json.dumps(body, sort_keys=True, default=_numpy_scalar)


def _sweep(sf, counter):
    session = CountingSession(linesim.open_session(sf.scenario), counter)
    plan = probe.SweepPlan(
        slot=sf.scenario.media_channels[0],
        probes=sf.probes,
        step=sf.sweep_step,
        trials_per_point=sf.trials_per_point,
    )
    return probe.run_sweep(session, plan)


def op_sweep(text, counter):
    sf = parse(text)
    result = _sweep(sf, counter)
    return serialize(sweep=(scenario_io.sweep_result_dict, result))


def op_crosstalk(text, counter):
    sf = parse(text)
    bench = CountingBench(linesim.CrosstalkBench(sf.scenario, sf.slot_probes), counter)
    scan = probe.crosstalk_scan(bench, sf.crosstalk_offsets.values(), trials=sf.trials_per_point)
    return serialize(crosstalk=(scenario_io.crosstalk_result_dict, scan))


def op_diagnose(text, counter):
    sf = parse(text)
    result = _sweep(sf, counter)
    catalog = [formats.catalog_entry(name) for name in sf.recommend_catalog]
    report = diagnosis.diagnose(result, catalog=catalog, guard_ghz=sf.recommend_guard_ghz)
    return serialize(
        sweep=(scenario_io.sweep_result_dict, result),
        diagnosis=(scenario_io.diagnosis_report_dict, report),
    )


# --- output checks -----------------------------------------------------------


def _round(obj):
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _round(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round(v) for v in obj]
    return obj


def digest(body):
    """Digest of a report body (JSON text or decoded) with floats at 10 digits.

    Rounding keeps the digest stable against last-bit differences between
    vectorized math paths on different CPUs.
    """
    if isinstance(body, str):
        body = json.loads(body)
    canonical = json.dumps(_round(body), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class CheckFailed(AssertionError):
    pass


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _profile_db(scenario, carrier):
    mc = scenario["media_channels"][0]
    prof = scenario["gsnr_profile"]
    return prof["base_gsnr_db"] + prof.get("tilt_db", 0.0) * (carrier - mc["center"]) / mc["width"]


def _check_sweep(doc, sweep):
    scenario = doc["scenario"]
    mc = scenario["media_channels"][0]
    step = doc["sweep"]["step"]
    n = int(math.floor((mc["width"] + 1e-9) / step)) + 1
    start = mc["center"] - mc["width"] / 2.0
    _require(len(sweep["curves"]) == len(doc["probes"]), "one curve per probe")
    filters = scenario["filters"]
    for curve in sweep["curves"]:
        points = curve["points"]
        _require(len(points) == n, f"{n} carriers per curve")
        for k, p in enumerate(points):
            _require(abs(p["carrier"] - (start + step * k)) < 1e-6, "carrier grid")
            if p["outage"]:
                _require(bool(filters), "outage only where a filter cuts the probe")
                continue
            _require(math.isfinite(p["gsnr_db"]) and math.isfinite(p["q_db"]), "finite reading")
            # Filtering and crosstalk only lower GSNR; read noise is 0.1 dB.
            _require(p["gsnr_db"] <= _profile_db(scenario, p["carrier"]) + 1.0, "GSNR above profile")
            if not filters:
                _require(
                    p["gsnr_db"] >= _profile_db(scenario, p["carrier"]) - 1.0,
                    "unfiltered GSNR below profile",
                )
        entry = formats.catalog_entry(curve["probe"].split("/")[0])
        if filters and filters[0]["bandwidth_3db"] >= 2.0 * entry.symbol_rate * 1.19:
            # A passband twice the probe's occupied width barely filters it.
            middle = min(points, key=lambda p: abs(p["carrier"] - filters[0]["center"]))
            _require(not middle["outage"], "reading at the passband center")
            _require(
                abs(middle["gsnr_db"] - _profile_db(scenario, middle["carrier"])) <= 1.0,
                "passband-center GSNR matches the profile",
            )


def check_sweep_trials(doc, body):
    _check_sweep(doc, body["sweep"])


def check_xtalk_scan(doc, body):
    scan = body["crosstalk"]
    n = len(doc["scenario"]["media_channels"])
    mid = n // 2
    off = doc["crosstalk_offsets"]
    count = int(round((off["stop"] - off["start"]) / off["step"])) + 1
    base = doc["scenario"]["gsnr_profile"]["base_gsnr_db"]
    _require(len(scan["offsets"]) == count, f"{count} offsets")
    _require(len(scan["channels"]) == n, "one scan per slot")
    for ch in scan["channels"]:
        _require(len(ch["points"]) == count, "one point per offset")
        for p in ch["points"]:
            if p["outage"]:
                # A carrier drifting onto a neighbor can push a dense format
                # past the outage BER; that is data, not a failure.
                _require("penalty_db" not in p and p["offset"] != 0.0, "outage off the aligned grid")
                continue
            _require(p["gsnr_db"] <= base + 0.01, "crosstalk only lowers GSNR")
            if p["offset"] == 0.0:
                _require(p["penalty_db"] == 0.0, "zero penalty on the aligned grid")
            if abs(ch["slot_index"] - mid) >= 2:
                # Two slots away the drifting carrier never overlaps the victim.
                _require(p["penalty_db"] == 0.0, "no penalty beyond the adjacent slots")


def check_diagnose_catalog(doc, body):
    _check_sweep(doc, body["sweep"])
    diag = body["diagnosis"]
    mc = doc["scenario"]["media_channels"][0]
    names = doc["recommend"]["catalog"]
    pairs = [f"{a}|{b}" for i, a in enumerate(names) for b in names[i:]]
    _require(sorted(diag["guard_band_recommendations"]) == sorted(pairs), "one guard band per pair")
    widths = {e.name: e.symbol_rate * 1.19 for e in formats.BUILTIN_CATALOG}
    for pair, g in diag["guard_band_recommendations"].items():
        a, b = pair.split("|")
        half_sum = (widths[a] + widths[b]) / 2.0
        _require(0.0 <= g["min_spacing_ghz"] <= half_sum + 0.01, "spacing within support")
        _require(g["guard_band_ghz"] >= 0.0, "guard band >= 0")
    bw = diag["effective_bandwidth"]
    if bw is not None:
        _require(bw["lower_bound_ghz"] <= bw["upper_bound_ghz"], "bandwidth bracket ordered")
    for curve in diag["per_probe_penalty_curves"].values():
        _require(all(p["penalty_db"] is None or p["penalty_db"] >= 0.0 for p in curve), "penalty >= 0")
    plan = diag["carrier_plan"]
    hi = mc["center"] - mc["width"] / 2.0
    for a in plan["assignments"]:
        _require(a["entry"] in names, "assigned entry from the catalog")
        lo = a["center_ghz"] - a["occupied_width_ghz"] / 2.0
        _require(lo >= hi - 1e-6, "carriers do not overlap")
        hi = a["center_ghz"] + a["occupied_width_ghz"] / 2.0
        _require(hi <= mc["center"] + mc["width"] / 2.0 + 1e-6, "carrier inside the slot")
        _require(a["predicted_margin_db"] >= 0.0, "assigned carriers have margin")
    _require(all(0.0 <= e["offset_db"] <= 3.0 for e in diag["pre_emphasis"]), "pre-emphasis clipped")


class Workload:
    def __init__(self, name, generate, op, check):
        self.name = name
        self.generate = generate
        self.op = op
        self.check = check

    def pool(self, seed):
        """Scenario files of one pass, as JSON text."""
        return [json.dumps(doc) for doc in self.generate(random.Random(f"{self.name}:{seed}"))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_trials", _gen_sweep_trials, op_sweep, check_sweep_trials),
        Workload("xtalk_scan", _gen_xtalk_scan, op_crosstalk, check_xtalk_scan),
        Workload("diagnose_catalog", _gen_diagnose_catalog, op_diagnose, check_diagnose_catalog),
    )
}
