"""Scenario/report file formats: strict JSON schema v1, hashing, CSV export.

The schema rejects unknown fields and reports errors with a dotted field
path (e.g. ``scenario.filters[0].order``) so fixture typos fail loudly.
"""

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Optional, Tuple

from specsweep.errors import ScenarioFormatError
from specsweep.formats import catalog_entry
from specsweep.linesim import (
    GsnrProfile,
    MediaChannel,
    NeighborChannel,
    ProbeConfig,
    Scenario,
)
from specsweep.probe import SweepPlan
from specsweep.spectral import (
    DEFAULT_ROLL_OFF,
    FilterElement,
    FrequencyGrid,
    Ripple,
    SignalSpectrum,
)

SCHEMA_VERSION = 1
# Upper bound on central-carrier offsets per crosstalk scan, checked before
# the offsets are generated.
MAX_CROSSTALK_OFFSETS = 10_000


@dataclass(frozen=True)
class CrosstalkOffsets:
    """Central-carrier offsets start, start + step, ... up to stop (GHz)."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        if not (self.step > 0 and self.start <= self.stop):
            raise ValueError("need step > 0 and start <= stop")
        if not (self.stop - self.start + 1e-9) / self.step < MAX_CROSSTALK_OFFSETS:
            raise ValueError(f"more than {MAX_CROSSTALK_OFFSETS} crosstalk offsets")

    def values(self):
        n = int((self.stop - self.start + 1e-9) // self.step) + 1
        return tuple(round(self.start + k * self.step, 9) for k in range(n))


@dataclass(frozen=True)
class ScenarioFile:
    schema_version: int
    scenario: Scenario
    probes: Tuple[ProbeConfig, ...]
    sweep_step: float = 6.25
    trials_per_point: int = 1
    slot_probes: Tuple[ProbeConfig, ...] = ()
    crosstalk_offsets: Optional[CrosstalkOffsets] = None
    recommend_catalog: Tuple[str, ...] = ()
    recommend_guard_ghz: float = 0.0


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ScenarioFormatError(path, f"expected an object, got {type(obj).__name__}")


def _check_fields(obj, path, required, optional=()):
    _require_mapping(obj, path)
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioFormatError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise ScenarioFormatError(f"{path}.{key}", "missing required field")


def _number(obj, key, path, default=None):
    if key not in obj:
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ScenarioFormatError(f"{path}.{key}", f"expected a number, got {val!r}")
    val = float(val)
    if not math.isfinite(val):
        raise ScenarioFormatError(f"{path}.{key}", f"expected a finite number, got {val!r}")
    return val


def _integer(obj, key, path, default=None):
    if key not in obj:
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ScenarioFormatError(f"{path}.{key}", f"expected an integer, got {val!r}")
    return val


def _string(obj, key, path, default=None):
    if key not in obj:
        return default
    val = obj[key]
    if not isinstance(val, str):
        raise ScenarioFormatError(f"{path}.{key}", f"expected a string, got {val!r}")
    return val


def _build(cls, path, **kwargs):
    """Construct a domain object, converting its ValueError into a schema error."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioFormatError(path, str(exc)) from exc


def _parse_grid(obj, path):
    _check_fields(obj, path, ("start", "stop"), ("resolution",))
    return _build(
        FrequencyGrid,
        path,
        start=_number(obj, "start", path),
        stop=_number(obj, "stop", path),
        resolution=_number(obj, "resolution", path, 0.05),
    )


def _parse_ripple(obj, path):
    _check_fields(obj, path, ("amplitude_db", "period_ghz"), ("phase_rad",))
    return _build(
        Ripple,
        path,
        amplitude_db=_number(obj, "amplitude_db", path),
        period_ghz=_number(obj, "period_ghz", path),
        phase_rad=_number(obj, "phase_rad", path, 0.0),
    )


def _parse_filter(obj, path):
    _check_fields(obj, path, ("center", "bandwidth_3db"), ("order", "ripple"))
    ripple = None
    if "ripple" in obj:
        ripple = _parse_ripple(obj["ripple"], f"{path}.ripple")
    return _build(
        FilterElement,
        path,
        center=_number(obj, "center", path),
        bandwidth_3db=_number(obj, "bandwidth_3db", path),
        order=_integer(obj, "order", path, 1),
        ripple=ripple,
    )


def _parse_profile(obj, path):
    _check_fields(
        obj,
        path,
        ("base_gsnr_db",),
        ("tilt_db", "ripple_components", "anchor_center", "anchor_width"),
    )
    components = obj.get("ripple_components", [])
    if not isinstance(components, list):
        raise ScenarioFormatError(f"{path}.ripple_components", "expected a list")
    ripple = tuple(
        _parse_ripple(c, f"{path}.ripple_components[{i}]")
        for i, c in enumerate(components)
    )
    return _build(
        GsnrProfile,
        path,
        base_gsnr_db=_number(obj, "base_gsnr_db", path),
        tilt_db=_number(obj, "tilt_db", path, 0.0),
        ripple_components=ripple,
        anchor_center=_number(obj, "anchor_center", path),
        anchor_width=_number(obj, "anchor_width", path),
    )


def _parse_media_channel(obj, path):
    _check_fields(obj, path, ("center", "width"))
    return _build(
        MediaChannel,
        path,
        center=_number(obj, "center", path),
        width=_number(obj, "width", path),
    )


def _parse_neighbor(obj, path):
    _check_fields(obj, path, ("symbol_rate", "center"), ("roll_off", "power_offset_db"))
    spectrum = _build(
        SignalSpectrum,
        path,
        symbol_rate=_number(obj, "symbol_rate", path),
        roll_off=_number(obj, "roll_off", path, DEFAULT_ROLL_OFF),
        center=_number(obj, "center", path),
    )
    return NeighborChannel(spectrum, _number(obj, "power_offset_db", path, 0.0))


def _parse_list(obj, key, path, parser, required=False):
    if key not in obj:
        if required:
            raise ScenarioFormatError(f"{path}.{key}", "missing required field")
        return ()
    val = obj[key]
    if not isinstance(val, list):
        raise ScenarioFormatError(f"{path}.{key}", "expected a list")
    return tuple(parser(item, f"{path}.{key}[{i}]") for i, item in enumerate(val))


def _parse_scenario(obj, path):
    _check_fields(
        obj,
        path,
        ("media_channels", "gsnr_profile"),
        (
            "filters",
            "neighbors",
            "crosstalk_coupling",
            "filtering_exponent",
            "measurement_noise_sigma_db",
            "outage_ber",
            "seed",
            "grid",
        ),
    )
    channels = _parse_list(obj, "media_channels", path, _parse_media_channel, required=True)
    if not channels:
        raise ScenarioFormatError(f"{path}.media_channels", "must not be empty")
    grid = (
        _parse_grid(obj["grid"], f"{path}.grid")
        if "grid" in obj
        else FrequencyGrid(-300.0, 300.0)
    )
    return _build(
        Scenario,
        path,
        media_channels=channels,
        filters=_parse_list(obj, "filters", path, _parse_filter),
        gsnr_profile=_parse_profile(obj["gsnr_profile"], f"{path}.gsnr_profile"),
        neighbors=_parse_list(obj, "neighbors", path, _parse_neighbor),
        crosstalk_coupling=_number(obj, "crosstalk_coupling", path, 1.0),
        filtering_exponent=_number(obj, "filtering_exponent", path, 2.0),
        measurement_noise_sigma_db=_number(obj, "measurement_noise_sigma_db", path, 0.1),
        outage_ber=_number(obj, "outage_ber", path, 5e-2),
        seed=_integer(obj, "seed", path, 0),
        grid=grid,
    )


def _parse_probe(obj, path):
    _check_fields(obj, path, ("entry",), ("roll_off",))
    name = _string(obj, "entry", path)
    try:
        entry = catalog_entry(name)
    except KeyError:
        raise ScenarioFormatError(f"{path}.entry", f"unknown catalog entry {name!r}")
    return _build(
        ProbeConfig,
        path,
        entry=entry,
        roll_off=_number(obj, "roll_off", path, DEFAULT_ROLL_OFF),
    )


def _parse_offsets(obj, path):
    _check_fields(obj, path, ("start", "stop", "step"))
    return _build(
        CrosstalkOffsets,
        path,
        start=_number(obj, "start", path),
        stop=_number(obj, "stop", path),
        step=_number(obj, "step", path),
    )


def parse_scenario_file(data, path="$"):
    """Validate an already-decoded JSON document into a ScenarioFile."""
    _check_fields(
        data,
        path,
        ("schema_version", "scenario", "probes"),
        ("sweep", "slot_probes", "crosstalk_offsets", "recommend"),
    )
    version = _integer(data, "schema_version", path)
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"{path}.schema_version", f"unsupported version {version}"
        )
    scenario = _parse_scenario(data["scenario"], f"{path}.scenario")
    probes = _parse_list(data, "probes", path, _parse_probe, required=True)
    if not probes:
        raise ScenarioFormatError(f"{path}.probes", "must not be empty")

    step, trials = 6.25, 1
    if "sweep" in data:
        sweep = data["sweep"]
        _check_fields(sweep, f"{path}.sweep", (), ("step", "trials_per_point"))
        step = _number(sweep, "step", f"{path}.sweep", 6.25)
        trials = _integer(sweep, "trials_per_point", f"{path}.sweep", 1)
    # Validates step, trials and the carrier count against the swept slot.
    _build(
        SweepPlan,
        f"{path}.sweep",
        slot=scenario.media_channels[0],
        probes=probes,
        step=step,
        trials_per_point=trials,
    )

    slot_probes = _parse_list(data, "slot_probes", path, _parse_probe)
    if slot_probes and len(slot_probes) != len(scenario.media_channels):
        raise ScenarioFormatError(
            f"{path}.slot_probes",
            f"need one probe per media channel "
            f"({len(scenario.media_channels)}), got {len(slot_probes)}",
        )

    offsets = None
    if "crosstalk_offsets" in data:
        offsets = _parse_offsets(data["crosstalk_offsets"], f"{path}.crosstalk_offsets")

    rec_catalog, rec_guard = (), 0.0
    if "recommend" in data:
        rec = data["recommend"]
        _check_fields(rec, f"{path}.recommend", ("catalog",), ("guard_ghz",))
        names = rec["catalog"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ScenarioFormatError(f"{path}.recommend.catalog", "expected a list of strings")
        for i, name in enumerate(names):
            try:
                catalog_entry(name)
            except KeyError:
                raise ScenarioFormatError(
                    f"{path}.recommend.catalog[{i}]", f"unknown catalog entry {name!r}"
                )
        rec_catalog = tuple(names)
        rec_guard = _number(rec, "guard_ghz", f"{path}.recommend", 0.0)

    return ScenarioFile(
        schema_version=version,
        scenario=scenario,
        probes=probes,
        sweep_step=step,
        trials_per_point=trials,
        slot_probes=slot_probes,
        crosstalk_offsets=offsets,
        recommend_catalog=rec_catalog,
        recommend_guard_ghz=rec_guard,
    )


def load_scenario(path):
    """Load and strictly validate a scenario file from disk."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(str(path), f"invalid JSON: {exc}") from exc
    return parse_scenario_file(data)


def _ripple_dict(rip):
    return {
        "amplitude_db": rip.amplitude_db,
        "period_ghz": rip.period_ghz,
        "phase_rad": rip.phase_rad,
    }


def _probe_dict(probe):
    return {"entry": probe.entry.name, "roll_off": probe.roll_off}


def serialize_scenario_file(sf):
    """ScenarioFile -> plain JSON-compatible dict (round-trips via parse)."""
    sc = sf.scenario
    profile = {
        "base_gsnr_db": sc.gsnr_profile.base_gsnr_db,
        "tilt_db": sc.gsnr_profile.tilt_db,
        "ripple_components": [_ripple_dict(r) for r in sc.gsnr_profile.ripple_components],
    }
    if sc.gsnr_profile.anchor_center is not None:
        profile["anchor_center"] = sc.gsnr_profile.anchor_center
    if sc.gsnr_profile.anchor_width is not None:
        profile["anchor_width"] = sc.gsnr_profile.anchor_width

    scenario = {
        "media_channels": [
            {"center": mc.center, "width": mc.width} for mc in sc.media_channels
        ],
        "filters": [
            {
                "center": f.center,
                "bandwidth_3db": f.bandwidth_3db,
                "order": f.order,
                **({"ripple": _ripple_dict(f.ripple)} if f.ripple else {}),
            }
            for f in sc.filters
        ],
        "gsnr_profile": profile,
        "neighbors": [
            {
                "symbol_rate": nb.spectrum.symbol_rate,
                "roll_off": nb.spectrum.roll_off,
                "center": nb.spectrum.center,
                "power_offset_db": nb.power_offset_db,
            }
            for nb in sc.neighbors
        ],
        "crosstalk_coupling": sc.crosstalk_coupling,
        "filtering_exponent": sc.filtering_exponent,
        "measurement_noise_sigma_db": sc.measurement_noise_sigma_db,
        "outage_ber": sc.outage_ber,
        "seed": sc.seed,
        "grid": {
            "start": sc.grid.start,
            "stop": sc.grid.stop,
            "resolution": sc.grid.resolution,
        },
    }
    out = {
        "schema_version": sf.schema_version,
        "scenario": scenario,
        "probes": [_probe_dict(p) for p in sf.probes],
        "sweep": {"step": sf.sweep_step, "trials_per_point": sf.trials_per_point},
    }
    if sf.slot_probes:
        out["slot_probes"] = [_probe_dict(p) for p in sf.slot_probes]
    if sf.crosstalk_offsets is not None:
        off = sf.crosstalk_offsets
        out["crosstalk_offsets"] = {"start": off.start, "stop": off.stop, "step": off.step}
    if sf.recommend_catalog:
        out["recommend"] = {
            "catalog": list(sf.recommend_catalog),
            "guard_ghz": sf.recommend_guard_ghz,
        }
    return out


def scenario_hash(sf):
    """Stable content hash of a scenario file (hex, 16 chars)."""
    canonical = json.dumps(serialize_scenario_file(sf), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def write_text_atomic(path, text):
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".specsweep-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path, payload):
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def sweep_result_dict(sweep):
    return {
        "slot": {"center": sweep.slot.center, "width": sweep.slot.width},
        "step": sweep.step,
        "curves": [
            {
                "probe": curve.probe.probe_id,
                "points": [
                    {
                        "carrier": p.carrier,
                        "outage": p.sample.outage,
                        **(
                            {}
                            if p.sample.outage
                            else {"gsnr_db": p.sample.gsnr_db, "q_db": p.q_db}
                        ),
                    }
                    for p in curve.points
                ],
            }
            for curve in sweep.curves
        ],
    }


def sweep_result_csv(sweep):
    lines = ["carrier,probe,gsnr_db,outage"]
    for curve in sweep.curves:
        for p in curve.points:
            gsnr = "" if p.sample.outage else f"{p.sample.gsnr_db:.4f}"
            lines.append(f"{p.carrier:.4f},{curve.probe.probe_id},{gsnr},{int(p.sample.outage)}")
    return "\n".join(lines) + "\n"


def crosstalk_result_dict(scan):
    return {
        "offsets": list(scan.offsets),
        "channels": [
            {
                "slot_index": ch.slot_index,
                "probe": ch.probe.probe_id,
                "points": [
                    {
                        "offset": off,
                        "outage": s.outage,
                        **({} if s.outage else {"gsnr_db": s.gsnr_db}),
                        **({} if pen is None else {"penalty_db": pen}),
                    }
                    for off, s, pen in zip(ch.offsets, ch.samples, ch.penalties_db)
                ],
            }
            for ch in scan.channels
        ],
    }


def crosstalk_result_csv(scan):
    lines = ["offset,slot_index,gsnr_db,penalty_db,outage"]
    for ch in scan.channels:
        for off, s, pen in zip(ch.offsets, ch.samples, ch.penalties_db):
            gsnr = "" if s.outage else f"{s.gsnr_db:.4f}"
            penalty = "" if pen is None else f"{pen:.4f}"
            lines.append(f"{off:.4f},{ch.slot_index},{gsnr},{penalty},{int(s.outage)}")
    return "\n".join(lines) + "\n"


def carrier_plan_dict(plan):
    return {
        "guard_ghz": plan.guard_ghz,
        "assignments": [
            {
                "center_ghz": a.center_ghz,
                "entry": a.entry_name,
                "predicted_margin_db": a.predicted_margin_db,
                "occupied_width_ghz": a.occupied_width_ghz,
            }
            for a in plan.assignments
        ],
        "shortfalls_db": dict(plan.shortfalls_db),
    }


def diagnosis_report_dict(report):
    bw = report.effective_bandwidth
    offset = report.center_offset
    plan = report.carrier_plan
    return {
        "effective_bandwidth": None
        if bw is None
        else {
            "lower_bound_ghz": bw.lower_bound_ghz,
            "upper_bound_ghz": bw.upper_bound_ghz,
            "threshold_db": bw.threshold_db,
            "filter_limited": bw.filter_limited,
            "degenerate": bw.degenerate,
            "widest_working_width_ghz": bw.widest_working_width_ghz,
        },
        "center_offset": None
        if offset is None
        else {"offset_ghz": offset.offset_ghz, "low_confidence": offset.low_confidence},
        "tilt_db": report.tilt_db,
        "ripple_pp_db": report.ripple_pp_db,
        "per_probe_penalty_curves": {
            probe: [{"carrier": c, "penalty_db": p} for c, p in pts]
            for probe, pts in report.per_probe_penalty_curves.items()
        },
        "carrier_plan": None if plan is None else carrier_plan_dict(plan),
        "guard_band_recommendations": {
            pair: {"min_spacing_ghz": g.min_spacing_ghz, "guard_band_ghz": g.guard_band_ghz}
            for pair, g in report.guard_band_recommendations.items()
        },
        "pre_emphasis": [
            {"carrier": f, "offset_db": o} for f, o in report.pre_emphasis
        ],
    }
