"""Scenario/report file formats: strict JSON schema v1, hashing, CSV export.

The domain dataclasses declare the schema. A JSON object's keys are the
fields of its class, the annotations give their types, and a field without
a default is required (a required list must not be empty). ``_parse`` and
``_dump`` walk those fields; hand-written code is left only where the file
and the model differ: the file's top level with its sweep and recommend
sections, flat neighbor channels and catalog entries given by name. Unknown
fields are rejected, and errors carry a dotted field path (e.g.
``scenario.filters[0].order``) so fixture typos fail loudly.
"""

import dataclasses
import functools
import hashlib
import json
import math
import os
import tempfile
import typing
from dataclasses import dataclass
from typing import Optional, Tuple

from specsweep.errors import ScenarioFormatError
from specsweep.formats import CatalogEntry, catalog_entry
from specsweep.linesim import NeighborChannel, ProbeConfig, Scenario
from specsweep.probe import SweepPlan
from specsweep.spectral import SignalSpectrum

SCHEMA_VERSION = 1
# Upper bound on central-carrier offsets per crosstalk scan, checked before
# the offsets are generated.
MAX_CROSSTALK_OFFSETS = 10_000
# Scenario fields that lay out the line; the report config lists the others.
_LAYOUT_FIELDS = ("media_channels", "filters", "gsnr_profile", "neighbors")


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
    sweep_step: float
    trials_per_point: int
    slot_probes: Tuple[ProbeConfig, ...] = ()
    crosstalk_offsets: Optional[CrosstalkOffsets] = None
    recommend_catalog: Tuple[str, ...] = ()
    recommend_guard_ghz: float = 0.0


def _check_keys(obj, path, allowed, required=()):
    if not isinstance(obj, dict):
        raise ScenarioFormatError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            raise ScenarioFormatError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise ScenarioFormatError(f"{path}.{key}", "missing required field")


def _float(val, path):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ScenarioFormatError(path, f"expected a number, got {val!r}")
    try:
        val = float(val)
    except OverflowError:
        raise ScenarioFormatError(path, "expected a finite number, got a huge integer") from None
    if not math.isfinite(val):
        raise ScenarioFormatError(path, f"expected a finite number, got {val!r}")
    return val


def _int(val, path):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ScenarioFormatError(path, f"expected an integer, got {val!r}")
    return val


def _catalog_entry(name, path):
    if not isinstance(name, str):
        raise ScenarioFormatError(path, f"expected a string, got {name!r}")
    try:
        return catalog_entry(name)
    except KeyError:
        raise ScenarioFormatError(path, f"unknown catalog entry {name!r}") from None


def _neighbor(obj, path):
    """A neighbor is flat in the file: its spectrum's fields beside power_offset_db."""
    # Any key passes here: unknown ones fail in the spectrum's parse.
    _check_keys(obj, path, allowed=obj, required=("center",))
    spectrum = {k: v for k, v in obj.items() if k != "power_offset_db"}
    offset = {k: v for k, v in obj.items() if k == "power_offset_db"}
    return _parse(NeighborChannel, offset, path, spectrum=_parse(SignalSpectrum, spectrum, path))


_LEAVES = {float: _float, int: _int, CatalogEntry: _catalog_entry, NeighborChannel: _neighbor}


def _converter(tp):
    """Function (JSON value, path) -> value of the field type ``tp``."""
    if tp in _LEAVES:
        return _LEAVES[tp]
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:  # Tuple[X, ...]
        item = _converter(args[0])

        def convert(val, path):
            if not isinstance(val, list):
                raise ScenarioFormatError(path, "expected a list")
            return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(val))

        return convert
    if type(None) in args:  # Optional[X]: the key is absent when the value is None
        return _converter(args[0])
    return functools.partial(_parse, tp)


_CATALOG_NAMES = _converter(Tuple[CatalogEntry, ...])


@functools.lru_cache(maxsize=None)
def _fields(cls):
    """Per field of ``cls``: its converter and whether the file must carry it."""
    return {
        f.name: (_converter(f.type), f.default is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    }


def _parse(cls, obj, path, **given):
    """Build ``cls`` from a JSON object keyed by its fields; ``given`` ones are not in the file."""
    fields = _fields(cls)
    _check_keys(obj, path, fields.keys() - given.keys())
    for name, (convert, required) in fields.items():
        if name in obj:
            value = given[name] = convert(obj[name], f"{path}.{name}")
            if required and value == ():
                raise ScenarioFormatError(f"{path}.{name}", "must not be empty")
        elif required and name not in given:
            raise ScenarioFormatError(f"{path}.{name}", "missing required field")
    try:
        return cls(**given)
    except ValueError as exc:  # the class's own checks fail at the object's path
        raise ScenarioFormatError(path, str(exc)) from exc


def parse_scenario_file(data, path="$"):
    """Validate an already-decoded JSON document into a ScenarioFile.

    Its top level is not a ScenarioFile: the sweep and recommend sections
    group the sweep_* and recommend_* fields, and the sweep is checked as
    a SweepPlan over the first media channel.
    """
    sections = ("schema_version", "scenario", "probes", "sweep", "slot_probes")
    _check_keys(data, path, (*sections, "crosstalk_offsets", "recommend"), sections[:3])
    fields = _fields(ScenarioFile)
    version = _int(data["schema_version"], f"{path}.schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(f"{path}.schema_version", f"unsupported version {version}")
    scenario = _parse(Scenario, data["scenario"], f"{path}.scenario")
    probes = fields["probes"][0](data["probes"], f"{path}.probes")
    if not probes:
        raise ScenarioFormatError(f"{path}.probes", "must not be empty")
    slot = scenario.media_channels[0]
    plan = _parse(SweepPlan, data.get("sweep", {}), f"{path}.sweep", slot=slot, probes=probes)

    optional = {}
    for key in ("slot_probes", "crosstalk_offsets"):
        if key in data:
            optional[key] = fields[key][0](data[key], f"{path}.{key}")
    n_slots = len(scenario.media_channels)
    if optional.get("slot_probes") and len(optional["slot_probes"]) != n_slots:
        raise ScenarioFormatError(
            f"{path}.slot_probes",
            f"need one probe per media channel ({n_slots}), got {len(optional['slot_probes'])}",
        )
    if "recommend" in data:
        rec, rec_path = data["recommend"], f"{path}.recommend"
        _check_keys(rec, rec_path, ("catalog", "guard_ghz"), ("catalog",))
        entries = _CATALOG_NAMES(rec["catalog"], f"{rec_path}.catalog")
        optional["recommend_catalog"] = tuple(entry.name for entry in entries)
        if "guard_ghz" in rec:
            guard = _float(rec["guard_ghz"], f"{rec_path}.guard_ghz")
            if guard < 0:
                raise ScenarioFormatError(f"{rec_path}.guard_ghz", "must be >= 0")
            optional["recommend_guard_ghz"] = guard

    return ScenarioFile(version, scenario, probes, plan.step, plan.trials_per_point, **optional)


def load_scenario(path):
    """Load and strictly validate a scenario file from disk."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(str(path), f"invalid JSON: {exc}") from exc
    return parse_scenario_file(data)


def _dump(obj):
    """Inverse of ``_parse``: a domain object as plain JSON data, None fields left out."""
    if isinstance(obj, (float, int)):
        return obj
    if isinstance(obj, tuple):
        return [_dump(item) for item in obj]
    if isinstance(obj, CatalogEntry):
        return obj.name
    if isinstance(obj, NeighborChannel):
        return {**_dump(obj.spectrum), "power_offset_db": obj.power_offset_db}
    values = ((name, getattr(obj, name)) for name in _fields(type(obj)))
    return {name: _dump(val) for name, val in values if val is not None}


def serialize_scenario_file(sf):
    """ScenarioFile -> plain JSON-compatible dict (round-trips via parse)."""
    out = {
        "schema_version": sf.schema_version,
        "scenario": _dump(sf.scenario),
        "probes": _dump(sf.probes),
        "sweep": {"step": sf.sweep_step, "trials_per_point": sf.trials_per_point},
    }
    if sf.slot_probes:
        out["slot_probes"] = _dump(sf.slot_probes)
    if sf.crosstalk_offsets is not None:
        out["crosstalk_offsets"] = _dump(sf.crosstalk_offsets)
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


def report_config(sf):
    """A report's ``config``: the scenario's settings other than its layout, and the sweep."""
    config = {k: v for k, v in _dump(sf.scenario).items() if k not in _LAYOUT_FIELDS}
    return {**config, "sweep_step": sf.sweep_step, "trials_per_point": sf.trials_per_point}


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
                        "outage": p.gsnr_db is None,
                        **({} if p.gsnr_db is None else {"gsnr_db": p.gsnr_db, "q_db": p.q_db}),
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
            gsnr = "" if p.gsnr_db is None else f"{p.gsnr_db:.4f}"
            lines.append(f"{p.carrier:.4f},{curve.probe.probe_id},{gsnr},{int(p.gsnr_db is None)}")
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
                        "outage": g is None,
                        **({} if g is None else {"gsnr_db": g}),
                        **({} if pen is None else {"penalty_db": pen}),
                    }
                    for off, g, pen in zip(ch.offsets, ch.gsnr_db, ch.penalties_db)
                ],
            }
            for ch in scan.channels
        ],
    }


def crosstalk_result_csv(scan):
    lines = ["offset,slot_index,gsnr_db,penalty_db,outage"]
    for ch in scan.channels:
        for off, g, pen in zip(ch.offsets, ch.gsnr_db, ch.penalties_db):
            gsnr = "" if g is None else f"{g:.4f}"
            penalty = "" if pen is None else f"{pen:.4f}"
            lines.append(f"{off:.4f},{ch.slot_index},{gsnr},{penalty},{int(g is None)}")
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
    def section(obj):
        return None if obj is None else dataclasses.asdict(obj)

    plan = report.carrier_plan
    return {
        "effective_bandwidth": section(report.effective_bandwidth),
        "center_offset": section(report.center_offset),
        "tilt_db": report.tilt_db,
        "ripple_pp_db": report.ripple_pp_db,
        "per_probe_penalty_curves": {
            probe: [{"carrier": c, "penalty_db": p} for c, p in pts]
            for probe, pts in report.per_probe_penalty_curves.items()
        },
        "carrier_plan": None if plan is None else carrier_plan_dict(plan),
        "guard_band_recommendations": {
            pair: dataclasses.asdict(g) for pair, g in report.guard_band_recommendations.items()
        },
        "pre_emphasis": [
            {"carrier": f, "offset_db": o} for f, o in report.pre_emphasis
        ],
    }
