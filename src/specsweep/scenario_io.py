"""Scenario/report file formats: strict JSON schema v1, hashing, CSV export.

The domain dataclasses declare the schema. A JSON object's keys are the
fields of its class, the annotations give their types, and a field without
a default is required (a required list must not be empty). ``_parse`` and
``_dump`` walk those fields; hand-written code is left only where the file
and the model differ: the file's top level with its sweep and recommend
sections, and catalog entries given by name, a probe as ``{"entry": name}``
and a recommend catalog as a list of names. Unknown fields are rejected,
and errors carry a dotted field path (e.g. ``scenario.filters[0].order``)
so fixture typos fail loudly. A ScenarioFile hands out what its runs need
(``plan``, ``catalog``, ``bench``); parsing builds and checks them, the
crosstalk offsets and the grid's fit to the file, so their errors carry a
path too. A diagnosis report is likewise its dataclasses, key for field.
"""

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import stat
import tempfile
import typing
from dataclasses import dataclass
from typing import Optional, Tuple

from specsweep.errors import ScenarioFormatError
from specsweep.formats import CatalogEntry, catalog_entry
from specsweep.linesim import CrosstalkBench, Scenario
from specsweep.probe import SweepPlan

SCHEMA_VERSION = 1
# Upper bound on central-carrier offsets per crosstalk scan, checked before
# the offsets are generated.
MAX_CROSSTALK_OFFSETS = 10_000
# Upper bound on a scenario file's size in bytes, checked while it is read:
# an endless stream such as /dev/zero is never read whole.
MAX_SCENARIO_BYTES = 1 << 20
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
    probes: Tuple[CatalogEntry, ...]
    sweep_step: float
    trials_per_point: int
    slot_probes: Tuple[CatalogEntry, ...] = ()
    crosstalk_offsets: Optional[CrosstalkOffsets] = None
    recommend_catalog: Tuple[str, ...] = ()
    recommend_guard_ghz: float = 0.0

    @property
    def plan(self):
        """The sweep of the file's probes across its first media channel."""
        return SweepPlan(
            self.scenario.media_channels[0], self.probes, self.sweep_step, self.trials_per_point
        )

    @property
    def catalog(self):
        """The recommend catalog's entries."""
        return tuple(catalog_entry(name) for name in self.recommend_catalog)

    @property
    def bench(self):
        """The crosstalk bench of the layout, one slot probe per media channel."""
        if not self.slot_probes:
            raise ValueError(
                "crosstalk needs a scenario file with slot_probes (one per media channel)"
            )
        return CrosstalkBench(self.scenario, self.slot_probes)


@contextlib.contextmanager
def _at(path):
    """A failed check of the model, reported as a format error at ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ScenarioFormatError(path, str(exc)) from exc


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
    with _at(path):
        return catalog_entry(name)


def _probe(obj, path):
    """A probe, ``{"entry": name}``, read as its catalog entry."""
    _check_keys(obj, path, ("entry",), ("entry",))
    return _catalog_entry(obj["entry"], f"{path}.entry")


def _check_distinct(names, path):
    """A repeated name fails at its index: the report would key both copies as one."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ScenarioFormatError(f"{path}[{i}]", f"repeats entry {name!r}")


_LEAVES = {float: _float, int: _int, CatalogEntry: _probe}


def _tuple_of(item):
    """Function (JSON list, path) -> tuple of ``item`` applied to each element."""

    def convert(val, path):
        if not isinstance(val, list):
            raise ScenarioFormatError(path, "expected a list")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(val))

    return convert


def _converter(tp):
    """Function (JSON value, path) -> value of the field type ``tp``."""
    if tp in _LEAVES:
        return _LEAVES[tp]
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:  # Tuple[X, ...]
        return _tuple_of(_converter(args[0]))
    if type(None) in args:  # Optional[X]: the key is absent when the value is None
        return _converter(args[0])
    return functools.partial(_parse, tp)


_CATALOG_NAMES = _tuple_of(_catalog_entry)


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
    with _at(path):  # the class's own checks fail at the object's path
        return cls(**given)


def parse_scenario_file(data):
    """Validate an already-decoded JSON document into a ScenarioFile.

    Its top level is not a ScenarioFile: the sweep and recommend sections
    group the sweep_* and recommend_* fields, and the sweep is checked as
    a SweepPlan over the first media channel.
    """
    path = "$"
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
    _check_distinct([p.name for p in probes], f"{path}.probes")
    slot = scenario.media_channels[0]
    plan = _parse(SweepPlan, data.get("sweep", {}), f"{path}.sweep", slot=slot, probes=probes)

    optional = {}
    for key in ("slot_probes", "crosstalk_offsets"):
        if key in data:
            optional[key] = fields[key][0](data[key], f"{path}.{key}")
    if "recommend" in data:
        rec, rec_path = data["recommend"], f"{path}.recommend"
        _check_keys(rec, rec_path, ("catalog", "guard_ghz"), ("catalog",))
        entries = _CATALOG_NAMES(rec["catalog"], f"{rec_path}.catalog")
        if not entries:
            raise ScenarioFormatError(f"{rec_path}.catalog", "must not be empty")
        optional["recommend_catalog"] = tuple(entry.name for entry in entries)
        _check_distinct(optional["recommend_catalog"], f"{rec_path}.catalog")
        if "guard_ghz" in rec:
            guard = _float(rec["guard_ghz"], f"{rec_path}.guard_ghz")
            if guard < 0:
                raise ScenarioFormatError(f"{rec_path}.guard_ghz", "must be >= 0")
            optional["recommend_guard_ghz"] = guard

    sf = ScenarioFile(version, scenario, probes, plan.step, plan.trials_per_point, **optional)

    grid = scenario.grid
    channels = scenario.media_channels
    for i, mc in enumerate(channels):
        if not (grid.start <= mc.start and mc.stop <= grid.stop):
            raise ScenarioFormatError(
                f"{path}.scenario.media_channels[{i}]",
                f"slot [{mc.start}, {mc.stop}] GHz lies outside the scenario grid "
                f"[{grid.start}, {grid.stop}] GHz",
            )
        # Touching slots laid out from their centers may overlap by an ulp.
        if i and mc.start < channels[i - 1].stop - 1e-9:
            raise ScenarioFormatError(
                f"{path}.scenario.media_channels[{i}]",
                f"slot [{mc.start}, {mc.stop}] GHz starts before the previous slot stops "
                f"at {channels[i - 1].stop} GHz: slots go in frequency order, without overlap",
            )
    # Every read integrates its probe's spectrum on the grid, which must put
    # points inside the occupied band of the narrowest probe.
    half_width = min(p.occupied_width for p in (*probes, *sf.slot_probes)) / 2.0
    if grid.resolution > half_width:
        raise ScenarioFormatError(
            f"{path}.scenario.grid",
            f"resolution must be <= {half_width:g} GHz, half the narrowest probe's width",
        )
    if sf.crosstalk_offsets is not None and not sf.slot_probes:
        raise ScenarioFormatError(f"{path}.crosstalk_offsets", "given without slot_probes")
    if sf.slot_probes:
        with _at(f"{path}.slot_probes"):
            bench = sf.bench
        if sf.crosstalk_offsets is None:
            raise ScenarioFormatError(f"{path}.crosstalk_offsets", "missing required field")
        with _at(f"{path}.crosstalk_offsets"):
            for off in sf.crosstalk_offsets.values():
                bench.check_offset(off)
    return sf


def _unique_keys(pairs):
    """A decoded JSON object; a repeated key fails rather than keeping its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def load_scenario(path):
    """Load and strictly validate a UTF-8 scenario file from disk."""
    with open(path, "rb") as fh:
        raw = fh.read(MAX_SCENARIO_BYTES + 1)
    if len(raw) > MAX_SCENARIO_BYTES:
        raise ScenarioFormatError(str(path), f"larger than {MAX_SCENARIO_BYTES} bytes")
    try:
        data = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except ValueError as exc:  # bad syntax or encoding, a repeated key, an overlong integer
        raise ScenarioFormatError(str(path), f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ScenarioFormatError(str(path), "invalid JSON: nested too deeply") from None
    return parse_scenario_file(data)


def _dump(obj):
    """Inverse of ``_parse``: a domain object as plain JSON data, None fields left out."""
    if isinstance(obj, (float, int)):
        return obj
    if isinstance(obj, tuple):
        return [_dump(item) for item in obj]
    if isinstance(obj, CatalogEntry):
        return {"entry": obj.name}
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
    """Write via a temp file in the same directory, then rename.

    A symlink is followed to its file, and a FIFO or a device is written in
    place, where a rename would replace it. The file gets the mode a plain
    ``open(path, "w")`` would leave: an existing file keeps its mode, a new
    one gets 0o666 less the umask.
    """
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            fh.write(text)
        return
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0o022)  # read by setting; the CLI is single-threaded
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".specsweep-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _point(axis, value, **readings):
    """One report point: its axis value, the outage flag (no GSNR) and the readings that exist."""
    present = {key: val for key, val in readings.items() if val is not None}
    return {axis: value, "outage": "gsnr_db" not in present, **present}


def _cell(value):
    """A CSV cell of an optional reading: empty at outage."""
    return "" if value is None else f"{value:.4f}"


def sweep_result_dict(sweep):
    carriers = sweep.plan.carriers().tolist()
    return {
        "slot": {"center": sweep.plan.slot.center, "width": sweep.plan.slot.width},
        "step": sweep.plan.step,
        "curves": [
            {
                "probe": curve.probe.probe_id,
                "points": [
                    _point("carrier", c, gsnr_db=g, q_db=q)
                    for c, g, q in zip(carriers, curve.gsnr_db, curve.q_db)
                ],
            }
            for curve in sweep.curves
        ],
    }


def sweep_result_csv(sweep):
    lines = ["carrier,probe,gsnr_db,outage"]
    carriers = sweep.plan.carriers()
    for curve in sweep.curves:
        for c, g in zip(carriers, curve.gsnr_db):
            lines.append(f"{c:.4f},{curve.probe.probe_id},{_cell(g)},{int(g is None)}")
    return "\n".join(lines) + "\n"


def crosstalk_result_dict(scan):
    return {
        "offsets": list(scan.offsets),
        "channels": [
            {
                "slot_index": k,
                "probe": ch.probe.probe_id,
                "points": [
                    _point("offset", off, gsnr_db=g, penalty_db=pen)
                    for off, g, pen in zip(scan.offsets, ch.gsnr_db, ch.penalties_db)
                ],
            }
            for k, ch in enumerate(scan.channels)
        ],
    }


def crosstalk_result_csv(scan):
    lines = ["offset,slot_index,gsnr_db,penalty_db,outage"]
    for k, ch in enumerate(scan.channels):
        for off, g, pen in zip(scan.offsets, ch.gsnr_db, ch.penalties_db):
            lines.append(f"{off:.4f},{k},{_cell(g)},{_cell(pen)},{int(g is None)}")
    return "\n".join(lines) + "\n"


def diagnosis_report_dict(report):
    """A DiagnosisReport as plain JSON data: its field names are the report's keys."""
    return dataclasses.asdict(report)
