"""Scenario file format and CLI tests."""

import ast
import dataclasses
import functools
import hashlib
import importlib
import importlib.util
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import specsweep
from specsweep import fixture_path, linesim, load_fixture
from specsweep.cli import COMMANDS, build_parser, main
from specsweep.errors import ScenarioFormatError
from specsweep.formats import BUILTIN_CATALOG
from specsweep.linesim import GsnrProfile, MediaChannel, NeighborChannel, Scenario
from specsweep.probe import MAX_TRIALS_PER_POINT
from specsweep.scenario_io import (
    MAX_SCENARIO_BYTES,
    CrosstalkOffsets,
    ScenarioFile,
    load_scenario,
    parse_scenario_file,
    scenario_hash,
    serialize_scenario_file,
)
from specsweep.spectral import FilterElement, FrequencyGrid, Ripple

FIXTURES = ["route_a.json", "route_b.json", "route_c.json", "xtalk_5slot.json", "xtalk_mixed.json"]
# Every documented command on every fixture it applies to.
FIXTURE_COMMANDS = (
    [("sweep", f) for f in FIXTURES]
    + [("diagnose", f) for f in FIXTURES]
    + [("recommend", "route_c.json")]
    + [("crosstalk", f) for f in FIXTURES if f.startswith("xtalk")]
    + [("validate", f) for f in FIXTURES]
)
# The commands whose points also have a CSV form.
CSV_COMMANDS = [("sweep", f) for f in FIXTURES] + [
    ("crosstalk", f) for f in FIXTURES if f.startswith("xtalk")
]
# Golden scenario hashes and report configs of the bundled fixtures.
FIXTURE_HASHES = {
    "route_a.json": "3ef5ceb69dd81ed2",
    "route_b.json": "78403d46fd064dfd",
    "route_c.json": "290070f22dc5d5d3",
    "xtalk_5slot.json": "7ec64ad7cf515fa5",
    "xtalk_mixed.json": "7ed90ed61e626737",
}
GRID = {"start": -300.0, "stop": 300.0, "resolution": 0.05}
BENCH = Path(__file__).parents[1] / "bench"
# Report keys that describe the run rather than its results; the benchmark's
# fixture digests leave them out.
ENVELOPE = ("tool_version", "scenario_hash", "config")
FIXTURE_CONFIGS = {
    name: {
        "crosstalk_coupling": coupling,
        "filtering_exponent": exponent,
        "grid": GRID,
        "measurement_noise_sigma_db": sigma,
        "seed": seed,
        "sweep_step": 6.25,
        "trials_per_point": trials,
    }
    for name, coupling, exponent, sigma, seed, trials in (
        ("route_a.json", 0.0, 14.0, 0.0, 1071, 1),
        ("route_b.json", 0.0, 2.0, 0.1, 1072, 1),
        ("route_c.json", 0.0, 2.0, 0.1, 11, 5),
        ("xtalk_5slot.json", 0.0957, 2.0, 0.0, 42, 1),
        ("xtalk_mixed.json", 0.05644, 2.0, 0.0, 43, 1),
    )
}
# Golden CSV outputs of the fixture commands: sha256 of each raw CSV text.
CSV_DIGESTS = {
    ("sweep", "route_a.json"): "a57137476ecd8f93138fe636fff18388b469758bb54b46840347a1f46a022805",
    ("sweep", "route_b.json"): "354337cc18ff5f4b28f181d0a5dfb085ed78b84aeb617b7cb0b7609a08eb0629",
    ("sweep", "route_c.json"): "2d4f2dfbfdb4a2236d36ce51b730a5f2da09712554dbaabe2e6836a38e927fb8",
    ("sweep", "xtalk_5slot.json"): "ee67527186aaae932e4fd60dee3dc287b9daadd968dd2581bbb6c72c19a5a794",
    ("sweep", "xtalk_mixed.json"): "ef6de2c3da16e2a85afcb60967bb063ea58a6666310be9864d00a6e4ef58f59a",
    ("crosstalk", "xtalk_5slot.json"): "bcba12d3b8596a8ef2cb6a236447900801faccd514ad53b9a26aedb955603fc5",
    ("crosstalk", "xtalk_mixed.json"): "c21252179d434848aaec80e169a5955592e82807a7c4c602a94a36d8109ae085",
}


def minimal_doc():
    return {
        "schema_version": 1,
        "scenario": {
            "media_channels": [{"center": 0.0, "width": 100.0}],
            "gsnr_profile": {"base_gsnr_db": 17.0},
            "measurement_noise_sigma_db": 0.0,
        },
        "probes": [{"entry": "200G-34GBd-DP-16QAM"}],
    }


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_load_and_round_trip(name):
    sf = load_fixture(name)
    again = parse_scenario_file(serialize_scenario_file(sf))
    assert again == sf
    assert scenario_hash(again) == scenario_hash(sf)


def random_scenario_file(rng):
    """A valid ScenarioFile with every optional part present or absent at random.

    The slots go left to right, each touching the one before or after a
    gap, as parsing asks. Each filter passes near the center of the first
    slot, the one a sweep reads, so most sweeps read: the cascade is a
    product over all filters, and one centred on another slot would block
    the swept one. The probes are distinct catalog entries; slot probes
    come only with a layout of at least 3 slots, and offsets only with slot
    probes, staying inside every slot's half-width (at least 25 GHz), as
    parsing asks of a crosstalk bench."""
    num = lambda lo, hi: round(rng.uniform(lo, hi), rng.choice([0, 2, 9]))  # noqa: E731

    def ripple():
        return Ripple(num(0.0, 2.0), num(1.0, 80.0), rng.choice([0.0, num(-3.0, 3.0)]))

    def offsets():
        start = num(-20.0, 0.0)
        return CrosstalkOffsets(start, start + num(0.0, 20.0), num(1.0, 10.0))

    channels = []
    start = num(-275.0, -75.0)
    for _ in range(rng.randint(1, 5)):
        width = num(50.0, 150.0)
        if start + width >= 275.0:
            break
        channels.append(MediaChannel(start + width / 2.0, width))
        start += width + rng.choice([0.0, num(0.0, 20.0)])
    channels = tuple(channels)
    scenario = Scenario(
        media_channels=channels,
        filters=tuple(
            FilterElement(
                channels[0].center + num(-5.0, 5.0),
                num(40.0, 160.0),
                order=rng.randint(1, 10),
                ripple=ripple() if rng.random() < 0.5 else None,
            )
            for _ in range(rng.randint(0, 3))
        ),
        gsnr_profile=GsnrProfile(
            num(5.0, 30.0),
            tilt_db=num(-3.0, 3.0),
            ripple_components=tuple(ripple() for _ in range(rng.randint(0, 2))),
        ),
        neighbors=tuple(
            NeighborChannel(
                num(10.0, 70.0),
                num(0.0, 1.0),
                center=num(-300.0, 300.0),
            )
            for _ in range(rng.randint(0, 2))
        ),
        crosstalk_coupling=num(0.0, 1.0),
        filtering_exponent=num(1.0, 20.0),
        measurement_noise_sigma_db=num(0.0, 1.0),
        seed=rng.randrange(1 << 40),
        grid=FrequencyGrid(num(-400.0, -300.0), num(300.0, 400.0), rng.choice([0.05, 0.1])),
    )
    slot_probes = ()
    if len(channels) >= 3 and rng.random() < 0.5:
        slot_probes = tuple(rng.choice(BUILTIN_CATALOG) for _ in channels)
    catalog = tuple(e.name for e in rng.sample(BUILTIN_CATALOG, rng.randint(0, 3)))
    return ScenarioFile(
        schema_version=1,
        scenario=scenario,
        probes=tuple(rng.sample(BUILTIN_CATALOG, rng.randint(1, 3))),
        sweep_step=rng.choice([6.25, num(1.0, 25.0)]),
        trials_per_point=rng.randint(1, 9),
        slot_probes=slot_probes,
        crosstalk_offsets=offsets() if slot_probes else None,
        recommend_catalog=catalog,
        recommend_guard_ghz=num(0.0, 10.0) if catalog else 0.0,
    )


def test_random_scenario_files_round_trip():
    rng = random.Random(20211029)
    hashes = set()
    for _ in range(200):
        sf = random_scenario_file(rng)
        text = json.dumps(serialize_scenario_file(sf))
        again = parse_scenario_file(json.loads(text))
        assert again == sf
        assert scenario_hash(again) == scenario_hash(sf) == scenario_hash(sf)
        assert json.dumps(serialize_scenario_file(again)) == text
        hashes.add(scenario_hash(sf))
    assert len(hashes) == 200


def test_unknown_field_rejected_with_path():
    doc = minimal_doc()
    doc["scenario"]["filters"] = [{"center": 0.0, "bandwidth_3db": 50.0, "shape": "awg"}]
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(doc)
    assert err.value.path == "$.scenario.filters[0].shape"

    # Fields the model never read, and settings that are now constants or
    # one rule for every carrier, are gone from the schema.
    for where, key in (
        (lambda d: d["scenario"], "fec_ber"),
        (lambda d: d["scenario"], "outage_ber"),
        (lambda d: d["probes"][0], "roll_off"),
        (lambda d: d.setdefault("slot_probes", [{"entry": "200G-34GBd-DP-16QAM"}])[0], "roll_off"),
        (lambda d: d["scenario"]["media_channels"][0], "guard_band_each_side"),
        (lambda d: d["probes"][0], "p_ref_dbm"),
        (lambda d: d["probes"][0], "sr_ref_gbd"),
        (lambda d: d["scenario"]["gsnr_profile"], "anchor_center"),
        (lambda d: d["scenario"]["gsnr_profile"], "anchor_width"),
        (lambda d: d["scenario"].setdefault("neighbors", [dict(NEIGHBOR)])[0], "power_offset_db"),
    ):
        doc = minimal_doc()
        where(doc)[key] = 0.0
        with pytest.raises(ScenarioFormatError) as err:
            parse_scenario_file(doc)
        assert err.value.path.endswith(key) and err.value.message == "unknown field"


NEIGHBOR = {"symbol_rate": 34.0, "center": 90.0}


@pytest.mark.parametrize(
    "neighbor,path,message",
    [
        ({"symbol_rate": 34.0}, ".center", "missing required field"),
        ({"center": 90.0}, ".symbol_rate", "missing required field"),
        ({**NEIGHBOR, "phase": 1.0}, ".phase", "unknown field"),
        ({"center": 90.0, "spectrum": {"symbol_rate": 34.0}}, ".spectrum", "unknown field"),
        ({**NEIGHBOR, "roll_off": 2}, "", "roll_off must be in [0, 1], got 2.0"),
        ({**NEIGHBOR, "power_offset_db": -3.0}, ".power_offset_db", "unknown field"),
        (34.0, "", "expected an object, got float"),
    ],
    ids=["no-center", "no-symbol-rate", "unknown", "nested", "roll-off", "power", "not-object"],
)
def test_neighbor_rejected_with_path(neighbor, path, message):
    doc = minimal_doc()
    doc["scenario"]["neighbors"] = [neighbor]
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(doc)
    assert err.value.path == "$.scenario.neighbors[0]" + path
    assert err.value.message == message


def test_valid_neighbor_keeps_its_hash():
    doc = minimal_doc()
    doc["scenario"]["neighbors"] = [NEIGHBOR]
    sf = parse_scenario_file(doc)
    assert serialize_scenario_file(sf)["scenario"]["neighbors"] == [{**NEIGHBOR, "roll_off": 0.19}]
    assert scenario_hash(sf) == "fcfd6db4456a0a6a"


def test_invalid_values_rejected():
    doc = minimal_doc()
    doc["scenario"]["filters"] = [{"center": 0.0, "bandwidth_3db": -5.0}]
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(doc)
    assert "bandwidth" in str(err.value)

    doc = minimal_doc()
    doc["schema_version"] = 2
    with pytest.raises(ScenarioFormatError):
        parse_scenario_file(doc)

    doc = minimal_doc()
    doc["probes"] = [{"entry": "not-a-mode"}]
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(doc)
    assert err.value.path == "$.probes[0].entry"

    def rejected(mutate):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(ScenarioFormatError) as err:
            parse_scenario_file(doc)
        return err.value

    # Non-finite numbers (json.loads accepts NaN and Infinity).
    err = rejected(lambda d: d["scenario"]["media_channels"][0].update(width=float("nan")))
    assert err.path == "$.scenario.media_channels[0].width"
    err = rejected(
        lambda d: d["scenario"].update(filters=[{"center": 0.0, "bandwidth_3db": float("inf")}])
    )
    assert err.path == "$.scenario.filters[0].bandwidth_3db"
    err = rejected(lambda d: d["scenario"]["gsnr_profile"].update(base_gsnr_db=-math.inf))
    assert err.path == "$.scenario.gsnr_profile.base_gsnr_db"

    # Size bounds, all far beyond the limit so nothing is allocated.
    err = rejected(
        lambda d: d["scenario"].update(grid={"start": -300.0, "stop": 300.0, "resolution": 1e-9})
    )
    assert err.path == "$.scenario.grid"
    err = rejected(lambda d: d.update(sweep={"step": 1e-9}))
    assert err.path == "$.sweep"
    err = rejected(
        lambda d: d.update(crosstalk_offsets={"start": -37.5, "stop": 37.5, "step": 1e-9})
    )
    assert err.path == "$.crosstalk_offsets"


def test_readme_bounds_table_names_every_max_constant():
    """Each module-level MAX_* and MIN_* constant of the package is a row of
    README's bounds table beside the module that defines it, and no row is stale."""
    package = Path(specsweep.__file__).parent
    defined = {
        (target.id, module.stem)
        for module in package.glob("*.py")
        for node in ast.parse(module.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith(("MAX_", "MIN_"))
    }
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = set(re.findall(r"^\| `(M(?:AX|IN)_\w+)` \| `(\w+)` \|", readme, re.MULTILINE))
    assert defined and documented == defined


# Every module-level cache of the package, with its maxsize, and the bench
# workload whose reads hit it; a new cache names the workload that needs it.
CACHES = {
    # The trials of one sweep point, read in a row: sweep_trials.
    ("linesim", "_noiseless_q_db"): 1,
    # One scenario's grid and filter cascade: sweep_trials, diagnose_catalog.
    ("linesim", "_cascade_on_grid"): 1,
    # A victim's PSD across its band: xtalk_scan, diagnose_catalog.
    ("spectral", "_victim_support"): 64,
    # Field converters per schema dataclass, a fixed set: every file parse.
    ("scenario_io", "_fields"): None,
}


def test_cache_inventory_is_pinned():
    """The package's module-level caches are exactly those of CACHES."""
    package = Path(specsweep.__file__).parent
    found = {}
    for module in package.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text())):
            for deco in getattr(node, "decorator_list", ()):
                call = deco if isinstance(deco, ast.Call) else ast.Call(deco, [], [])
                name = ast.unparse(call.func).split(".")[-1]
                sizes = [*call.args, *(k.value for k in call.keywords if k.arg == "maxsize")]
                if name == "cache":
                    found[(module.stem, node.name)] = None
                elif name == "lru_cache":  # maxsize as argument or keyword, 128 if left out
                    found[(module.stem, node.name)] = ast.literal_eval(sizes[0]) if sizes else 128
    assert found == CACHES


def test_readme_names_resolve():
    """Each backticked dotted name in README whose head is a package module
    (``specsweep.`` optional) or a CapWords class resolves: the head is that
    module or a class of the package, each further part an attribute or a
    dataclass field, and a name written as a call, ``name(...)``, is callable."""
    package = Path(specsweep.__file__).parent
    modules = {
        m.stem: importlib.import_module(f"specsweep.{m.stem}")
        for m in package.glob("*.py")
        if m.stem != "__init__"
    }
    classes = {
        name: obj
        for module in modules.values()
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__.startswith("specsweep")
    }
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    readme = re.sub(r"^```.*?^```", "", readme, flags=re.MULTILINE | re.DOTALL)
    checked = 0
    for text in re.findall(r"`([^`\n]+)`", readme):
        match = re.fullmatch(r"(?:specsweep\.)?(\w+)((?:\.\w+)*)(\(.*\))?", text)
        if match is None or "." not in text:
            continue
        head, rest, call = match.groups()
        if head in modules:
            obj = modules[head]
        elif re.fullmatch(r"(?:[A-Z][a-z0-9]+)+", head):
            assert head in classes, f"{text}: no class {head} in the package"
            obj = classes[head]
        else:
            continue
        for part in rest.split(".")[1:]:
            fields = {}
            if dataclasses.is_dataclass(obj):
                fields = {f.name: f for f in dataclasses.fields(obj)}
            assert hasattr(obj, part) or part in fields, f"{text}: no {part}"
            obj = getattr(obj, part) if hasattr(obj, part) else fields[part]
        assert not call or callable(obj), f"{text}: not callable"
        checked += 1
    assert checked


def test_one_exception_type_per_exit_code():
    """``errors`` defines ScenarioFormatError, a ValueError, and
    UndiagnosableError; no other module of the package defines an exception
    class; and every ``raise`` in the package names ValueError,
    ScenarioFormatError or UndiagnosableError, or re-raises. So exit 2 is
    ValueError, 3 UndiagnosableError and 4 OSError, each one type."""
    package = Path(specsweep.__file__).parent
    allowed = {"ValueError", "ScenarioFormatError", "UndiagnosableError"}
    raises = 0
    for path in package.glob("*.py"):
        module = importlib.import_module(
            "specsweep" if path.stem == "__init__" else f"specsweep.{path.stem}"
        )
        defined = {
            name
            for name, obj in vars(module).items()
            if isinstance(obj, type)
            and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        }
        expected = {"ScenarioFormatError", "UndiagnosableError"} if path.stem == "errors" else set()
        assert defined == expected, f"{path.name} defines {sorted(defined)}"
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            call = node.exc
            name = getattr(call.func, "id", None) if isinstance(call, ast.Call) else None
            assert name in allowed, f"{path.name}:{node.lineno} raises {ast.unparse(call)}"
            raises += 1
    assert raises
    assert issubclass(specsweep.ScenarioFormatError, ValueError)
    assert not issubclass(specsweep.UndiagnosableError, (ValueError, OSError))


def test_assessment_side_imports_nothing_from_linesim():
    """The modules a customer's tools are built from import nothing from the
    line model, so the black-box boundary is kept by the import graph."""
    package = Path(specsweep.__file__).parent
    for stem in ("probe", "diagnosis", "formats", "spectral", "errors"):
        imported = set()
        for node in ast.walk(ast.parse((package / f"{stem}.py").read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):  # "from . import x" is specsweep's x
                module = ".".join(filter(None, ("specsweep" * bool(node.level), node.module)))
                imported.add(module)
                imported.update(f"{module}.{alias.name}" for alias in node.names)
        assert "specsweep.linesim" not in imported, f"{stem} imports linesim"


def test_bench_trace_sites_exist():
    """Every attribute that bench/spans.py wraps for a traced run is still defined
    where it is looked up, so a refactor cannot make ``--trace 1`` crash."""
    sites = next(
        ast.literal_eval(node.value)
        for node in ast.parse((BENCH / "spans.py").read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["SITES"]
    )
    workloads = {
        node.name
        for node in ast.parse((BENCH / "workloads.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    assert sites
    for path, attr, _ in sites:
        module, _, cls = path.partition(":")
        if module == "workloads":
            assert attr in workloads, f"bench/workloads.py defines no {attr}"
            continue
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        assert attr in vars(owner), f"{path} has no attribute {attr}"


@functools.lru_cache(maxsize=None)
def bench_workloads():
    """bench/workloads.py, loaded from its file as the benchmark runs it."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@functools.lru_cache(maxsize=None)
def bench_expected():
    return json.loads((BENCH / "expected.json").read_text())


def test_bench_ops_match_recorded_digests():
    """The first three ops of each bench workload at seed 0 pass their checks and
    reproduce bench/expected.json, so an output change that the benchmark's digest
    check would reject fails here too."""
    workloads = bench_workloads()
    expected = bench_expected()["workloads"]
    for name, workload in workloads.WORKLOADS.items():
        for k, text in enumerate(workload.pool(0)[:3]):
            raw = workload.op(text, workloads.ReadCounter())
            workload.check(json.loads(text), json.loads(raw))
            assert workloads.digest(raw) == expected[name]["0"][k], f"{name} op {k}"


def test_missing_required_field():
    doc = minimal_doc()
    del doc["scenario"]["gsnr_profile"]
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(doc)
    assert err.value.path == "$.scenario.gsnr_profile"


def test_slot_probes_count_checked():
    doc = minimal_doc()
    doc["slot_probes"] = [{"entry": "200G-34GBd-DP-16QAM"}] * 2
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(doc)
    assert err.value.path == "$.slot_probes"


def _two_slot_bench(doc):
    doc["scenario"]["media_channels"] = doc["scenario"]["media_channels"][:2]
    doc["slot_probes"] = doc["slot_probes"][:2]


def _route_a_with_coarse_grid(doc):
    # Overlaps with neighbors no longer read the grid, so a neighbor adds no
    # bound of its own: the grid is still checked against route_a's probes.
    doc["scenario"]["neighbors"] = [{"symbol_rate": 34.0, "center": 90.0}]
    doc["scenario"]["grid"]["resolution"] = 20.24


def _repeat_route_b_probe(doc):
    doc["probes"] = [{"entry": e} for e in ("200G-69GBd-DP-QPSK",) * 2 + ("200G-34GBd-DP-16QAM",)]


def _repeat_route_c_catalog_entry(doc):
    names = ("300G-69GBd-DP-P-16QAM", "200G-69GBd-DP-QPSK", "300G-69GBd-DP-P-16QAM")
    doc["recommend"]["catalog"] = list(names)


@pytest.mark.parametrize(
    "fixture,mutate,path",
    [
        ("xtalk_5slot.json", _two_slot_bench, "$.slot_probes"),
        (
            "xtalk_5slot.json",
            lambda d: d.update(crosstalk_offsets={"start": -50.0, "stop": 50.0, "step": 6.25}),
            "$.crosstalk_offsets",
        ),
        (
            "xtalk_5slot.json",
            lambda d: d["scenario"]["media_channels"][0].update(center=10000.0),
            "$.scenario.media_channels[0]",
        ),
        (
            "xtalk_5slot.json",
            lambda d: d["scenario"]["media_channels"][1].update(center=0.0),
            "$.scenario.media_channels[2]",
        ),
        (
            "route_c.json",
            lambda d: d["scenario"]["grid"].update(resolution=50.0),
            "$.scenario.grid",
        ),
        ("route_a.json", _route_a_with_coarse_grid, "$.scenario.grid"),
        (
            "xtalk_5slot.json",
            # Half the 82.11 GHz width of the slot probes, the narrowest there.
            lambda d: d["scenario"]["grid"].update(resolution=41.06),
            "$.scenario.grid",
        ),
        ("xtalk_5slot.json", lambda d: d.pop("crosstalk_offsets"), "$.crosstalk_offsets"),
        (
            "route_a.json",
            lambda d: d.update(crosstalk_offsets={"start": -1000.0, "stop": 1000.0, "step": 50.0}),
            "$.crosstalk_offsets",
        ),
        ("route_b.json", _repeat_route_b_probe, "$.probes[1]"),
        ("route_c.json", _repeat_route_c_catalog_entry, "$.recommend.catalog[2]"),
        (
            "route_b.json",
            lambda d: d["scenario"]["media_channels"][0].update(width=5e-324),
            "$.scenario.media_channels[0]",
        ),
        (
            "route_c.json",
            lambda d: d.update(recommend={"catalog": [], "guard_ghz": 5.0}),
            "$.recommend.catalog",
        ),
    ],
    ids=[
        "two-slot-bench",
        "offsets-past-middle-slot",
        "slot-off-grid",
        "overlapping-slots",
        "grid-too-coarse-for-probes",
        "grid-too-coarse-for-neighbors",
        "grid-too-coarse-for-slots",
        "slot-probes-without-offsets",
        "offsets-without-slot-probes",
        "repeated-probe",
        "repeated-catalog-entry",
        "zero-span-slot",
        "empty-recommend-catalog",
    ],
)
def test_validate_rejects_what_runs_reject(fixture, mutate, path, tmp_path, capsys):
    """Each of these files once passed validate; validate now rejects it at
    ``path``. Most then failed every run that reads that part. Four of the
    last five ran: a crosstalk scan over offsets derived from the sweep
    step, offsets that no scan reads and so only changed the scenario hash,
    and a report whose repeated probe or catalog entry shared one key with
    its first copy. A slot whose start and stop are one float read every
    point as an outage (its tilt was 0 * x / 0). An empty recommend catalog
    hashed as no recommend section, guard band dropped, and recommend
    failed on it. Two slots on one frequency ran a crosstalk scan with two
    carriers there."""
    doc = json.loads(fixture_path(fixture).read_text())
    mutate(doc)
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(doc)
    assert err.value.path == path
    p = tmp_path / "gap.json"
    p.write_text(json.dumps(doc))
    assert run_cli("validate", "--scenario", str(p)) == 2
    assert f"error: {path}: " in capsys.readouterr().err


def test_load_scenario_bad_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    route_a = fixture_path("route_a.json").read_text()
    # A repeated key would otherwise keep only its last value: here route_a
    # would lose its filter and validate as an unfiltered slot.
    doc = json.loads(route_a)
    filters = json.dumps(doc["scenario"].pop("filters"))
    repeated = json.dumps(doc).replace(
        '"scenario": {', f'"scenario": {{"filters": {filters}, "filters": [], ', 1
    )
    cases = [
        (b"{nope", "invalid JSON"),
        (b"[" * 1000 + b"]" * 1000, "invalid JSON: nested too deeply"),
        (repeated.encode(), "invalid JSON: repeated key 'filters'"),
        (route_a.encode("utf-16"), "invalid JSON: 'utf-8' codec can't decode"),
        ((route_a + " " * MAX_SCENARIO_BYTES).encode(), f"larger than {MAX_SCENARIO_BYTES} bytes"),
    ]
    # From Python 3.10.7 on, a decoded integer has at most 4 300 digits by default.
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        doc = json.loads(route_a)
        doc["scenario"]["seed"] = 0
        long_seed = json.dumps(doc).replace('"seed": 0', '"seed": ' + "9" * 5000, 1)
        cases.append((long_seed.encode(), "invalid JSON: Exceeds the limit"))
    # Each is a validation error at the file's path, not a traceback; nesting
    # too deep for the decoder would otherwise raise RecursionError.
    for data, message in cases:
        p.write_bytes(data)
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(p)
        assert err.value.path == str(p)
        assert err.value.message.startswith(message)
        assert run_cli("validate", "--scenario", str(p)) == 2
        assert f"error: {p}: {message}" in capsys.readouterr().err


def test_grid_as_coarse_as_half_the_narrowest_probe_runs(tmp_path, capsys):
    """route_c's narrowest probe, at 34 GBd, is 40.46 GHz wide: a grid of
    20.23 GHz runs every command that applies, and a coarser one fails validate."""
    doc = json.loads(fixture_path("route_c.json").read_text())
    p = tmp_path / "coarse.json"
    doc["scenario"]["grid"]["resolution"] = 20.23
    p.write_text(json.dumps(doc))
    for command in ("validate", "sweep", "diagnose", "recommend"):
        assert run_cli(command, "--scenario", str(p)) == 0, capsys.readouterr().err
    doc["scenario"]["grid"]["resolution"] = 20.24
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(doc)
    assert err.value.path == "$.scenario.grid"


def run_cli(*argv):
    return main(list(argv))


def test_cli_validate_ok(capsys):
    assert run_cli("validate", "--scenario", str(fixture_path("route_a.json"))) == 0
    assert capsys.readouterr().out.startswith("ok ")


def test_cli_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = minimal_doc()
    doc["surprise"] = 1
    bad.write_text(json.dumps(doc))
    assert run_cli("validate", "--scenario", str(bad)) == 2


def test_cli_io_error_exit_code(tmp_path):
    assert run_cli("validate", "--scenario", str(tmp_path / "missing.json")) == 4


def test_cli_undiagnosable_exit_code(tmp_path):
    doc = minimal_doc()
    doc["scenario"]["gsnr_profile"]["base_gsnr_db"] = 2.0  # everything in outage
    p = tmp_path / "dark.json"
    p.write_text(json.dumps(doc))
    assert run_cli("diagnose", "--scenario", str(p)) == 3


def test_cli_crosstalk_requires_slot_probes(tmp_path):
    p = tmp_path / "plain.json"
    p.write_text(json.dumps(minimal_doc()))
    assert run_cli("crosstalk", "--scenario", str(p)) == 2


def test_cli_sweep_output_grid(tmp_path):
    out = tmp_path / "sweep.json"
    assert run_cli("sweep", "--scenario", str(fixture_path("route_a.json")), "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["scenario_hash"]
    assert report["config"]["filtering_exponent"] == 14.0
    curves = report["sweep"]["curves"]
    assert len(curves) == 3
    assert all(len(c["points"]) == 17 for c in curves)


def test_cli_out_file_mode_is_that_of_a_plain_write(tmp_path):
    """A new report gets 0o666 less the umask; an existing one keeps its mode."""
    out = tmp_path / "sweep.json"
    argv = ("sweep", "--scenario", str(fixture_path("route_a.json")), "--out", str(out))
    umask = os.umask(0o022)
    try:
        assert run_cli(*argv) == 0
        assert out.stat().st_mode & 0o777 == 0o644
        out.chmod(0o640)
        assert run_cli(*argv) == 0
        assert out.stat().st_mode & 0o777 == 0o640
    finally:
        os.umask(umask)


def test_cli_out_follows_a_symlink(tmp_path, capsys):
    """--out onto a symlink writes the file it points at and leaves the link."""
    argv = ("sweep", "--scenario", str(fixture_path("route_a.json")), "--format", "csv")
    assert run_cli(*argv) == 0
    report = capsys.readouterr().out
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old")
    link.symlink_to(target)
    assert run_cli(*argv, "--out", str(link)) == 0
    assert link.is_symlink()
    assert target.read_text() == report


def test_cli_out_writes_into_a_fifo(tmp_path, capsys):
    """--out onto a FIFO writes through it instead of replacing it with a file."""
    argv = ("sweep", "--scenario", str(fixture_path("route_a.json")), "--format", "csv")
    assert run_cli(*argv) == 0
    report = capsys.readouterr().out.encode()
    assert len(report) < 4096  # fits the pipe's buffer, so the write cannot block
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # A reader opened first lets the CLI open the FIFO for writing without blocking.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli(*argv, "--out", str(fifo)) == 0
        received = b""
        while chunk := os.read(reader, 65536):
            received += chunk
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert received == report


def test_cli_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert (
            run_cli("sweep", "--scenario", str(fixture_path("route_b.json")), "--out", str(out))
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_cli_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    assert (
        run_cli(
            "sweep",
            "--scenario",
            str(fixture_path("route_a.json")),
            "--out",
            str(out),
            "--format",
            "csv",
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "carrier,probe,gsnr_db,outage"
    assert len(lines) == 1 + 17 * 3


def test_cli_crosstalk_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert (
        run_cli(
            "crosstalk",
            "--scenario",
            str(fixture_path("xtalk_5slot.json")),
            "--out",
            str(out),
            "--format",
            "csv",
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "offset,slot_index,gsnr_db,penalty_db,outage"
    assert len(lines) == 1 + 13 * 5  # offsets -37.5..37.5 step 6.25, 5 channels


def test_cli_recommend(tmp_path):
    out = tmp_path / "plan.json"
    assert (
        run_cli("recommend", "--scenario", str(fixture_path("route_c.json")), "--out", str(out))
        == 0
    )
    plan = json.loads(out.read_text())["carrier_plan"]
    assert plan["assignments"]


def run_checkout_python(*args):
    """A fresh interpreter with this checkout's ``src`` first on its path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_calibrate_script_refits_the_mixed_fixture(capsys):
    """scripts/calibrate.py runs on the current result types and its mixed-rate
    fit reproduces the coupling stored in xtalk_mixed.json; it prints plain floats."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "calibrate", os.path.join(root, "scripts", "calibrate.py")
    )
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    calibrate.main()
    out = capsys.readouterr().out
    assert "np.float64(" not in out
    kappa = float(re.search(r"kappa \(mixed fixture\) = (\S+)", out).group(1))
    fixture = json.loads(fixture_path("xtalk_mixed.json").read_text())
    assert round(kappa, 5) == fixture["scenario"]["crosstalk_coupling"]


def test_console_script_installed():
    proc = run_checkout_python("-m", "specsweep.cli", "--help")
    assert proc.returncode == 0
    assert "sweep" in proc.stdout


def test_cli_import_leaves_scipy_out():
    """scipy is a test oracle only; importing the CLI must not load it."""
    proc = run_checkout_python("-c", "import sys, specsweep.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


NUMPY_MA_PROBE = """
import contextlib, io, sys
from specsweep import cli, fixture_path
runs = [("sweep", "route_a"), ("diagnose", "route_b"), ("recommend", "route_c"),
        ("crosstalk", "xtalk_mixed")]
for command, fixture in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--scenario", str(fixture_path(fixture + ".json"))])
    print(command, code)
print("numpy.ma" in sys.modules)
"""


def test_cli_commands_leave_numpy_ma_out():
    """No command needs numpy.ma, which np.median imports on first use (~1.3 MB)."""
    proc = run_checkout_python("-c", NUMPY_MA_PROBE)
    assert proc.returncode == 0, proc.stderr
    *codes, loaded = proc.stdout.splitlines()
    assert codes == ["sweep 0", "diagnose 0", "recommend 0", "crosstalk 0"]
    assert loaded == "False"


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "command,fixture,fmt",
    [pytest.param(c, f, "json", id=f"{c}-{f}") for c, f in FIXTURE_COMMANDS]
    + [pytest.param(c, f, "csv", id=f"{c}-{f}-csv") for c, f in CSV_COMMANDS],
)
def test_documented_command_succeeds(command, fixture, fmt, tmp_path, capsys):
    argv = [command, "--scenario", str(fixture_path(fixture))]
    if command == "validate":
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == f"ok {FIXTURE_HASHES[fixture]}\n"
        return
    if (command, fixture) in CSV_COMMANDS:  # diagnose and recommend write JSON only
        argv += ["--format", fmt]
    out = tmp_path / f"report.{fmt}"
    assert run_cli(*argv, "--out", str(out)) == 0
    if fmt == "csv":
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == CSV_DIGESTS[command, fixture]
        return
    report = _strict_json(out.read_text())
    # The result sections alone match the benchmark's recorded fixture digest,
    # so a schema change that moves only the envelope is told apart from one
    # that moves results.
    results = {k: v for k, v in report.items() if k not in ENVELOPE}
    recorded = bench_expected()["fixtures"][f"{command} {fixture}"]["digest"]
    assert bench_workloads().digest(results) == recorded
    assert report["scenario_hash"] == FIXTURE_HASHES[fixture]
    assert report["config"] == FIXTURE_CONFIGS[fixture]


def test_ber_underflow_at_high_gsnr_is_data(tmp_path):
    doc = json.loads(fixture_path("route_b.json").read_text())
    doc["scenario"]["gsnr_profile"]["base_gsnr_db"] = 60.0
    scenario, out = tmp_path / "bright.json", tmp_path / "sweep.json"
    scenario.write_text(json.dumps(doc))
    assert run_cli("sweep", "--scenario", str(scenario), "--out", str(out)) == 0
    points = [p for c in _strict_json(out.read_text())["sweep"]["curves"] for p in c["points"]]
    readings = [p["gsnr_db"] for p in points if not p["outage"]]
    assert readings and all(math.isfinite(g) for g in readings)


def write_xtalk_mixed(tmp_path, **sweep):
    """xtalk_mixed.json with ``sweep`` fields replaced; the file's path."""
    doc = json.loads(fixture_path("xtalk_mixed.json").read_text())
    doc["sweep"] = {**doc.get("sweep", {}), **sweep}
    p = tmp_path / "xtalk_mixed.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("step", ["0", "-6.25", "nan", "inf", "1e-9"])
def test_cli_step_override_gets_file_checks(step, tmp_path, capsys):
    """A step is set in the file alone, and checked there at its field path."""
    scenario = write_xtalk_mixed(tmp_path, step=float(step))
    assert run_cli("sweep", "--scenario", scenario) == 2
    assert capsys.readouterr().err.startswith("error: $.sweep")


def test_cli_surface_is_pinned():
    """Every value of a run is in its scenario file: no command overrides the
    step, trials or seed, a report command sets only where it writes, and
    only a report of points, sweep's or crosstalk's, has a CSV format."""
    parser = build_parser()
    report = {"scenario": "f.json", "out": "r.json"}
    settable = {
        "sweep": {**report, "format": "csv"},
        "diagnose": report,
        "crosstalk": {**report, "format": "csv"},
        "recommend": report,
        "validate": {"scenario": "f.json"},
    }
    assert list(settable) == list(COMMANDS)
    assert sum(map(len, settable.values())) == 11
    for command, values in settable.items():
        for flag in ("--step", "--trials", "--seed-override", "--format", "--out"):
            if flag[2:] in values:
                continue
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, "--scenario", "f.json", flag, "1"])
            assert exc.value.code == 2
        argv = [command, *(arg for k, v in values.items() for arg in (f"--{k}", v))]
        assert vars(parser.parse_args(argv)) == {"command": command, **values}


def test_trials_per_point_bounded_before_any_read(tmp_path, capsys, monkeypatch):
    def no_reads(*args, **kwargs):
        raise AssertionError("measure() called before the trials bound was checked")

    monkeypatch.setattr(linesim, "measure", no_reads)
    for trials in (MAX_TRIALS_PER_POINT + 1, 0):
        scenario = write_xtalk_mixed(tmp_path, trials_per_point=trials)
        for command in ("crosstalk", "sweep"):
            assert run_cli(command, "--scenario", scenario) == 2
            assert "trials_per_point" in capsys.readouterr().err

    doc = minimal_doc()
    doc["sweep"] = {"trials_per_point": MAX_TRIALS_PER_POINT + 1}
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(doc)
    assert err.value.path == "$.sweep"
    doc["sweep"] = {"trials_per_point": MAX_TRIALS_PER_POINT}
    parse_scenario_file(doc)
