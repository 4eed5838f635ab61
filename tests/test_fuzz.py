"""Seeded fuzz gate: hostile scenario files stay inside the exit-code contract.

Each case replaces one field of a bundled fixture with an extreme or
ill-typed value and runs all five commands in-process through ``cli.main``.
Every command must exit 0 (success), 2 (validation) or 3 (undiagnosable),
never with an exception, and every exit-0 report must be strict JSON.
"""

import contextlib
import copy
import io
import json
import random

import pytest

from specsweep import cli, fixture_path, linesim, probe, scenario_io, spectral
from specsweep.spectral import MAX_CENTER_GHZ, MAX_RIPPLE_DB, MIN_RIPPLE_PERIOD_GHZ

COMMANDS = ("validate", "sweep", "diagnose", "crosstalk", "recommend")
HOSTILE = (
    1e308, -1e308, 0, 0.0, 1e-300, -1e-300, 5e-324, -5e-324, 10**400, -(10**400),
    "x", None, True, [], {},
)
RANDOM_CASES = 32
# Every parse-time bound, and the values a hair below and above it.
BOUND_VALUES = tuple(
    value * factor
    for module in (spectral, linesim, probe, scenario_io)
    for name, value in vars(module).items()
    if name.startswith(("MAX_", "MIN_"))
    for factor in (1, 1 - 1e-9, 1 + 1e-9)
)
TWO_FIELD_CASES = 24


def _bases():
    docs = {
        name: json.loads(fixture_path(name).read_text())
        for name in ("route_a.json", "route_b.json", "route_c.json", "xtalk_5slot.json")
    }
    # No fixture has a neighbor channel; give route_a one so its fields are fuzzed too.
    docs["route_a.json"]["scenario"]["neighbors"] = [{"symbol_rate": 34.0, "center": 90.0}]
    # route_c is the only fixture with a recommend section; a coarser sweep
    # keeps its five commands cheap enough for the time budget.
    docs["route_c.json"]["sweep"]["step"] = 50.0
    return docs


BASES = _bases()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _mutated(base, *changes):
    """A copy of ``BASES[base]`` with each (path, value) of ``changes`` set."""
    doc = copy.deepcopy(BASES[base])
    for path, value in changes:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return doc


def _fields(node, prefix=()):
    """(path, value) of every object field and list item below ``node``, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,), child
        yield from _fields(child, prefix + (key,))


def run_commands(doc, tmp_path):
    """Exit code of every command on ``doc``; checks the contract on the way."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    codes = {}
    for command in COMMANDS:
        out = tmp_path / f"{command}.json"
        argv = [command, "--scenario", str(scenario)]
        if command != "validate":
            argv += ["--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code in (0, 2, 3), f"{command} exited {code}"
        if code == 0 and command != "validate":
            _strict_json(out.read_text())
        codes[command] = code
    return codes


# Inputs that once ended in a traceback or in a silent exit 0, and values
# at a parse-time bound, with the exit code validate must give them. Each
# case names its test id, so a new case on a path already listed renames
# no existing test.
FIXED_CASES = [
    ("scenario.filtering_exponent",
     "route_a.json", ("scenario", "filtering_exponent"), 1e308, 0),
    ("scenario.gsnr_profile.base_gsnr_db",
     "route_a.json", ("scenario", "gsnr_profile", "base_gsnr_db"), -1e308, 0),
    ("scenario.gsnr_profile.tilt_db",
     "route_c.json", ("scenario", "gsnr_profile", "tilt_db"), 1e308, 0),
    ("scenario.media_channels.0.center",
     "route_a.json", ("scenario", "media_channels", 0, "center"), 1e308, 2),
    ("scenario.neighbors.0.power_offset_db",
     "route_a.json", ("scenario", "neighbors", 0, "power_offset_db"), 1e308, 2),
    ("scenario.filters.0.order",
     "route_a.json", ("scenario", "filters", 0, "order"), 10**400, 2),
    ("recommend.guard_ghz",
     "route_c.json", ("recommend", "guard_ghz"), -1e308, 2),
    ("scenario.measurement_noise_sigma_db",
     "xtalk_5slot.json", ("scenario", "measurement_noise_sigma_db"), 1e308, 2),
    ("scenario.crosstalk_coupling",
     "route_b.json", ("scenario", "crosstalk_coupling"), 10**400, 2),
    ("scenario.filters.0.center0",
     "route_a.json", ("scenario", "filters", 0, "center"), 1e308, 2),
    ("scenario.filters.0.center1",
     "route_a.json", ("scenario", "filters", 0, "center"), -1e308, 2),
    ("scenario.filters.0.ripple.amplitude_db0",
     "route_a.json", ("scenario", "filters", 0, "ripple", "amplitude_db"), 1e308, 2),
    ("scenario.filters.0.center2",
     "route_a.json", ("scenario", "filters", 0, "center"), MAX_CENTER_GHZ, 0),
    ("scenario.filters.0.ripple.amplitude_db1",
     "route_a.json", ("scenario", "filters", 0, "ripple", "amplitude_db"), MAX_RIPPLE_DB, 0),
    ("scenario.gsnr_profile.ripple_components",
     "route_c.json", ("scenario", "gsnr_profile", "ripple_components"),
     [{"amplitude_db": MAX_RIPPLE_DB, "period_ghz": 50.0}], 0),
    ("scenario.filters.0.ripple.period_ghz0",
     "route_a.json", ("scenario", "filters", 0, "ripple", "period_ghz"), 5e-324, 2),
    ("scenario.filters.0.ripple.period_ghz1",
     "route_a.json", ("scenario", "filters", 0, "ripple", "period_ghz"), MIN_RIPPLE_PERIOD_GHZ, 0),
    ("scenario.gsnr_profile0",
     "route_c.json", ("scenario", "gsnr_profile"),
     {"base_gsnr_db": 20.6, "ripple_components": [{"amplitude_db": 1.0, "period_ghz": 5e-324}]}, 2),
    ("scenario.gsnr_profile1",
     "route_c.json", ("scenario", "gsnr_profile"),
     {"base_gsnr_db": 20.6,
      "ripple_components": [{"amplitude_db": 1.0, "period_ghz": MIN_RIPPLE_PERIOD_GHZ}]}, 0),
    ("scenario.grid0",
     "route_a.json", ("scenario", "grid"),
     {"start": -50.0, "stop": 1.5e308, "resolution": 1e308}, 2),
    ("scenario.grid1",
     "route_b.json", ("scenario", "grid"),
     {"start": -MAX_CENTER_GHZ, "stop": MAX_CENTER_GHZ, "resolution": 2.5}, 0),
    ("scenario.grid2",
     "route_a.json", ("scenario", "grid"), {"start": -300.0, "stop": 300.0, "resolution": 2.0}, 0),
    ("scenario.media_channels.0.center1",
     "xtalk_5slot.json", ("scenario", "media_channels", 0, "center"), 10000.0, 2),
    ("slot_probes",
     "route_a.json", ("slot_probes",), [{"entry": "200G-69GBd-DP-QPSK"}], 2),
    ("crosstalk_offsets",
     "xtalk_5slot.json", ("crosstalk_offsets",), {"start": -50.0, "stop": 50.0, "step": 6.25}, 2),
    ("scenario.media_channels",
     "route_c.json", ("scenario", "media_channels"), [{"center": 150.0, "width": 1e-14}], 2),
]


def test_fixed_case_ids_are_unique():
    ids = [case[0] for case in FIXED_CASES]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize(
    "base,path,value,validate_code",
    [pytest.param(*case, id=name) for name, *case in FIXED_CASES],
)
def test_fixed_hostile_inputs(base, path, value, validate_code, tmp_path):
    codes = run_commands(_mutated(base, (path, value)), tmp_path)
    assert codes["validate"] == validate_code


def test_seeded_fuzz_stays_in_exit_contract(tmp_path):
    rng = random.Random(20211029)
    for _ in range(RANDOM_CASES):
        base = rng.choice(sorted(BASES))
        path, _ = rng.choice(list(_fields(BASES[base])))
        value = rng.choice(HOSTILE)
        try:
            run_commands(_mutated(base, (path, value)), tmp_path)
        except Exception as exc:
            pytest.fail(f"{base} {'.'.join(map(str, path))} = {value!r}: {exc!r}")


def test_seeded_two_field_fuzz_stays_in_exit_contract(tmp_path):
    """Two fields of one file at once, set to hostile values or at and around a bound."""
    rng = random.Random(20211029)
    values = HOSTILE + BOUND_VALUES
    for _ in range(TWO_FIELD_CASES):
        base = rng.choice(sorted(BASES))
        leaves = [path for path, v in _fields(BASES[base]) if not isinstance(v, (dict, list))]
        paths = rng.sample(leaves, 2)
        changes = [(path, rng.choice(values)) for path in paths]
        try:
            run_commands(_mutated(base, *changes), tmp_path)
        except Exception as exc:
            fields = ", ".join(f"{'.'.join(map(str, p))} = {v!r}" for p, v in changes)
            pytest.fail(f"{base} {fields}: {exc!r}")
