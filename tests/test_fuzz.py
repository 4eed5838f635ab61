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

from specsweep import cli, fixture_path
from specsweep.spectral import MAX_CENTER_GHZ, MAX_RIPPLE_DB, MIN_RIPPLE_PERIOD_GHZ

COMMANDS = ("validate", "sweep", "diagnose", "crosstalk", "recommend")
HOSTILE = (
    1e308, -1e308, 0, 0.0, 1e-300, -1e-300, 5e-324, -5e-324, 10**400, -(10**400),
    "x", None, True, [], {},
)
RANDOM_CASES = 32


def _bases():
    docs = {
        name: json.loads(fixture_path(name).read_text())
        for name in ("route_a.json", "route_b.json", "route_c.json", "xtalk_5slot.json")
    }
    # No fixture has a neighbor channel; give route_a one so its fields are fuzzed too.
    docs["route_a.json"]["scenario"]["neighbors"] = [
        {"symbol_rate": 34.0, "center": 90.0, "power_offset_db": -3.0}
    ]
    # route_c is the only fixture with a recommend section; a coarser sweep
    # keeps its five commands cheap enough for the time budget.
    docs["route_c.json"]["sweep"]["step"] = 50.0
    return docs


BASES = _bases()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _mutated(base, path, value):
    doc = copy.deepcopy(BASES[base])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


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
# at a parse-time bound, with the exit code validate must give them.
FIXED_CASES = [
    ("route_a.json", ("scenario", "filtering_exponent"), 1e308, 0),
    ("route_a.json", ("scenario", "gsnr_profile", "base_gsnr_db"), -1e308, 0),
    ("route_c.json", ("scenario", "gsnr_profile", "tilt_db"), 1e308, 0),
    ("route_a.json", ("scenario", "media_channels", 0, "center"), 1e308, 2),
    ("route_a.json", ("scenario", "neighbors", 0, "power_offset_db"), 1e308, 2),
    ("route_a.json", ("scenario", "filters", 0, "order"), 10**400, 2),
    ("route_c.json", ("recommend", "guard_ghz"), -1e308, 2),
    ("xtalk_5slot.json", ("scenario", "measurement_noise_sigma_db"), 1e308, 2),
    ("route_b.json", ("scenario", "crosstalk_coupling"), 10**400, 2),
    ("route_a.json", ("scenario", "filters", 0, "center"), 1e308, 2),
    ("route_a.json", ("scenario", "filters", 0, "center"), -1e308, 2),
    ("route_a.json", ("scenario", "filters", 0, "ripple", "amplitude_db"), 1e308, 2),
    ("route_a.json", ("scenario", "filters", 0, "center"), MAX_CENTER_GHZ, 0),
    ("route_a.json", ("scenario", "filters", 0, "ripple", "amplitude_db"), MAX_RIPPLE_DB, 0),
    ("route_c.json", ("scenario", "gsnr_profile", "ripple_components"),
     [{"amplitude_db": MAX_RIPPLE_DB, "period_ghz": 50.0}], 0),
    ("route_a.json", ("scenario", "filters", 0, "ripple", "period_ghz"), 5e-324, 2),
    ("route_a.json", ("scenario", "filters", 0, "ripple", "period_ghz"), MIN_RIPPLE_PERIOD_GHZ, 0),
    ("route_c.json", ("scenario", "gsnr_profile"),
     {"base_gsnr_db": 20.6, "ripple_components": [{"amplitude_db": 1.0, "period_ghz": 5e-324}]}, 2),
    ("route_c.json", ("scenario", "gsnr_profile"),
     {"base_gsnr_db": 20.6,
      "ripple_components": [{"amplitude_db": 1.0, "period_ghz": MIN_RIPPLE_PERIOD_GHZ}]}, 0),
    ("route_a.json", ("scenario", "grid"),
     {"start": -50.0, "stop": 1.5e308, "resolution": 1e308}, 2),
    ("route_b.json", ("scenario", "grid"),
     {"start": -MAX_CENTER_GHZ, "stop": MAX_CENTER_GHZ, "resolution": 2.5}, 0),
]


@pytest.mark.parametrize(
    "base,path,value,validate_code",
    FIXED_CASES,
    ids=[".".join(map(str, path)) for _, path, _, _ in FIXED_CASES],
)
def test_fixed_hostile_inputs(base, path, value, validate_code, tmp_path):
    codes = run_commands(_mutated(base, path, value), tmp_path)
    assert codes["validate"] == validate_code


def test_seeded_fuzz_stays_in_exit_contract(tmp_path):
    rng = random.Random(20211029)
    for _ in range(RANDOM_CASES):
        base = rng.choice(sorted(BASES))
        path = rng.choice(list(_paths(BASES[base])))
        value = rng.choice(HOSTILE)
        try:
            run_commands(_mutated(base, path, value), tmp_path)
        except Exception as exc:
            pytest.fail(f"{base} {'.'.join(map(str, path))} = {value!r}: {exc!r}")
