"""Scenario file format and CLI tests."""

import hashlib
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

from specsweep import fixture_path, linesim, load_fixture
from specsweep.cli import main
from specsweep.errors import ScenarioFormatError
from specsweep.formats import BUILTIN_CATALOG
from specsweep.linesim import GsnrProfile, MediaChannel, NeighborChannel, ProbeConfig, Scenario
from specsweep.probe import MAX_TRIALS_PER_POINT
from specsweep.scenario_io import (
    CrosstalkOffsets,
    ScenarioFile,
    load_scenario,
    parse_scenario_file,
    scenario_hash,
    serialize_scenario_file,
)
from specsweep.spectral import FilterElement, FrequencyGrid, Ripple, SignalSpectrum

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
    "route_a.json": "6ab1cac8e70aeeed",
    "route_b.json": "cd659a0394d6c614",
    "route_c.json": "102c86ed1169a224",
    "xtalk_5slot.json": "ff56d62e5ae909f8",
    "xtalk_mixed.json": "86b2b752614a7454",
}
GRID = {"start": -300.0, "stop": 300.0, "resolution": 0.05}
FIXTURE_CONFIGS = {
    name: {
        "crosstalk_coupling": coupling,
        "filtering_exponent": exponent,
        "grid": GRID,
        "measurement_noise_sigma_db": sigma,
        "outage_ber": 0.05,
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
# Golden outputs of the fixture commands: report_digest of each JSON report
# and sha256 of each raw CSV text. Any change of report content shows here.
REPORT_DIGESTS = {
    ("sweep", "route_a.json"): "b825a51d073be5db3736c0378bc4356f0c4dcf339dbf1969f489ad02e200004a",
    ("sweep", "route_b.json"): "dd100824d882cfb265687455120338c2f0c1b2ea54c5e5b26c340bea56633ed2",
    ("sweep", "route_c.json"): "630e08531092ad3d8cf2580eb1e7aa7003cec525783cd790021e39d414024594",
    ("sweep", "xtalk_5slot.json"): "ccccf21b3f7daf80842125ce04fd87eee983e869c4418633336e580d34d1e6b4",
    ("sweep", "xtalk_mixed.json"): "73048bf4c7147b3106d0b71d2f9f0cb44ab9a5502ec44917c03530b86c6b3ffe",
    ("diagnose", "route_a.json"): "58c8b153513c1f6b6c330c5266e1fc7fba647599b638f1ec454e43132a03bcdc",
    ("diagnose", "route_b.json"): "19d86cfa867c62a01ee55eb6df83de2152475b66fabbf865ad566f020b99183d",
    ("diagnose", "route_c.json"): "62c73727176e743507105bd662db624552a5985b9313c11e693e6795e1fa0a39",
    ("diagnose", "xtalk_5slot.json"): "e428b303bca3cc5b7a8138bf99625ded728f01b9d2f07cdc8f8d82626ffa38b5",
    ("diagnose", "xtalk_mixed.json"): "b8f517b3cd7fc08d5839a3dca127922791cb0acd8de02e75c9bc315ece882be3",
    ("recommend", "route_c.json"): "85d5e1497c163d4ed57ed425ee194e72f8a77700f689b2c03c667eb360772bd3",
    ("crosstalk", "xtalk_5slot.json"): "057a6118686b39f4406ca7c4c9e6b0c3dfffd65d7957bc1e728cdcaa45ea3120",
    ("crosstalk", "xtalk_mixed.json"): "fe5266e7d9eb813a0f934c103d3869c3b1ddf59227f0a5ca51821d64471d660d",
}
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
    """A valid ScenarioFile with every optional part present or absent at random."""
    num = lambda lo, hi: round(rng.uniform(lo, hi), rng.choice([0, 2, 9]))  # noqa: E731

    def ripple():
        return Ripple(num(0.0, 2.0), num(1.0, 80.0), rng.choice([0.0, num(-3.0, 3.0)]))

    def probe():
        return ProbeConfig(rng.choice(BUILTIN_CATALOG), rng.choice([0.19, num(0.0, 1.0)]))

    channels = tuple(
        MediaChannel(num(-200.0, 200.0), num(50.0, 150.0)) for _ in range(rng.randint(1, 5))
    )
    anchored = rng.random() < 0.5
    scenario = Scenario(
        media_channels=channels,
        filters=tuple(
            FilterElement(
                num(-50.0, 50.0),
                num(20.0, 120.0),
                order=rng.randint(1, 10),
                ripple=ripple() if rng.random() < 0.5 else None,
            )
            for _ in range(rng.randint(0, 3))
        ),
        gsnr_profile=GsnrProfile(
            num(5.0, 30.0),
            tilt_db=num(-3.0, 3.0),
            ripple_components=tuple(ripple() for _ in range(rng.randint(0, 2))),
            anchor_center=num(-10.0, 10.0) if anchored else None,
            anchor_width=num(100.0, 400.0) if anchored else None,
        ),
        neighbors=tuple(
            NeighborChannel(
                SignalSpectrum(num(10.0, 70.0), num(0.0, 1.0), num(-300.0, 300.0)),
                num(-10.0, 10.0),
            )
            for _ in range(rng.randint(0, 2))
        ),
        crosstalk_coupling=num(0.0, 1.0),
        filtering_exponent=num(1.0, 20.0),
        measurement_noise_sigma_db=num(0.0, 1.0),
        outage_ber=rng.choice([0.05, round(rng.uniform(1e-3, 0.4), 9)]),
        seed=rng.randrange(1 << 40),
        grid=FrequencyGrid(num(-400.0, -300.0), num(300.0, 400.0), rng.choice([0.05, 0.1])),
    )
    offsets = None
    if rng.random() < 0.5:
        start = num(-40.0, 0.0)
        offsets = CrosstalkOffsets(start, start + num(0.0, 40.0), num(1.0, 10.0))
    catalog = tuple(e.name for e in rng.sample(BUILTIN_CATALOG, rng.randint(0, 3)))
    return ScenarioFile(
        schema_version=1,
        scenario=scenario,
        probes=tuple(probe() for _ in range(rng.randint(1, 3))),
        sweep_step=rng.choice([6.25, num(1.0, 25.0)]),
        trials_per_point=rng.randint(1, 9),
        slot_probes=tuple(probe() for _ in channels) if rng.random() < 0.5 else (),
        crosstalk_offsets=offsets,
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

    # Fields the model never read are gone from the schema.
    for where, key in (
        (lambda d: d["scenario"], "fec_ber"),
        (lambda d: d["scenario"]["media_channels"][0], "guard_band_each_side"),
        (lambda d: d["probes"][0], "p_ref_dbm"),
        (lambda d: d["probes"][0], "sr_ref_gbd"),
    ):
        doc = minimal_doc()
        where(doc)[key] = 0.0
        with pytest.raises(ScenarioFormatError) as err:
            parse_scenario_file(doc)
        assert err.value.path.endswith(key) and err.value.message == "unknown field"


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

    for ber in (0.9, 0.5, 0.0, -1.0):
        err = rejected(lambda d: d["scenario"].update(outage_ber=ber))
        assert "outage_ber" in err.message

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


def test_missing_required_field():
    doc = minimal_doc()
    del doc["scenario"]["gsnr_profile"]
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(doc)
    assert err.value.path == "$.scenario.gsnr_profile"


def test_slot_probes_count_checked():
    doc = minimal_doc()
    doc["slot_probes"] = [{"entry": "200G-34GBd-DP-16QAM"}] * 2
    with pytest.raises(ScenarioFormatError):
        parse_scenario_file(doc)


def test_load_scenario_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    with pytest.raises(ScenarioFormatError):
        load_scenario(p)


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


def test_cli_seed_override_changes_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["sweep", "--scenario", str(fixture_path("route_b.json"))]
    assert run_cli(*base, "--out", str(a)) == 0
    assert run_cli(*base, "--out", str(b), "--seed-override", "999") == 0
    assert a.read_bytes() != b.read_bytes()


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


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _rounded(obj):
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def report_digest(report):
    """sha256 of a JSON report without tool_version, floats at 10 significant digits.

    The rounding keeps the digest stable against last-bit differences between
    math libraries; everything else in the report is pinned exactly.
    """
    body = {k: v for k, v in report.items() if k != "tool_version"}
    return hashlib.sha256(json.dumps(_rounded(body), sort_keys=True).encode()).hexdigest()


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
    out = tmp_path / f"report.{fmt}"
    assert run_cli(*argv, "--format", fmt, "--out", str(out)) == 0
    if fmt == "csv":
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == CSV_DIGESTS[command, fixture]
        return
    report = _strict_json(out.read_text())
    assert report["scenario_hash"] == FIXTURE_HASHES[fixture]
    assert report["config"] == FIXTURE_CONFIGS[fixture]
    assert report_digest(report) == REPORT_DIGESTS[command, fixture]


def test_ber_underflow_at_high_gsnr_is_data(tmp_path):
    doc = json.loads(fixture_path("route_b.json").read_text())
    doc["scenario"]["gsnr_profile"]["base_gsnr_db"] = 60.0
    scenario, out = tmp_path / "bright.json", tmp_path / "sweep.json"
    scenario.write_text(json.dumps(doc))
    assert run_cli("sweep", "--scenario", str(scenario), "--out", str(out)) == 0
    points = [p for c in _strict_json(out.read_text())["sweep"]["curves"] for p in c["points"]]
    readings = [p["gsnr_db"] for p in points if not p["outage"]]
    assert readings and all(math.isfinite(g) for g in readings)


def _crosstalk_without_offsets(tmp_path):
    doc = json.loads(fixture_path("xtalk_mixed.json").read_text())
    del doc["crosstalk_offsets"]
    p = tmp_path / "xtalk_default_offsets.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("step", ["0", "-6.25", "nan", "inf", "1e-9"])
def test_cli_step_override_gets_file_checks(step, tmp_path, capsys):
    scenario = _crosstalk_without_offsets(tmp_path)
    for command in ("crosstalk", "sweep"):
        assert run_cli(command, "--scenario", scenario, "--step", step) == 2
        assert "sweep step" in capsys.readouterr().err


def test_trials_per_point_bounded_before_any_read(tmp_path, capsys, monkeypatch):
    def no_reads(*args, **kwargs):
        raise AssertionError("measure() called before the trials bound was checked")

    monkeypatch.setattr(linesim, "measure", no_reads)
    scenario = _crosstalk_without_offsets(tmp_path)
    for trials in (str(MAX_TRIALS_PER_POINT + 1), "0"):
        for command in ("crosstalk", "sweep"):
            assert run_cli(command, "--scenario", scenario, "--trials", trials) == 2
            assert "trials_per_point" in capsys.readouterr().err

    doc = minimal_doc()
    doc["sweep"] = {"trials_per_point": MAX_TRIALS_PER_POINT + 1}
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(doc)
    assert err.value.path == "$.sweep"
    doc["sweep"] = {"trials_per_point": MAX_TRIALS_PER_POINT}
    parse_scenario_file(doc)
