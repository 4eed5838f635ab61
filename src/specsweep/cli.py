"""Command-line interface: sweep, diagnose, crosstalk, recommend, validate.

Exit codes: 0 success, 2 a rejected input (``ValueError``), 3 undiagnosable
sweep data (``UndiagnosableError``), 4 I/O error (``OSError``). All outputs
are deterministic given the input file, which sets every value of a run
(sweep step, trials per point and random seed included), and written
atomically. Every command runs one pipeline: ``main`` loads the scenario
file, hands it to the command's row of ``COMMANDS`` and emits the report
sections, or for ``--format csv`` the points, that it returns.
"""

import argparse
import json
import sys
from dataclasses import asdict

from specsweep import __version__
from specsweep.diagnosis import diagnose, recommend_carriers
from specsweep.errors import UndiagnosableError
from specsweep.linesim import open_session
from specsweep.probe import crosstalk_scan, run_sweep
from specsweep.scenario_io import (
    crosstalk_result_csv,
    crosstalk_result_dict,
    diagnosis_report_dict,
    load_scenario,
    report_config,
    scenario_hash,
    sweep_result_csv,
    sweep_result_dict,
    write_text_atomic,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNDIAGNOSABLE = 3
EXIT_IO = 4


def _emit(args, sf, body):
    """Write CSV text as it is, and a JSON body inside the report envelope."""
    if isinstance(body, str):
        text = body
    else:
        envelope = {"tool_version": __version__, "scenario_hash": scenario_hash(sf)}
        report = {**envelope, "config": report_config(sf), **body}
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _sweep(sf):
    return run_sweep(open_session(sf.scenario), sf.plan)


def cmd_sweep(sf, csv=False):
    sweep = _sweep(sf)
    return sweep_result_csv(sweep) if csv else {"sweep": sweep_result_dict(sweep)}


def cmd_diagnose(sf):
    sweep = _sweep(sf)
    report = diagnose(sweep, catalog=sf.catalog or None, guard_ghz=sf.recommend_guard_ghz)
    return {"sweep": sweep_result_dict(sweep), "diagnosis": diagnosis_report_dict(report)}


def cmd_crosstalk(sf, csv=False):
    scan = crosstalk_scan(sf.bench, sf.crosstalk_offsets.values(), trials=sf.trials_per_point)
    return crosstalk_result_csv(scan) if csv else {"crosstalk": crosstalk_result_dict(scan)}


def cmd_recommend(sf):
    if not sf.recommend_catalog:
        raise ValueError("recommend needs a scenario file with a recommend.catalog section")
    sweep = _sweep(sf)
    plan = recommend_carriers(sweep, sf.catalog, sf.recommend_guard_ghz)
    return {"carrier_plan": asdict(plan)}


# Name -> (report function of a loaded ScenarioFile, help text, whether the
# report is points and so has a CSV form, which the function returns given
# csv=True). validate has no report: it prints the scenario hash once the
# file has loaded.
COMMANDS = {
    "sweep": (cmd_sweep, "run the frequency sweep for every probe", True),
    "diagnose": (cmd_diagnose, "sweep and produce a diagnosis report", False),
    "crosstalk": (cmd_crosstalk, "central-carrier crosstalk scan", True),
    "recommend": (cmd_recommend, "greedy carrier placement plan", False),
    "validate": (None, "strictly validate a scenario file", False),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="specsweep",
        description="Black-box sweep-and-probe assessment of optical spectrum services.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, points) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        if run is not None:
            p.add_argument("--out", help="output path (stdout when omitted)")
        if points:
            p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    run = COMMANDS[args.command][0]
    try:
        sf = load_scenario(args.scenario)
        if run is None:
            sys.stdout.write(f"ok {scenario_hash(sf)}\n")
        else:
            csv = getattr(args, "format", "json") == "csv"
            _emit(args, sf, run(sf, csv=True) if csv else run(sf))
        return EXIT_OK
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except UndiagnosableError as exc:
        sys.stderr.write(f"undiagnosable: {exc}\n")
        return EXIT_UNDIAGNOSABLE
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
