"""Command-line interface: sweep, diagnose, crosstalk, recommend, validate.

Exit codes: 0 success, 2 validation/configuration error, 3 undiagnosable
sweep data, 4 I/O error. All outputs are deterministic given the input file
(the random seed lives inside the scenario) and written atomically.
"""

import argparse
import json
import sys
from dataclasses import asdict, replace

from specsweep import __version__
from specsweep.diagnosis import diagnose, recommend_carriers
from specsweep.errors import (
    ConfigurationError,
    ScenarioFormatError,
    UndiagnosableError,
)
from specsweep.formats import catalog_entry
from specsweep.linesim import CrosstalkBench, open_session
from specsweep.probe import SweepPlan, crosstalk_scan, run_sweep
from specsweep.scenario_io import (
    CrosstalkOffsets,
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


def _load(args):
    sf = load_scenario(args.scenario)
    if getattr(args, "seed_override", None) is not None:
        sf = replace(sf, scenario=replace(sf.scenario, seed=args.seed_override))
    if getattr(args, "step", None) is not None:
        sf = replace(sf, sweep_step=args.step)
    if getattr(args, "trials", None) is not None:
        sf = replace(sf, trials_per_point=args.trials)
    _sweep_plan(sf)  # the overrides get the checks of the file's sweep section
    return sf


def _emit(args, sf, json_body, csv_text):
    if args.format == "csv":
        text = csv_text
    else:
        report = {
            "tool_version": __version__,
            "scenario_hash": scenario_hash(sf),
            "config": report_config(sf),
            **json_body,
        }
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _sweep_plan(sf):
    return SweepPlan(
        slot=sf.scenario.media_channels[0],
        probes=sf.probes,
        step=sf.sweep_step,
        trials_per_point=sf.trials_per_point,
    )


def _sweep(sf):
    return run_sweep(open_session(sf.scenario), _sweep_plan(sf))


def cmd_sweep(args):
    sf = _load(args)
    sweep = _sweep(sf)
    _emit(args, sf, {"sweep": sweep_result_dict(sweep)}, sweep_result_csv(sweep))
    return EXIT_OK


def cmd_diagnose(args):
    sf = _load(args)
    sweep = _sweep(sf)
    catalog = [catalog_entry(name) for name in sf.recommend_catalog]
    report = diagnose(sweep, catalog=catalog or None, guard_ghz=sf.recommend_guard_ghz)
    body = {
        "sweep": sweep_result_dict(sweep),
        "diagnosis": diagnosis_report_dict(report),
    }
    _emit(args, sf, body, sweep_result_csv(sweep))
    return EXIT_OK


def cmd_crosstalk(args):
    sf = _load(args)
    if not sf.slot_probes:
        raise ConfigurationError(
            "crosstalk needs a scenario file with slot_probes (one per media channel)"
        )
    bench = CrosstalkBench(sf.scenario, sf.slot_probes)
    offsets = sf.crosstalk_offsets
    if offsets is None:
        step = sf.sweep_step
        n = int(bench.middle_slot.width / 2.0 / step)
        offsets = CrosstalkOffsets(-n * step, n * step, step)
    scan = crosstalk_scan(bench, offsets.values(), trials=sf.trials_per_point)
    _emit(
        args,
        sf,
        {"crosstalk": crosstalk_result_dict(scan)},
        crosstalk_result_csv(scan),
    )
    return EXIT_OK


def cmd_recommend(args):
    sf = _load(args)
    if not sf.recommend_catalog:
        raise ConfigurationError(
            "recommend needs a scenario file with a recommend.catalog section"
        )
    sweep = _sweep(sf)
    catalog = [catalog_entry(name) for name in sf.recommend_catalog]
    plan = recommend_carriers(sweep, catalog, sf.recommend_guard_ghz)
    _emit(args, sf, {"carrier_plan": asdict(plan)}, sweep_result_csv(sweep))
    return EXIT_OK


def cmd_validate(args):
    sf = _load(args)
    sys.stdout.write(f"ok {scenario_hash(sf)}\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="specsweep",
        description="Black-box sweep-and-probe assessment of optical spectrum services.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
        p.add_argument("--step", type=float, help="override sweep step (GHz)")
        p.add_argument("--trials", type=int, help="override trials per point")
        p.add_argument("--seed-override", type=int, help="override scenario seed")

    p = sub.add_parser("sweep", help="run the frequency sweep for every probe")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", help="sweep and produce a diagnosis report")
    common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("crosstalk", help="central-carrier crosstalk scan")
    common(p)
    p.set_defaults(func=cmd_crosstalk)

    p = sub.add_parser("recommend", help="greedy carrier placement plan")
    common(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("validate", help="strictly validate a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioFormatError, ConfigurationError, ValueError) as exc:
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
