"""specsweep: black-box sweep-and-probe assessment of optical spectrum services.

A deterministic line-system simulator plus the measurement-side toolchain:
extended channel probing with several modulation formats, frequency sweeping,
GSNR normalization, and diagnosis of filtering, misalignment, tilt/ripple and
crosstalk, with carrier-placement and guard-band recommendations.
"""

from importlib import resources

from specsweep.errors import ScenarioFormatError, UndiagnosableError
from specsweep.formats import (
    BUILTIN_CATALOG,
    CatalogEntry,
    ModulationFormat,
    catalog_entry,
    normalize_gsnr,
    required_gsnr,
)
from specsweep.linesim import (
    BlackBoxProbe,
    CrosstalkBench,
    MeasurementResult,
    Scenario,
    measure,
    open_session,
)
from specsweep.probe import SweepPlan, SweepResult, crosstalk_scan, probe_point, run_sweep
from specsweep.diagnosis import DiagnosisReport, diagnose, guard_band, recommend_carriers
from specsweep.scenario_io import load_scenario, parse_scenario_file, scenario_hash
from specsweep.spectral import FilterElement, FrequencyGrid, MediaChannel, SignalSpectrum

__version__ = "1.0.0"


def fixture_path(name):
    """Filesystem path of a bundled scenario fixture, e.g. 'route_a.json'."""
    return resources.files("specsweep.scenarios").joinpath(name)


def load_fixture(name):
    """Load one of the bundled calibrated scenarios by file name."""
    with resources.as_file(fixture_path(name)) as path:
        return load_scenario(path)


__all__ = [
    "BUILTIN_CATALOG",
    "BlackBoxProbe",
    "CatalogEntry",
    "CrosstalkBench",
    "DiagnosisReport",
    "FilterElement",
    "FrequencyGrid",
    "MeasurementResult",
    "MediaChannel",
    "ModulationFormat",
    "Scenario",
    "ScenarioFormatError",
    "SignalSpectrum",
    "SweepPlan",
    "SweepResult",
    "UndiagnosableError",
    "catalog_entry",
    "crosstalk_scan",
    "diagnose",
    "fixture_path",
    "guard_band",
    "load_fixture",
    "load_scenario",
    "measure",
    "normalize_gsnr",
    "open_session",
    "parse_scenario_file",
    "probe_point",
    "recommend_carriers",
    "required_gsnr",
    "run_sweep",
    "scenario_hash",
    "__version__",
]
