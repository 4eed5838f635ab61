"""Unit tests for the frequency-domain primitives."""

import ast
from pathlib import Path

import numpy as np
import pytest

import specsweep
from specsweep.spectral import (
    DEFAULT_RESOLUTION,
    MIN_SYMBOL_RATE_GBD,
    FilterElement,
    FrequencyGrid,
    Ripple,
    SignalSpectrum,
    cascade_power_response,
    filter_power_response,
    overlap_coefficient,
    signal_psd,
)


def test_occupied_width_values():
    assert SignalSpectrum(69, 0.19).occupied_width == pytest.approx(82.11)
    assert SignalSpectrum(34, 0.19).occupied_width == pytest.approx(40.46)
    assert SignalSpectrum(46, 0.0).occupied_width == 46.0


def test_occupied_width_rejects_bad_inputs():
    with pytest.raises(ValueError, match="symbol_rate must be >= 1 GBd"):
        SignalSpectrum(0, 0.19)
    with pytest.raises(ValueError, match=r"roll_off must be in \[0, 1\]"):
        SignalSpectrum(34, 1.5)
    with pytest.raises(ValueError, match=r"roll_off must be in \[0, 1\]"):
        SignalSpectrum(34, -0.1)


def test_roll_off_is_named_only_where_it_is_decided():
    """The roll-off of our transceivers is decided once: spectral defines
    DEFAULT_ROLL_OFF and formats shapes every catalog entry with it. Every
    other module asks an entry for its spectrum, width or probe id."""
    package = Path(specsweep.__file__).parent
    naming = set()
    for module in package.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name == "DEFAULT_ROLL_OFF":
                naming.add(module.stem)
    assert naming == {"spectral", "formats"}


def test_psd_plateau_and_support():
    spec = SignalSpectrum(34.0, 0.19)
    center, half, beyond, edge = signal_psd(
        np.array([0.0, 17.0, 0.60 * 34.0, spec.occupied_width / 2.0]), spec
    )
    assert center == pytest.approx(1.0 / 34.0)
    # Half the plateau at the symmetry point f = SR/2.
    assert half == pytest.approx(0.5 / 34.0)
    # Exactly zero beyond the occupied half-width.
    assert beyond == 0.0
    assert edge == 0.0


@pytest.mark.parametrize("sr", [34.0, 46.0, 52.0, 69.0])
@pytest.mark.parametrize("r", [0.0, 0.19, 0.5])
def test_psd_unit_power(sr, r):
    """The PSD must integrate to one for every catalog symbol rate."""
    spec = SignalSpectrum(sr, r)
    f = np.arange(-60.0, 60.0, 0.01)
    total = np.trapezoid(signal_psd(f, spec), f)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_psd_is_even():
    spec = SignalSpectrum(46.0, 0.19)
    rng = np.random.default_rng(0)
    offs = rng.uniform(0, 40, 100)
    np.testing.assert_allclose(signal_psd(offs, spec), signal_psd(-offs, spec))


def test_filter_response_center_and_3db():
    filt = FilterElement(0.0, 50.0, order=3)
    center, edge = filter_power_response(np.array([0.0, 25.0]), filt)
    assert center == pytest.approx(1.0)
    assert 10 * np.log10(edge) == pytest.approx(-3.01, abs=0.01)


def test_filter_response_gaussian_tail():
    # Gaussian (order 1): exp(-ln2 * (2f/B)^2) = exp(-4 ln2) at f = B.
    at_b = np.array([50.0])
    filt = FilterElement(0.0, 50.0, order=1)
    assert filter_power_response(at_b, filt)[0] == pytest.approx(np.exp(-4 * np.log(2)), rel=1e-9)
    # Order 2 at f = B reaches exp(-16 ln2).
    filt2 = FilterElement(0.0, 50.0, order=2)
    assert filter_power_response(at_b, filt2)[0] == pytest.approx(
        np.exp(-16 * np.log(2)), rel=1e-9
    )


def test_filter_response_even():
    filt = FilterElement(0.0, 40.0, order=4)
    rng = np.random.default_rng(1)
    offs = rng.uniform(0, 50, 100)
    np.testing.assert_allclose(
        filter_power_response(offs, filt), filter_power_response(-offs, filt)
    )


def test_filter_ripple_term():
    # Sinusoidal ripple in dB on top of the super-Gaussian envelope.
    filt = FilterElement(0.0, 1000.0, order=6, ripple=Ripple(0.5, 40.0, np.pi / 2))
    peak, trough = 10 * np.log10(filter_power_response(np.array([0.0, 20.0]), filt))
    assert peak == pytest.approx(0.5, abs=1e-3)
    assert trough == pytest.approx(-0.5, abs=1e-3)


def test_cascade_identity_and_product_law():
    f = np.linspace(-40, 40, 201)
    assert cascade_power_response((), f).tolist() == [1.0] * len(f)
    filt = FilterElement(0.0, 50.0, order=2)
    single = cascade_power_response((filt,), f)
    double = cascade_power_response((filt, filt), f)
    np.testing.assert_allclose(double, single**2, rtol=1e-12)


def _cascade_3db_width(filters):
    """Independent bisection oracle for the cascade's 3-dB full width."""

    def response(f):
        return cascade_power_response(filters, np.array([f]))[0]

    lo, hi = 0.0, 200.0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if response(mid) > 0.5:
            lo = mid
        else:
            hi = mid
    return lo + hi  # full width = 2 * half width


def test_cascade_width_shrinks_with_depth():
    widths = []
    for n in range(1, 5):
        filters = tuple(FilterElement(0.0, 50.0, order=2) for _ in range(n))
        widths.append(_cascade_3db_width(filters))
    assert widths[0] == pytest.approx(50.0, abs=0.01)
    assert all(widths[i + 1] < widths[i] for i in range(len(widths) - 1))
    # Four cascaded order-2 filters: analytically 50 * (1/4)^(1/4).
    assert widths[3] == pytest.approx(50.0 * 0.25**0.25, abs=0.01)
    assert widths[3] < 50.0


def test_overlap_self_and_disjoint():
    a = SignalSpectrum(69.0, 0.19)
    assert overlap_coefficient(a, a, 0.0) == pytest.approx(1.0, abs=1e-9)
    assert overlap_coefficient(a, a, a.occupied_width) == 0.0


def test_overlap_positive_inside_support():
    a = SignalSpectrum(69.0, 0.19)
    # 82.11 GHz occupied width > 75 GHz spacing -> some leakage remains.
    chi = overlap_coefficient(a, a, 75.0)
    assert chi > 0.0
    # Independent trapezoid oracle on a fine grid.
    f = np.arange(-45.0, 45.0, 0.005)
    sv = signal_psd(f, a)
    si = signal_psd(f - 75.0, a)
    oracle = np.trapezoid(sv * si, f) / np.trapezoid(sv * sv, f)
    assert chi == pytest.approx(oracle, rel=1e-3)


def test_overlap_monotone_in_spacing():
    a = SignalSpectrum(69.0, 0.19)
    b = SignalSpectrum(34.0, 0.19)
    spacings = np.linspace(0.0, 70.0, 36)
    chis = [overlap_coefficient(a, b, s) for s in spacings]
    assert all(c2 <= c1 + 1e-12 for c1, c2 in zip(chis, chis[1:]))


def test_overlap_equal_rate_symmetry():
    a = SignalSpectrum(46.0, 0.19, center=0.0)
    b = SignalSpectrum(46.0, 0.19, center=0.0)
    for s in (10.0, 30.0, 50.0):
        assert overlap_coefficient(a, b, s) == pytest.approx(
            overlap_coefficient(b, a, s), abs=1e-9
        )


def test_spectrum_rejects_symbol_rate_below_overlap_resolution():
    """Overlaps integrate at DEFAULT_RESOLUTION, which resolves a spectrum 20
    steps wide or more: one of MIN_SYMBOL_RATE_GBD. Narrower ones are not built."""
    assert MIN_SYMBOL_RATE_GBD == 20 * DEFAULT_RESOLUTION == 1.0
    a = SignalSpectrum(MIN_SYMBOL_RATE_GBD, 0.0)
    assert overlap_coefficient(a, a, 0.0) == pytest.approx(1.0, abs=1e-9)
    for rate in (MIN_SYMBOL_RATE_GBD * (1 - 1e-9), 0.5, 0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="symbol_rate"):
            SignalSpectrum(rate)


def test_grid_point_count():
    grid = FrequencyGrid(-50.0, 50.0, 0.05)
    assert grid.npoints == 2001
    pts = grid.points()
    assert pts[0] == -50.0
    assert pts[-1] == pytest.approx(50.0)
    with pytest.raises(ValueError):
        FrequencyGrid(10.0, 0.0)
