"""Modulation-format catalog and the BER / SNR / Q / GSNR conversion chain.

GSNR values are normalized to a 12.5 GHz reference bandwidth:
gsnr_db = snr_db + 10 log10(symbol_rate / 12.5). The in-band SNR of a probe
at any symbol rate therefore maps onto one comparable channel metric.
"""

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable

import numpy as np

REFERENCE_BANDWIDTH_GHZ = 12.5
FEC_BER = 2e-2
DEFAULT_OUTAGE_BER = 5e-2
SNR_FLOOR_DB = -30.0
# Every catalog entry is planned with this margin above its FEC threshold.
REQUIRED_MARGIN_DB = 1.0
_SNR_TOL_DB = 1e-4
_BER_FLOOR = 1e-300
_STANDARD_NORMAL = NormalDist()


def _ber_qpsk(snr_lin):
    return 0.5 * math.erfc(math.sqrt(snr_lin / 2.0))


def _ber_qam16(snr_lin):
    # Gray-coded square 16QAM approximation.
    return (3.0 / 8.0) * math.erfc(math.sqrt(snr_lin / 10.0))


def _ber_hybrid(snr_lin):
    # Hybrid of QPSK and 16QAM: the geometric mean of the parent curves keeps
    # it strictly between them at every SNR.
    return math.sqrt(_ber_qpsk(snr_lin) * _ber_qam16(snr_lin))


@dataclass(frozen=True)
class ModulationFormat:
    name: str
    bits_per_symbol: int
    # Unclipped BER at a linear in-band SNR.
    ber: Callable[[float], float] = field(repr=False)


@dataclass(frozen=True)
class CatalogEntry:
    """One transceiver operating mode: format at a symbol rate and net rate."""

    name: str
    format: ModulationFormat
    symbol_rate: float
    net_data_rate_gbps: float

    def __post_init__(self):
        if self.symbol_rate <= 0:
            raise ValueError("symbol_rate must be > 0")
        if self.net_data_rate_gbps <= 0:
            raise ValueError("net_data_rate_gbps must be > 0")


DP_QPSK = ModulationFormat("DP-QPSK", 4, _ber_qpsk)
DP_P_16QAM = ModulationFormat("DP-P-16QAM", 6, _ber_hybrid)
DP_16QAM = ModulationFormat("DP-16QAM", 8, _ber_qam16)

# Probe set from the field campaign plus the 300G planning modes and the
# 100G low-rate mode used in the mixed crosstalk test.
BUILTIN_CATALOG = (
    CatalogEntry("200G-69GBd-DP-QPSK", DP_QPSK, 69.0, 200.0),
    CatalogEntry("200G-46GBd-DP-P-16QAM", DP_P_16QAM, 46.0, 200.0),
    CatalogEntry("200G-34GBd-DP-16QAM", DP_16QAM, 34.0, 200.0),
    CatalogEntry("300G-69GBd-DP-P-16QAM", DP_P_16QAM, 69.0, 300.0),
    CatalogEntry("300G-52GBd-DP-16QAM", DP_16QAM, 52.0, 300.0),
    CatalogEntry("100G-34GBd-DP-QPSK", DP_QPSK, 34.0, 100.0),
)


def catalog_entry(name):
    for entry in BUILTIN_CATALOG:
        if entry.name == name:
            return entry
    raise KeyError(f"unknown catalog entry {name!r}")


def bisect(below, lo, hi, tol):
    """Midpoint of the bracket [lo, hi] halved until it is at most ``tol`` wide.

    ``below(x)`` is true when the sought point lies above ``x``.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ber_from_snr(fmt, snr_db):
    """Pre-FEC BER of a format at the in-band SNR ``snr_db``, clipped to [_BER_FLOOR, 0.5]."""
    snr_lin = 10.0 ** (float(snr_db) / 10.0)
    return min(max(fmt.ber(snr_lin), _BER_FLOOR), 0.5)


def snr_from_ber(fmt, ber):
    """Invert ber_from_snr by bisection; clamped at SNR_FLOOR_DB."""
    if not 0.0 < ber < 0.5:
        raise ValueError(f"ber must be in (0, 0.5), got {ber}")
    if ber_from_snr(fmt, SNR_FLOOR_DB) <= ber:
        return SNR_FLOOR_DB
    return bisect(lambda snr: ber_from_snr(fmt, snr) > ber, SNR_FLOOR_DB, 60.0, _SNR_TOL_DB)


def q_db_from_ber(ber):
    """Q-factor in dB: 20 log10(sqrt(2) * erfcinv(2 ber)) = 20 log10(-Phi^-1(ber))."""
    if not 0.0 < ber < 0.5:
        raise ValueError(f"ber must be in (0, 0.5), got {ber}")
    return 20.0 * math.log10(-_STANDARD_NORMAL.inv_cdf(ber))


def ber_from_q_db(q_db):
    """Inverse of q_db_from_ber, floored where erfc underflows (as ber_from_snr)."""
    q_lin = 10.0 ** (q_db / 20.0)
    return max(0.5 * math.erfc(q_lin / math.sqrt(2.0)), _BER_FLOOR)


def normalize_gsnr(snr_db, symbol_rate):
    """In-band SNR -> GSNR in the 12.5 GHz reference bandwidth."""
    if symbol_rate <= 0:
        raise ValueError("symbol_rate must be > 0")
    return snr_db + 10.0 * np.log10(symbol_rate / REFERENCE_BANDWIDTH_GHZ)


def denormalize_gsnr(gsnr_db, symbol_rate):
    """Inverse of normalize_gsnr."""
    if symbol_rate <= 0:
        raise ValueError("symbol_rate must be > 0")
    return gsnr_db - 10.0 * np.log10(symbol_rate / REFERENCE_BANDWIDTH_GHZ)


def required_gsnr(entry):
    """Normalized GSNR needed to run ``entry`` at the FEC threshold plus REQUIRED_MARGIN_DB."""
    snr = snr_from_ber(entry.format, FEC_BER)
    return normalize_gsnr(snr, entry.symbol_rate) + REQUIRED_MARGIN_DB
