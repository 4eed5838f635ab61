"""Conversion-chain tests against independent oracles.

The oracles below re-derive every conversion from the closed-form erfc
expressions (scipy's error functions plus local scalar bisection) without
going through the package's own inversion code.
"""

import math
import random

import numpy as np
import pytest
from scipy.special import erfc, erfcinv

from specsweep import formats
from specsweep.formats import (
    _BER_FLOOR,
    _SNR_TOL_DB,
    BUILTIN_CATALOG,
    DP_16QAM,
    DP_P_16QAM,
    DP_QPSK,
    FEC_BER,
    OUTAGE_BER,
    SNR_FLOOR_DB,
    bisect,
    ber_from_q_db,
    ber_from_snr,
    catalog_entry,
    denormalize_gsnr,
    normalize_gsnr,
    q_db_from_ber,
    required_gsnr,
    snr_from_ber,
)

FORMATS = (DP_QPSK, DP_P_16QAM, DP_16QAM)


def oracle_ber(fmt, snr_db):
    s = 10.0 ** (snr_db / 10.0)
    qpsk = 0.5 * erfc(np.sqrt(s / 2.0))
    qam16 = (3.0 / 8.0) * erfc(np.sqrt(s / 10.0))
    if fmt is DP_QPSK:
        return qpsk
    if fmt is DP_16QAM:
        return qam16
    return np.sqrt(qpsk * qam16)


def oracle_snr(fmt, ber):
    lo, hi = -30.0, 60.0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if oracle_ber(fmt, mid) > ber:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_q_db(ber):
    return 20.0 * np.log10(np.sqrt(2.0) * erfcinv(2.0 * ber))


def test_ber_asymptotics_and_ordering():
    assert ber_from_snr(DP_QPSK, 40.0) < 1e-12
    for snr in np.arange(-5.0, 30.0, 1.0):
        b_qpsk = ber_from_snr(DP_QPSK, snr)
        b_hyb = ber_from_snr(DP_P_16QAM, snr)
        b_qam = ber_from_snr(DP_16QAM, snr)
        assert b_qpsk <= b_hyb <= b_qam


@pytest.mark.parametrize("fmt", FORMATS)
def test_ber_strictly_decreasing(fmt):
    snrs = np.arange(-5.0, 30.0, 0.1)
    bers = [ber_from_snr(fmt, snr) for snr in snrs]
    assert np.all(np.diff(bers) < 0)


@pytest.mark.parametrize("fmt", FORMATS)
def test_ber_matches_oracle(fmt):
    for snr in (0.0, 5.0, 10.0, 15.0, 20.0):
        assert ber_from_snr(fmt, snr) == pytest.approx(oracle_ber(fmt, snr), rel=1e-9)


@pytest.mark.parametrize("fmt", FORMATS)
def test_snr_from_ber_round_trip(fmt):
    for snr in np.linspace(0.0, 25.0, 11):
        ber = ber_from_snr(fmt, snr)
        assert snr_from_ber(fmt, ber) == pytest.approx(snr, abs=0.01)


def test_snr_from_ber_oracle_and_gap():
    """16QAM needs roughly 6.8 dB more SNR than QPSK at BER 2e-2."""
    s_qpsk = snr_from_ber(DP_QPSK, 2e-2)
    s_qam = snr_from_ber(DP_16QAM, 2e-2)
    assert s_qpsk == pytest.approx(oracle_snr(DP_QPSK, 2e-2), abs=0.01)
    gap_oracle = oracle_snr(DP_16QAM, 2e-2) - oracle_snr(DP_QPSK, 2e-2)
    assert (s_qam - s_qpsk) == pytest.approx(gap_oracle, abs=0.5)
    assert 6.0 < s_qam - s_qpsk < 7.5


def plain_snr_from_ber(fmt, ber):
    """The inversion as a plain bisection on ber_from_snr: the reference for the fast path."""
    if ber_from_snr(fmt, SNR_FLOOR_DB) <= ber:
        return SNR_FLOOR_DB
    return bisect(lambda snr: ber_from_snr(fmt, snr) > ber, SNR_FLOOR_DB, 60.0, _SNR_TOL_DB)


# 10^4 seeded log-uniform BERs over [_BER_FLOOR, 0.5), the named BERs, one
# below the floor, and 0.49, which every format reaches below SNR_FLOOR_DB
# (the early return).
_rng = random.Random(16)
INVERSION_BERS = (
    *(math.exp(_rng.uniform(math.log(_BER_FLOOR), math.log(0.5))) for _ in range(10_000)),
    FEC_BER,
    OUTAGE_BER,
    _BER_FLOOR,
    1e-305,
    0.49,
)


@pytest.mark.parametrize("fmt", FORMATS)
def test_snr_from_ber_is_the_plain_bisection_bit_for_bit(fmt):
    assert snr_from_ber(fmt, 0.49) == SNR_FLOOR_DB
    for ber in INVERSION_BERS:
        assert snr_from_ber(fmt, ber) == plain_snr_from_ber(fmt, ber), ber


@pytest.mark.parametrize("fmt", (DP_QPSK, DP_16QAM))
def test_closed_form_inversion_rarely_calls_ber_from_snr(fmt, monkeypatch):
    """The closed-form formats ask ber_from_snr only near the root, so a silent
    fallback to the plain bisection (~22 calls) fails here."""
    calls = []
    plain = formats.ber_from_snr

    def counting(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(formats, "ber_from_snr", counting)
    for ber in INVERSION_BERS:
        calls.clear()
        snr_from_ber(fmt, ber)
        assert len(calls) <= 3, ber


def test_snr_from_ber_saturates():
    assert snr_from_ber(DP_QPSK, 0.499999) == -30.0
    with pytest.raises(ValueError):
        snr_from_ber(DP_QPSK, 0.6)
    with pytest.raises(ValueError):
        snr_from_ber(DP_QPSK, 0.0)


def test_q_from_ber_oracle_values():
    assert q_db_from_ber(2.3e-2) == pytest.approx(oracle_q_db(2.3e-2), abs=1e-9)
    assert q_db_from_ber(2.3e-2) == pytest.approx(6.0, abs=0.1)
    assert q_db_from_ber(1e-3) == pytest.approx(9.8, abs=0.1)
    with pytest.raises(ValueError):
        q_db_from_ber(0.5)


# Q crosses 0 dB at ber ~ 0.159, where a relative tolerance on q_db alone is
# unbounded; 1e-13 dB is the absolute slack there.
BER_GRID = np.concatenate(
    [np.logspace(np.log10(_BER_FLOOR), np.log10(0.5), 1500, endpoint=False), [0.4999999]]
)


def test_q_db_from_ber_matches_oracle_over_range():
    for ber in BER_GRID:
        assert q_db_from_ber(float(ber)) == pytest.approx(oracle_q_db(ber), rel=1e-12, abs=1e-13)


def test_ber_from_q_db_matches_oracle_over_range():
    for ber in BER_GRID:
        q_db = oracle_q_db(ber)
        oracle = max(0.5 * erfc(10.0 ** (q_db / 20.0) / np.sqrt(2.0)), _BER_FLOOR)
        assert ber_from_q_db(q_db) == pytest.approx(oracle, rel=1e-12)


def test_q_ber_round_trip():
    for ber in (1e-1 * 0.4, 2e-2, 1e-3, 1e-6):
        assert ber_from_q_db(q_db_from_ber(ber)) == pytest.approx(ber, rel=1e-6)


def test_gsnr_normalization():
    assert normalize_gsnr(10.0, 12.5) == pytest.approx(10.0)
    assert normalize_gsnr(10.0, 25.0) == pytest.approx(13.01, abs=0.005)
    assert normalize_gsnr(10.0, 69.0) == pytest.approx(17.42, abs=0.005)
    for sr in (12.5, 34.0, 69.0):
        assert denormalize_gsnr(normalize_gsnr(3.3, sr), sr) == pytest.approx(3.3, abs=1e-12)


def test_required_gsnr():
    entry0 = catalog_entry("200G-34GBd-DP-16QAM")
    oracle = oracle_snr(DP_16QAM, 2e-2) + 10 * np.log10(34.0 / 12.5) + 1.0
    assert required_gsnr(entry0) == pytest.approx(oracle, abs=0.01)


def test_catalog_contents():
    names = {e.name for e in BUILTIN_CATALOG}
    assert {"200G-69GBd-DP-QPSK", "200G-46GBd-DP-P-16QAM", "200G-34GBd-DP-16QAM"} <= names
    assert catalog_entry("300G-52GBd-DP-16QAM").symbol_rate == 52.0
    with pytest.raises(ValueError, match="unknown catalog entry 'nope'"):
        catalog_entry("nope")

