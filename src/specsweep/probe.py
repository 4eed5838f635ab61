"""Sweep-and-probe engine operating against the black-box probe interface.

Implements extended channel probing: several transceiver configurations are
swept in fixed frequency steps across the slot and each raw Q reading is
converted back to a symbol-rate-normalized GSNR sample. The engine sees only
a BlackBoxProbe (or the crosstalk bench's sessions), never a Scenario. A
crosstalk scan reads each channel once per distinct offset of the middle
carrier, offset 0 included, and that aligned reading is the penalties' base.
"""

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from specsweep.formats import CatalogEntry, ber_from_q_db, normalize_gsnr, snr_from_ber
from specsweep.spectral import MediaChannel

DEFAULT_STEP_GHZ = 6.25
# Upper bounds on carriers per sweep and reads per point, checked before
# the carrier grid is built or anything is read.
MAX_SWEEP_CARRIERS = 10_000
MAX_TRIALS_PER_POINT = 1_000


@dataclass(frozen=True)
class SweepPlan:
    """Carrier grid and probe set for one sweep."""

    slot: MediaChannel
    probes: Tuple[CatalogEntry, ...]
    step: float = DEFAULT_STEP_GHZ
    trials_per_point: int = 1

    def __post_init__(self):
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError(f"sweep step must be finite and > 0, got {self.step}")
        if not 1 <= self.trials_per_point <= MAX_TRIALS_PER_POINT:
            raise ValueError(
                f"trials_per_point must be in [1, {MAX_TRIALS_PER_POINT}], "
                f"got {self.trials_per_point}"
            )
        if not (self.slot.width + 1e-9) / self.step < MAX_SWEEP_CARRIERS:
            raise ValueError(
                f"sweep step {self.step} GHz over a {self.slot.width} GHz slot "
                f"exceeds {MAX_SWEEP_CARRIERS} carriers"
            )

    def carriers(self):
        """Carrier frequencies from slot start to slot stop, inclusive.

        A carrier that rounds past the stop is clamped to it.
        """
        n = int(np.floor((self.slot.width + 1e-9) / self.step)) + 1
        return np.minimum(self.slot.start + self.step * np.arange(n), self.slot.stop)


@dataclass(frozen=True)
class ProbeCurve:
    """One probe's readings, aligned with the plan's carriers; None at outage."""

    probe: CatalogEntry
    gsnr_db: Tuple[Optional[float], ...]
    q_db: Tuple[Optional[float], ...]


@dataclass(frozen=True)
class SweepResult:
    """Per probe of the plan, one curve of readings across ``plan.carriers()``."""

    plan: SweepPlan
    curves: Tuple[ProbeCurve, ...]


def probe_point(session, carrier, probe, trials=1):
    """One sweep point: the pair (GSNR, median Q over ``trials`` reads).

    Inverts the measurement chain: median Q -> BER -> in-band SNR via the
    probe format's curve -> GSNR in the reference bandwidth. The point is an
    outage, ``(None, None)``, when most trials are. The median is
    ``statistics.median``: the middle Q, or the mean of the middle two, the
    same float ``np.median`` gives. The inversion is ``snr_from_ber``'s
    bisection, decided by the closed-form root where the format has one and
    bit-identical to the plain bisection.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    session.set_carrier(float(carrier))
    session.set_probe(probe)
    readings = [session.read_q(trial_index=t) for t in range(trials)]
    n_outage = sum(r.outage for r in readings)
    if 2 * n_outage > trials:
        return None, None
    q = statistics.median(r.q_db for r in readings if not r.outage)
    ber = ber_from_q_db(q)
    snr_db = snr_from_ber(probe.format, ber)
    return normalize_gsnr(snr_db, probe.symbol_rate), q


def run_sweep(session, plan):
    """Sweep every probe across the plan's carrier grid.

    Edge carriers are measured even when the probe's occupied band overhangs
    the slot; outage there is recorded as data, not an error.
    """
    if not plan.probes:
        raise ValueError("sweep plan has no probes")
    carriers = plan.carriers()
    curves = []
    for probe in plan.probes:
        gsnr, q = zip(*(probe_point(session, c, probe, plan.trials_per_point) for c in carriers))
        curves.append(ProbeCurve(probe, gsnr, q))
    return SweepResult(plan, tuple(curves))


@dataclass(frozen=True)
class ChannelScan:
    """One channel's readings across the scan's central-carrier offsets."""

    probe: CatalogEntry
    gsnr_db: Tuple[Optional[float], ...]  # None at outage
    penalties_db: Tuple[Optional[float], ...]  # None where this or the aligned reading is outage


@dataclass(frozen=True)
class CrosstalkScanResult:
    """Per offset of the middle carrier, every channel's reading; channel k is slot k."""

    offsets: Tuple[float, ...]
    channels: Tuple[ChannelScan, ...]


def crosstalk_scan(bench, offsets, trials=1):
    """Sweep the middle carrier across its slot, watching every channel.

    For each offset of the central carrier each channel (central and sides)
    is measured through its own session, once per distinct offset. Penalty
    is referenced to that channel's aligned-grid (offset 0) reading; outage
    points carry None.
    """
    offsets = tuple(float(o) for o in offsets)
    for off in offsets:
        bench.check_offset(off)
    channels = []
    for idx, probe in enumerate(bench.probes):
        reading = {
            off: probe_point(
                bench.session(idx, off), bench.victim_carrier(idx, off), probe, trials
            )[0]
            for off in dict.fromkeys((0.0, *offsets))
        }
        baseline = reading[0.0]
        gsnr = tuple(reading[off] for off in offsets)
        penalties = tuple(None if g is None or baseline is None else baseline - g for g in gsnr)
        channels.append(ChannelScan(probe, gsnr, penalties))
    return CrosstalkScanResult(offsets, tuple(channels))
