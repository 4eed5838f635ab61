"""Spans around the calls into each layer, recorded from the benchmark's side.

The traced run swaps wrappers in at the module attribute each caller
actually looks up (``specsweep.linesim.measure`` for ``read_q``,
``specsweep.diagnosis.overlap_coefficient`` for the guard-band bisection,
and so on) and puts the originals back afterwards. The untraced run installs
nothing. Spans stay in memory and are written out when the run ends.

A span's layer is the part of its name before the first dot. Its self time
is its duration minus the durations of its direct children.
"""

import importlib
import json
import time
from collections import defaultdict

import workloads

# (object path, attribute, span name). The attribute is looked up on the
# object the caller resolves it from, so one function can appear under two
# sites (e.g. ``overlap_coefficient`` from linesim and from diagnosis).
SITES = (
    ("workloads", "parse", "scenario_io.parse"),
    ("workloads", "serialize", "scenario_io.serialize"),
    ("specsweep.linesim", "open_session", "linesim.open_session"),
    ("specsweep.linesim:CrosstalkBench", "session", "linesim.session"),
    ("specsweep.linesim", "measure", "linesim.measure"),
    ("specsweep.linesim", "overlap_coefficient", "spectral.overlap_coefficient"),
    ("specsweep.linesim", "ber_from_snr", "formats.ber_from_snr"),
    ("specsweep.linesim", "q_db_from_ber", "formats.q_db_from_ber"),
    ("specsweep.probe", "run_sweep", "probe.run_sweep"),
    ("specsweep.probe", "crosstalk_scan", "probe.crosstalk_scan"),
    ("specsweep.probe", "ber_from_q_db", "formats.ber_from_q_db"),
    ("specsweep.probe", "snr_from_ber", "formats.invert"),
    ("specsweep.formats", "ber_from_snr", "formats.ber_from_snr"),
    ("specsweep.formats", "snr_from_ber", "formats.snr_from_ber"),
    ("specsweep.diagnosis", "diagnose", "diagnosis.diagnose"),
    ("specsweep.diagnosis", "recommend_carriers", "diagnosis.recommend_carriers"),
    ("specsweep.diagnosis", "guard_band", "diagnosis.guard_band"),
    ("specsweep.diagnosis", "overlap_coefficient", "spectral.overlap_coefficient"),
    ("specsweep.diagnosis", "required_gsnr", "formats.required_gsnr"),
)
OP_SPAN = "bench.op"

# Span record fields. Records are tuples of atoms, appended when the span
# closes, so the garbage collector stops tracking them and a long traced
# run does not slow down as spans pile up.
ID, NAME, START, END, PARENT, OP = range(6)


def _resolve(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Single-threaded span recorder; one stack of open spans."""

    def __init__(self):
        self.spans = []
        self.outages = 0
        self._next_id = 0
        self._stack = [-1]
        self._op = -1
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count_outage = name == "linesim.measure"

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((span_id, name, start, clock(), parent, self._op))
                stack.pop()
            if count_outage and result.outage:
                self.outages += 1
            return result

        return wrapper

    def install(self):
        for path, attr, name in SITES:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def op(self, op_id, fn, *args):
        """Run one op under a root span that its layer spans hang from."""
        self._op = op_id
        return self._wrap(OP_SPAN, fn)(*args)

    def write(self, path):
        """One JSON array per line: id, name, start_ns, end_ns, parent id, op id."""
        with open(path, "w") as fh:
            for rec in sorted(self.spans):
                fh.write(json.dumps(rec) + "\n")

    def summary(self):
        """Per span name: calls, total and self time (ns); per layer: self time."""
        child = defaultdict(int)
        for rec in self.spans:
            child[rec[PARENT]] += rec[END] - rec[START]
        calls = defaultdict(int)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        layer_ns = defaultdict(int)
        for rec in self.spans:
            dur = rec[END] - rec[START]
            own = dur - child[rec[ID]]
            calls[rec[NAME]] += 1
            total[rec[NAME]] += dur
            self_ns[rec[NAME]] += own
            layer_ns[rec[NAME].split(".")[0]] += own
        return calls, total, self_ns, layer_ns
