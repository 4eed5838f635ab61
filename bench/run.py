"""specsweep benchmark: one workload, one seed, a closed loop with one client.

    python3 bench/run.py --workload sweep_trials --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark imports the package from
``src/`` of the checkout it sits in and nothing else. Scenarios are
generated from ``--seed`` as JSON text before timing starts; each op takes
one of them through the public path (parse, session or crosstalk bench,
sweep or scan, diagnosis, report sections, JSON), one op at a time, in
whole passes over the pool until ``--seconds`` have elapsed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half traced, and prints the per-layer metrics taken from
the spans' self times. The last line of stdout is the JSON result; the
lines before it repeat every figure with its unit and sample count.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPS = 5
WARMUP_SEED = 0  # the set-up op is the same scenario for every --seed

if not os.path.isfile(os.path.join(SRC, "specsweep", "__init__.py")):
    sys.exit(f"error: no specsweep sources under {SRC}; run from a repository checkout")
sys.path.insert(0, SRC)

import fixtures  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class Op:
    __slots__ = ("entry", "seconds", "raw", "error")

    def __init__(self, entry, seconds, raw, error):
        self.entry = entry
        self.seconds = seconds
        self.raw = raw  # output text, or None if the op raised
        self.error = error


def setup_times(name, text):
    """Wall time of fresh interpreters doing import + one op; their import times."""
    walls, imports = [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "setup_child.py"), name],
            input=text,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        walls.append(time.perf_counter() - start)
        imports.append(json.loads(proc.stdout)["import_s"])
    return statistics.median(walls), statistics.median(imports)


def run_loop(workload, pool, seconds, counter, tracer=None):
    """Whole passes over the pool until ``seconds`` elapse; returns ops, passes."""
    ops = []
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        for entry, text in enumerate(pool):
            raw = error = None
            start = time.perf_counter()
            try:
                if tracer is None:
                    raw = workload.op(text, counter)
                else:
                    raw = tracer.op(len(ops), workload.op, text, counter)
            except Exception as exc:  # counted as a failed op
                error = f"{type(exc).__name__}: {exc}"
            ops.append(Op(entry, time.perf_counter() - start, raw, error))
        passes += 1
        if time.perf_counter() >= deadline:
            return ops, passes


def count_failures(workload, pool, ops, recorded):
    """Failed ops and reasons.

    An op passes when its output digest equals the recorded digest for its
    pool entry. Seeds without recorded digests check the first output of
    each entry with the workload's invariants and require every repeat of
    that entry to match it.
    """
    digests = {}
    expected = {}
    reasons = []
    failed = 0
    for op in ops:
        if op.raw is None:
            failed += 1
            reasons.append(f"entry {op.entry}: {op.error}")
            continue
        got = digests.get(op.raw)
        if got is None:
            got = digests[op.raw] = workloads.digest(op.raw)
        if op.entry not in expected:
            if recorded is not None:
                expected[op.entry] = recorded[op.entry]
            else:
                try:
                    workload.check(json.loads(pool[op.entry]), json.loads(op.raw))
                    expected[op.entry] = got
                except workloads.CheckFailed as exc:
                    expected[op.entry] = None
                    reasons.append(f"entry {op.entry}: check failed: {exc}")
        if got != expected[op.entry]:
            failed += 1
            if expected[op.entry] is not None:
                reasons.append(f"entry {op.entry}: digest {got} != {expected[op.entry]}")
    return failed, reasons


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def end_to_end(ops, counter, setup_s):
    lat = [op.seconds for op in ops]
    n = len(lat)
    p90 = quantile(lat, 90)
    beyond = sum(1 for x in lat if x > p90)
    return {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPS} fresh interpreters: import specsweep.cli + 1 op"),
        "op_ms_p50": (1e3 * statistics.median(lat), "ms", f"n={n}"),
        "op_ms_p90": (
            1e3 * p90,
            "ms",
            f"n={n}, {beyond} beyond" + ("" if beyond >= 10 else " (fewer than 10: indicative only)"),
        ),
        "reads_per_s": (counter.reads / sum(lat), "1/s", f"{counter.reads} reads in {sum(lat):.2f} s of ops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "main process"),
    }


def per_layer(tracer, ops, untraced_ops, counter, import_s, fixture_failures):
    calls, total, self_ns, layer_ns = tracer.summary()
    n_ops = len(ops)

    def per_call_us(ns, name):
        return ns[name] / calls[name] / 1e3 if calls[name] else 0.0

    def per_op_ms(ns):
        return ns / n_ops / 1e6

    reads = calls["linesim.measure"]
    traced_p50 = statistics.median(op.seconds for op in ops)
    untraced_p50 = statistics.median(op.seconds for op in untraced_ops)
    metrics = {
        "linesim.read_us": (per_call_us(self_ns, "linesim.measure"), "us", "self time per measure()"),
        "linesim.reads": (reads / n_ops, "count/op", f"{reads} measure() calls"),
        "linesim.outage_ratio": (tracer.outages / reads if reads else 0.0, "ratio", f"{tracer.outages} outages"),
        "linesim.session_us": (per_call_us(self_ns, "linesim.session"), "us", "self time per CrosstalkBench.session"),
        "linesim.sessions": (calls["linesim.session"] / n_ops, "count/op", ""),
        "linesim.self_ms": (per_op_ms(layer_ns["linesim"]), "ms", "layer self time per op"),
        "formats.invert_us": (per_call_us(total, "formats.invert"), "us", "per Q->SNR inversion in probe"),
        "formats.invert_calls": (calls["formats.invert"] / n_ops, "count/op", ""),
        "formats.ber_from_snr_calls": (calls["formats.ber_from_snr"] / n_ops, "count/op", "forward and bisection"),
        "formats.required_gsnr_calls": (calls["formats.required_gsnr"] / n_ops, "count/op", ""),
        "formats.self_ms": (per_op_ms(layer_ns["formats"]), "ms", "layer self time per op"),
        "spectral.overlap_us": (per_call_us(self_ns, "spectral.overlap_coefficient"), "us", "per overlap"),
        "spectral.overlap_calls": (calls["spectral.overlap_coefficient"] / n_ops, "count/op", ""),
        "spectral.self_ms": (per_op_ms(layer_ns["spectral"]), "ms", "layer self time per op"),
        "diagnosis.self_ms": (per_op_ms(layer_ns["diagnosis"]), "ms", "layer self time per op"),
        "diagnosis.guard_band_ms": (per_op_ms(total["diagnosis.guard_band"]), "ms", "incl. overlap bisection"),
        "diagnosis.guard_band_calls": (calls["diagnosis.guard_band"] / n_ops, "count/op", ""),
        "diagnosis.recommend_ms": (per_op_ms(total["diagnosis.recommend_carriers"]), "ms", "incl. required_gsnr"),
        "probe.self_ms": (per_op_ms(layer_ns["probe"]), "ms", "layer self time per op"),
        "probe.points": (counter.points / n_ops, "count/op", "GSNR points, baselines included"),
        "scenario_io.parse_ms": (per_op_ms(total["scenario_io.parse"]), "ms", "json.loads + parse_scenario_file"),
        "scenario_io.serialize_ms": (per_op_ms(total["scenario_io.serialize"]), "ms", "*_dict + json.dumps"),
        "cli.import_s": (import_s, "s", f"median of {SETUP_REPS} fresh interpreters"),
        "cli.fixture_fail": (len(fixture_failures), "count", f"of {len(fixtures.COMMANDS)} fixture commands"),
        "trace.overhead_ratio": (
            traced_p50 / untraced_p50,
            "ratio",
            f"traced p50 {1e3 * traced_p50:.2f} ms (n={n_ops}) / untraced {1e3 * untraced_p50:.2f} ms "
            f"(n={len(untraced_ops)})",
        ),
    }

    def shares(ns):
        top = sorted(ns.items(), key=lambda kv: -kv[1])
        return ", ".join(f"{name} {100.0 * v / sum(ns.values()):.1f}%" for name, v in top if v > 0)

    return metrics, {"layer": shares(layer_ns), "span": shares(self_ns)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    with open(os.path.join(BENCH, "expected.json")) as fh:
        expected = json.load(fh)
    recorded = expected["workloads"][args.workload].get(str(args.seed))

    pool = workload.pool(args.seed)
    warmup = workload.pool(WARMUP_SEED)[0]
    setup_s, import_s = setup_times(args.workload, warmup)
    workload.op(warmup, workloads.ReadCounter())

    counter = workloads.ReadCounter()
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        untraced, _ = run_loop(workload, pool, args.seconds / 2.0, workloads.ReadCounter())
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, _ = run_loop(workload, pool, args.seconds / 2.0, counter, tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(OUT, f"spans-{args.workload}.jsonl"))
        ops = untraced + traced
        loop = f"{len(untraced)} ops untraced, then {len(traced)} traced"
    else:
        ops, passes = run_loop(workload, pool, args.seconds, counter)
        metrics = end_to_end(ops, counter, setup_s)
        loop = f"{len(ops)} ops in {passes} passes"

    failed, reasons = count_failures(workload, pool, ops, recorded)
    fixture_failures = fixtures.run_pass(OUT, expected["fixtures"])
    regressions = [k for k in fixture_failures if expected["fixtures"][k]["passed"]]
    if args.trace:
        metrics, shares = per_layer(tracer, traced, untraced, counter, import_s, fixture_failures)

    print(
        f"workload {args.workload}, seed {args.seed} "
        f"({'digests recorded' if recorded else 'no recorded digests: invariant + repeat checks'}), "
        f"{len(pool)} scenarios per pass, closed loop, 1 client: {loop}"
    )
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:9s} {note}")
    if args.trace:
        for by, text in shares.items():
            print(f"  self-time share by {by}: {text}")
    print(f"  fail_ratio {failed}/{len(ops)} = {failed / len(ops):.4g}")
    for reason in reasons[:10]:
        print(f"    {reason}")
    print(f"  fixture_fail {len(fixture_failures)}/{len(fixtures.COMMANDS)}")
    for name, reason in fixture_failures.items():
        known = "" if name in regressions else " (failing when the digests were recorded)"
        print(f"    {name}: {reason}{known}")
    result = {
        "correct": failed == 0 and not regressions,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
