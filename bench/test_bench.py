"""Self-tests of the benchmark: python3 -m pytest bench (from the repository root)."""

import contextlib
import io
import json
import os
from dataclasses import replace

import pytest

import run  # first: puts the checkout's src/ on sys.path
import fixtures
import spans
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _main(*argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run.main(list(argv)) == 0
    return json.loads(stdout.getvalue().strip().splitlines()[-1])


@pytest.fixture
def one_setup_rep(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_the_declared_metrics(one_setup_rep, name, trace):
    result = _main("--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _one_pass(name, seed):
    workload = workloads.WORKLOADS[name]
    pool = workload.pool(seed)
    ops, _ = run.run_loop(workload, pool, 0, workloads.ReadCounter())
    return workload, pool, ops


def _perturb(text):
    """Change the first GSNR in the output by 1e-6 dB."""
    body = json.loads(text)
    section = body.get("sweep") or body["crosstalk"]
    points = section["curves"][0]["points"] if "curves" in section else section["channels"][0]["points"]
    point = next(p for p in points if not p["outage"])
    point["gsnr_db"] += 1e-6
    return json.dumps(body, sort_keys=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_perturbed_output_is_flagged(name):
    seed = 1
    with open(os.path.join(run.BENCH, "expected.json")) as fh:
        recorded = json.load(fh)["workloads"][name][str(seed)]
    workload, pool, ops = _one_pass(name, seed)
    assert run.count_failures(workload, pool, ops, recorded) == (0, [])
    ops[-1].raw = _perturb(ops[-1].raw)
    failed, reasons = run.count_failures(workload, pool, ops, recorded)
    assert failed == 1 and "digest" in reasons[0]


def test_unrecorded_seed_flags_a_repeat_that_differs():
    workload, pool, ops = _one_pass("xtalk_scan", 10_000)
    repeat = run.Op(0, 0.0, _perturb(ops[0].raw), None)
    assert run.count_failures(workload, pool, ops + [repeat], None)[0] == 1


def test_unrecorded_seed_flags_a_broken_invariant():
    workload, pool, ops = _one_pass("xtalk_scan", 10_000)
    body = json.loads(ops[0].raw)
    body["crosstalk"]["channels"][0]["points"][6]["penalty_db"] = 0.5  # offset 0
    ops[0].raw = json.dumps(body)
    failed, reasons = run.count_failures(workload, pool, ops, None)
    assert failed == 1 and "zero penalty on the aligned grid" in reasons[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_identical_traced_and_untraced(name):
    workload = workloads.WORKLOADS[name]
    pool = workload.pool(2)
    untraced = workloads.ReadCounter()
    run.run_loop(workload, pool, 0, untraced)
    traced = workloads.ReadCounter()
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.run_loop(workload, pool, 0, traced, tracer)
    finally:
        tracer.uninstall()
    calls = tracer.summary()[0]
    assert vars(traced) == vars(untraced)
    assert calls["linesim.measure"] == untraced.reads
    assert tracer.outages == untraced.outages
    assert calls[spans.OP_SPAN] == len(pool)


def test_tracer_restores_every_site():
    originals = [spans._resolve(path).__dict__[attr] for path, attr, _ in spans.SITES]
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert [spans._resolve(path).__dict__[attr] for path, attr, _ in spans.SITES] == originals


def test_fixture_pass_accepts_a_working_diagnose(monkeypatch):
    """Recorded diagnose digests match the CLI once the numpy.bool leak is gone."""
    from specsweep import diagnosis

    estimate = diagnosis.estimate_effective_bandwidth

    def plain_bool(*args, **kwargs):
        bw = estimate(*args, **kwargs)
        return replace(bw, degenerate=bool(bw.degenerate))

    monkeypatch.setattr(diagnosis, "estimate_effective_bandwidth", plain_bool)
    with open(os.path.join(run.BENCH, "expected.json")) as fh:
        expected = json.load(fh)["fixtures"]
    os.makedirs(run.OUT, exist_ok=True)
    assert fixtures.run_pass(run.OUT, expected) == {}
