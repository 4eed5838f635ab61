"""Re-record bench/expected.json: op digests per seed and fixture digests.

    python3 bench/record.py

Run from the repository root when the program's outputs change on purpose,
and say so in CHANGES.md. Fixture commands that fail are recorded with
``"passed": false``; a diagnose command's digest then comes from the same
pipeline run through the library (with numpy scalars converted), so the
fixture pass can confirm the CLI once it works.
"""

import json
import os
import sys
import tempfile

import run  # first: puts the checkout's src/ on sys.path
import fixtures
import workloads
from specsweep import fixture_path

with open(os.path.join(run.BENCH, "design.json")) as fh:
    HELD_OUT = json.load(fh)["seeds"]["held_out"]
SEEDS = tuple(range(32))


def record_fixtures():
    out = {}
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="record-") as tmp:
        for command, fixture in fixtures.COMMANDS:
            got, error = fixtures.run_command(command, fixture, tmp)
            if error is not None and command == "diagnose":
                text = fixture_path(fixture).read_text()
                got = workloads.digest(workloads.op_diagnose(text, workloads.ReadCounter()))
            out[fixtures.key(command, fixture)] = {"digest": got, "passed": error is None}
    return out


def record_workload(name, seed):
    workload = workloads.WORKLOADS[name]
    pool = workload.pool(seed)
    digests = []
    for text in pool:
        raw = workload.op(text, workloads.ReadCounter())
        workload.check(json.loads(text), json.loads(raw))
        digests.append(workloads.digest(raw))
    return digests


def main():
    os.makedirs(run.OUT, exist_ok=True)
    expected = {
        "seeds": [*SEEDS, HELD_OUT],
        "fixtures": record_fixtures(),
        "workloads": {
            name: {str(seed): record_workload(name, seed) for seed in (*SEEDS, HELD_OUT)}
            for name in workloads.WORKLOADS
        },
    }
    with open(os.path.join(run.BENCH, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    failing = [k for k, v in expected["fixtures"].items() if not v["passed"]]
    print(f"recorded {len(SEEDS) + 1} seeds x {len(workloads.WORKLOADS)} workloads; failing fixtures: {failing}")


if __name__ == "__main__":
    sys.exit(main())
