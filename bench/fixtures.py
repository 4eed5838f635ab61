"""Fixture pass: every documented CLI command on every fixture it applies to.

Runs in-process through ``specsweep.cli.main`` with ``--out`` in a temporary
directory and compares each report's result sections with the digests in
``expected.json``. ``tool_version``, ``scenario_hash`` and ``config`` are
left out: schema refactors may change them legitimately.
"""

import contextlib
import io
import json
import os
import tempfile

from specsweep import cli, fixture_path

import workloads

FIXTURES = ("route_a.json", "route_b.json", "route_c.json", "xtalk_5slot.json", "xtalk_mixed.json")
COMMANDS = (
    [("sweep", f) for f in FIXTURES]
    + [("diagnose", f) for f in FIXTURES]
    + [("recommend", "route_c.json")]
    + [("crosstalk", f) for f in FIXTURES if f.startswith("xtalk")]
    + [("validate", f) for f in FIXTURES]
)
ENVELOPE = ("tool_version", "scenario_hash", "config")


def key(command, fixture):
    return f"{command} {fixture}"


def run_command(command, fixture, tmp):
    """(result digest or None, error message or None) of one CLI command."""
    argv = [command, "--scenario", str(fixture_path(fixture))]
    out = os.path.join(tmp, f"{command}-{fixture}")
    if command != "validate":
        argv += ["--out", out]
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is a failure to count, not to stop on
        return None, f"{type(exc).__name__}: {exc}"
    if code != 0:
        return None, f"exit {code}: {stderr.getvalue().strip()}"
    if command == "validate":
        if not stdout.getvalue().startswith("ok "):
            return None, f"unexpected output {stdout.getvalue()!r}"
        return None, None
    with open(out) as fh:
        body = json.load(fh)
    return workloads.digest({k: v for k, v in body.items() if k not in ENVELOPE}), None


def run_pass(tmp_parent, expected):
    """Failures as {command key: reason}; a digest mismatch is a failure."""
    failures = {}
    with tempfile.TemporaryDirectory(dir=tmp_parent, prefix="fixtures-") as tmp:
        for command, fixture in COMMANDS:
            got, error = run_command(command, fixture, tmp)
            want = expected[key(command, fixture)]["digest"]
            if error is None and got != want:
                error = f"result digest {got} != recorded {want}"
            if error is not None:
                failures[key(command, fixture)] = error
    return failures
