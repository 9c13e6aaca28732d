"""The CLI's allocator policy (`cli._pin_allocator_policy`).

Every test runs the CLI in fresh interpreters: the policy is process
wide, and a process that has already run a sweep would hide its effect.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spdc_etalon
from conftest import EXPERIMENT_CONFIG, config_text

# argv: "on" | "off", then the CLI arguments.  "off" patches the policy
# to a no-op.  The last stdout line is the minor faults taken in `main`
# and its wall time in seconds.
CHILD = """
import resource, sys, time
from spdc_etalon import cli
if sys.argv[1] == "off":
    cli._pin_allocator_policy = lambda: None
before, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
code = cli.main(sys.argv[2:])
wall = time.perf_counter() - start
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, wall)
sys.exit(code)
"""

# 160 x 256 pixels: two chunks of the sweep, one per worker at --threads 2.
TWO_CHUNKS = config_text(lambda_count=160, theta_count=256)


def run_cli(script, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(spdc_etalon.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120
    )


def glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


@pytest.mark.parametrize(
    "command, flags, text",
    [
        ("spectrum", (), TWO_CHUNKS),
        ("compare", ("--threads", "1"), TWO_CHUNKS),
        ("compare", ("--threads", "2"), TWO_CHUNKS),
        ("gain-curve", (), config_text(lambda_count=512, theta_count=8)),
    ],
    ids=["spectrum", "compare-threads-1", "compare-threads-2", "gain-curve"],
)
def test_policy_changes_no_output_byte(tmp_path, command, flags, text):
    config = tmp_path / "run.ini"
    config.write_text(text, encoding="utf-8")
    written = {}
    for policy in ("on", "off"):
        out = tmp_path / policy / "out.csv"
        out.parent.mkdir()
        proc = run_cli(CHILD, policy, command, "--config", str(config), "--out", str(out), *flags)
        assert proc.returncode == 0, proc.stderr
        written[policy] = {p.name: p.read_bytes() for p in sorted(out.parent.iterdir())}
    assert len(written["on"]) == (3 if command == "compare" else 1)
    assert written["on"] == written["off"]


@pytest.mark.skipif(not glibc(), reason="the policy applies on glibc only")
def test_policy_at_least_halves_the_minor_faults_of_a_spectrum(tmp_path):
    # The README grid: its 512 x 176 distinct-angle pixels make 11 chunks
    # of 8192, each of which used to fault its freed temporaries back in.
    config = tmp_path / "run.ini"
    config.write_text(EXPERIMENT_CONFIG, encoding="utf-8")
    faults = {}
    for policy in ("on", "off"):
        out = tmp_path / f"{policy}.csv"
        proc = run_cli(
            CHILD, policy, "spectrum", "--config", str(config), "--model", "simplified",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        faults[policy] = int(proc.stdout.splitlines()[-1].split()[0])
    assert faults["on"] <= faults["off"] / 2, faults


@pytest.mark.parametrize(
    "lookup",
    [
        "def fail(*args, **kwargs):\n    raise OSError('no C library')\nctypes.CDLL = fail",
        "ctypes.CDLL = lambda *args, **kwargs: object()",  # no mallopt: AttributeError
        "os.confstr = lambda name: None",  # not glibc
    ],
    ids=["lookup-raises", "no-mallopt", "not-glibc"],
)
def test_main_runs_when_the_allocator_cannot_be_set(tmp_path, lookup):
    config = tmp_path / "run.ini"
    config.write_text(config_text(lambda_count=48, theta_count=8), encoding="utf-8")
    out = tmp_path / "out.csv"
    script = "\n".join(
        ["import ctypes, os, sys", "from spdc_etalon import cli", lookup,
         "sys.exit(cli.main(sys.argv[1:]))"]
    )
    proc = run_cli(script, "spectrum", "--config", str(config), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert out.is_file()
