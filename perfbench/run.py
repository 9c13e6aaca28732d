"""Closed-loop benchmark of the spdc-etalon CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload's CLI command again and again, each time in a fresh
interpreter started only after the previous one exited, for S seconds;
before each timed invocation a fixed reference program (`PROBE`) measures
how fast the machine currently is, and the run's times are scaled by it.
Every invocation's CSV bytes are checked (see `OutputCheck`).  Prints a
human-readable summary, then as the last stdout line one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import EXIT_TRACER
from tracer import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC_PACKAGE = ROOT / "src" / "spdc_etalon"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 0
INVOCATION_TIMEOUT_S = 60.0

# The README / tests/conftest.py EXPERIMENT_CONFIG, with the knobs the
# workloads and seeds change left open.
CONFIG_TEMPLATE = """[stack]
superstrate = air
film = linbo3_e
substrate = silicon
thickness_um = {thickness_um}

[pump]
wavelength_nm = {pump_nm}
waist_um = 5.0
beta_plus = 1e-3

[grid]
lambda_min_nm = 1100.0
lambda_max_nm = 2400.0
lambda_count = {lambda_count}
theta_min_rad = -0.5
theta_max_rad = 0.5
theta_count = {theta_count}
"""

# The reference program: numpy only, never the code under test.  It does
# what the workloads spend their time on -- a fresh interpreter, the numpy
# import, 100 MB of fresh memory and 200k float formats -- so its time
# tracks the machine's speed for them, which on the reference machine
# drifts by up to 2x over minutes (see README.md, "Speed reference").
PROBE = (
    "import numpy as np\n"
    "b = np.sqrt(np.ones(12_500_000)) + 1.0\n"
    "_ = ['%.9g' % x for x in b[:200_000].tolist()]\n"
)
PROBE_REFERENCE_S = 0.25  # median probe time on the reference machine, quiet

GAIN_BETA_COUNT = 21  # gain-curve default: 21 beta values from 0.01 to 4
SCHEMES = 4  # ff, bb, fb, bf


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple
    threads: int
    grid: tuple  # (lambda_count, theta_count)
    smoke_grid: tuple
    # Also run the command once at --threads 1, untimed, and require the
    # same bytes as the timed --threads runs.
    check_threads: bool = False

    def pixels(self, lam, theta):
        """Model-pixel evaluations of one invocation."""
        if self.name == "gain-sweep":
            return lam * 2 * GAIN_BETA_COUNT  # rigorous + simplified per beta
        models = 2 if self.name == "compare-grid" else 1
        return lam * theta * models

    def outputs(self, lam, theta):
        """Expected data rows of every CSV file the command writes."""
        if self.name == "compare-grid":
            return {
                f"{self.name}_simplified.csv": lam * theta,
                f"{self.name}_rigorous.csv": lam * theta,
                f"{self.name}_summary.csv": SCHEMES,
            }
        if self.name == "gain-sweep":
            return {f"{self.name}.csv": GAIN_BETA_COUNT}
        return {f"{self.name}.csv": lam * theta}


# Why each workload exists: see README.md in this directory.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("spectrum-grid", ("spectrum", "--model", "simplified"), 1, (512, 256), (64, 40)),
        Workload("gain-sweep", ("gain-curve",), 1, (8192, 256), (256, 8)),
        Workload("compare-grid", ("compare",), 2, (512, 256), (64, 40), check_threads=True),
    )
}


def workload_config(workload, seed, smoke=False):
    """INI text of a workload; the default seed gives the README config."""
    thickness_um, pump_nm = 10.15, 788.0
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        thickness_um = round(thickness_um * (1.0 + rng.uniform(-0.01, 0.01)), 6)
        pump_nm = round(pump_nm + rng.uniform(-0.5, 0.5), 4)
    lam, theta = workload.smoke_grid if smoke else workload.grid
    return CONFIG_TEMPLATE.format(
        thickness_um=thickness_um, pump_nm=pump_nm, lambda_count=lam, theta_count=theta
    )


@dataclass
class Invocation:
    error: str | None = None
    report: bool = False  # the child exited 0 and reported its timings
    setup_s: float = math.nan
    command_s: float = math.nan
    rss_mib: float = math.nan
    layers: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)


def invoke(workload, work, config_path, files, threads, trace):
    """Run the command once in a fresh interpreter and wait for it to exit."""
    out = work / f"{workload.name}.csv"
    for name in files:
        (work / name).unlink(missing_ok=True)
    spawn = time.monotonic()
    args = [
        sys.executable,
        str(HERE / "child.py"),
        repr(spawn),
        "1" if trace else "0",
        *workload.cli_args,
        "--config",
        str(config_path),
        "--threads",
        str(threads),
        "--out",
        str(out),
    ]
    try:
        proc = subprocess.run(
            args, cwd=ROOT, capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return Invocation(error=f"timed out after {INVOCATION_TIMEOUT_S:g} s")
    if proc.returncode == EXIT_TRACER:
        raise SystemExit(f"traced run aborted: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = None
    if proc.returncode != 0 or report is None or report["parsed"] is None:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return Invocation(error=f"exit code {proc.returncode}: {tail}")
    inv = Invocation(
        report=True,
        setup_s=report["parsed"] - report["spawn"],
        command_s=report["done"] - report["parsed"],
        rss_mib=report["maxrss_kib"] / 1024.0,
        layers=report.get("layers", {}),
    )
    for name in files:
        path = work / name
        if not path.is_file():
            inv.error = f"{name} was not written"
            return inv
        inv.hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return inv


class OutputCheck:
    """Byte check of every invocation's CSV files.

    With recorded hashes (default seed, full-size grid) every invocation
    must reproduce them.  Otherwise the first invocation's bytes become
    the reference, after its values were checked to be finite and its
    row counts to match, and every later invocation, at any thread
    count and with or without tracing, must reproduce those bytes.
    """

    def __init__(self, work, rows, golden=None):
        self.work = work
        self.rows = rows
        self.reference = golden
        self.first = True

    def __call__(self, inv):
        if inv.error is None and self.first:
            self.first = False
            inv.error = check_content(self.work, self.rows)
            if self.reference is None and inv.error is None:
                self.reference = dict(inv.hashes)
        if inv.error is None and inv.hashes != self.reference:
            differ = sorted(k for k in self.reference if inv.hashes.get(k) != self.reference[k])
            inv.error = f"output bytes differ from the reference: {', '.join(differ)}"
        return inv.error is None


def check_content(work, rows):
    """Row counts and finite values of freshly written CSV files."""
    for name, expected in rows.items():
        lines = [
            ln for ln in (work / name).read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")
        ]
        if len(lines) - 1 != expected:
            return f"{name}: {len(lines) - 1} data rows, expected {expected}"
        for line in lines[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    if cell.isalpha():  # scheme names in the compare summary
                        continue
                    return f"{name}: unparsable cell {cell!r}"
                if not math.isfinite(value):
                    return f"{name}: non-finite value {cell!r}"
    return None


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)


def probe():
    """Wall time of one run of the reference program in a fresh interpreter."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", PROBE], check=True, timeout=INVOCATION_TIMEOUT_S)
    return time.monotonic() - start


def run_workload(workload, seed, seconds, trace, smoke=False, golden=None):
    """The closed loop: one invocation at a time for `seconds` seconds."""
    lam, theta = workload.smoke_grid if smoke else workload.grid
    rows = workload.outputs(lam, theta)
    # A directory of its own, so runs sharing a checkout do not collide.
    work = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    config_path = work / f"{workload.name}.ini"
    check = OutputCheck(work, rows, golden)
    result = RunResult()

    def attempt(threads, traced):
        inv = invoke(workload, work, config_path, rows, threads, traced)
        result.attempted += 1
        if not check(inv):
            result.failed += 1
            result.errors.append(inv.error)
        return inv

    try:
        config_path.write_text(workload_config(workload, seed, smoke), encoding="utf-8")
        if workload.check_threads:
            # Untimed: the --threads 1 bytes every timed --threads run must match.
            attempt(1, False)
        deadline = time.monotonic() + seconds
        while True:
            result.probes.append(probe())
            # Timings count even when the bytes are wrong; `failed` says so.
            inv = attempt(workload.threads, False)
            if inv.report:
                result.untraced.append(inv)
            if trace:
                inv = attempt(workload.threads, True)
                if inv.report:
                    result.traced.append(inv)
            if time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.reference = check.reference or {}
    return result


def speed_scale(result):
    """Reference over this run's median probe time: < 1 on a slow machine."""
    return PROBE_REFERENCE_S / statistics.median(result.probes)


def end_to_end_metrics(workload, result, smoke=False):
    """Times are scaled to the reference machine's speed by `speed_scale`."""
    lam, theta = workload.smoke_grid if smoke else workload.grid
    scale = speed_scale(result)
    p50 = statistics.median(inv.command_s for inv in result.untraced) * scale
    return {
        "setup_s": (statistics.median(inv.setup_s for inv in result.untraced) * scale, "s"),
        "command_s.p50": (p50, "s"),
        "pixels_per_s": (workload.pixels(lam, theta) / p50, "1/s"),
        "peak_rss_mb": (statistics.median(inv.rss_mib for inv in result.untraced), "MiB"),
        "ok_frac": ((result.attempted - result.failed) / result.attempted, "frac"),
    }


def layer_metrics(result):
    metrics = {
        name: (statistics.median(inv.layers[name] for inv in result.traced), unit)
        for name, unit in UNITS.items()
    }
    overhead = statistics.median(inv.command_s for inv in result.traced) - statistics.median(
        inv.command_s for inv in result.untraced
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, if above p50."""
    n = len(values)
    if n <= 20:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def summary_lines(workload, seed, smoke, result, metrics):
    lam, theta = workload.smoke_grid if smoke else workload.grid
    lines = [
        f"workload {workload.name}  seed {seed}  grid {lam}x{theta}  "
        f"pixels/invocation {workload.pixels(lam, theta)}  threads {workload.threads}",
        f"invocations attempted {result.attempted}  failed {result.failed}  "
        f"failed_frac {result.failed / result.attempted:.4g}  "
        f"timed samples {len(result.untraced)}  traced samples {len(result.traced)}",
    ]
    command = [inv.command_s for inv in result.untraced]
    setup = [inv.setup_s for inv in result.untraced]
    lines.append(
        f"probe median {statistics.median(result.probes):.6g} s  speed scale "
        f"{speed_scale(result):.4g}  unscaled: setup_s {statistics.median(setup):.6g} s  "
        f"command_s.p50 {statistics.median(command):.6g} s"
    )
    tail = tail_percentile(command)
    if tail is not None:
        lines.append(f"command_s.tail (p{tail[0]:.1f}, unscaled) = {tail[1]:.6g} s")
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"error: {err}" for err in result.errors]
    return lines


def record_golden(workload):
    """Write the default-seed hashes of one workload into golden.json."""
    result = run_workload(workload, DEFAULT_SEED, 0.0, trace=False)
    if result.failed:
        raise SystemExit(f"cannot record golden hashes: {result.errors}")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden[workload.name] = result.reference
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny grids, for the benchmark's own tests"
    )
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help="write the workload's default-seed CSV hashes to golden.json and exit",
    )
    args = parser.parse_args(argv)

    if not (SRC_PACKAGE / "cli.py").is_file():
        print(f"error: no spdc_etalon sources at {SRC_PACKAGE}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    if args.record_golden:
        record_golden(workload)
        return 0
    golden = None
    if args.seed == DEFAULT_SEED and not args.smoke:
        golden = json.loads(GOLDEN.read_text())[workload.name]
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.smoke, golden)
    if not result.untraced or (args.trace and not result.traced):
        for err in result.errors:
            print(f"error: {err}", file=sys.stderr)
        print("error: no timed invocation completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(result)
    else:
        metrics = end_to_end_metrics(workload, result, args.smoke)
    for line in summary_lines(workload, args.seed, args.smoke, result, metrics):
        print(line)
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
