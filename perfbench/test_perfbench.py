"""Tests of the benchmark itself: python3 -m pytest perfbench

The smoke runs use tiny grids (--smoke) and a short measuring window,
so all three workloads run in a few seconds each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import TARGETS, Tracer, _resolve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layer metric -> workloads on which it must be non-zero (the layer is
# exercised there); see README.md, "Which layer moves which number".
EXERCISED = {
    "config.parse_s": ("spectrum-grid", "gain-sweep", "compare-grid"),
    "materials.index_s": ("gain-sweep", "compare-grid"),
    "materials.index_points": ("gain-sweep", "compare-grid"),
    "layerstack.coeff_s": ("gain-sweep", "compare-grid"),
    "layerstack.enhance_s": ("gain-sweep", "compare-grid"),
    "spectra.build_batch_s": ("gain-sweep", "compare-grid"),
    "spectra.build_batch_calls": ("gain-sweep", "compare-grid"),
    "rigorous.interaction_s": ("gain-sweep", "compare-grid"),
    "rigorous.boundary_s": ("gain-sweep", "compare-grid"),
    "rigorous.solve_s": ("gain-sweep", "compare-grid"),
    "rigorous.probs_s": ("gain-sweep", "compare-grid"),
    "rigorous.matrix_bytes": ("gain-sweep", "compare-grid"),
    "simplified.eval_s": ("spectrum-grid", "compare-grid"),
    "spectra.reduce_s": ("spectrum-grid", "compare-grid"),
    "spectra.parallel_eff": ("compare-grid",),
    "spectra.masked_frac": ("spectrum-grid", "compare-grid"),
    "cli.write_s": ("spectrum-grid", "compare-grid"),
    "cli.write_bytes": ("spectrum-grid", "compare-grid"),
    "cli.write_rows": ("spectrum-grid", "compare-grid"),
    "cli.write_mb_per_s": ("spectrum-grid", "compare-grid"),
}
RIGOROUS_ONLY = [name for name in EXERCISED if name.startswith("rigorous.")]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def smoke():
    """(workload, trace) -> parsed result line of one smoke run."""
    results = {}
    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            proc = bench(
                "--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", trace, "--smoke",
            )
            assert proc.returncode == 0, proc.stderr
            results[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def test_spec_names_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_end_to_end_metrics_match_spec(smoke, workload):
    result = smoke[workload, "0"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_layer_metrics_match_spec(smoke, workload):
    result = smoke[workload, "1"]
    # Traced invocations are byte-checked against the untraced reference.
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    for name, workloads in EXERCISED.items():
        if workload in workloads:
            assert metrics[name]["value"] > 0, name
    if workload == "spectrum-grid":
        assert all(metrics[name]["value"] == 0 for name in RIGOROUS_ONLY)


def test_default_seed_is_the_readme_config():
    text = run.workload_config(run.WORKLOADS["spectrum-grid"], run.DEFAULT_SEED)
    assert "thickness_um = 10.15\n" in text and "wavelength_nm = 788.0\n" in text
    assert "lambda_count = 512\n" in text and "theta_count = 256\n" in text
    gain = run.workload_config(run.WORKLOADS["gain-sweep"], run.DEFAULT_SEED)
    assert "lambda_count = 8192\n" in gain


def test_other_seeds_perturb_geometry_only():
    workload = run.WORKLOADS["compare-grid"]
    base = run.workload_config(workload, run.DEFAULT_SEED)
    seeded = run.workload_config(workload, 3)
    assert seeded == run.workload_config(workload, 3)
    assert seeded != run.workload_config(workload, 4)
    changed = [
        (a, b) for a, b in zip(base.splitlines(), seeded.splitlines()) if a != b
    ]
    assert [a.split(" = ")[0] for a, _b in changed] == ["thickness_um", "wavelength_nm"]
    for a, b in changed:
        assert float(b.split(" = ")[1]) == pytest.approx(float(a.split(" = ")[1]), rel=0.011)


def test_output_check_rejects_changed_bytes(tmp_path):
    (tmp_path / "a.csv").write_text("# header\nx,y\n1,2\n")
    check = run.OutputCheck(tmp_path, {"a.csv": 1})
    assert check(run.Invocation(hashes={"a.csv": "h1"}))
    assert check(run.Invocation(hashes={"a.csv": "h1"}))
    changed = run.Invocation(hashes={"a.csv": "h2"})
    assert not check(changed) and "a.csv" in changed.error


@pytest.mark.parametrize(
    "body, problem",
    [("x,y\n1,2\n3,4\n", "2 data rows"), ("x,y\n1,nan\n", "non-finite"), ("x,y\n1,2x\n", "unparsable")],
)
def test_output_check_rejects_bad_content(tmp_path, body, problem):
    (tmp_path / "a.csv").write_text("# header\n" + body)
    assert problem in run.check_content(tmp_path, {"a.csv": 1})


def test_tracer_fails_loudly_on_renamed_layer():
    from spdc_etalon import spectra

    original = spectra.scattering_matrix
    tracer = Tracer(
        targets=(
            ("spdc_etalon.spectra", "scattering_matrix", "rigorous.solve", None),
            ("spdc_etalon.spectra", "scattering_matrix_renamed", "rigorous.solve", None),
        )
    )
    with pytest.raises(LookupError, match="scattering_matrix_renamed"):
        with tracer.installed():
            pass
    assert spectra.scattering_matrix is original


def _current(target):
    owner, key, _layer, _counter = target
    container = _resolve(owner.removesuffix("[]"))
    return container[key] if owner.endswith("[]") else getattr(container, key)


def test_tracer_restores_every_target_after_an_error():
    originals = [_current(t) for t in TARGETS]
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert all(_current(t) is not o for t, o in zip(TARGETS, originals))
            raise RuntimeError("boom")
    assert all(_current(t) is o for t, o in zip(TARGETS, originals))


def test_tracer_is_thread_safe():
    """More threads than cores, a short switch interval, nested spans."""
    tracer = Tracer(targets=())
    inner = tracer.wrap("inner", lambda x: x + 1, lambda t, args, result: t.add("n", 1))
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    threads, calls = 8, 300

    def work():
        for i in range(calls):
            assert outer(i) == 2 * (i + 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert tracer.counts["n"] == threads * calls
    assert len(tracer.spans) == 2 * threads * calls
    for layer, _tid, start, end, own in tracer.spans:
        assert -1e-9 <= own <= end - start
    outer_self = sum(s[4] for s in tracer.spans if s[0] == "outer")
    outer_total = sum(s[3] - s[2] for s in tracer.spans if s[0] == "outer")
    inner_total = sum(s[3] - s[2] for s in tracer.spans if s[0] == "inner")
    assert outer_self == pytest.approx(outer_total - inner_total, abs=1e-6)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "spectrum-grid", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
