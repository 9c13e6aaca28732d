"""Shared fixtures: the experimental stack geometry and config texts, and
the child run that repeats tests under baseline SIMD dispatch."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spdc_etalon
from spdc_etalon import LayerStack, material_from_spec, parse_config

EXPERIMENT_CONFIG = """
[stack]
superstrate = air
film = linbo3_e
substrate = silicon
thickness_um = 10.15

[pump]
wavelength_nm = 788.0
waist_um = 5.0
beta_plus = 1e-3

[grid]
lambda_min_nm = 1100.0
lambda_max_nm = 2400.0
lambda_count = 512
theta_min_rad = -0.5
theta_max_rad = 0.5
theta_count = 256
"""


def config_text(**overrides):
    """EXPERIMENT_CONFIG with simple key replacements.

    Overrides use flat keys like lambda_count=64 or beta_plus='2e-3'.
    """
    text = EXPERIMENT_CONFIG
    for key, value in overrides.items():
        found = False
        lines = []
        for line in text.splitlines():
            if line.strip().startswith(key + " ="):
                lines.append(f"{key} = {value}")
                found = True
            else:
                lines.append(line)
        if not found:
            raise KeyError(key)
        text = "\n".join(lines)
    return text


@pytest.fixture
def experiment_config():
    return parse_config(EXPERIMENT_CONFIG)


@pytest.fixture
def small_config():
    return parse_config(config_text(lambda_count=96, theta_count=48))


@pytest.fixture
def experiment_stack():
    return LayerStack(
        superstrate=material_from_spec("air"),
        film=material_from_spec("linbo3_e"),
        substrate=material_from_spec("silicon"),
        thickness_nm=10150.0,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


# argv: the numpy dispatch targets the environment disables, as one
# argument, then the pytest node ids to run.  The child checks that numpy
# runs without those targets and, when OPENBLAS_CORETYPE is set, that
# OpenBLAS runs on that core, then runs the tests.
BASELINE_CHILD = """
import ctypes, glob, os, sys
import numpy as np
import pytest
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
assert not any(__cpu_features__[t] for t in sys.argv[1].split()), "dispatch targets still on"
core = os.environ.get("OPENBLAS_CORETYPE")
if core:
    corename = None
    for lib in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"):
        corename = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", corename)
    if corename is None:
        print(f"OpenBLAS core {core} unverified: no scipy_openblas_get_corename64_ in numpy.libs")
    else:
        corename.restype = ctypes.c_char_p
        assert corename().lower() == core.lower().encode(), f"OpenBLAS core {corename()}"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def run_under_baseline_dispatch(tests, **env):
    """Run the pytest node ids `tests` in a child interpreter with every
    numpy SIMD dispatch target this CPU has switched off and the
    variables `env` set; return its CompletedProcess.

    Which kernels numpy dispatches to changes the bits of exp, log10 and
    complex products, so the child shows what holds on a CPU without
    them.  Skips when numpy dispatches to no target here.
    """
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    targets = [
        t for t in _multiarray_umath.__cpu_dispatch__ if _multiarray_umath.__cpu_features__[t]
    ]
    if not targets:
        pytest.skip("numpy dispatches to no SIMD target on this CPU")
    env = dict(
        os.environ,
        **env,
        NPY_DISABLE_CPU_FEATURES=" ".join(targets),
        PYTHONPATH=str(Path(spdc_etalon.__file__).parents[1]),
    )
    return subprocess.run(
        [sys.executable, "-c", BASELINE_CHILD, " ".join(targets), *tests],
        cwd=Path(__file__).resolve().parents[1], env=env, capture_output=True, text=True,
        timeout=300,
    )
