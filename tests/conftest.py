"""Shared fixtures: the experimental stack geometry and config texts."""

import numpy as np
import pytest

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
