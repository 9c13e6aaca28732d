import configparser
import hashlib
import io
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import spdc_etalon
from spdc_etalon import (
    ConfigError,
    RunConfig,
    cli,
    detection_spectrum,
    parse_config,
    serialize_config,
    spectra,
)
from spdc_etalon.cli import COMMANDS, main
from spdc_etalon.config import DETECTION_SCHEMES, MODELS
from spdc_etalon.materials import POLARIZATIONS
from spdc_etalon.simplified import SCHEMES
from conftest import EXPERIMENT_CONFIG, config_text, run_under_baseline_dispatch

SMALL = config_text(lambda_count=48, theta_count=8)


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def load_data(path):
    """Data rows of one output CSV, skipping header and column names."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), np.array(
        [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    )


# ---- parsing ----------------------------------------------------------------


def test_parse_experiment_geometry():
    cfg = parse_config(EXPERIMENT_CONFIG)
    assert cfg.thickness_um == 10.15
    assert cfg.pump_wavelength_nm == 788.0
    assert cfg.pump_waist_um == 5.0
    assert cfg.beta_plus == 1e-3
    assert cfg.lambda_count == 512 and cfg.theta_count == 256
    stack = cfg.build_stack()
    assert stack.thickness_nm == 10150.0


def test_parse_rejects_both_beta_routes():
    text = SMALL.replace(
        "beta_plus = 1e-3", "beta_plus = 1e-3\nfield_v_per_m = 1e7"
    ).replace("thickness_um = 10.15", "thickness_um = 10.15\nchi2_pm_per_v = 30.0")
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(text)


def test_parse_rejects_missing_beta_route():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(SMALL.replace("beta_plus = 1e-3", ""))


def test_parse_accepts_chi2_route():
    text = SMALL.replace("beta_plus = 1e-3", "field_v_per_m = 5e7").replace(
        "thickness_um = 10.15", "thickness_um = 10.15\nchi2_pm_per_v = 30.0"
    )
    cfg = parse_config(text)
    assert cfg.beta_plus is None
    assert cfg.chi2_pm_per_v == 30.0


def test_parse_rejects_equal_bounds():
    with pytest.raises(ConfigError, match="lambda_min_nm"):
        parse_config(config_text(lambda_max_nm=1100.0))


def test_parse_rejects_small_counts():
    with pytest.raises(ConfigError, match="count"):
        parse_config(config_text(lambda_count=1))


def test_parse_unknown_key_is_error():
    with pytest.raises(ConfigError, match="grid.lambda_step"):
        parse_config(SMALL.replace("lambda_count = 48", "lambda_count = 48\nlambda_step = 2"))


def test_parse_unknown_section_is_error():
    with pytest.raises(ConfigError, match="plotting"):
        parse_config(SMALL + "\n[plotting]\ncolormap = hot\n")


def test_parse_unknown_material_names_key():
    with pytest.raises(ConfigError, match="stack.film"):
        parse_config(config_text(film="vibranium"))


def test_parse_missing_required_key():
    with pytest.raises(ConfigError, match="pump.waist_um"):
        parse_config(SMALL.replace("waist_um = 5.0", ""))


def test_malformed_config_exits_2(tmp_path, capsys):
    # configparser's own error, under the config error prefix.
    cfg_path = write_config(tmp_path, SMALL + "\n[stack]\nfilm = silicon\n")
    assert main(["transmission", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        "config error: malformed config: While reading from '<string>' [line 20]: "
        "section 'stack' already exists\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def test_missing_required_section_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL[: SMALL.index("[grid]")])  # its last section
    assert main(["transmission", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "config error: missing required section [grid]\n"


def test_parse_bad_number_reports_path():
    with pytest.raises(ConfigError, match="grid.theta_count"):
        parse_config(config_text(theta_count="many"))


FLOAT_KEYS = [
    ("stack", "thickness_um"),
    ("stack", "chi2_pm_per_v"),
    ("pump", "wavelength_nm"),
    ("pump", "waist_um"),
    ("pump", "beta_plus"),
    ("pump", "field_v_per_m"),
    ("grid", "lambda_min_nm"),
    ("grid", "lambda_max_nm"),
    ("grid", "theta_min_rad"),
    ("grid", "theta_max_rad"),
    ("detection", "envelope_center_nm"),
    ("detection", "envelope_fwhm_nm"),
    ("detection", "envelope_amplitude"),
    ("detection", "efficiency_ratio"),
    ("gain_curve", "beta_min"),
    ("gain_curve", "beta_max"),
]


def test_float_keys_cover_the_schema():
    from spdc_etalon.config import _SCHEMA

    text_keys = {"superstrate", "film", "substrate", "kind", "schemes", "polarization",
                 "scheme", "path"}
    int_keys = {"lambda_count", "theta_count", "count"}
    numeric = {(s, k) for s, k in _SCHEMA if k not in text_keys | int_keys}
    assert numeric == set(FLOAT_KEYS)


NON_FINITE = [(s, k, raw) for s, k in FLOAT_KEYS for raw in ("nan", "inf", "-inf", "1e999")]
NON_FINITE += [("pump", "beta_plus", "nan+1j"), ("pump", "beta_plus", "1+infj")]


@pytest.mark.parametrize("section,key,raw", NON_FINITE)
def test_parse_rejects_non_finite_numbers(section, key, raw):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(SMALL)
    parser.setdefault(section, {})
    parser[section][key] = raw
    text = io.StringIO()
    parser.write(text)
    with pytest.raises(ConfigError) as err:
        parse_config(text.getvalue())
    assert str(err.value) == f"{section}.{key}: expected a finite number, got {raw!r}"


@pytest.mark.parametrize("section,key", FLOAT_KEYS)
def test_validate_rejects_non_finite_numbers(section, key):
    # `dataclasses.replace` bypasses the parser, so `validate` itself
    # refuses a non-finite number, before any check that would misread it.
    from spdc_etalon.config import _SCHEMA

    cfg = parse_config(SMALL)
    name = _SCHEMA[section, key].name
    bad = [np.nan, np.inf, -np.inf]
    if key == "beta_plus":
        bad += [complex(1.0, np.nan), complex(1.0, -np.inf)]
    for value in bad:
        with pytest.raises(ConfigError) as err:
            replace(cfg, **{name: value}).validate()
        assert str(err.value) == f"{section}.{key}: must be finite"


# One RunConfig override per input rule, with the exact message `validate`
# gives.  The material specs are judged by `MaterialModel` and reported
# under their stack key.
_PRESETS_HINT = (
    "['air', 'linbo3_e', 'linbo3_o', 'silicon'], or use constant:/sellmeier:/tabulated: forms"
)
VALIDATE_RULES = {
    "thickness": ({"thickness_um": 0.0}, "stack.thickness_um: must be positive"),
    "pump-wavelength": ({"pump_wavelength_nm": -788.0}, "pump.wavelength_nm: must be positive"),
    "waist": ({"pump_waist_um": 0.0}, "pump.waist_um: must be positive"),
    "lambda-min": ({"lambda_min_nm": 0.0}, "grid.lambda_min_nm: must be positive"),
    "theta-order": (
        {"theta_min_rad": 0.5, "theta_max_rad": -0.5},
        "grid: theta_min_rad must be < theta_max_rad",
    ),
    "model": ({"model": "exact"}, f"model.kind: must be one of {MODELS}"),
    "polarization": ({"polarization": "x"}, "model.polarization: must be 's' or 'p'"),
    "field-without-chi2": (
        {"beta_plus": None, "pump_field_v_per_m": 5e7},
        "pump.field_v_per_m requires stack.chi2_pm_per_v to be set",
    ),
    "efficiency-ratio": (
        {"efficiency_ratio": 0.0},
        "detection.efficiency_ratio: must be positive",
    ),
    "envelope-fwhm": (
        {"envelope_center_nm": 1576.0, "envelope_fwhm_nm": -1.0},
        "detection.envelope_fwhm_nm: must be positive",
    ),
    # Two faults: a field's own rule is checked before the pair rule.
    "envelope-fwhm-without-center": (
        {"envelope_fwhm_nm": -1.0},
        "detection.envelope_fwhm_nm: must be positive",
    ),
    "envelope-amplitude": (
        {"envelope_amplitude": 0.0},
        "detection.envelope_amplitude: must be positive",
    ),
    "detection-scheme": (
        {"detection_scheme": "sideways"},
        f"detection.scheme: must be one of {DETECTION_SCHEMES}",
    ),
    "gain-beta-min": ({"gain_beta_min": 0.0}, "gain_curve: need 0 < beta_min < beta_max"),
    "gain-beta-order": (
        {"gain_beta_min": 2.0, "gain_beta_max": 1.0},
        "gain_curve: need 0 < beta_min < beta_max",
    ),
    "gain-count": ({"gain_beta_count": 1}, "gain_curve.count: must be >= 2"),
    "constant-material": (
        {"film": "constant:abc"},
        "stack.film: bad constant material 'constant:abc': "
        "could not convert string to float: 'abc'",
    ),
    "constant-material-negative": (
        {"superstrate": "constant:-1"},
        "stack.superstrate: bad constant material 'constant:-1': constant index must be positive",
    ),
    "sellmeier-material-parts": (
        {"film": "sellmeier:1.0:2.0"},
        "stack.film: bad sellmeier material 'sellmeier:1.0:2.0': "
        "expected offset:b1,..:c1,..[:min_nm,max_nm]",
    ),
    "sellmeier-material-terms": (
        {"film": "sellmeier:1.0:2.0,3.0:0.1"},
        "stack.film: bad sellmeier material 'sellmeier:1.0:2.0,3.0:0.1': "
        "Sellmeier b and c term lists must have equal length",
    ),
    "material-form": (
        {"substrate": "cauchy:1.5"},
        "stack.substrate: unknown material form 'cauchy' in 'cauchy:1.5'",
    ),
    "material-preset": (
        {"film": "vibranium"},
        f"stack.film: unknown material preset 'vibranium'; available: {_PRESETS_HINT}",
    ),
}


@pytest.mark.parametrize("rule", VALIDATE_RULES)
def test_validate_names_each_broken_rule(rule):
    overrides, message = VALIDATE_RULES[rule]
    with pytest.raises(ConfigError) as err:
        replace(parse_config(SMALL), **overrides).validate()
    assert str(err.value) == message


# Material specs that read as materials before `MaterialModel` judged its
# parameters: each failed later, as a numerical error or not at all.
BAD_MATERIAL_SPECS = {
    "constant-nan": (
        "constant:nan",
        "bad constant material {spec!r}: every number must be finite",
    ),
    "sellmeier-range-reversed": (
        "sellmeier:1.0:2.9804,0.5981,8.9543:0.02047,0.0666,416.08:4000,500",
        "bad sellmeier material {spec!r}: validity range must have min_nm < max_nm",
    ),
    "table-row-nan": (
        "tabulated:{table}",
        "bad material table {table!r}: every number must be finite",
    ),
}


@pytest.mark.parametrize("case", BAD_MATERIAL_SPECS)
def test_bad_material_numbers_are_a_config_error(tmp_path, capsys, case):
    table = tmp_path / "n.csv"
    table.write_text("700,3.6\n2000,3.5\n3000,nan\n", encoding="utf-8")
    spec, message = BAD_MATERIAL_SPECS[case]
    spec = spec.format(table=table)
    message = message.format(spec=spec, table=str(table))
    cfg_path = write_config(tmp_path, config_text(lambda_count=32, theta_count=8, film=spec))
    for command in COMMANDS:
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: stack.film: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["n.csv", "run.ini"]


def test_exit_code_non_finite_beta(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL.replace("beta_plus = 1e-3", "beta_plus = inf"))
    out = tmp_path / "gain.csv"
    assert main(["gain-curve", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "config error: pump.beta_plus: expected a finite number, got 'inf'" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_inline_material_forms(tmp_path):
    table = tmp_path / "n.csv"
    table.write_text("# lam_nm, n\n1000,2.0\n3000,2.2\n", encoding="utf-8")
    cfg = parse_config(
        config_text(
            superstrate="constant:1.45",
            film="sellmeier:1.0:2.9804,0.5981:0.02047,0.0666:500,4000",
            substrate=f"tabulated:{table}",
        )
    )
    stack = cfg.build_stack()
    assert stack.superstrate.n_const == 1.45
    assert stack.substrate.kind == "tabulated"
    from spdc_etalon import refractive_index

    assert refractive_index(stack.substrate, 2000.0) == pytest.approx(2.1, rel=1e-12)


def test_round_trip_exact():
    for text in (
        EXPERIMENT_CONFIG,
        SMALL.replace("beta_plus = 1e-3", "field_v_per_m = 5e7").replace(
            "thickness_um = 10.15", "thickness_um = 10.15\nchi2_pm_per_v = 30.0"
        ),
        SMALL
        + "\n[detection]\nenvelope_center_nm = 1576.0\nenvelope_fwhm_nm = 250.0\nscheme = backward\n",
        SMALL + "\n[output]\npath = out/spectrum.csv\n",
        # Every optional key set.
        SMALL.replace("beta_plus = 1e-3", "beta_plus = 1e-3-2.5e-4j")
        + "\n[model]\nkind = rigorous\nschemes = bb, fb\npolarization = p\n"
        + "\n[detection]\nenvelope_center_nm = 1576.0\nenvelope_fwhm_nm = 250.0\n"
        + "envelope_amplitude = 2.5\nefficiency_ratio = 0.4\nscheme = forward_backward\n"
        + "\n[gain_curve]\nbeta_min = 0.05\nbeta_max = 3.0\ncount = 7\n"
        + "\n[output]\npath = out/all.csv\n",
    ):
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg


def test_key_table_names_every_field_once():
    # Every field declares a (section, key), and no two fields the same one.
    declared = Counter(f.metadata["ini"][:2] for f in fields(RunConfig))
    assert len(declared) == len(fields(RunConfig))
    assert set(declared.values()) == {1}


def _random_config(rng, i):
    """A valid RunConfig with random values, a random subset of the
    optional keys set and one of the two beta routes."""

    def number(lo, hi):
        # Many significant digits and exponents, so `repr` has work to do.
        return float(rng.uniform(1.0, 10.0) * 10.0 ** rng.integers(lo, hi))

    def pick(choices):
        return choices[rng.integers(len(choices))]

    materials = ("air", "linbo3_e", "linbo3_o", "silicon", f"constant:{number(0, 1)!r}")
    lam = sorted(rng.uniform(1e-3, 1e4, 2).tolist())  # the bounds must be positive
    theta = sorted(rng.uniform(-np.pi / 2, np.pi / 2, 2).tolist())
    values = dict(
        superstrate=pick(materials),
        film=pick(materials),
        substrate=pick(materials),
        thickness_um=number(-3, 4),
        pump_wavelength_nm=number(1, 4),
        pump_waist_um=number(-1, 3),
        lambda_min_nm=lam[0],
        lambda_max_nm=lam[1],
        lambda_count=int(rng.integers(2, 10**6)),
        theta_min_rad=theta[0],
        theta_max_rad=theta[1],
        theta_count=int(rng.integers(2, 10**6)),
    )
    if rng.random() < 0.5:
        beta = complex(number(-6, 1), number(-6, 1) * pick((-1.0, 0.0, 1.0)))
        values["beta_plus"] = beta if beta.imag or rng.random() < 0.5 else beta.real
        if rng.random() < 0.3:
            values["chi2_pm_per_v"] = number(0, 3)
    else:
        values["chi2_pm_per_v"] = number(0, 3)
        values["pump_field_v_per_m"] = number(4, 9)
    optional = dict(
        model=pick(MODELS),
        schemes=tuple(rng.permutation(SCHEMES)[: rng.integers(1, len(SCHEMES) + 1)].tolist()),
        polarization=pick(POLARIZATIONS),
        envelope_center_nm=number(2, 4),
        envelope_fwhm_nm=number(0, 3),
        envelope_amplitude=number(-2, 2),
        efficiency_ratio=number(-2, 2),
        detection_scheme=pick(DETECTION_SCHEMES),
        # Either bound alone is valid against the other's default.
        gain_beta_min=number(-4, -2),
        gain_beta_max=number(0, 3),
        gain_beta_count=int(rng.integers(2, 1000)),
        output_path=f"out/run_{i}.csv",
    )
    for name, value in optional.items():
        if rng.random() < 0.5:
            values[name] = value
    if ("envelope_center_nm" in values) != ("envelope_fwhm_nm" in values):
        values.pop("envelope_center_nm", None)
        values.pop("envelope_fwhm_nm", None)
    # A library caller may hold numpy scalars; they serialize as the numbers.
    numpy_types = {float: np.float64, int: np.int64, complex: np.complex128}
    for name, value in values.items():
        if type(value) in numpy_types and rng.random() < 0.3:
            values[name] = numpy_types[type(value)](value)
    return RunConfig(**values).validate()


def test_random_configs_round_trip_in_field_order():
    rng = np.random.default_rng(20261019)
    declared = [(f, f.metadata["ini"][:2]) for f in fields(RunConfig)]
    numpy_fields = set()
    for i in range(300):
        cfg = _random_config(rng, i)
        numpy_fields |= {type(v) for v in vars(cfg).values() if isinstance(v, np.generic)}
        text = serialize_config(cfg)
        assert parse_config(text) == cfg, text
        # Keys in field order, each under its section, the sections in
        # the order of their first field.
        keys = [key for f, key in declared if getattr(cfg, f.name) is not None]
        sections = list(dict.fromkeys(section for section, _ in keys))
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(text)
        written = [(section, key) for section in parser.sections() for key in parser[section]]
        assert written == sorted(keys, key=lambda sk: sections.index(sk[0])), text
    assert numpy_fields == {np.float64, np.int64, np.complex128}


# ---- CLI commands -------------------------------------------------------------


def run_cli(tmp_path, *argv):
    return main([*argv])


def test_spectrum_command_writes_csv(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL)
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    assert header[0].startswith("# spdc-etalon 0.1")
    assert any("thickness_um = 10.15" in ln for ln in header)
    cols = lines[len(header)].split(",")
    assert cols == ["lambda_nm", "theta_deg", "ff", "bb", "fb", "bf", "masked"]
    cols2, data = load_data(out)
    assert data.shape == (48 * 8, 7)
    # 9 significant digits in the data section.
    first = lines[len(header) + 1].split(",")
    assert len(first[0]) <= 15


def test_spectrum_nonresonant_model_flag(tmp_path):
    # Index-matched boundaries: the nonresonant grid is the bare
    # phase-matching/pump-profile probability, unit-max normalized.
    text = config_text(
        lambda_count=48, theta_count=8, superstrate="linbo3_e", substrate="linbo3_e"
    )
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "nr.csv"
    assert (
        main(
            [
                "spectrum",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--model",
                "nonresonant",
                "--scheme",
                "ff",
            ]
        )
        == 0
    )
    cols, data = load_data(out)
    assert cols == ["lambda_nm", "theta_deg", "ff", "masked"]
    live = data[data[:, -1] == 0]
    assert live[:, 2].max() == pytest.approx(1.0, rel=1e-9)
    assert np.all(live[:, 2] >= 0.0)


@pytest.mark.parametrize(
    "flags, named",
    [((), "not bb,fb,bf"), (("--scheme", "bb"), "not bb"), (("--scheme", "ff,fb"), "not fb")],
)
def test_spectrum_nonresonant_model_has_only_ff(tmp_path, capsys, flags, named):
    # Its other columns would be zeros that read as intensities, and a
    # lone other scheme an all-zero grid that cannot be normalized.
    cfg_path = write_config(tmp_path, config_text(lambda_count=96, theta_count=24))
    out = tmp_path / "nr.csv"
    args = ["spectrum", "--config", str(cfg_path), "--out", str(out), "--model", "nonresonant"]
    assert main([*args, *flags]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: model.schemes: the nonresonant model has only ff, {named}\n"
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_threads_below_one_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL)
    argv = ["transmission", "--config", str(cfg_path), "--threads", "0"]
    assert main([*argv, "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == "config error: --threads: must be >= 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def test_output_path_key_is_used_without_out(tmp_path, capsys):
    out = tmp_path / "from_config.csv"
    cfg_path = write_config(tmp_path, SMALL + f"\n[output]\npath = {out}\n")
    assert main(["transmission", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["from_config.csv", "run.ini"]


def test_spectrum_rerun_is_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, SMALL)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_spectrum_threads_do_not_change_output(tmp_path):
    cfg_path = write_config(tmp_path, config_text(lambda_count=128, theta_count=32))
    out1 = tmp_path / "t1.csv"
    out8 = tmp_path / "t8.csv"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert (
        main(
            ["spectrum", "--config", str(cfg_path), "--out", str(out8), "--threads", "8"]
        )
        == 0
    )
    b1 = out1.read_bytes()
    b8 = out8.read_bytes()
    assert b1 == b8


def test_compare_command(tmp_path, capsys):
    cfg_path = write_config(tmp_path, config_text(lambda_count=96, theta_count=16))
    out = tmp_path / "cmp.csv"
    code = main(
        ["compare", "--config", str(cfg_path), "--out", str(out), "--scheme", "ff"]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "r_squared[ff]" in captured
    rr = float(captured.split("r_squared[ff] =")[1].split()[0])
    assert rr >= 0.999
    for suffix in ("cmp_simplified.csv", "cmp_rigorous.csv", "cmp_summary.csv"):
        assert (tmp_path / suffix).exists()


def test_gain_curve_command(tmp_path):
    text = config_text(lambda_count=64, theta_count=2) + "\n[gain_curve]\nbeta_min = 0.01\nbeta_max = 3.0\ncount = 5\n"
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "gain.csv"
    assert main(["gain-curve", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0].split(",") == [
        "beta_scale",
        "beta_plus_abs",
        "beta_over_half_delta",
        "re_gamma_plus",
        "r_squared",
    ]
    assert len(lines) == 6


def test_gain_curve_survives_exactly_singular_matrices(tmp_path):
    # Far past threshold LAPACK finds some I - rho w exactly singular (10
    # of the 512 wavelengths at beta_scale 200 on the README grid).  The
    # curve is still written; `test_spectra` checks which pixels it masks.
    text = EXPERIMENT_CONFIG + "\n[gain_curve]\nbeta_min = 1\nbeta_max = 200\ncount = 5\n"
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "gain.csv"
    assert main(["gain-curve", "--config", str(cfg_path), "--out", str(out)]) == 0
    _cols, data = load_data(out)
    assert data.shape == (5, 5)
    assert data[-1, 0] == 200.0
    assert np.isfinite(data).all()


def test_gain_curve_fully_masked_beta_names_the_first_such_scale(tmp_path, capsys):
    # From beta_scale 1000 on the rigorous model overflows at every pixel.
    text = (
        config_text(lambda_count=32, theta_count=2)
        + "\n[gain_curve]\nbeta_min = 1\nbeta_max = 10000\ncount = 5\n"
    )
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "gain.csv"
    assert main(["gain-curve", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical error: every pixel of the gain curve is masked at beta_scale 1000;" in err
    assert not out.exists()


def test_transmission_command(tmp_path):
    cfg_path = write_config(tmp_path, config_text(lambda_count=256, theta_count=2))
    out = tmp_path / "trans.csv"
    assert main(["transmission", "--config", str(cfg_path), "--out", str(out)]) == 0
    cols, data = load_data(out)
    assert cols == ["lambda_nm", "transmission", "masked"]
    assert np.all(data[:, 1] <= 1.0 + 1e-12)


def test_transmission_masks_wavelengths_outside_a_material_range(tmp_path):
    # Silicon ends at 4000 nm: those rows are masked like `spectrum` masks
    # its pixels, the rest equal the range-checked Airy transmittance.
    from spdc_etalon import MaterialRangeError
    from spdc_etalon.layerstack import POLE_TOLERANCE, _indices

    cfg_path = write_config(tmp_path, config_text(lambda_max_nm=4500.0, lambda_count=301))
    out = tmp_path / "trans.csv"
    assert main(["transmission", "--config", str(cfg_path), "--out", str(out)]) == 0
    _cols, data = load_data(out)
    trans, masked = data[:, 1], data[:, 2].astype(bool)

    cfg = parse_config(cfg_path.read_text())
    stack = cfg.build_stack()
    lams = cfg.signal_wavelengths()
    inside = lams <= 4000.0
    (t1, _, t2, _), phase, den = spectra._normal_incidence(
        cfg, lams[inside], _indices(stack, lams[inside])
    )
    ref = np.abs(t1 * t2 * np.exp(1j * phase) / den) ** 2
    pole = np.abs(den) < POLE_TOLERANCE
    expected = ~inside
    expected[inside] = pole
    assert np.array_equal(masked, expected)
    assert masked.any() and not masked.all()
    assert np.all(trans[masked] == 0.0)
    assert np.array_equal(trans[~masked], np.array([float(f"{t:.9g}") for t in ref[~pole]]))
    with pytest.raises(MaterialRangeError):
        _indices(stack, 4500.0)


def test_detection_command(tmp_path):
    text = config_text(lambda_count=64, theta_count=2) + (
        "\n[detection]\nenvelope_center_nm = 1576.0\nenvelope_fwhm_nm = 400.0\n"
        "efficiency_ratio = 0.4\nscheme = backward\n"
    )
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "det.csv"
    assert main(["detection", "--config", str(cfg_path), "--out", str(out)]) == 0
    cols, data = load_data(out)
    assert cols == ["lambda_nm", "relative_rate", "masked"]
    assert np.all(data[:, 1] >= 0)


@pytest.mark.parametrize("given, unset", [("center", "fwhm"), ("fwhm", "center")])
def test_detection_envelope_keys_are_set_as_a_pair(tmp_path, capsys, given, unset):
    # One envelope key alone would leave the envelope silently flat.
    value = {"center": "1576.0", "fwhm": "250.0"}[given]
    text = SMALL + f"\n[detection]\nenvelope_{given}_nm = {value}\n"
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "det.csv"
    assert main(["detection", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: detection.envelope_{unset}_nm: required when "
        f"envelope_{given}_nm is set\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_evaluates_the_pump_once(tmp_path, monkeypatch, command):
    # The pump is one point per run: the sweep takes it from its front-end,
    # and the transmission curve never needs it.
    calls = []
    pump_state = spectra._pump_state

    def counted(config):
        calls.append(config)
        return pump_state(config)

    monkeypatch.setattr(spectra, "_pump_state", counted)
    cfg_path = write_config(tmp_path, SMALL)
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == (0 if command == "transmission" else 1)


def test_help_names_every_scheme(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert ",".join(SCHEMES) in out
    assert "/".join(DETECTION_SCHEMES) in out


@pytest.mark.parametrize("scheme", ["forward", "backward", "forward_backward"])
def test_detection_library_equals_cli(tmp_path, scheme):
    # The library call takes the envelope from the config, as the CLI does.
    text = config_text(lambda_count=32, theta_count=2) + (
        "\n[detection]\nenvelope_center_nm = 1576.0\nenvelope_fwhm_nm = 250.0\n"
        f"efficiency_ratio = 0.4\nscheme = {scheme}\n"
    )
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "det.csv"
    assert main(["detection", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    lams, rate, mask = detection_spectrum(parse_config(text))
    assert rows == [["%.9g" % x, "%.9g" % r, "%d" % m] for x, r, m in zip(lams, rate, mask)]


def test_tabulated_material_read_once_per_command(tmp_path, monkeypatch, capsys):
    # The config resolves its material specs once: validation and the run
    # share one read of the table.
    table = tmp_path / "n.csv"
    table.write_text("# lam_nm, n\n700,3.6\n3000,3.4\n", encoding="utf-8")
    cfg_path = write_config(
        tmp_path, config_text(lambda_count=32, theta_count=8, substrate=f"tabulated:{table}")
    )
    reads = []
    loadtxt = np.loadtxt

    def counting_loadtxt(*args, **kwargs):
        reads.append(args[0])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    # --model and --scheme override the parsed config; its table serves the run.
    runs = [[command] for command in COMMANDS] + [
        ["spectrum", "--model", "rigorous"],
        ["detection", "--scheme", "backward"],
    ]
    for args in runs:
        reads.clear()
        out = tmp_path / f"{args[0]}.csv"
        assert main([*args, "--config", str(cfg_path), "--out", str(out)]) == 0
        assert reads == [str(table)], args

    # A missing or malformed table is still a config error naming its key.
    out = tmp_path / "x.csv"
    capsys.readouterr()
    for content, message in ((None, "cannot read"), ("1000,2.0\n", "bad material table")):
        table.unlink(missing_ok=True)
        if content is not None:
            table.write_text(content, encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: stack.substrate: {message}")


# SHA-256 of every file each command writes for SMALL.  Output bytes are
# part of the CLI contract: change these only with a change meant to
# alter them.
GOLDEN_SMALL = {
    "spectrum.csv": "41b1c8ea5c570a0e168a0049ddcc03454dcd6bc4a016be3fbbb9945d149ae3c9",
    "compare_simplified.csv": "fda780d69ce5f4ab889d8adf3d21e00d2959b59b9a3cfffb784bd30d9042b681",
    "compare_rigorous.csv": "1a6b880f5a3b4ed2e3b464eab75a7c59e2525ea72d4b9b4d5441c4a82bb59ff5",
    "compare_summary.csv": "c371c543f1a5aa63a743fd20ac67e6e5d0e47d7d7fbc82c784b75849607b9114",
    "gain-curve.csv": "9a7c04c2d4463b4f1da7a781b86ad0ff66bb8684214dfe6398d4611b98f09bb4",
    "transmission.csv": "e1118b260e1e44d7744ec3220d3b61def74cd699889a4b6c12e31c81c56825c5",
    "detection.csv": "c7e0ffbcb83e4a0572dcb73bad2b4394c84456dc7946d27b3c913ada760de54b",
}


def test_every_command_golden_bytes(tmp_path):
    cfg_path = write_config(tmp_path, SMALL)
    for command in ("spectrum", "compare", "gain-curve", "transmission", "detection"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert written == GOLDEN_SMALL


# Routes GOLDEN_SMALL does not reach: the chi2/field interaction strength,
# p polarization, and a 775 nm pump on a 5.1237 um film, where the pump
# phase L 2 pi n / lam and L (2 pi n / lam cos 0), equal at 788 nm /
# 10.15 um, differ in the last bit.  Recorded with the code before the
# sweep kernels were shared with the scalar API.  The detection envelope
# was recorded when the CLI still built it outside `detection_spectrum`.
GOLDEN_ROUTES = {
    "chi2-field": (
        SMALL.replace("beta_plus = 1e-3", "field_v_per_m = 5e7").replace(
            "thickness_um = 10.15", "thickness_um = 10.15\nchi2_pm_per_v = 30.0"
        ),
        {
            "spectrum.csv": "ba33f0e10a3735d45a82879653c4fb5226e9fe1040d9a3b4ebcda8b79a0c6e31",
            "compare_simplified.csv": "e49734ceec0e73d2be91bc9e03a2b57d9c74ce09e54c6fee3f79b19d5da22a4e",
            "compare_rigorous.csv": "b81a03ccc1da41aee0d68c963afc7c65375fb6e4e83c8ed3f79f92254fff3e18",
            "compare_summary.csv": "0d21f934334afbd231267ca083294d25bcef3f0547083251491fb93d154e2663",
            "gain-curve.csv": "e267d096138a20b789fdb504c6eaf2de4a64c968715e01166e29da511bc2d23d",
            "transmission.csv": "316b536749be281385525fe679c4998d3d04b23cb44623a8589f4348489eeb5b",
            "detection.csv": "68f0636a071dc82c1af210fc6b845c87f32833c9ede42f3a886ffe0dbf9208ca",
        },
    ),
    "p-polarization": (
        SMALL.replace("[grid]", "[model]\npolarization = p\n\n[grid]"),
        {
            "spectrum.csv": "b8fd9239bdd9ee4710323a001ccf3f0e61abd1b12543d3969b7e0fe88575fb13",
            "compare_simplified.csv": "53bbdebcf3fadda1acbdf2cec82ee289aa9a61011f5ccb2dfb64b166ad4fbe20",
            "compare_rigorous.csv": "3b6d1c4ffeea6d40b3743b28689a8ce109f973d3aa32be75dcfc09c8101de676",
            "compare_summary.csv": "7301a26ccfe82b6cdba14f59ac2d8539848a1e613a2c2735dd533e2e04de1977",
            "gain-curve.csv": "bcbe3dbe7da8f2ea940cd9a78f5aa707edcb82f85b77bebf76f645b16b2528cb",
            "transmission.csv": "be6074eafdcf7be90147fa119e36cb4de38b18d89b6add40128d4be19d43f2e0",
            "detection.csv": "d701236e4f2b448f9dae50351f30d8f88459550006a8fab2e984118ef7d0c1a4",
        },
    ),
    "775nm-thin-film": (
        config_text(lambda_count=48, theta_count=8, wavelength_nm=775.0, thickness_um=5.1237),
        {
            "spectrum.csv": "1c60e9f769593149177e185aa21beb39d350064294e232e8ffb55df2be9c0093",
            "compare_simplified.csv": "b8bd66a51dbe82cd215152d7987ab27dcca8e9b4d59066521ec742cb537d8e09",
            "compare_rigorous.csv": "ded0ef55dd96fc939135df8ad46485e7e93ede6f65d8778f70db63b541378b64",
            "compare_summary.csv": "8b9f5728d3fe904089efe73e1264b88dba92892ac5ac71291047c05f05369d37",
            "gain-curve.csv": "6d3482f31734637554e2487c698d0c740977121093a10ae152bb9d7d17219671",
            "transmission.csv": "9f567dee39c5c93f15fa9d05ec3f91544ea15a07cc48e56a78531962596bcac6",
            "detection.csv": "3f3fb6361721f1fe96e70335455e3ac1f609c062333cda037753a487f418d225",
        },
    ),
    "detection-envelope": (
        SMALL + "\n[detection]\nenvelope_center_nm = 1576.0\nenvelope_fwhm_nm = 250.0\n",
        {
            "spectrum.csv": "5e51c74ef394378da6cd9896f1111ef1b10762026dd96c083fb6021d04ccdf4f",
            "compare_simplified.csv": "f5a14fd1214728def33152aeec0c7a9e8a1ab1afa9acbd847aae3373505ed758",
            "compare_rigorous.csv": "73e1a87dfdd14c1390f786e4296d8935f45bdf9d7ba8c02b858fe2fa88759408",
            "compare_summary.csv": "5dc34dc596f904b91b0ffc1b4f5bda3605b2817e4ee250af3a056dbead1ce695",
            "gain-curve.csv": "9045041c7772b546c8aea93b272f277cd070ff9372efdde61b7d93cd7d16e025",
            "transmission.csv": "80a7a5f0bb22da0bd98e8435e1dd583db4be681b70b60db921f86f329ac3c56c",
            "detection.csv": "0909780026c2b8cbf4d0d77050769bc37c269ca5cec681afa8f8777af559cf82",
        },
    ),
}


@pytest.mark.parametrize("route", sorted(GOLDEN_ROUTES))
def test_every_command_golden_bytes_on_other_routes(tmp_path, route):
    text, golden = GOLDEN_ROUTES[route]
    cfg_path = write_config(tmp_path, text)
    for command in ("spectrum", "compare", "gain-curve", "transmission", "detection"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert written == golden


def test_spectrum_golden_bytes_pin_the_pump_phase_order(tmp_path):
    # On the 48x8 grid the two pump-phase orders give the same 9-digit
    # cells; on this 512x64 grid some cells flip, so the hash (recorded
    # with the same code as GOLDEN_ROUTES) pins the order the sweep uses.
    text = config_text(lambda_count=512, theta_count=64, wavelength_nm=775.0, thickness_um=5.1237)
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "340423c15b86d027bc66c35447058f9d291e94803f49c793aaf0cf38fd2fd8ce"
    )


def test_golden_bytes_hold_under_baseline_dispatch_and_another_openblas_core():
    # The goldens were recorded with numpy's AVX-512 kernels and OpenBLAS's
    # SkylakeX core.  Baseline SIMD dispatch changes the bits of exp,
    # log10 and complex products, and another core those of the solves,
    # by a few 1e-12 relative; no 9-digit cell may move.  The six golden
    # tests are named, so this one does not run itself (adds about 2 s).
    tests = [
        f"{Path(__file__).resolve()}::{name}"
        for name in (
            "test_every_command_golden_bytes",
            "test_every_command_golden_bytes_on_other_routes",
            "test_spectrum_golden_bytes_pin_the_pump_phase_order",
        )
    ]
    proc = run_under_baseline_dispatch(tests, OPENBLAS_CORETYPE="Haswell")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert f"{2 + len(GOLDEN_ROUTES)} passed" in proc.stdout


def test_exit_code_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, config_text(lambda_count=1))
    assert main(["spectrum", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("counts", [(10**30, 8), (2**32, 2**32)])
def test_exit_code_grid_too_large(tmp_path, capsys, monkeypatch, counts):
    # Pixel counts that do not fit an array index are a config error.
    # The run itself is replaced, so no test can allocate the grid.
    def no_run(*args, **kwargs):
        raise AssertionError("a config that large must not reach the run")

    monkeypatch.setattr(cli, "run", no_run)
    cfg_path = write_config(
        tmp_path, config_text(lambda_count=counts[0], theta_count=counts[1])
    )
    out = tmp_path / "out.csv"
    for command in ("transmission", "spectrum"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid:") and "Traceback" not in err
        assert not out.exists() and not out.with_suffix(".csv.part").exists()


@pytest.mark.parametrize("where", ["sweep", "writer"])
def test_exit_code_out_of_memory(tmp_path, capsys, monkeypatch, where):
    # A grid that passes the index check can still not fit in memory.
    # The allocation failure is raised in its place, never made.
    message = "Unable to allocate 298. GiB for an array with shape (1, 1, 4, 10000000000)"

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    if where == "sweep":
        monkeypatch.setattr(spectra, "_evaluate_pixels", out_of_memory)
    else:
        write_csv = cli._write_csv

        def write_then_fail(path, *args):
            write_csv(path, *args)  # the .part file is complete now
            out_of_memory()

        monkeypatch.setattr(cli, "_write_csv", write_then_fail)
    cfg_path = write_config(tmp_path, SMALL)
    out = tmp_path / "out.csv"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


@pytest.mark.parametrize("theta_min,theta_max", [(6.0, 6.5), (-1.6, 0.5), (-0.5, 1.58)])
def test_internal_angles_beyond_grazing_are_a_config_error(
    tmp_path, capsys, theta_min, theta_max
):
    text = config_text(
        lambda_count=48, theta_count=8, theta_min_rad=theta_min, theta_max_rad=theta_max
    )
    with pytest.raises(ConfigError, match=r"^grid: theta_min_rad and theta_max_rad must lie"):
        parse_config(text)
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "out.csv"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]
    # Grazing itself is a valid bound: those columns are masked.
    parse_config(config_text(theta_min_rad=repr(-np.pi / 2), theta_max_rad=repr(np.pi / 2)))


def test_exit_code_missing_file(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.ini")]) == 2


def test_exit_code_config_not_utf8(tmp_path, capsys):
    # A Latin-1 comment ("µm" as byte 0xb5) cannot be decoded as UTF-8.
    cfg_path = tmp_path / "latin1.ini"
    cfg_path.write_bytes(("; thickness in \u00b5m\n" + SMALL).encode("latin-1"))
    out = tmp_path / "out.csv"
    assert main(["transmission", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config: 'utf-8' codec can't decode byte 0xb5")
    assert "Traceback" not in err
    assert not out.exists()


def test_exit_code_numerical_error(tmp_path, capsys):
    # Signal band whose idler falls outside every material table: the
    # whole grid is masked and normalization fails.
    text = config_text(lambda_min_nm=800.0, lambda_max_nm=820.0)
    cfg_path = write_config(tmp_path, text)
    assert main(["spectrum", "--config", str(cfg_path)]) == 3
    assert "numerical error" in capsys.readouterr().err


def run_cli_process(*args):
    """`python -W error -m spdc_etalon.cli *args` in a separate process, so
    a traceback or a warning on stderr shows, and a warning fails the run."""
    env = dict(os.environ, PYTHONPATH=str(Path(spdc_etalon.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "spdc_etalon.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_exit_code_unwritable_output(tmp_path):
    cfg_path = write_config(tmp_path, SMALL)
    out = tmp_path / "missing_dir" / "t.csv"
    proc = run_cli_process("transmission", "--config", cfg_path, "--out", out)
    assert proc.returncode == 2
    assert "error: cannot write output:" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    assert not out.exists()
    assert not out.with_suffix(".csv.part").exists()


# Configs with the exit code of each command, in `COMMANDS` order.  A
# dispersionless film is phase-matched at the degenerate collinear point,
# so its gain curve's beta_over_half_delta is inf.  An index of 1e308
# overflows: in the substrate every pixel is masked, in the film the pump
# enhancement is not finite (`transmission` reads no pump, and finds
# every wavelength masked).
EXIT_CODES = {
    "readme": ({}, (0, 0, 0, 0, 0)),
    "dispersionless_film": ({"film": "constant:2.2"}, (0, 0, 0, 0, 0)),
    "huge_substrate_index": ({"substrate": "constant:1e308"}, (3, 3, 3, 3, 3)),
    "huge_film_index": ({"film": "constant:1e308"}, (3, 3, 3, 3, 3)),
}


@pytest.mark.parametrize("name", EXIT_CODES)
def test_every_command_exits_clean_or_with_one_stderr_line(tmp_path, name):
    # Warnings are errors in the child, whatever this process runs with:
    # a success prints nothing to stderr, a failure exactly one line.
    overrides, codes = EXIT_CODES[name]
    cfg_path = write_config(tmp_path, config_text(**overrides))
    for command, code in zip(COMMANDS, codes):
        out = tmp_path / f"{command}.csv"
        proc = run_cli_process(command, "--config", cfg_path, "--out", out)
        assert proc.returncode == code, (command, proc.stderr)
        if code == 0:
            assert proc.stderr == ""
        else:
            assert proc.stderr.startswith("numerical error: ")
            assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        if code:
            assert not list(tmp_path.glob(f"{command}*.csv"))
        if name == "huge_film_index" and command != "transmission":
            assert "pump enhancement is not finite" in proc.stderr
    if name == "dispersionless_film":
        _cols, data = load_data(tmp_path / "gain-curve.csv")
        assert (data[:, 2] == np.inf).all() and np.isfinite(np.delete(data, 2, axis=1)).all()


def hostile_text(detection=(), **overrides):
    """A 16 x 8 README-stack config with `overrides`, and a [detection]
    section of the envelope's (center, fwhm, amplitude) if given."""
    text = config_text(lambda_count=16, theta_count=8, **overrides)
    if detection:
        keys = ("envelope_center_nm", "envelope_fwhm_nm", "envelope_amplitude")
        text += "\n[detection]\n" + "".join(f"{k} = {v}\n" for k, v in zip(keys, detection))
    return text


# Extreme finite values, with the exit code of each command in
# `COMMANDS` order.  Each ended in exit 1 on some command before the
# entries ignored floating-point errors as one policy: a traceback, or a
# RuntimeWarning raised as an error.  A 1e308 Sellmeier term gives an
# index of 1e154 at the pump and grid wavelengths (the transmission
# curve masks what overflows) and an infinite one at the gain curve's
# degenerate wavelength.
HOSTILE_CONFIGS = {
    "thickness_overflows_in_nm": (hostile_text(thickness_um="1e306"), (2, 2, 2, 2, 2)),
    "subnormal_thickness": (hostile_text(thickness_um="1e-320"), (0, 0, 0, 0, 0)),
    "huge_sellmeier_superstrate": (
        hostile_text(superstrate="sellmeier:1:1e308:0"), (3, 3, 3, 0, 3)
    ),
    "huge_sellmeier_film": (hostile_text(film="sellmeier:1:1e308:0"), (3, 3, 3, 0, 3)),
    "negative_sellmeier_superstrate": (hostile_text(superstrate="sellmeier:-5::"), (3,) * 5),
    "far_narrow_envelope": (hostile_text(("1e308", "1e-320", "1.0")), (0, 0, 0, 0, 3)),
    "huge_envelope_amplitude": (hostile_text(("1500", "100", "1e308")), (0, 0, 0, 0, 3)),
}


def check_exit(code, expected, err, work, case):
    """A run's exit code is `expected`; it wrote one stderr line if it
    failed, none if not, and left no `.part` file in `work`."""
    assert code == expected, case
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), case
        assert err.startswith(("config error: ", "numerical error: ")), case
    else:
        assert err == "", case
    assert not list(work.glob("*.part")), case


@pytest.mark.parametrize("name", HOSTILE_CONFIGS)
def test_hostile_configs_exit_clean_or_with_one_stderr_line(tmp_path, capsys, name):
    cfg_path = write_config(tmp_path, HOSTILE_CONFIGS[name][0])
    for command, expected in zip(COMMANDS, HOSTILE_CONFIGS[name][1]):
        out = tmp_path / f"{command}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
        check_exit(code, expected, capsys.readouterr().err, tmp_path, (name, command))


# For each command, a hostile config that ended in exit 1 on it.
HOSTILE_PROCESS_RUNS = {
    "spectrum": "thickness_overflows_in_nm",
    "compare": "thickness_overflows_in_nm",
    "gain-curve": "subnormal_thickness",
    "detection": "huge_envelope_amplitude",
    "transmission": "negative_sellmeier_superstrate",
}


@pytest.mark.parametrize("command", COMMANDS)
def test_hostile_config_exits_clean_or_with_one_stderr_line_in_a_process(tmp_path, command):
    name = HOSTILE_PROCESS_RUNS[command]
    cfg_path = write_config(tmp_path, HOSTILE_CONFIGS[name][0])
    proc = run_cli_process(command, "--config", cfg_path, "--out", tmp_path / "out.csv")
    expected = HOSTILE_CONFIGS[name][1][COMMANDS.index(command)]
    check_exit(proc.returncode, expected, proc.stderr, tmp_path, (name, proc.stderr))


def test_thickness_that_overflows_in_nm_is_a_config_error(tmp_path, capsys):
    # 1e306 um is finite and positive, but 1e309 nm is not.  The hostile
    # config tests run every command on it; this pins the message.
    text = HOSTILE_CONFIGS["thickness_overflows_in_nm"][0]
    message = "stack: film thickness in nm must be positive and finite"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_config(text)
    assert main(["spectrum", "--config", str(write_config(tmp_path, text))]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("lambda_min", ["-100", "0", "-0.0"])
def test_non_positive_wavelength_bound_is_a_config_error(tmp_path, capsys, lambda_min):
    text = config_text(lambda_count=48, theta_count=8, lambda_min_nm=lambda_min)
    with pytest.raises(ConfigError, match=r"^grid\.lambda_min_nm: must be positive$"):
        parse_config(text)
    cfg_path = write_config(tmp_path, text)
    for command in COMMANDS:
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: grid.lambda_min_nm: must be positive\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def test_compare_into_a_missing_directory_writes_and_prints_nothing(tmp_path, capsys):
    # Every file is staged once: the error names the first `.part` path,
    # and the R-squared lines wait until the files are in place.
    cfg_path = write_config(tmp_path, config_text(lambda_count=32, theta_count=8))
    out = tmp_path / "missing_dir" / "c.csv"
    assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no r_squared line
    assert "error: cannot write output:" in captured.err
    assert "c_simplified.csv.part" in captured.err and ".part.part" not in captured.err
    assert not out.parent.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def test_partial_file_removed_on_error(tmp_path):
    text = config_text(lambda_min_nm=800.0, lambda_max_nm=820.0)
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "bad.csv"
    main(["spectrum", "--config", str(cfg_path), "--out", str(out)])
    assert not out.exists()
    assert not out.with_suffix(".csv.part").exists()


def test_compare_numerical_error_writes_no_file(tmp_path, capsys):
    # At beta = 1000 every rigorous pixel overflows: the simplified grid
    # normalizes but the rigorous one cannot, so neither may be written.
    text = config_text(lambda_count=32, theta_count=8, beta_plus="1000")
    cfg_path = write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["compare", "--config", str(cfg_path), "--out", str(out_dir / "out.csv")]) == 3
    assert "numerical error:" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_failure_mid_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, SMALL)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 16)
    real_open = open
    seen = []

    class FailingFile:
        """Passes the header and the first block through, then fails."""

        def __init__(self, path, *args, **kwargs):
            self.path = Path(path)
            self.fh = real_open(path, *args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, text):
            seen.append(self.path.exists())
            if len(seen) == 3:
                raise OSError("no space left on device")
            return self.fh.write(text)

    monkeypatch.setattr(cli, "open", FailingFile, raising=False)
    fresh = tmp_path / "fresh.csv"
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"old bytes\n")
    for out in (fresh, kept):
        seen.clear()
        assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "error: cannot write output: no space left on device" in capsys.readouterr().err
        assert seen == [True, True, True]
        assert not out.with_suffix(".csv.part").exists()
    assert not fresh.exists()
    assert kept.read_bytes() == b"old bytes\n"


@pytest.mark.parametrize("older", [False, True])
@pytest.mark.parametrize("obstacle", ["out_rigorous.csv.part", "out_summary.csv"])
def test_compare_write_failure_leaves_every_path_as_it_was(tmp_path, capsys, obstacle, older):
    # A directory where the rigorous file's .part goes fails the second
    # write, one named like the summary fails its rename: the files before
    # it must not appear or change either.
    cfg_path = write_config(tmp_path, config_text(lambda_count=32, theta_count=8))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / obstacle).mkdir()
    if older:
        for name in ("out_simplified.csv", "out_rigorous.csv"):
            (out_dir / name).write_bytes(b"old " + name.encode() + b"\n")
    before = {p.name: p.is_dir() or p.read_bytes() for p in out_dir.iterdir()}
    assert main(["compare", "--config", str(cfg_path), "--out", str(out_dir / "out.csv")]) == 2
    assert "error: cannot write output:" in capsys.readouterr().err
    assert {p.name: p.is_dir() or p.read_bytes() for p in out_dir.iterdir()} == before


def test_text_cell_with_nul_is_rejected(tmp_path):
    # NUL pads the writer's byte slots, so it cannot be written as data.
    out = tmp_path / "names.csv"
    config = parse_config(SMALL)
    for bad in ("b\0d", "bad\0"):
        with pytest.raises(ValueError, match="NUL"), cli._staged(out) as (part,):
            cli._write_csv(part, config, "table", ["name", "x"], [["ok", bad], [1.0, 2.0]])
        assert not out.exists()
        assert not out.with_suffix(".csv.part").exists()


# ---- CSV writer against the per-cell reference formatter ---------------------


def format_cell_reference(value):
    """The per-cell formatter the writer replaced, kept as its oracle."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "{:.9g}".format(float(value))


def reference_lines(config, command, columns, rows):
    """Lines of the CSV that the replaced row-by-row writer wrote."""
    lines = [*cli._header_lines(config, command), ",".join(columns)]
    return lines + [",".join(format_cell_reference(v) for v in row) for row in rows]


def written_lines(path):
    """Lines of a written CSV; a list, so a mismatch reports its first row."""
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    return text.split("\n")[:-1]


SPECIAL_FLOATS = [
    np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 1e16, 0.1
]


def random_doubles(rng, n):
    """Doubles from random bit patterns: every exponent, subnormals, NaNs."""
    return rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)


@pytest.mark.parametrize("block_rows", [None, 7])
def test_writer_matches_reference_formatter(tmp_path, monkeypatch, rng, block_rows):
    if block_rows:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    n = 2 * 8192 + 37
    floats = random_doubles(rng, n)
    floats[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
    ints = list(range(-(n // 2), n - n // 2))
    mask = rng.random(n) < 0.3
    names = [f"s{k}" for k in range(n)]
    columns = ["x", "k", "masked", "name"]
    config = parse_config(SMALL)
    out = tmp_path / "table.csv"
    cli._write_csv(out, config, "table", columns, [floats, ints, mask, names])
    expected = reference_lines(config, "table", columns, zip(floats, ints, mask, names))
    assert written_lines(out) == expected


@pytest.mark.parametrize("block_rows", [None, 7])
def test_grid_writer_matches_reference_formatter(tmp_path, monkeypatch, rng, block_rows):
    if block_rows:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    lams = np.concatenate([SPECIAL_FLOATS, random_doubles(rng, 131)])
    thetas = random_doubles(rng, 93)
    values = random_doubles(rng, (lams.size, thetas.size))
    mask = rng.random(values.shape) < 0.3
    columns = ["lambda", "theta", "v", "masked"]
    config = parse_config(SMALL)
    out = tmp_path / "grid.csv"
    axis = np.arange(thetas.size)
    cli._write_csv(
        out, config, "grid", columns,
        [(lams[:, None], 0 * axis), (thetas[None, :], axis), (values, axis), (mask, axis)],
    )
    rows = (
        [lam, theta, values[i, j], mask[i, j]]
        for i, lam in enumerate(lams)
        for j, theta in enumerate(thetas)
    )
    assert written_lines(out) == reference_lines(config, "grid", columns, rows)


@pytest.mark.parametrize("block_rows", [None, 7])
def test_gathered_column_writes_the_bytes_of_its_gathered_values(
    tmp_path, monkeypatch, rng, block_rows
):
    # A (values, index) column has the cells of values[..., index], each
    # distinct cell formatted once and copied to the rows that read it.
    if block_rows:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    lams = np.linspace(1100.0, 2400.0, 37)[:, None]
    thetas = rng.uniform(-0.5, 0.5, 23)[None, :]
    index = rng.permutation(np.concatenate([np.arange(9), rng.integers(0, 9, 14)]))
    values = rng.uniform(0.0, 1.0, (lams.size, 9))
    # 100000000.5 is a tie of the 9th digit, which printf formats.
    values[0, :5] = [np.nan, np.inf, -np.inf, -0.0, 100000000.5]
    values[1, :2] = [-np.nan, 0.0]
    mask = rng.random(values.shape) < 0.3
    columns = ["lambda", "theta", "v", "masked"]
    config = parse_config(SMALL)
    gathered, plain = tmp_path / "gathered.csv", tmp_path / "plain.csv"
    axis = np.arange(thetas.size)
    lams, thetas = (lams, 0 * axis), (thetas, axis)
    cli._write_csv(
        gathered, config, "grid", columns, [lams, thetas, (values, index), (mask, index)]
    )
    cli._write_csv(
        plain, config, "grid", columns,
        [lams, thetas, (values[..., index], axis), (mask[..., index], axis)],
    )
    assert gathered.read_bytes() == plain.read_bytes()
    assert b",100000000," in plain.read_bytes() and b",-0," in plain.read_bytes()


def test_each_distinct_cell_is_formatted_once(tmp_path, monkeypatch):
    # README grid: 512 wavelengths and 256 angles, of which 176 distinct
    # |theta|, so each wavelength, each angle and each distinct intensity
    # cell reaches '%.9g' once.  The wavelengths (512 cells, at most
    # `_BLOCK_ROWS`) and the angles (one row) are each one call; each
    # scheme's intensities are one call per block of 8192 // 256 = 32
    # wavelengths.  A 1-D table formats each float cell once.
    formatted = []
    format_g9 = cli._format_g9

    def counting(x):
        formatted.append(np.size(x))
        return format_g9(x)

    monkeypatch.setattr(cli, "_format_g9", counting)
    cfg_path = write_config(tmp_path, EXPERIMENT_CONFIG)
    argv = ["--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]
    assert main(["spectrum", "--model", "simplified", *argv]) == 0
    assert sum(formatted) == 512 + 256 + 4 * 512 * 176
    assert formatted == [512, 256] + [32 * 176] * (4 * 512 // 32)
    formatted.clear()
    cfg_path.write_text(SMALL, encoding="utf-8")
    assert main(["transmission", *argv]) == 0
    assert sum(formatted) == 48 * 2  # lambda_nm and transmission; masked is bool


def test_columns_must_share_blocks_and_cells_per_block(tmp_path):
    # A column of other block count (not 1) or index length would be cut
    # or broadcast silently if it reached the buffer.
    config = parse_config(SMALL)
    axis = np.arange(3)
    for data in (
        [(np.zeros((4, 3)), axis), (np.zeros((2, 3)), axis)],
        [(np.zeros((4, 3)), axis), (np.zeros((4, 3)), axis[:2])],
    ):
        with pytest.raises(ValueError, match="same blocks"):
            cli._write_csv(tmp_path / "t.csv", config, "grid", ["a", "b"], data)


def oracle_values(rng):
    """Doubles that probe every branch of the '%.9g' kernel."""
    parts = [random_doubles(rng, 150_000)]
    scaled = rng.uniform(-1.0, 1.0, 10_000) * 10.0 ** rng.integers(-15, 17, 10_000)
    parts += [np.round(scaled, d) for d in range(1, 12)]
    # Ties of the 9th significant digit, exact in binary for j >= 0.
    k = rng.integers(10**8, 10**9, 25_000)
    parts.append((k + 0.5) * 10.0 ** rng.integers(-22, 7, k.size))
    for j in range(-14, 17):
        for base in (10.0**j, 9.9999999950 * 10.0**j):
            up, down = [base], [base]
            for _ in range(8):
                up.append(np.nextafter(up[-1], np.inf))
                down.append(np.nextafter(down[-1], -np.inf))
            parts.append(np.array(up + down))
    subnormal = np.arange(1, 2001, dtype=np.uint64).view(np.float64)
    parts += [subnormal, 2.2250738585072014e-308 - subnormal, np.array(SPECIAL_FLOATS)]
    x = np.concatenate(parts)
    return np.concatenate([x, -x])


def test_format_g9_matches_printf(rng):
    x = oracle_values(rng)
    assert x.size >= 500_000
    slots = cli._format_g9(x)
    assert slots.shape == (x.size, cli._SLOT)
    rows = np.concatenate([slots, np.full((x.size, 1), ord("\n"), np.uint8)], axis=1)
    got = rows.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    want = ["%.9g" % v for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert len(got) == len(want)
    assert bad[:5] == []


def test_format_g9_leaves_printf_to_near_ties(rng, monkeypatch):
    # In 1e-13 <= |x| < 1e15 only values within 1e-6 of a rounding tie
    # (2e-6 of uniform values) may reach printf; every exponent is probed.
    x = rng.uniform(1.0, 10.0, 100_000) * 10.0 ** rng.integers(-13, 15, 100_000)
    x[::2] *= -1
    printed = []
    text_cells = cli._text_cells

    def counting(spec, values, width=None):
        printed.append(values.size)
        return text_cells(spec, values, width)

    monkeypatch.setattr(cli, "_text_cells", counting)
    cli._format_g9(x)
    assert sum(printed) <= 5


def test_writer_memory_is_bounded_by_the_block(tmp_path, monkeypatch):
    # Peak traced memory of a grid write with 4x the rows may grow by the
    # axis slots only: nothing whole-grid, formatted or broadcast, is kept.
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 1024)
    config = parse_config(SMALL)
    rng = np.random.default_rng(5)
    columns = ["lambda", "theta", "ff", "bb", "fb", "bf", "masked"]

    def peak(n_lams):
        axis = np.arange(64)
        lams = (np.linspace(1100.0, 2400.0, n_lams)[:, None], 0 * axis)
        thetas = (np.linspace(-30.0, 30.0, 64)[None, :], axis)
        values = [(rng.random((n_lams, 64)), axis) for _ in range(4)]
        mask = (rng.random((n_lams, 64)) < 0.1, axis)
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "m.csv", config, "grid", columns, [lams, thetas, *values, mask])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The lambda slots grow by 192 * 16 B; a whole-grid copy of one float
    # column's slots would add 196 KB.
    block_buffer = 1024 * (6 * cli._SLOT + len(columns))
    assert peak(256) - peak(64) <= block_buffer // 4


def test_scheme_flag_validation(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL)
    out = tmp_path / "out.csv"
    for command, scheme in (("spectrum", "zz"), ("detection", "sideways"), ("spectrum", ",")):
        argv = [command, "--config", str(cfg_path), "--out", str(out), "--scheme", scheme]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: --scheme: ")
        assert not out.exists()


def test_repeated_scheme_is_rejected(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL)
    out = tmp_path / "out.csv"
    for command in ("spectrum", "compare"):
        argv = [command, "--config", str(cfg_path), "--out", str(out), "--scheme", "ff,ff"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: --scheme: model.schemes: ")
    text = SMALL + "\n[model]\nschemes = ff,bb,ff\n"
    with pytest.raises(ConfigError, match="^model.schemes: "):
        parse_config(text)
    repeated = write_config(tmp_path, text, name="repeated.ini")
    assert main(["spectrum", "--config", str(repeated), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: model.schemes: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["repeated.ini", "run.ini"]


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("compare", "--model", "rigorous"),
        ("gain-curve", "--model", "nonresonant"),
        ("gain-curve", "--scheme", "bb"),
        ("transmission", "--model", "rigorous"),
        ("transmission", "--scheme", "fb"),
        ("detection", "--model", "rigorous"),
    ],
)
def test_flag_the_command_ignores_is_a_config_error(tmp_path, capsys, command, flag, value):
    # The header records the flags as if they ran, so a command refuses
    # the ones it does not read.
    cfg_path = write_config(tmp_path, SMALL)
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg_path), "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def test_model_and_scheme_flags_are_recorded_in_the_header(tmp_path):
    # SMALL has no [model] section, so the header's kind can only come
    # from --model, and its detection scheme only from --scheme.
    cfg_path = write_config(tmp_path, SMALL)
    runs = (
        ("spectrum", "--model", "rigorous", "kind = rigorous"),
        ("detection", "--scheme", "backward", "scheme = backward"),
    )
    for command, flag, value, line in runs:
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(cfg_path), "--out", str(out), flag, value]) == 0
        header = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
        assert f"# {line}" in header


def test_scheme_subset_columns(tmp_path):
    cfg_path = write_config(tmp_path, SMALL)
    out = tmp_path / "ff_only.csv"
    assert (
        main(
            ["spectrum", "--config", str(cfg_path), "--out", str(out), "--scheme", "ff,bb"]
        )
        == 0
    )
    header_data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert header_data[0].split(",") == ["lambda_nm", "theta_deg", "ff", "bb", "masked"]


# ---- seeded property test of the input rules --------------------------------

# What the property test draws each config key from: (usual values,
# hostile values).  Usual values vary the physics (stacks, thicknesses,
# waists, 2-point grids, grazing angles, complex and negative beta);
# hostile ones (a 1e308 index or Sellmeier term, a negative Sellmeier
# offset, a zero, subnormal or overflowing thickness, a negative waist, a
# pump outside every material range, a 1e12 beta, a far and narrow or a
# 1e308 detection envelope) are drawn one time in ten.
PROPERTY_KEYS = {
    ("stack", "superstrate"): (
        ("air", "silicon", "linbo3_o", "constant:1.5"),
        ("constant:1e308", "sellmeier:1:1e308:0", "sellmeier:-5::"),
    ),
    ("stack", "film"): (
        ("linbo3_e", "linbo3_o", "silicon", "constant:2.2"),
        ("constant:1e308", "sellmeier:1:1e308:0"),
    ),
    ("stack", "substrate"): (("air", "silicon", "linbo3_e", "constant:3.4"), ("constant:1e308",)),
    ("stack", "thickness_um"): (("1e-3", "0.4", "10.15", "5e4"), ("0", "1e-320", "1e306")),
    ("pump", "wavelength_nm"): (("775", "788", "1064"), ("300", "1e4")),
    ("pump", "waist_um"): (("1e-3", "5.0", "1e5"), ("-1",)),
    ("grid", "lambda_min_nm"): (("450", "1100", "1500"), ()),
    ("grid", "lambda_max_nm"): (("1600", "2400", "6000"), ()),
    ("grid", "lambda_count"): (("2", "9"), ()),
    ("grid", "theta_min_rad"): (("-1.5707963267948966", "-0.5", "0.0"), ()),
    ("grid", "theta_max_rad"): (("0.3", "1.5707963267948966"), ()),
    ("grid", "theta_count"): (("2", "5"), ()),
    ("model", "kind"): (MODELS, ()),
    ("model", "polarization"): (POLARIZATIONS, ()),
    ("gain_curve", "count"): (("2", "3"), ()),
}
# The pump strength: a direct beta, or (chi2, field) of the chi2/field route.
PROPERTY_BETAS = (("1e-3", "-0.5", "0.3+0.4j", "2"), ("1e12", "-1e-300"))
PROPERTY_CHI2_FIELDS = ((("30", "5e7"), ("-5", "5e7")), (("1e6", "1e20"),))
PROPERTY_DETECTION = {
    "envelope_center_nm": (("1576", "3000"), ("1e308",)),
    "envelope_fwhm_nm": (("1", "400"), ("1e-320",)),
    "envelope_amplitude": (("1", "0.5"), ("1e308",)),
    "efficiency_ratio": (("0.4", "1e300"), ()),
    "scheme": (DETECTION_SCHEMES, ()),
}
# Seed and size: 30 configs x the 5 commands, well under a second.
PROPERTY_SEED, PROPERTY_CONFIGS = 20261019, 30


def _property_config(rng):
    """One random config text drawn from the tables above."""

    def pick(values):
        usual, hostile = values
        options = hostile if hostile and rng.random() < 0.1 else usual
        return options[rng.integers(len(options))]

    sections = {}
    for (section, key), values in PROPERTY_KEYS.items():
        sections.setdefault(section, {})[key] = pick(values)
    sections["model"]["schemes"] = ",".join(rng.permutation(SCHEMES)[: rng.integers(1, 5)])
    if rng.random() < 0.5:
        sections["pump"]["beta_plus"] = pick(PROPERTY_BETAS)
    else:
        chi2, field = pick(PROPERTY_CHI2_FIELDS)
        sections["stack"]["chi2_pm_per_v"] = chi2
        sections["pump"]["field_v_per_m"] = field
    if rng.random() < 0.5:
        sections["detection"] = {key: pick(values) for key, values in PROPERTY_DETECTION.items()}
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n"
        for section, keys in sections.items()
    )


def test_random_configs_end_in_exit_0_2_or_3(tmp_path, capsys):
    # Every command on every config exits 0, 2 (config) or 3 (numerical),
    # with warnings as errors.  A failing run prints one stderr line and
    # leaves no output or .part file; a written table holds 0 on every
    # masked row, and a spectrum or compare grid peaks at exactly 1.
    rng = np.random.default_rng(PROPERTY_SEED)
    codes = Counter()
    for i in range(PROPERTY_CONFIGS):
        text = _property_config(rng)
        for command in COMMANDS:
            work = tmp_path / f"{i}-{command}"
            work.mkdir()
            argv = [command, "--config", str(write_config(work, text)), "--out", str(work / "out.csv")]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            err = capsys.readouterr().err
            codes[code] += 1
            case = f"{command} exited {code} on\n{text}{err}"
            assert code in (0, 2, 3), case
            written = sorted(p.name for p in work.iterdir() if p.name != "run.ini")
            if code:
                assert err.count("\n") == 1 and err.endswith("\n"), case
                assert written == [], case
                continue
            assert err == "" and not any(name.endswith(".part") for name in written), case
            for name in written:
                if command == "gain-curve" or name.endswith("_summary.csv"):
                    continue  # no masked column
                columns, data = load_data(work / name)
                values = data[:, [c not in ("lambda_nm", "theta_deg", "masked") for c in columns]]
                assert np.all(values[data[:, -1] == 1] == 0.0), case
                assert np.all(np.isfinite(values)), case
                if command in ("spectrum", "compare"):
                    assert values.max() == 1.0, case
    # The draws reach every outcome.
    assert all(codes[code] for code in (0, 2, 3)), codes
