import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reference import Mode
from spdc_etalon import spectra
from spdc_etalon import (
    ConfigError,
    SpdcEtalonError,
    compare_grids,
    detection_spectrum,
    frequency_angular_spectra,
    gain_and_agreement_curve,
    parse_config,
    r_squared,
    refractive_index,
    transmission_curve,
)
from conftest import EXPERIMENT_CONFIG, config_text, run_under_baseline_dispatch

MATCHED_OVERRIDES = dict(superstrate="linbo3_e", substrate="linbo3_e")


def _ff_only(cfg):
    """`cfg` with the one scheme the nonresonant model has."""
    return cfg._replace_keeping_stack(schemes=("ff",))


def _model_config(cfg, model):
    """`cfg` as `model` can run it: the nonresonant model has only ff."""
    return _ff_only(cfg) if model == "nonresonant" else cfg


def kernel_idler(film, lam_p, lam_s, theta_s):
    """(lam_i, theta_i, transverse mismatch) of the sweep's idler kernels
    for a signal (lam_s, theta_s) in `film`."""
    lam_i = spectra._idler_wavelength(lam_p, lam_s)
    k_s, k_i = (2.0 * np.pi * refractive_index(film, lam) / lam for lam in (lam_s, lam_i))
    trig_s = (np.cos(theta_s), np.sin(theta_s))
    theta_i, _, mismatch, _, _ = spectra._idler_kinematics(k_s, k_i, trig_s)
    return lam_i, theta_i, mismatch


def test_solve_idler_degenerate_exact(experiment_stack):
    lam_i, theta_i, _ = kernel_idler(experiment_stack.film, 788.0, 1576.0, 0.0)
    assert lam_i == 1576.0
    assert theta_i == 0.0


def test_solve_idler_energy_conservation_value(experiment_stack):
    lam_i, _, _ = kernel_idler(experiment_stack.film, 788.0, 1300.0, 0.0)
    assert lam_i == pytest.approx(2000.78125, abs=1e-6)


def test_solve_idler_rejects_short_signal():
    # No idler exists at or below the pump wavelength: the sweep masks
    # those signal wavelengths.
    cfg = parse_config(
        config_text(lambda_min_nm=700.0, lambda_max_nm=1580.0, lambda_count=11, theta_count=3)
    )
    grid = frequency_angular_spectra(cfg, ("simplified",))["simplified"]
    assert grid.signal_wavelengths_nm[1] == 788.0
    assert grid.mask[:2].all() and not grid.mask[2:].all()


def test_solve_idler_normal_symmetry(experiment_stack):
    for lam in (1200.0, 1576.0, 2200.0):
        assert kernel_idler(experiment_stack.film, 788.0, lam, 0.0)[1] == 0.0


def test_solve_idler_zeroes_transverse_mismatch(experiment_stack):
    from reference import wavevector_components

    film = experiment_stack.film
    lam_i, theta_i, mismatch = kernel_idler(film, 788.0, 1500.0, 0.2)
    assert mismatch == pytest.approx(0.0, abs=1e-15)
    _, ks_perp = wavevector_components(Mode(1500.0, 0.2), refractive_index(film, 1500.0))
    _, ki_perp = wavevector_components(Mode(lam_i, theta_i), refractive_index(film, lam_i))
    assert ks_perp + ki_perp == pytest.approx(0.0, abs=1e-15)


def test_solve_idler_opposite_sign_angle(experiment_stack):
    assert kernel_idler(experiment_stack.film, 788.0, 1500.0, 0.2)[1] < 0


# ---- frequency_angular_spectra --------------------------------------------


def test_nonresonant_matched_grid_equals_phase_matching():
    cfg = parse_config(
        config_text(lambda_count=48, theta_count=24, **MATCHED_OVERRIDES)
    )
    grid = frequency_angular_spectra(_ff_only(cfg), ("nonresonant",))["nonresonant"]
    stack = cfg.build_stack()

    from spdc_etalon import refractive_index

    lam_g, th_g = np.meshgrid(
        grid.signal_wavelengths_nm, grid.internal_angles_rad, indexing="ij"
    )
    lam_i = 788.0 * lam_g / (lam_g - 788.0)
    n_s = refractive_index(stack.film, lam_g)
    n_i = refractive_index(stack.film, lam_i)
    k_s = 2 * np.pi * n_s / lam_g
    k_i = 2 * np.pi * n_i / lam_i
    th_i = np.arcsin(np.clip(-k_s * np.sin(th_g) / k_i, -1.0, 1.0))
    kp = 2 * np.pi * refractive_index(stack.film, 788.0) / 788.0
    delta = stack.thickness_nm * (kp - k_s * np.cos(th_g) - k_i * np.cos(th_i))
    expected = np.sinc(delta / 2.0 / np.pi) ** 2
    keep = ~grid.mask
    assert np.allclose(grid.intensity["ff"][keep], expected[keep], rtol=1e-10, atol=1e-12)
    # The bare film has no backward emission: bb is refused, not zeros.
    with pytest.raises(ConfigError, match="nonresonant model has only ff, not bb,fb,bf"):
        frequency_angular_spectra(cfg, ("nonresonant",))


@pytest.mark.parametrize(
    "schemes, named", [(("bb",), "bb"), (("ff", "fb"), "fb"), (("bf", "ff", "bb"), "bf,bb")]
)
def test_library_refuses_nonresonant_schemes_other_than_ff(schemes, named):
    # The library call refuses them as the CLI does, with the CLI's text,
    # also when the nonresonant model shares a pass with the others.
    cfg = parse_config(config_text(lambda_count=12, theta_count=8))
    cfg = cfg._replace_keeping_stack(schemes=schemes)
    message = f"model.schemes: the nonresonant model has only ff, not {named}$"
    with pytest.raises(ConfigError, match=message):
        frequency_angular_spectra(cfg, ("nonresonant",))
    with pytest.raises(ConfigError, match=message):
        frequency_angular_spectra(cfg, GRID_MODELS)
    assert list(frequency_angular_spectra(cfg, GRID_MODELS[:2])) == list(GRID_MODELS[:2])


BAD_MODELS = "^models must be a nonempty sequence of distinct model names$"


@pytest.mark.parametrize(
    "models, message",
    [
        ((), BAD_MODELS),
        (("simplified", "simplified"), BAD_MODELS),
        (("rigorous", "simplified", "rigorous"), BAD_MODELS),
        ("simplified", BAD_MODELS),
        (("simplified", "exact"), r"^model must be one of \['nonresonant', 'rigorous', 'simplif"),
    ],
    ids=["empty", "repeated", "repeated-apart", "string", "unknown"],
)
def test_spectra_refuse_bad_models_before_any_pixel(models, message, monkeypatch):
    # Each model gets one grid: an empty list has none to return, a
    # repeated name would be evaluated twice for one key, and a string
    # would be read one character at a time.
    cfg = parse_config(config_text(lambda_count=4, theta_count=2))

    def no_pixel(*args):
        raise AssertionError("a pixel was built")

    monkeypatch.setattr(spectra, "_build_batch", no_pixel)
    with pytest.raises(ValueError, match=message):
        frequency_angular_spectra(cfg, models)


@pytest.mark.parametrize("model", ["simplified", "rigorous", "nonresonant"])
def test_library_refuses_unknown_schemes_before_any_pixel(model, monkeypatch):
    # A config that skipped `validate` gets the error `validate` gives,
    # whatever the model, before a pixel is built.
    cfg = replace(parse_config(config_text(lambda_count=4, theta_count=2)), schemes=("ff", "xx"))

    def no_pixel(*args):
        raise AssertionError("a pixel was built")

    monkeypatch.setattr(spectra, "_build_batch", no_pixel)
    with pytest.raises(ConfigError, match=r"^model\.schemes: entries must be among \("):
        frequency_angular_spectra(cfg, (model,))


@pytest.mark.parametrize("threads", [0, -1, 1.5, "2"])
@pytest.mark.parametrize(
    "sweep",
    [
        lambda cfg, threads: frequency_angular_spectra(cfg, ("simplified",), threads=threads),
        lambda cfg, threads: gain_and_agreement_curve(cfg, [1e-3, 0.5], threads=threads),
        lambda cfg, threads: detection_spectrum(cfg, threads=threads),
    ],
    ids=["spectra", "gain-curve", "detection"],
)
def test_sweeps_refuse_fewer_than_one_thread_before_any_pixel(sweep, threads, monkeypatch):
    cfg = parse_config(config_text(lambda_count=4, theta_count=2))

    def no_pixel(*args):
        raise AssertionError("a pixel was built")

    monkeypatch.setattr(spectra, "_build_batch", no_pixel)
    # A worker count is an integer: 1.5 would pass the < 1 test and run,
    # and "2" would fail the comparison with a bare TypeError.
    if isinstance(threads, int):
        error, message = ValueError, r"^threads must be >= 1$"
    else:
        error, message = TypeError, r"^threads must be an integer$"
    with pytest.raises(error, match=message):
        sweep(cfg, threads)


def test_grid_models_agree_at_low_gain(small_config):
    simp = frequency_angular_spectra(small_config, ("simplified",))["simplified"]
    rig = frequency_angular_spectra(small_config, ("rigorous",))["rigorous"]
    assert compare_grids(simp, rig, "ff") >= 0.999


def test_grid_rigorous_deviates_at_high_gain():
    cfg = parse_config(
        config_text(
            lambda_count=96,
            theta_count=2,
            theta_min_rad=-0.01,
            theta_max_rad=0.01,
            beta_plus="2.5",
        )
    )
    simp = frequency_angular_spectra(cfg, ("simplified",))["simplified"]
    rig = frequency_angular_spectra(cfg, ("rigorous",))["rigorous"]
    assert compare_grids(simp, rig, "ff") < 0.9


def test_grid_mask_and_finiteness(small_config):
    for model in ("nonresonant", "simplified", "rigorous"):
        grid = frequency_angular_spectra(_model_config(small_config, model), (model,))[model]
        for scheme, arr in grid.intensity.items():
            assert np.all(np.isfinite(arr)), (model, scheme)
            assert np.all(arr[grid.mask] == 0.0)
            assert np.all(arr >= 0.0)
        # Corner pixels past the grazing-idler boundary are masked.
        assert grid.mask.any()
        assert not grid.mask.all()


def test_grid_normalized_unit_max(small_config):
    grid = frequency_angular_spectra(small_config, ("simplified",))["simplified"].normalized()
    peak = max(np.max(arr[~grid.mask]) for arr in grid.intensity.values())
    assert peak == 1.0


def test_grid_thread_count_does_not_change_bits(small_config):
    base = frequency_angular_spectra(small_config, ("rigorous",), threads=1)["rigorous"]
    for threads in (2, 5):
        other = frequency_angular_spectra(small_config, ("rigorous",), threads=threads)["rigorous"]
        assert np.array_equal(base.mask, other.mask)
        for scheme in base.intensity:
            assert np.array_equal(base.intensity[scheme], other.intensity[scheme])


GRID_MODELS = ("simplified", "rigorous", "nonresonant")


def assert_grids_equal(grid, reference):
    assert np.array_equal(grid.mask, reference.mask)
    assert list(grid.intensity) == list(reference.intensity)
    for scheme in reference.intensity:
        assert np.array_equal(grid.intensity[scheme], reference.intensity[scheme])


@pytest.mark.parametrize(
    "chunk, counts",
    [(1, (12, 8)), (7, (12, 8)), (4096, (96, 48)), (spectra._CHUNK_PIXELS, (96, 48))],
)
def test_grid_chunk_size_and_threads_do_not_change_bits(monkeypatch, chunk, counts):
    # Chunk size 1 and 7 run on a tiny grid to keep the per-chunk
    # overhead small; 4096 splits the small grid into two chunks.
    cfg = parse_config(config_text(lambda_count=counts[0], theta_count=counts[1]))
    configs = {m: _model_config(cfg, m) for m in GRID_MODELS}
    reference = {m: frequency_angular_spectra(configs[m], (m,))[m] for m in GRID_MODELS}
    assert reference["rigorous"].mask.any() and not reference["rigorous"].mask.all()
    monkeypatch.setattr(spectra, "_CHUNK_PIXELS", chunk)
    for model in GRID_MODELS:
        for threads in (1, 2, 3):
            grid = frequency_angular_spectra(configs[model], (model,), threads=threads)[model]
            assert_grids_equal(grid, reference[model])


def test_a_failing_chunk_stops_the_sweep_before_most_chunks_start(monkeypatch):
    # Chunks run on a pool at every thread count; when one raises, `map`
    # cancels the chunks not yet started.  Which of the others a worker
    # has already taken races with it, so only an upper bound holds.
    cfg = parse_config(config_text(lambda_count=96, theta_count=48))
    monkeypatch.setattr(spectra, "_CHUNK_PIXELS", 37)
    chunks = -(-cfg.lambda_count * cfg.theta_count // spectra._CHUNK_PIXELS)
    build_batch = spectra._build_batch
    started = []

    def fail_first(config, lams, thetas, lo, hi, pump_state):
        started.append(lo)
        if lo == 0:
            raise RuntimeError("first chunk failed")
        return build_batch(config, lams, thetas, lo, hi, pump_state)

    monkeypatch.setattr(spectra, "_build_batch", fail_first)
    for threads in (1, 2):
        started.clear()
        with pytest.raises(RuntimeError, match="first chunk failed"):
            frequency_angular_spectra(cfg, ("rigorous",), threads=threads)
        assert 0 in started and len(started) < chunks / 2


@pytest.mark.parametrize("beta", ["1e-3", "1000"])
def test_one_pass_grids_equal_single_model_grids(monkeypatch, beta):
    # At beta = 1000 the rigorous model overflows at every pixel while
    # the others do not: each model must keep its own mask.
    # The nonresonant model has only ff, so all three models share a pass
    # on ff alone, and the other two also share one on every scheme.
    cfg = parse_config(config_text(lambda_count=40, theta_count=12, beta_plus=beta))
    runs = ((_ff_only(cfg), GRID_MODELS), (cfg, GRID_MODELS[:2]))
    references = [{m: frequency_angular_spectra(c, (m,))[m] for m in models} for c, models in runs]
    if beta == "1000":
        assert references[0]["rigorous"].mask.all()
        assert not references[0]["nonresonant"].mask.all()
    monkeypatch.setattr(spectra, "_CHUNK_PIXELS", 37)
    for (config, models), reference in zip(runs, references):
        grids = frequency_angular_spectra(config, models, threads=2)
        assert list(grids) == list(models)
        for model in models:
            assert_grids_equal(grids[model], reference[model])


# A 300 x 131 grid from 700 to 4500 nm and from -pi/2 to pi/2 hits every
# mask reason: signals at or below the 788 nm pump, silicon's 4000 nm
# range edge (and idlers past it near the pump), grazing pixels at
# +-pi/2, critical angles and poles.  The superstrate's n = 2.12 crosses
# the LiNbO3 film's near 2125 nm: at shorter wavelengths the film/
# superstrate interface has a critical angle (about 1.3 rad), at longer
# ones both interfaces are sub-critical at any angle, so at +-pi/2 both
# reflections tend to -1 and r1 r2 e^{2 i phi} -> 1, a pole.  131 angles
# do not divide `_CHUNK_PIXELS`, so a chunk boundary falls inside a
# wavelength's row; 39300 pixels make two chunks.
WIDE_GRID = dict(
    superstrate="constant:2.12",
    lambda_min_nm=700.0,
    lambda_max_nm=4500.0,
    lambda_count=300,
    theta_min_rad=repr(-np.pi / 2),
    theta_max_rad=repr(np.pi / 2),
    theta_count=131,
)


def _wide_config(tmp_path, route):
    text = config_text(**WIDE_GRID)
    if route == "p":
        text = text.replace("[grid]", "[model]\npolarization = p\n\n[grid]")
    elif route == "chi2":
        text = text.replace("beta_plus = 1e-3", "field_v_per_m = 5e7").replace(
            "thickness_um = 10.15", "thickness_um = 10.15\nchi2_pm_per_v = 30.0"
        )
    elif route == "tabulated":
        table = tmp_path / "n.csv"
        table.write_text("# lam_nm, n\n700,3.6\n3000,3.4\n", encoding="utf-8")
        text = text.replace("substrate = silicon", f"substrate = tabulated:{table}")
    return parse_config(text)


def _assert_same_bits(a, b, name):
    if isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b), name
        for k, (x, y) in enumerate(zip(a, b)):
            _assert_same_bits(x, y, f"{name}[{k}]")
        return
    if a is None or b is None:
        assert a is None and b is None, name
        return
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape), name
    assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("angles", ["grid", "one"])
@pytest.mark.parametrize("route", ["s", "p", "chi2", "tabulated"])
def test_build_batch_keeps_the_bits_of_per_pixel_kinematics(tmp_path, route, angles):
    # Terms evaluated per wavelength or per angle and gathered give every
    # batch field the bits of the per-pixel oracle, in the sweep's chunks
    # and in 1000-pixel chunks that start mid-row.  "one" is the single
    # normal-emission angle of the gain curve and the detection spectrum.
    from dataclasses import fields

    from reference import build_batch

    cfg = _wide_config(tmp_path, route)
    stack = cfg.build_stack()
    lams = cfg.signal_wavelengths()
    thetas = cfg.internal_angles() if angles == "grid" else np.zeros(1)
    n = lams.size * thetas.size
    pump_state = spectra._pump_state(cfg)
    hit = {}
    for chunk in (spectra._CHUNK_PIXELS, 1000):
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            reasons = {}
            with np.errstate(all="ignore"):
                batch = spectra._build_batch(cfg, lams, thetas, lo, hi, pump_state)
                oracle = build_batch(cfg, stack, lams, thetas, lo, hi, pump_state, reasons)
            for field in fields(batch):
                _assert_same_bits(getattr(batch, field.name), getattr(oracle, field.name), field.name)
            for reason, where in reasons.items():
                hit[reason] = hit.get(reason, False) or bool(where.any())
    expected = {"signal <= pump", "material range", "grazing", "critical angle", "pole"}
    if angles == "one":
        expected -= {"grazing", "critical angle", "pole"}
    assert {reason for reason, any_hit in hit.items() if any_hit} >= expected


@pytest.mark.parametrize("route", ["s", "p"])
def test_kept_pixels_have_the_coefficients_of_the_complex_formula(tmp_path, monkeypatch, route):
    # Every coefficient a sweep keeps has the bits of the complex
    # formula's real part, whose imaginary part is zero there.  Beyond an
    # interface's critical angle, where the complex formula continued to
    # |r| = 1, the float64 kernel gives nan, and the pixel is masked.
    from reference import complex_coefficient_arrays

    cfg = _wide_config(tmp_path, route)
    lams, thetas = cfg.signal_wavelengths(), cfg.internal_angles()
    pump_state = spectra._pump_state(cfg)
    calls = []
    kernel = spectra.coefficient_arrays

    def recording(indices, trig, polarization):
        calls.append((indices, trig, kernel(indices, trig, polarization)))
        return calls[-1][2]

    monkeypatch.setattr(spectra, "coefficient_arrays", recording)
    with np.errstate(all="ignore"):
        batch = spectra._build_batch(cfg, lams, thetas, 0, lams.size * thetas.size, pump_state)
    kept = ~batch.mask
    assert kept.any() and len(calls) == 2  # the signal, then the idler
    for indices, trig, coeffs in calls:
        with np.errstate(all="ignore"):
            oracle = complex_coefficient_arrays(indices, trig, cfg.polarization)
        sin_film = indices[1] * trig[1]
        for k, (x, z) in enumerate(zip(coeffs, oracle)):
            assert not np.imag(z[kept]).any()
            assert x[kept].tobytes() == np.real(z[kept]).tobytes()
            beyond = np.abs(sin_film) > indices[0 if k < 2 else 2]
            assert np.isnan(x[beyond]).all() and batch.mask[beyond].all()
        assert (np.abs(sin_film) > indices[0]).any()


def test_coefficients_keep_their_bits_under_baseline_dispatch():
    # Which SIMD kernels numpy dispatches to changes the bits of complex
    # arithmetic; the float64 kernel must match the complex formula with
    # every dispatch target switched off too.
    tests = [
        f"{Path(__file__).resolve()}::test_kept_pixels_have_the_coefficients_of_the_complex_formula",
        f"{Path(__file__).resolve().with_name('test_layerstack.py')}"
        "::test_coefficients_have_the_bits_of_the_complex_formula",
    ]
    proc = run_under_baseline_dispatch(tests)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "4 passed" in proc.stdout


# Angle axes for the mirror map: WIDE_GRID hits every mask reason, an
# asymmetric axis has angles with no mirror, and an odd count puts an
# angle at exactly 0.  None is exactly symmetric (README's is not either).
MIRROR_AXES = {
    "wide": WIDE_GRID,
    "asymmetric": dict(lambda_count=96, theta_min_rad=-0.2, theta_count=71),
    "odd": dict(lambda_count=96, theta_count=47),
}


@pytest.mark.parametrize("route", ["1e-3", "2.0", "chi2"])
@pytest.mark.parametrize("axis", list(MIRROR_AXES))
def test_grids_have_the_bits_of_evaluating_every_angle(axis, route):
    # The sweep evaluates each distinct |theta| once and gathers the
    # columns; `_evaluate_pixels` on the whole axis is the reference.
    text = config_text(**MIRROR_AXES[axis])
    if route == "chi2":
        text = text.replace("beta_plus = 1e-3", "field_v_per_m = 5e7").replace(
            "thickness_um = 10.15", "thickness_um = 10.15\nchi2_pm_per_v = 30.0"
        )
    else:
        text = text.replace("beta_plus = 1e-3", f"beta_plus = {route}")
    cfg = parse_config(text)
    lams, thetas = cfg.signal_wavelengths(), cfg.internal_angles()
    assert np.unique(np.abs(thetas)).size < thetas.size
    for config, models in ((cfg, GRID_MODELS[:2]), (_ff_only(cfg), GRID_MODELS[2:])):
        grids = frequency_angular_spectra(config, models)
        values, mask = spectra._evaluate_pixels(
            config, spectra._pump_state(config), lams, thetas, models, (config.beta_plus,),
            config.schemes, 1,
        )
        for m, model in enumerate(models):
            shape = grids[model].mask.shape
            assert grids[model].mask.any() and not grids[model].mask.all()
            _assert_same_bits(grids[model].mask, mask[m, 0].reshape(shape), model)
            for j, scheme in enumerate(config.schemes):
                _assert_same_bits(
                    grids[model].intensity[scheme], values[m, 0, j].reshape(shape),
                    f"{model} {scheme}",
                )


def test_grids_have_the_bits_of_evaluating_every_angle_under_baseline_dispatch():
    # The mirror map rests on numpy's cos being even and its sin odd, bit
    # for bit.  Which SIMD kernels numpy dispatches to changes the bits of
    # exp and of complex products, so rerun the check with every dispatch
    # target this CPU has switched off (about 3 s on a 2-core x86-64).
    test = f"{Path(__file__).resolve()}::test_grids_have_the_bits_of_evaluating_every_angle"
    proc = run_under_baseline_dispatch([test])
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert f"{len(MIRROR_AXES) * 3} passed" in proc.stdout


def test_grid_sweep_builds_each_distinct_angle_once(monkeypatch):
    # The README axis, np.linspace(-0.5, 0.5, 256), is not bitwise
    # symmetric: 96 angles differ from their mirror in the last bits, so
    # it has 176 distinct |theta|, and the sweep builds 512 x 176 pixels.
    cfg = parse_config(EXPERIMENT_CONFIG)
    pixels = []
    build_batch = spectra._build_batch

    def counting(config, lams, thetas, lo, hi, pump_state):
        pixels.append(hi - lo)
        return build_batch(config, lams, thetas, lo, hi, pump_state)

    monkeypatch.setattr(spectra, "_build_batch", counting)
    frequency_angular_spectra(cfg, ("simplified",))
    assert sum(pixels) == 512 * 176
    assert len(pixels) == 3


@pytest.mark.parametrize("command", ["spectrum", "compare"])
def test_material_lookups_scale_with_wavelengths_not_pixels(tmp_path, monkeypatch, command):
    # Each chunk looks up its run of wavelengths once per material, for
    # the signal and for the idler; a run shares at most one wavelength
    # with the previous chunk.  The pump's indices come with its interface
    # coefficients (`layerstack._indices`), so the film's is not looked up
    # again.  The sweep runs on the distinct |theta| only, so the chunks
    # are counted over those, and a smaller chunk makes boundaries that
    # split a wavelength's row.
    from spdc_etalon import cli

    monkeypatch.setattr(spectra, "_CHUNK_PIXELS", 10_000)
    cfg = _wide_config(tmp_path, "s")
    cfg_path = tmp_path / "wide.ini"
    cfg_path.write_text(config_text(**WIDE_GRID), encoding="utf-8")
    points = {"index_with_mask": 0, "refractive_index": 0}
    for name in points:
        lookup = getattr(spectra, name)

        def counting(model, wavelength_nm, _lookup=lookup, _name=name):
            points[_name] += np.size(wavelength_nm)
            return _lookup(model, wavelength_nm)

        monkeypatch.setattr(spectra, name, counting)
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    n_lam, n_theta = cfg.lambda_count, cfg.theta_count
    n_distinct = spectra._mirror_map(cfg.internal_angles())[0].size
    chunks = -(-n_lam * n_distinct // spectra._CHUNK_PIXELS)
    assert chunks == 4
    assert all(k * spectra._CHUNK_PIXELS % n_distinct for k in range(1, chunks))
    # Three materials, signal and idler: 6 lookups per wavelength, and
    # each boundary that splits a row looks its wavelength up again.
    assert points["index_with_mask"] == 6 * (n_lam + chunks - 1)
    assert points["refractive_index"] == 0
    assert points["index_with_mask"] < n_lam * n_theta / 20


def _traced_peak_bytes(fn):
    """Peak bytes traced while `fn` runs, above what was live before."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_grid_memory_is_bounded_by_the_chunk(monkeypatch):
    # Doubling the pixel count may only add the larger result arrays
    # (four float intensities and the bool mask per pixel): nothing
    # whole-grid of shape (n, 4, 4) may be held.
    monkeypatch.setattr(spectra, "_CHUNK_PIXELS", 2048)
    configs = [
        parse_config(config_text(lambda_count=lam, theta_count=64)) for lam in (128, 256)
    ]
    pixels = [cfg.lambda_count * cfg.theta_count for cfg in configs]
    assert pixels[0] >= 4 * spectra._CHUNK_PIXELS
    frequency_angular_spectra(configs[0], ("rigorous",))  # warm caches
    peaks = [
        _traced_peak_bytes(lambda cfg=cfg: frequency_angular_spectra(cfg, ("rigorous",)))
        for cfg in configs
    ]
    result_bytes_per_pixel = 4 * 8 + 1
    extra_result_bytes = (pixels[1] - pixels[0]) * result_bytes_per_pixel
    assert peaks[1] - peaks[0] <= 1.5 * extra_result_bytes


def _unblocked_rigorous_grid(cfg):
    """The rigorous grid from one solve over every pixel, masked or not,
    as the sweep evaluated it before it solved unmasked blocks only, with
    the generic BLAS scattering matrix of `reference`."""
    from reference import dense_operands, scattering_matrix
    from spdc_etalon.rigorous import boundary_matrices, interaction_matrix, pair_probabilities

    lams = cfg.signal_wavelengths()
    thetas = cfg.internal_angles()
    shape = (lams.size, thetas.size)
    with np.errstate(all="ignore"):
        batch = spectra._build_batch(
            cfg, lams, thetas, 0, lams.size * thetas.size, spectra._pump_state(cfg)
        )
        (beta_p,), (beta_m,) = batch.betas([cfg.beta_plus])
        boundary = boundary_matrices(batch.coeffs_s, batch.coeffs_i, batch.phi_s, batch.phi_i)
        w = interaction_matrix(beta_p, beta_m, batch.delta)
        u = scattering_matrix(*dense_operands(w, *boundary))
        probs = pair_probabilities(u, cfg.schemes)
        values = {s: probs[s] * batch.gauss for s in cfg.schemes}
    mask = batch.mask.copy()
    for s in cfg.schemes:
        mask |= ~np.isfinite(values[s])
    return spectra.SpectrumGrid(
        signal_wavelengths_nm=lams,
        internal_angles_rad=thetas,
        intensity={s: np.where(mask, 0.0, values[s]).reshape(shape) for s in cfg.schemes},
        mask=mask.reshape(shape),
    )


# Configs for the block tests: the README grid's masking (14%); most
# pixels masked; beta = 1000, where every pixel overflows, so the
# rigorous mask is the whole grid while the batch mask is not; and a
# large complex pump-enhanced beta.
BLOCK_CONFIGS = {
    "readme": {},
    "heavily-masked": dict(lambda_max_nm=4500.0, theta_min_rad=-1.4, theta_max_rad=1.4),
    "overflow": dict(beta_plus="1000"),
    "complex-beta": dict(beta_plus="0.5"),
}


@pytest.mark.parametrize(
    "block, chunk, counts",
    [
        (1, None, (12, 8)),
        (7, None, (12, 8)),
        (None, None, (96, 48)),
        (4096, 1000, (96, 48)),
    ],
)
@pytest.mark.parametrize("name", list(BLOCK_CONFIGS))
def test_rigorous_block_size_and_threads_do_not_change_bits(
    monkeypatch, name, block, chunk, counts
):
    # The blocked solve over unmasked pixels gives the same bits as one
    # solve over every pixel, for any block (1, 7, the default, larger
    # than a chunk) and thread count.
    cfg = parse_config(
        config_text(lambda_count=counts[0], theta_count=counts[1], **BLOCK_CONFIGS[name])
    )
    reference = _unblocked_rigorous_grid(cfg)
    batch_masked = frequency_angular_spectra(_ff_only(cfg), ("nonresonant",))["nonresonant"].mask
    assert batch_masked.any() and not batch_masked.all()
    if name == "heavily-masked":
        assert batch_masked.mean() > 0.5
    assert reference.mask.all() == (name == "overflow")
    if block is not None:
        monkeypatch.setattr(spectra, "_RIGOROUS_BLOCK", block)
    if chunk is not None:
        monkeypatch.setattr(spectra, "_CHUNK_PIXELS", chunk)
    for threads in (1, 2, 3):
        grid = frequency_angular_spectra(cfg, ("rigorous",), threads=threads)["rigorous"]
        assert_grids_equal(grid, reference)


def test_singular_matrices_mask_only_their_pixels():
    # README config, beta scales 1 to 200: at 200, LAPACK finds I - rho w
    # exactly singular at some wavelengths.  Those pixels, and only those,
    # are masked.  A call that meets one is solved again matrix by matrix,
    # so every (model, scale) cell of the grid keeps the bits it has when it
    # runs alone.
    from numpy.linalg import LinAlgError
    from reference import dense_operands

    from spdc_etalon.rigorous import boundary_matrices, interaction_matrix

    cfg = parse_config(EXPERIMENT_CONFIG)
    lams = cfg.signal_wavelengths()
    one = np.zeros(1)
    scales = np.geomspace(1.0, 200.0, 5)
    models = ("rigorous", "simplified")
    pump_state = spectra._pump_state(cfg)
    values, mask = spectra._evaluate_pixels(cfg, pump_state, lams, one, models, scales, ("ff",), 1)
    assert values.shape == (2, scales.size, 1, lams.size)
    assert mask.shape == (2, scales.size, lams.size)

    with np.errstate(all="ignore"):
        batch = spectra._build_batch(cfg, lams, one, 0, lams.size, pump_state)
        live = np.flatnonzero(~batch.mask)
        boundary = boundary_matrices(
            tuple(c[live] for c in batch.coeffs_s),
            tuple(c[live] for c in batch.coeffs_i),
            batch.phi_s[live],
            batch.phi_i[live],
        )
        w = interaction_matrix(*batch.betas(list(scales), live), batch.delta[live][None])
        w, tau1, _tau2, rho = dense_operands(w, *boundary)
        system = np.eye(4) - rho @ w
    singular = np.zeros(mask.shape[1:], dtype=bool)
    for k, j in np.ndindex(system.shape[:2]):
        try:
            np.linalg.solve(system[k, j], tau1[j])
        except LinAlgError:
            singular[k, live[j]] = True
    assert singular[-1].any() and not singular[:-1].any()
    assert np.array_equal(mask[0], batch.mask | singular)

    for m, model in enumerate(models):
        for k, scale in enumerate(scales):
            alone, alone_mask = spectra._evaluate_pixels(
                cfg, pump_state, lams, one, (model,), (scale,), ("ff",), 1
            )
            assert np.array_equal(alone_mask[0, 0], mask[m, k])
            assert alone[0, 0].tobytes() == values[m, k].tobytes()


@pytest.mark.parametrize("betas", [[np.nan], [np.inf], [0.1, -np.inf], [0.0], [[0.1, 0.2]], []])
def test_gain_curve_rejects_bad_betas(betas):
    cfg = parse_config(config_text(lambda_count=16, theta_count=2))
    with pytest.raises(ValueError, match="beta values must be"):
        gain_and_agreement_curve(cfg, betas)


@pytest.mark.parametrize("block, chunk", [(1, None), (7, 37), (200, 37)])
def test_gain_curve_does_not_depend_on_the_rigorous_block(monkeypatch, block, chunk):
    cfg = parse_config(config_text(lambda_count=128, theta_count=2))
    betas = [1e-3, 0.1, 1.0, 2.0, 3.5]
    reference = gain_and_agreement_curve(cfg, betas)
    monkeypatch.setattr(spectra, "_RIGOROUS_BLOCK", block)
    if chunk is not None:
        monkeypatch.setattr(spectra, "_CHUNK_PIXELS", chunk)
    for threads in (1, 2):
        assert_curves_equal(gain_and_agreement_curve(cfg, betas, threads=threads), reference)


# Trailing axes of one matrix in what each rigorous step returns: w as
# two 2x2 blocks, the boundary matrices as four entries each, U dense.
MATRIX_NDIM = {"interaction_matrix": 3, "boundary_matrices": 1, "scattering_matrix": 2}


def _matrix_counts(name, result):
    """Matrices per array that the rigorous step `name` returned."""
    arrays = result if isinstance(result, tuple) else (result,)
    return [int(np.prod(a.shape[: -MATRIX_NDIM[name]])) for a in arrays]


@pytest.mark.parametrize("block", [None, 7])
def test_gain_curve_runs_every_beta_in_each_rigorous_call(monkeypatch, block):
    # Each rigorous call serves all betas of a gain curve, and none holds
    # more than max(_RIGOROUS_BLOCK, betas) matrices (or probabilities).
    cfg = parse_config(config_text(lambda_count=1024, theta_count=2))
    betas = np.geomspace(1e-2, 4.0, 21)
    if block is not None:
        monkeypatch.setattr(spectra, "_RIGOROUS_BLOCK", block)
    per_call = max(1, spectra._RIGOROUS_BLOCK // betas.size) * betas.size
    calls = {}
    for name in ("pair_probabilities", *MATRIX_NDIM):
        fn = getattr(spectra, name)

        def recorded(*args, fn=fn, name=name, **kwargs):
            result = fn(*args, **kwargs)
            if name == "pair_probabilities":
                sizes = [result["ff"].size]
            else:
                sizes = _matrix_counts(name, result)
            calls.setdefault(name, []).append(sizes)
            return result

        monkeypatch.setattr(spectra, name, recorded)
    gain_and_agreement_curve(cfg, betas)
    assert len({len(c) for c in calls.values()}) == 1  # one of each per block
    assert len(calls["scattering_matrix"]) > 1
    sizes = [size for c in calls.values() for sizes in c for size in sizes]
    assert max(sizes) == per_call <= max(spectra._RIGOROUS_BLOCK, betas.size)
    assert max(s for (s,) in calls["interaction_matrix"]) == per_call


def test_rigorous_memory_grows_with_the_block_not_the_chunk(monkeypatch):
    # One default chunk of pixels.  The rigorous working set is a few
    # complex 4x4 matrices per pixel of a block; growing the chunk may
    # only add the kinematics batch (a few hundred bytes per pixel).
    cfg = parse_config(config_text(lambda_count=256, theta_count=128))
    chunk = spectra._CHUNK_PIXELS
    assert cfg.lambda_count * cfg.theta_count == chunk
    matrix_bytes = 4 * 4 * 16

    def grid():
        frequency_angular_spectra(cfg, ("rigorous",))

    rows = []
    for name in MATRIX_NDIM:
        fn = getattr(spectra, name)

        def recorded(*args, fn=fn, name=name, **kwargs):
            result = fn(*args, **kwargs)
            rows.extend(_matrix_counts(name, result))
            return result

        monkeypatch.setattr(spectra, name, recorded)
    grid()
    assert max(rows) == spectra._RIGOROUS_BLOCK
    monkeypatch.undo()

    by_block = {}
    for block in (4096, 8192):
        monkeypatch.setattr(spectra, "_RIGOROUS_BLOCK", block)
        by_block[block] = _traced_peak_bytes(grid)
    assert by_block[8192] - by_block[4096] >= 4096 * 4 * matrix_bytes
    monkeypatch.undo()

    by_chunk = {}
    for size in (chunk // 4, chunk):
        monkeypatch.setattr(spectra, "_CHUNK_PIXELS", size)
        by_chunk[size] = _traced_peak_bytes(grid)
    assert by_chunk[chunk] - by_chunk[chunk // 4] <= (chunk - chunk // 4) * 2 * matrix_bytes


def test_grid_engine_matches_op_composition(experiment_stack):
    # Factorization consistency: the sweep engine's simplified pixels
    # equal the operation-by-operation product P x S.
    from test_simplified import _point_prediction

    cfg = parse_config(
        config_text(
            lambda_min_nm=1400.0,
            lambda_max_nm=1800.0,
            lambda_count=5,
            theta_min_rad=-0.2,
            theta_max_rad=0.2,
            theta_count=3,
        )
    )
    grid = frequency_angular_spectra(cfg, ("simplified",))["simplified"]
    for i, lam in enumerate(grid.signal_wavelengths_nm):
        for j, theta in enumerate(grid.internal_angles_rad):
            if grid.mask[i, j]:
                continue
            point, _ = _point_prediction(experiment_stack, float(lam), float(theta), 1e-3)
            for scheme in ("ff", "bb", "fb", "bf"):
                assert grid.intensity[scheme][i, j] == pytest.approx(
                    point[scheme], rel=1e-12
                )


def test_chi2_route_matches_interaction_params_op(experiment_stack):
    # The sweep's chi2/field route must agree with the interaction
    # strengths of the oracle, composed by hand.
    from dataclasses import replace

    from reference import (
        interaction_params,
        interface_coeffs,
        pair_probabilities,
        propagation_phase,
        pump_enhancement,
        solve_idler,
    )
    from spdc_etalon import boundary_matrices, interaction_matrix, scattering_matrix

    text = config_text(
        lambda_min_nm=1500.0,
        lambda_max_nm=1700.0,
        lambda_count=3,
        theta_min_rad=-0.05,
        theta_max_rad=0.05,
        theta_count=3,
    ).replace("beta_plus = 1e-3", "field_v_per_m = 5e7")
    text = text.replace("thickness_um = 10.15", "thickness_um = 10.15\nchi2_pm_per_v = 30.0")
    cfg = parse_config(text)
    grid = frequency_angular_spectra(cfg, ("rigorous",))["rigorous"]

    stack = replace(experiment_stack, chi2_pm_per_v=30.0)
    pump = Mode(788.0, 0.0, role="pump")
    e_fwd, e_bwd = pump_enhancement(
        interface_coeffs(stack, pump), propagation_phase(stack, pump)
    )
    field = 5e7
    for i, lam in enumerate(grid.signal_wavelengths_nm):
        for j, theta in enumerate(grid.internal_angles_rad):
            signal = Mode(float(lam), float(theta))
            idler = solve_idler(pump, signal, stack)
            p = interaction_params(
                stack, pump, signal, idler, (field * e_fwd, field * e_bwd)
            )
            w = interaction_matrix(p.beta_plus, p.beta_minus, p.delta)
            tau1, tau2, rho = boundary_matrices(
                interface_coeffs(stack, signal),
                interface_coeffs(stack, idler),
                propagation_phase(stack, signal),
                propagation_phase(stack, idler),
            )
            probs = pair_probabilities(scattering_matrix(w, tau1, tau2, rho))
            assert grid.intensity["ff"][i, j] == pytest.approx(probs["ff"], rel=1e-10)


def test_low_gain_agreement_holds_for_p_polarization():
    cfg = parse_config(
        config_text(lambda_count=64, theta_count=24).replace(
            "[grid]", "[model]\npolarization = p\n\n[grid]"
        )
    )
    assert cfg.polarization == "p"
    simp = frequency_angular_spectra(cfg, ("simplified",))["simplified"]
    rig = frequency_angular_spectra(cfg, ("rigorous",))["rigorous"]
    assert compare_grids(simp, rig, "ff") >= 0.999


def test_exchange_symmetry_of_ff_density(experiment_stack):
    # Unnormalized ff density at normal emission is invariant under the
    # signal/idler exchange lam_s <-> lam_i, for the asymmetric stack too.
    from test_simplified import _point_prediction

    for lam_s in (1300.0, 1450.0, 1700.0):
        lam_i = 788.0 * lam_s / (lam_s - 788.0)
        a, _ = _point_prediction(experiment_stack, lam_s, 0.0, 1e-3)
        b, _ = _point_prediction(experiment_stack, lam_i, 0.0, 1e-3)
        assert a["ff"] == pytest.approx(b["ff"], rel=1e-9)


# Signal-idler exchange: the pixel (lam_i, theta_i) of the idler solved
# from (lam_s, theta_s) describes the same pair with the photons
# relabeled, so ff and bb must agree and fb and bf swap.  The check runs
# the whole pixel pipeline (idler kinematics, both modes' optics, the SI
# coupling prefactor and the model) and comes from no formula in src/.
# Bound: 1e-9 of the pixel's largest scheme value.  The swapped pixel's
# idler angle is solved again and does not return theta_s bit for bit;
# that leaves about 1e-10 on the chi2/field route and less elsewhere.
EXCHANGE_BOUND = 1e-9
SWAPPED = {"ff": "ff", "bb": "bb", "fb": "bf", "bf": "fb"}


def _exchange_errors(cfg, model, scales, rng, draws=200):
    """max |I - I_swapped| / max I over the schemes of `cfg`, one row per
    random README-grid pixel whose pair is unmasked, one column per scale."""
    from reference import solve_idler

    schemes = cfg.schemes
    swap = [schemes.index(SWAPPED[s]) for s in schemes]
    pump = Mode(cfg.pump_wavelength_nm, 0.0, role="pump")
    errors = []
    for _ in range(draws):
        signal = Mode(rng.uniform(1100.0, 2400.0), rng.uniform(-0.5, 0.5))
        results = [
            spectra._evaluate_pixels(
                cfg, spectra._pump_state(cfg), np.array([m.vacuum_wavelength_nm]),
                np.array([m.internal_angle_rad]), (model,), scales, schemes, 1,
            )
            for m in (signal, solve_idler(pump, signal, cfg.build_stack()))
        ]
        if any(mask.any() for _, mask in results):
            continue
        a, b = (values[0, ..., 0] for values, _ in results)
        errors.append(np.max(np.abs(a - b[:, swap]), axis=1) / np.max(a, axis=1))
    assert len(errors) > draws // 2
    return np.array(errors)


@pytest.mark.parametrize("route", ["beta", "chi2-field"])
def test_signal_idler_exchange_simplified(rng, route):
    cfg = parse_config(EXPERIMENT_CONFIG)
    scales = (1e-3, 0.5, 2.0, 0.3 + 0.4j)
    if route == "chi2-field":
        text = EXPERIMENT_CONFIG.replace("beta_plus = 1e-3", "field_v_per_m = 5e7")
        cfg = parse_config(text.replace("thickness_um", "chi2_pm_per_v = 30.0\nthickness_um"))
        scales = (None,)
    errors = _exchange_errors(cfg, "simplified", scales, rng)
    assert errors.max() <= EXCHANGE_BOUND, errors.max(axis=0)


def test_signal_idler_exchange_nonresonant(rng):
    cfg = _ff_only(parse_config(EXPERIMENT_CONFIG))
    errors = _exchange_errors(cfg, "nonresonant", (cfg.beta_plus,), rng)
    assert errors.max() <= EXCHANGE_BOUND, errors.max()


# ---- r_squared -------------------------------------------------------------


def test_r_squared_identical_arrays():
    x = np.array([0.1, 0.5, 1.0, 0.3])
    assert r_squared(x, x) == 1.0


def test_r_squared_mean_reference_is_zero():
    b = np.array([0.0, 0.5, 1.0, 0.5])
    a = np.full(4, np.mean(b))
    # After unit-max normalization of `a` the comparison stays constant.
    assert r_squared(a, b) == pytest.approx(
        1.0 - np.sum((1.0 - b) ** 2) / np.sum((b - 0.5) ** 2)
    )


def test_r_squared_hand_computed_case():
    b = np.array([0.0, 0.5, 1.0, 0.5])
    a = np.array([0.1, 0.4, 1.0, 0.6])
    # residuals 0.01 * 3, variance 0.5 -> 1 - 0.03/0.5
    assert r_squared(a, b) == pytest.approx(0.94, rel=1e-12)


def test_r_squared_zero_variance_error():
    with pytest.raises(SpdcEtalonError, match="^reference array has zero variance$"):
        r_squared(np.array([1.0, 2.0]), np.array([3.0, 3.0]))


@pytest.mark.parametrize("shapes", [((4,), (3,)), ((4,), (4, 1)), ((2, 3), (3, 2))])
def test_r_squared_refuses_arrays_of_different_shapes(shapes):
    a, b = (np.ones(shape) for shape in shapes)
    with pytest.raises(ValueError, match=r"^arrays must have the same shape$"):
        r_squared(a, b)


def test_r_squared_mask_excludes_entries():
    b = np.array([0.0, 0.5, 1.0, 0.5])
    a = np.array([0.0, 0.5, 1.0, 99.0])
    mask = np.array([False, False, False, True])
    assert r_squared(a, b, mask=mask) == 1.0


@pytest.mark.parametrize("mask_shape", [(4,), (1,), (3, 1), (4, 3)])
def test_r_squared_refuses_a_mask_of_another_shape(rng, mask_shape):
    # A mask that merely broadcasts would drop or keep entries it was
    # never meant for.
    a, b = rng.uniform(size=(2, 3, 4))
    mask = np.zeros(mask_shape, dtype=bool)
    mask.flat[0] = True
    with pytest.raises(ValueError, match="^mask must have the arrays' shape$"):
        r_squared(a, b, mask=mask)
    assert r_squared(a, b, mask=np.zeros((3, 4), dtype=bool)) == r_squared(a, b)


# ---- gain_and_agreement_curve ----------------------------------------------


# The gain curve's columns, in the order the gain-curve CSV writes them.
GAIN_COLUMNS = ("beta_scale", "beta_plus_abs", "beta_over_half_delta", "re_gamma_plus", "r_squared")


def assert_curves_equal(curve, reference):
    assert list(curve) == list(reference)
    for column in reference:
        assert np.array_equal(curve[column], reference[column]), column


def test_gain_curve_limits_and_threshold():
    cfg = parse_config(config_text(lambda_count=128, theta_count=2))
    betas = [1e-3, 0.1, 1.0, 2.0, 3.5]
    curve = gain_and_agreement_curve(cfg, betas)
    assert list(curve) == list(GAIN_COLUMNS)
    for column in curve.values():
        assert column.dtype == np.float64 and column.shape == (len(betas),)
    assert np.array_equal(curve["beta_scale"], betas)
    r2 = curve["r_squared"]
    assert r2[0] > 0.9999
    assert np.all(np.diff(r2) < 0)
    # Agreement persists through the low-gain decade.
    assert np.all(r2[curve["beta_plus_abs"] ** 2 <= 1e-2] >= 0.99)
    ratio, re_gamma = curve["beta_over_half_delta"], curve["re_gamma_plus"]
    assert np.all(re_gamma[ratio < 1.0] == 0.0)
    assert np.all(re_gamma[ratio >= 1.0] > 0.0)


def test_non_finite_pump_enhancement_is_an_error_without_a_warning():
    # A film index of 1e308 overflows the pump phase; no pixel could be
    # evaluated, and the error names the pump enhancement.
    cfg = parse_config(config_text(lambda_count=32, theta_count=4, film="constant:1e308"))
    runs = (
        lambda: frequency_angular_spectra(cfg, ("simplified",))["simplified"],
        lambda: gain_and_agreement_curve(cfg, [1e-3, 0.5]),
        lambda: detection_spectrum(cfg),
    )
    for run in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpdcEtalonError, match="^pump enhancement is not finite") as err:
                run()
        assert type(err.value) is SpdcEtalonError


def test_gain_curve_golden_regression():
    # Frozen from the first verified run; guards against silent drift
    # in any layer of the chain (dispersion, coefficients, both models).
    golden = [
        (0.01, 0.008557868636457768, 0.005285355547882188, 0.0, 0.9999999695260943),
        (0.1, 0.08557868636457769, 0.05285355547882189, 0.0, 0.9997011693019335),
        (1.0, 0.8557868636457768, 0.5285355547882188, 0.0, 0.16174780334669847),
        (2.0, 1.7115737272915537, 1.0570711095764376, 0.5547843716978856, -3.7850246927682853),
    ]
    cfg = parse_config(config_text(lambda_count=128, theta_count=2))
    curve = gain_and_agreement_curve(cfg, [g[0] for g in golden])
    for k, (scale, b_abs, b_norm, re_g, rr) in enumerate(golden):
        assert curve["beta_plus_abs"][k] == pytest.approx(b_abs, rel=1e-9)
        assert curve["beta_over_half_delta"][k] == pytest.approx(b_norm, rel=1e-9)
        assert curve["re_gamma_plus"][k] == pytest.approx(re_g, rel=1e-9, abs=1e-12)
        assert curve["r_squared"][k] == pytest.approx(rr, rel=1e-6)


def _gain_curve_one_beta_per_call(config, beta_values, threads=1):
    """Reference gain sweep: one config, kinematics batch and model
    evaluation per (beta, model), as the sweep ran before every beta
    shared one batch."""
    from spdc_etalon import gain_term, refractive_index

    stack = config.build_stack()
    e_fwd, _e_bwd, kp_par = spectra._pump_state(config)
    lam_deg = 2.0 * config.pump_wavelength_nm
    n_deg = refractive_index(stack.film, lam_deg)
    ks_deg = 2.0 * np.pi * n_deg / lam_deg
    delta_deg = stack.thickness_nm * (kp_par - 2.0 * ks_deg)
    half_delta = abs(delta_deg) / 2.0

    lams = config.signal_wavelengths()
    curve = {column: [] for column in GAIN_COLUMNS}
    for scale in np.asarray(beta_values, dtype=float):
        cfg = replace(
            config, beta_plus=complex(scale), chi2_pm_per_v=None, pump_field_v_per_m=None
        )
        curves = {}
        for model in ("rigorous", "simplified"):
            values, mask = spectra._evaluate_pixels(
                cfg, spectra._pump_state(cfg), lams, np.zeros(1), (model,), (cfg.beta_plus,),
                ("ff",), threads,
            )
            curves[model] = values[0, 0, 0], mask[0, 0]
        (rig, mask_r), (smp, mask_s) = curves["rigorous"], curves["simplified"]
        beta_abs = abs(scale * e_fwd)
        row = (
            float(scale),
            float(beta_abs),
            float(beta_abs / half_delta),
            float(np.real(gain_term(beta_abs, delta_deg))),
            r_squared(smp, rig, mask=mask_r | mask_s),
        )
        for column, value in zip(curve.values(), row):
            column.append(value)
    return {column: np.array(values) for column, values in curve.items()}


def test_gain_curve_equals_one_beta_per_call_reference(monkeypatch):
    cfg = parse_config(config_text(lambda_count=128, theta_count=2))
    betas = [1e-3, 0.1, 1.0, 2.0, 3.5]
    reference = _gain_curve_one_beta_per_call(cfg, betas)
    assert np.isfinite(reference["r_squared"]).all()
    monkeypatch.setattr(spectra, "_CHUNK_PIXELS", 37)
    assert spectra._CHUNK_PIXELS < cfg.lambda_count
    for threads in (1, 3):
        assert_curves_equal(gain_and_agreement_curve(cfg, betas, threads=threads), reference)


def test_random_stacks_low_gain_equivalence(rng):
    # The model equivalence is a property of the formalism, not of one
    # geometry: random lossless three-region stacks must agree too.
    for _ in range(5):
        n2 = rng.uniform(1.8, 3.2)
        n1 = rng.uniform(1.0, n2 - 0.1)
        n3 = rng.uniform(1.0, 3.5)
        thickness_um = rng.uniform(4.0, 14.0)
        cfg = parse_config(
            config_text(
                superstrate=f"constant:{n1}",
                film=f"constant:{n2}",
                substrate=f"constant:{n3}",
                thickness_um=repr(thickness_um),
                lambda_min_nm=1200.0,
                lambda_max_nm=2200.0,
                lambda_count=48,
                theta_min_rad=-0.3,
                theta_max_rad=0.3,
                theta_count=12,
            )
        )
        simp = frequency_angular_spectra(cfg, ("simplified",))["simplified"]
        rig = frequency_angular_spectra(cfg, ("rigorous",))["rigorous"]
        keep = ~(simp.mask | rig.mask)
        assert keep.sum() > keep.size // 2
        a = simp.intensity["ff"]
        b = rig.intensity["ff"]
        a = a / np.max(a[keep])
        b = b / np.max(b[keep])
        assert compare_grids(simp, rig, "ff") >= 0.999
        assert np.max(np.abs(a[keep] - b[keep])) <= 1e-2


def test_gain_curve_normalization_reference():
    cfg = parse_config(config_text(lambda_count=64, theta_count=2))
    curve = gain_and_agreement_curve(cfg, [0.5])
    # |beta+| = scale * |pump enhancement|; both reported consistently.
    (beta_abs,), (ratio,) = curve["beta_plus_abs"], curve["beta_over_half_delta"]
    assert beta_abs == pytest.approx(ratio * abs(3.2383322404438462) / 2.0, rel=1e-9)


# ---- detection_spectrum ------------------------------------------------------


def test_detection_flat_envelope_recovers_bare_spectrum(small_config):
    lams, rate, mask = detection_spectrum(small_config)
    grid_cfg = parse_config(
        config_text(lambda_count=96, theta_count=2, theta_min_rad=0.0, theta_max_rad=0.1)
    )
    # Same lambda axis at theta = 0 from the grid engine, first column.
    grid = frequency_angular_spectra(grid_cfg, ("simplified",))["simplified"]
    bare = grid.intensity["ff"][:, 0]
    keep = ~mask & ~grid.mask[:, 0]
    assert np.allclose(
        rate[keep] / np.max(rate[keep]), bare[keep] / np.max(bare[keep]), rtol=1e-9
    )
    assert np.max(rate[~mask]) == 1.0


def test_detection_backward_efficiency_bitwise(small_config):
    backward = small_config._replace_keeping_stack(detection_scheme="backward")
    _, unscaled, _ = detection_spectrum(backward)
    _, scaled, _ = detection_spectrum(backward._replace_keeping_stack(efficiency_ratio=0.4))
    assert np.array_equal(scaled, 0.4 * unscaled)


def test_detection_split_scheme_scaling(small_config):
    split = small_config._replace_keeping_stack(detection_scheme="forward_backward")
    _, unscaled, _ = detection_spectrum(split)
    _, scaled, _ = detection_spectrum(split._replace_keeping_stack(efficiency_ratio=0.25))
    assert np.array_equal(scaled, 0.5 * unscaled)


def test_detection_envelope_weighting_symmetric_about_degeneracy():
    # Config whose wavelength axis contains an exact conjugate pair at
    # both ends; with any envelope centered at degeneracy the detected
    # rate is equal on the pair.
    lam_lo = 1376.0
    lam_hi = 788.0 * lam_lo / (lam_lo - 788.0)
    cfg = parse_config(
        config_text(lambda_min_nm=lam_lo, lambda_max_nm=repr(lam_hi), lambda_count=3)
    )
    cfg = replace(cfg, envelope_center_nm=1576.0, envelope_fwhm_nm=300.0)
    _, rate, mask = detection_spectrum(cfg)
    assert not mask[0] and not mask[-1]
    assert rate[0] == pytest.approx(rate[-1], rel=1e-9)


def test_envelope_model_shape():
    # `RunConfig.validate` owns the width and amplitude rules (test_cli).
    assert spectra._envelope(1576.0, 1576.0, 100.0, 2.0) == 2.0
    half = spectra._envelope(1626.0, 1576.0, 100.0, 2.0)  # half maximum at fwhm/2
    assert half == pytest.approx(1.0, rel=1e-12)


# ---- transmission_curve ------------------------------------------------------


def test_transmission_matched_stack_is_unity():
    cfg = parse_config(config_text(lambda_count=64, theta_count=2, **MATCHED_OVERRIDES))
    _, trans, mask = transmission_curve(cfg)
    assert not mask.any()
    assert np.allclose(trans, 1.0, atol=1e-12)


def test_transmission_bounded_for_lossless_stack(small_config):
    _, trans, _ = transmission_curve(small_config)
    assert np.all(trans <= 1.0 + 1e-12)
    assert np.all(trans >= 0.0)
    assert np.ptp(trans) > 0.1  # visible etalon fringes


# ---- commutator preservation -------------------------------------------------


@pytest.mark.parametrize("beta", [0.0, 0.3, 2.0])
def test_scattering_matrix_preserves_commutators_for_real_beta(small_config, beta):
    # For a lossless stack the Bogoliubov map keeps the commutators of the
    # signal and idler-dagger operators: U G U^dagger = G.  With a real
    # beta on both pump branches this holds at every unmasked pixel; beta
    # = 2 puts part of the grid above threshold (real gamma).
    from spdc_etalon.rigorous import (
        boundary_matrices,
        gain_term,
        interaction_matrix,
        scattering_matrix,
    )

    lams = small_config.signal_wavelengths()
    thetas = small_config.internal_angles()
    with np.errstate(all="ignore"):
        batch = spectra._build_batch(
            small_config,
            lams,
            thetas,
            0,
            lams.size * thetas.size,
            spectra._pump_state(small_config),
        )
        b = np.full(batch.delta.shape, beta, dtype=complex)
        gamma = gain_term(b, batch.delta)
        u = scattering_matrix(
            interaction_matrix(b, b, batch.delta),
            *boundary_matrices(batch.coeffs_s, batch.coeffs_i, batch.phi_s, batch.phi_i),
        )
    g = np.diag([1.0, -1.0, 1.0, -1.0])
    live = ~batch.mask
    assert live.mean() > 0.8
    residual = np.abs(u[live] @ g @ np.conj(np.swapaxes(u[live], -1, -2)) - g)
    assert residual.max() <= 1e-10
    if beta == 2.0:
        above = np.abs(gamma[live].real) > 0
        assert 0 < above.mean() < 1


def test_a_callers_error_state_does_not_reach_inside_an_entry():
    # A 1e-320 um film: its delta at the degenerate point is subnormal,
    # and beta over delta / 2 overflows.  Each entry ignores floating-point
    # errors, so a caller that asks numpy to raise on every one gets the
    # bits of a caller that ignores them all, and no warning.
    config = parse_config(config_text(lambda_count=16, theta_count=8, thickness_um="1e-320"))

    def arrays():
        grids = frequency_angular_spectra(config, ("simplified", "rigorous"), threads=2)
        return [
            *(a for g in grids.values() for a in (*g.intensity.values(), g.mask)),
            *gain_and_agreement_curve(config).values(),
            *detection_spectrum(config),
            *transmission_curve(config),
        ]

    with np.errstate(all="ignore"):
        expected = [a.tobytes() for a in arrays()]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert [a.tobytes() for a in arrays()] == expected
