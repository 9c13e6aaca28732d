import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spdc_etalon import spectra
from spdc_etalon import (
    ConfigError,
    EnvelopeModel,
    GeometryError,
    Mode,
    SpdcEtalonError,
    ZeroVarianceError,
    compare_grids,
    detection_spectrum,
    frequency_angular_spectra,
    frequency_angular_spectrum,
    gain_and_agreement_curve,
    parse_config,
    r_squared,
    solve_idler,
    transmission_curve,
)
from conftest import EXPERIMENT_CONFIG, config_text

MATCHED_OVERRIDES = dict(superstrate="linbo3_e", substrate="linbo3_e")


def _ff_only(cfg):
    """`cfg` with the one scheme the nonresonant model has."""
    return cfg._replace_keeping_stack(schemes=("ff",))


def _model_config(cfg, model):
    """`cfg` as `model` can run it: the nonresonant model has only ff."""
    return _ff_only(cfg) if model == "nonresonant" else cfg


def test_solve_idler_degenerate_exact(experiment_stack):
    pump = Mode(788.0, 0.0, role="pump")
    idler = solve_idler(pump, Mode(1576.0, 0.0), experiment_stack)
    assert idler.vacuum_wavelength_nm == 1576.0
    assert idler.internal_angle_rad == 0.0
    assert idler.role == "idler"


def test_solve_idler_energy_conservation_value(experiment_stack):
    pump = Mode(788.0, 0.0, role="pump")
    idler = solve_idler(pump, Mode(1300.0, 0.0), experiment_stack)
    assert idler.vacuum_wavelength_nm == pytest.approx(2000.78125, abs=1e-6)


def test_solve_idler_rejects_short_signal(experiment_stack):
    pump = Mode(788.0, 0.0, role="pump")
    with pytest.raises(GeometryError):
        solve_idler(pump, Mode(700.0, 0.0), experiment_stack)
    with pytest.raises(GeometryError):
        solve_idler(pump, Mode(788.0, 0.0), experiment_stack)


def test_solve_idler_normal_symmetry(experiment_stack):
    pump = Mode(788.0, 0.0, role="pump")
    for lam in (1200.0, 1576.0, 2200.0):
        assert solve_idler(pump, Mode(lam, 0.0), experiment_stack).internal_angle_rad == 0.0


def test_solve_idler_zeroes_transverse_mismatch(experiment_stack):
    from spdc_etalon import refractive_index, wavevector_components

    pump = Mode(788.0, 0.0, role="pump")
    signal = Mode(1500.0, 0.2)
    idler = solve_idler(pump, signal, experiment_stack)
    _, ks_perp = wavevector_components(
        signal, refractive_index(experiment_stack.film, 1500.0)
    )
    _, ki_perp = wavevector_components(
        idler, refractive_index(experiment_stack.film, idler.vacuum_wavelength_nm)
    )
    assert ks_perp + ki_perp == pytest.approx(0.0, abs=1e-15)


def test_solve_idler_opposite_sign_angle(experiment_stack):
    pump = Mode(788.0, 0.0, role="pump")
    idler = solve_idler(pump, Mode(1500.0, 0.2), experiment_stack)
    assert idler.internal_angle_rad < 0


# ---- frequency_angular_spectrum -------------------------------------------


def test_nonresonant_matched_grid_equals_phase_matching():
    cfg = parse_config(
        config_text(lambda_count=48, theta_count=24, **MATCHED_OVERRIDES)
    )
    grid = frequency_angular_spectrum(_ff_only(cfg), "nonresonant")
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
        frequency_angular_spectrum(cfg, "nonresonant")


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
        frequency_angular_spectrum(cfg, "nonresonant")
    with pytest.raises(ConfigError, match=message):
        frequency_angular_spectra(cfg, GRID_MODELS)
    assert list(frequency_angular_spectra(cfg, GRID_MODELS[:2])) == list(GRID_MODELS[:2])


def test_grid_models_agree_at_low_gain(small_config):
    simp = frequency_angular_spectrum(small_config, "simplified")
    rig = frequency_angular_spectrum(small_config, "rigorous")
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
    simp = frequency_angular_spectrum(cfg, "simplified")
    rig = frequency_angular_spectrum(cfg, "rigorous")
    assert compare_grids(simp, rig, "ff") < 0.9


def test_grid_mask_and_finiteness(small_config):
    for model in ("nonresonant", "simplified", "rigorous"):
        grid = frequency_angular_spectrum(_model_config(small_config, model), model)
        for scheme, arr in grid.intensity.items():
            assert np.all(np.isfinite(arr)), (model, scheme)
            assert np.all(arr[grid.mask] == 0.0)
            assert np.all(arr >= 0.0)
        # Corner pixels past the grazing-idler boundary are masked.
        assert grid.mask.any()
        assert not grid.mask.all()


def test_grid_normalized_unit_max(small_config):
    grid = frequency_angular_spectrum(small_config, "simplified").normalized()
    peak = max(np.max(arr[~grid.mask]) for arr in grid.intensity.values())
    assert peak == 1.0


def test_grid_thread_count_does_not_change_bits(small_config):
    base = frequency_angular_spectrum(small_config, "rigorous", threads=1)
    for threads in (2, 5):
        other = frequency_angular_spectrum(small_config, "rigorous", threads=threads)
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
    reference = {m: frequency_angular_spectrum(configs[m], m) for m in GRID_MODELS}
    assert reference["rigorous"].mask.any() and not reference["rigorous"].mask.all()
    monkeypatch.setattr(spectra, "_CHUNK_PIXELS", chunk)
    for model in GRID_MODELS:
        for threads in (1, 2, 3):
            grid = frequency_angular_spectrum(configs[model], model, threads=threads)
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
            frequency_angular_spectrum(cfg, "rigorous", threads=threads)
        assert 0 in started and len(started) < chunks / 2


@pytest.mark.parametrize("beta", ["1e-3", "1000"])
def test_one_pass_grids_equal_single_model_grids(monkeypatch, beta):
    # At beta = 1000 the rigorous model overflows at every pixel while
    # the others do not: each model must keep its own mask.
    # The nonresonant model has only ff, so all three models share a pass
    # on ff alone, and the other two also share one on every scheme.
    cfg = parse_config(config_text(lambda_count=40, theta_count=12, beta_plus=beta))
    runs = ((_ff_only(cfg), GRID_MODELS), (cfg, GRID_MODELS[:2]))
    references = [{m: frequency_angular_spectrum(c, m) for m in models} for c, models in runs]
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
# range edge (and idlers past it near the pump), grazing and pole pixels
# at +-pi/2 (where r1 r2 e^{2 i phi} -> 1), and critical angles beyond
# about 0.5 rad.  131 angles do not divide `_CHUNK_PIXELS`, so a chunk
# boundary falls inside a wavelength's row; 39300 pixels make two chunks.
WIDE_GRID = dict(
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


@pytest.mark.parametrize("command", ["spectrum", "compare"])
def test_material_lookups_scale_with_wavelengths_not_pixels(tmp_path, monkeypatch, command):
    # Each chunk looks up its run of wavelengths once per material, for
    # the signal and for the idler; a run shares at most one wavelength
    # with the previous chunk.  The pump's index is one more point.
    from spdc_etalon import cli

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
    chunks = -(-n_lam * n_theta // spectra._CHUNK_PIXELS)
    assert chunks == 2
    # Three materials, signal and idler: 6 lookups per wavelength.
    assert 6 * n_lam <= points["index_with_mask"] <= 6 * (n_lam + chunks - 1)
    assert points["refractive_index"] == 1
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
    frequency_angular_spectrum(configs[0], "rigorous")  # warm caches
    peaks = [
        _traced_peak_bytes(lambda cfg=cfg: frequency_angular_spectrum(cfg, "rigorous"))
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
    from spdc_etalon.layerstack import InterfaceCoeffs
    from spdc_etalon.rigorous import (
        InteractionParams,
        boundary_matrices,
        interaction_matrix,
        pair_probabilities,
    )

    lams = cfg.signal_wavelengths()
    thetas = cfg.internal_angles()
    shape = (lams.size, thetas.size)
    with np.errstate(all="ignore"):
        batch = spectra._build_batch(
            cfg, lams, thetas, 0, lams.size * thetas.size, spectra._pump_state(cfg)
        )
        (beta_p,), (beta_m,) = batch.betas([cfg.beta_plus])
        params = InteractionParams(beta_p, beta_m, batch.delta)
        boundary = boundary_matrices(
            InterfaceCoeffs(*batch.coeffs_s),
            InterfaceCoeffs(*batch.coeffs_i),
            batch.phi_s,
            batch.phi_i,
        )
        u = scattering_matrix(
            *dense_operands(interaction_matrix(params), *boundary), check_condition=False
        )
        probs = pair_probabilities(u)
        values = {s: getattr(probs, s) * batch.gauss for s in cfg.schemes}
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
    batch_masked = frequency_angular_spectrum(_ff_only(cfg), "nonresonant").mask
    assert batch_masked.any() and not batch_masked.all()
    if name == "heavily-masked":
        assert batch_masked.mean() > 0.5
    assert reference.mask.all() == (name == "overflow")
    if block is not None:
        monkeypatch.setattr(spectra, "_RIGOROUS_BLOCK", block)
    if chunk is not None:
        monkeypatch.setattr(spectra, "_CHUNK_PIXELS", chunk)
    for threads in (1, 2, 3):
        grid = frequency_angular_spectrum(cfg, "rigorous", threads=threads)
        assert_grids_equal(grid, reference)


def test_singular_matrices_mask_only_their_pixels():
    # README config, beta scales 1 to 200: at 200, LAPACK finds I - rho w
    # exactly singular at some wavelengths.  Those pixels, and only those,
    # are masked.  A call that meets one is solved again matrix by matrix,
    # so every (model, scale) cell of the grid keeps the bits it has when it
    # runs alone.
    from numpy.linalg import LinAlgError
    from reference import dense_operands

    from spdc_etalon.layerstack import InterfaceCoeffs
    from spdc_etalon.rigorous import InteractionParams, boundary_matrices, interaction_matrix

    cfg = parse_config(EXPERIMENT_CONFIG)
    lams = cfg.signal_wavelengths()
    one = np.zeros(1)
    scales = np.geomspace(1.0, 200.0, 5)
    models = ("rigorous", "simplified")
    values, mask = spectra._evaluate_pixels(cfg, lams, one, models, scales, ("ff",), 1)
    assert values.shape == (2, scales.size, 1, lams.size)
    assert mask.shape == (2, scales.size, lams.size)

    with np.errstate(all="ignore"):
        batch = spectra._build_batch(cfg, lams, one, 0, lams.size, spectra._pump_state(cfg))
        live = np.flatnonzero(~batch.mask)
        boundary = boundary_matrices(
            InterfaceCoeffs(*(c[live] for c in batch.coeffs_s)),
            InterfaceCoeffs(*(c[live] for c in batch.coeffs_i)),
            batch.phi_s[live],
            batch.phi_i[live],
        )
        params = InteractionParams(*batch.betas(list(scales), live), batch.delta[live][None])
        w, tau1, _tau2, rho = dense_operands(interaction_matrix(params), *boundary)
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
                cfg, lams, one, (model,), (scale,), ("ff",), 1
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
        assert gain_and_agreement_curve(cfg, betas, threads=threads) == reference


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
                sizes = [result.ff.size]
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
        frequency_angular_spectrum(cfg, "rigorous")

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
    grid = frequency_angular_spectrum(cfg, "simplified")
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
    # The sweep's chi2/field route must agree with the public
    # interaction-strength operation composed by hand.
    from dataclasses import replace

    from reference import (
        interaction_params,
        pair_probabilities,
        pump_enhancement,
        solve_idler,
    )
    from spdc_etalon import (
        Mode,
        boundary_matrices,
        interaction_matrix,
        interface_coeffs,
        scattering_matrix,
    )
    from reference import propagation_phase

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
    grid = frequency_angular_spectrum(cfg, "rigorous")

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
            w = interaction_matrix(p)
            tau1, tau2, rho = boundary_matrices(
                interface_coeffs(stack, signal),
                interface_coeffs(stack, idler),
                propagation_phase(stack, signal),
                propagation_phase(stack, idler),
            )
            probs = pair_probabilities(scattering_matrix(w, tau1, tau2, rho))
            assert grid.intensity["ff"][i, j] == pytest.approx(probs.ff, rel=1e-10)


def test_low_gain_agreement_holds_for_p_polarization():
    cfg = parse_config(
        config_text(lambda_count=64, theta_count=24).replace(
            "[grid]", "[model]\npolarization = p\n\n[grid]"
        )
    )
    assert cfg.polarization == "p"
    simp = frequency_angular_spectrum(cfg, "simplified")
    rig = frequency_angular_spectrum(cfg, "rigorous")
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
    with pytest.raises(ZeroVarianceError):
        r_squared(np.array([1.0, 2.0]), np.array([3.0, 3.0]))


def test_r_squared_mask_excludes_entries():
    b = np.array([0.0, 0.5, 1.0, 0.5])
    a = np.array([0.0, 0.5, 1.0, 99.0])
    mask = np.array([False, False, False, True])
    assert r_squared(a, b, mask=mask) == 1.0


# ---- gain_and_agreement_curve ----------------------------------------------


def test_gain_curve_limits_and_threshold():
    cfg = parse_config(config_text(lambda_count=128, theta_count=2))
    points = gain_and_agreement_curve(cfg, [1e-3, 0.1, 1.0, 2.0, 3.5])
    assert points[0].r_squared > 0.9999
    r2 = [p.r_squared for p in points]
    assert all(r2[i + 1] < r2[i] for i in range(len(r2) - 1))
    for p in points:
        # Agreement persists through the low-gain decade.
        if p.beta_plus_abs ** 2 <= 1e-2:
            assert p.r_squared >= 0.99
        if p.beta_over_half_delta < 1.0:
            assert p.re_gamma_plus == 0.0
        else:
            assert p.re_gamma_plus > 0.0


def test_non_finite_pump_enhancement_is_an_error_without_a_warning():
    # A film index of 1e308 overflows the pump phase; no pixel could be
    # evaluated, and the error names the pump enhancement.
    cfg = parse_config(config_text(lambda_count=32, theta_count=4, film="constant:1e308"))
    runs = (
        lambda: frequency_angular_spectrum(cfg, "simplified"),
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
    points = gain_and_agreement_curve(cfg, [g[0] for g in golden])
    for point, (scale, b_abs, b_norm, re_g, rr) in zip(points, golden):
        assert point.beta_plus_abs == pytest.approx(b_abs, rel=1e-9)
        assert point.beta_over_half_delta == pytest.approx(b_norm, rel=1e-9)
        assert point.re_gamma_plus == pytest.approx(re_g, rel=1e-9, abs=1e-12)
        assert point.r_squared == pytest.approx(rr, rel=1e-6)


def _gain_curve_one_beta_per_call(config, beta_values, threads=1):
    """Reference gain sweep: one config, kinematics batch and model
    evaluation per (beta, model), as the sweep ran before every beta
    shared one batch."""
    from spdc_etalon import GainCurvePoint, gain_term, refractive_index

    stack = config.build_stack()
    e_fwd, _e_bwd, kp_par = spectra._pump_state(config)
    lam_deg = 2.0 * config.pump_wavelength_nm
    n_deg = refractive_index(stack.film, lam_deg)
    ks_deg = 2.0 * np.pi * n_deg / lam_deg
    delta_deg = stack.thickness_nm * (kp_par - 2.0 * ks_deg)
    half_delta = abs(delta_deg) / 2.0

    lams = config.signal_wavelengths()
    points = []
    for scale in np.asarray(beta_values, dtype=float):
        cfg = replace(
            config, beta_plus=complex(scale), chi2_pm_per_v=None, pump_field_v_per_m=None
        )
        curves = {}
        for model in ("rigorous", "simplified"):
            values, mask = spectra._evaluate_pixels(
                cfg, lams, np.zeros(1), (model,), (cfg.beta_plus,), ("ff",), threads
            )
            curves[model] = values[0, 0, 0], mask[0, 0]
        (rig, mask_r), (smp, mask_s) = curves["rigorous"], curves["simplified"]
        beta_abs = abs(scale * e_fwd)
        points.append(
            GainCurvePoint(
                beta_scale=float(scale),
                beta_plus_abs=float(beta_abs),
                beta_over_half_delta=float(beta_abs / half_delta),
                re_gamma_plus=float(np.real(gain_term(beta_abs, delta_deg))),
                r_squared=r_squared(smp, rig, mask=mask_r | mask_s),
            )
        )
    return points


def test_gain_curve_equals_one_beta_per_call_reference(monkeypatch):
    cfg = parse_config(config_text(lambda_count=128, theta_count=2))
    betas = [1e-3, 0.1, 1.0, 2.0, 3.5]
    reference = _gain_curve_one_beta_per_call(cfg, betas)
    assert all(np.isfinite(p.r_squared) for p in reference)
    monkeypatch.setattr(spectra, "_CHUNK_PIXELS", 37)
    assert spectra._CHUNK_PIXELS < cfg.lambda_count
    for threads in (1, 3):
        assert gain_and_agreement_curve(cfg, betas, threads=threads) == reference


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
        simp = frequency_angular_spectrum(cfg, "simplified")
        rig = frequency_angular_spectrum(cfg, "rigorous")
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
    (point,) = gain_and_agreement_curve(cfg, [0.5])
    # |beta+| = scale * |pump enhancement|; both reported consistently.
    assert point.beta_plus_abs == pytest.approx(
        point.beta_over_half_delta * abs(3.2383322404438462) / 2.0, rel=1e-9
    )


# ---- detection_spectrum ------------------------------------------------------


def test_detection_flat_envelope_recovers_bare_spectrum(small_config):
    lams, rate, mask = detection_spectrum(small_config)
    grid_cfg = parse_config(
        config_text(lambda_count=96, theta_count=2, theta_min_rad=0.0, theta_max_rad=0.1)
    )
    # Same lambda axis at theta = 0 from the grid engine, first column.
    grid = frequency_angular_spectrum(grid_cfg, "simplified")
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
    env = EnvelopeModel(center_nm=1576.0, fwhm_nm=100.0, amplitude=2.0)
    assert env(1576.0) == 2.0
    assert env(1626.0) == pytest.approx(1.0, rel=1e-12)  # half maximum at fwhm/2
    with pytest.raises(ValueError):
        EnvelopeModel(center_nm=1.0, fwhm_nm=-1.0)


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
    from spdc_etalon.layerstack import InterfaceCoeffs
    from spdc_etalon.rigorous import (
        InteractionParams,
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
        params = InteractionParams(b, b, batch.delta)
        u = scattering_matrix(
            interaction_matrix(params),
            *boundary_matrices(
                InterfaceCoeffs(*batch.coeffs_s),
                InterfaceCoeffs(*batch.coeffs_i),
                batch.phi_s,
                batch.phi_i,
            ),
            check_condition=False,
        )
    g = np.diag([1.0, -1.0, 1.0, -1.0])
    live = ~batch.mask
    assert live.mean() > 0.8
    residual = np.abs(u[live] @ g @ np.conj(np.swapaxes(u[live], -1, -2)) - g)
    assert residual.max() <= 1e-10
    if beta == 2.0:
        above = np.abs(gamma[live].real) > 0
        assert 0 < above.mean() < 1
