"""The public surface, and the array kernels against the independent oracles."""

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import reference
import spdc_etalon
from conftest import config_text
from reference import Mode
from spdc_etalon import gain_term, pair_probabilities, parse_config, spectra
from spdc_etalon.layerstack import _indices, coefficient_arrays, enhancement_arrays
from spdc_etalon.simplified import _filter_strength, _nonresonant, _pump_profile, _scheme_products
from test_layerstack import airy_transmittance
from test_spectra import kernel_idler

# Every public name.  A change to the surface is a change to this list.
PUBLIC_NAMES = [
    "ConfigError",
    "LayerStack",
    "MaterialModel",
    "RunConfig",
    "SCHEMES",
    "SpdcEtalonError",
    "SpectrumGrid",
    "__version__",
    "boundary_matrices",
    "compare_grids",
    "detection_spectrum",
    "frequency_angular_spectra",
    "gain_and_agreement_curve",
    "gain_term",
    "interaction_matrix",
    "material_from_spec",
    "pair_probabilities",
    "parse_config",
    "r_squared",
    "refractive_index",
    "scattering_matrix",
    "serialize_config",
    "transmission_curve",
]

# The kernels keep the sweep's evaluation order, the oracles the first
# scalar one; they may differ by a few rounding steps only.
REL = 1e-13


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 23
    assert sorted(spdc_etalon.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(spdc_etalon, name) is not None
    # README states the count; it may not drift from the list.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    counts = re.findall(r"The package exports (\d+) names", readme)
    assert counts == [str(len(spdc_etalon.__all__))]


def test_two_failure_types_and_main_catches_no_other():
    # One type per CLI exit code: ConfigError exits 2, SpdcEtalonError 3.
    assert spdc_etalon.SpdcEtalonError.__subclasses__() == [spdc_etalon.ConfigError]
    # Beside them, `cli.main` catches an unreadable config, an unwritable
    # output and an allocation failure (exit 2).  No floating-point or
    # LAPACK error reaches it: the sweep entries ignore the one, and the
    # solve suppresses the other matrix by matrix.
    source = (Path(spdc_etalon.__file__).parent / "cli.py").read_text(encoding="utf-8")
    main = next(n for n in ast.parse(source).body if getattr(n, "name", None) == "main")
    caught = set()
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler):
            kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught.update(ast.unparse(kind) for kind in kinds)
    expected = {"ConfigError", "SpdcEtalonError", "OSError", "UnicodeDecodeError", "MemoryError"}
    assert caught == expected


def test_every_public_name_is_read_by_src():
    # A public name that no module of the package reads, outside its own
    # definition and the __all__ lists, is surface nothing uses; a
    # module-level def or class, private ones included, that none reads
    # is code that only the tests run.
    used, defined = set(), set()
    for path in Path(spdc_etalon.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if any(getattr(t, "id", None) == "__all__" for t in getattr(node, "targets", [])):
                continue
            for sub in ast.walk(node):
                load = isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                name = sub.id if load else getattr(sub, "attr", None)
                if name and name != getattr(node, "name", None):
                    used.add(name)
    assert sorted(set(spdc_etalon.__all__) - used) == []
    assert sorted(defined - used) == []


# The command-line module is an entry point, not library surface.
LIBRARY_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(spdc_etalon.__path__) if m.name != "cli"
)


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_submodule_names_are_package_names(module):
    names = getattr(importlib.import_module(f"spdc_etalon.{module}"), "__all__", [])
    assert set(names) <= set(spdc_etalon.__all__)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "run.ini").write_text(
        config_text(lambda_count=24, theta_count=6), encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


# (superstrate, film, substrate, thickness_um, chi2_pm_per_v) of each stack.
STACKS = (
    ("air", "linbo3_e", "silicon", 10.15, 30.0),
    ("silicon", "linbo3_e", "air", 5.1237, 25.0),
    ("constant:1.4", "linbo3_e", "constant:1.9", 0.7333, 0.0),
)


def _pixels(rng, count=40):
    """(config, pump, signal) on each stack: a random pump wavelength,
    polarization and field on the chi2/field route, and a random signal."""
    text = config_text().replace("beta_plus = 1e-3", "field_v_per_m = 1e7")
    base = parse_config(text.replace("thickness_um", "chi2_pm_per_v = 1.0\nthickness_um"))
    for superstrate, film, substrate, thickness_um, chi2 in STACKS:
        for _ in range(count):
            lam_p = rng.uniform(700.0, 900.0)
            lam_s = rng.uniform(1.3, 2.7) * lam_p
            pol = str(rng.choice(["s", "p"]))
            cfg = dataclasses.replace(
                base,
                superstrate=superstrate,
                film=film,
                substrate=substrate,
                thickness_um=thickness_um,
                chi2_pm_per_v=chi2,
                pump_wavelength_nm=lam_p,
                pump_field_v_per_m=rng.normal() * 1e8,
                polarization=pol,
            ).validate()
            yield cfg, Mode(lam_p, 0.0, pol, "pump"), Mode(lam_s, rng.uniform(-0.4, 0.4), pol)


def _batch(cfg, signal):
    """The sweep's kinematics batch of the one pixel `signal`."""
    lam, theta = np.array([signal.vacuum_wavelength_nm]), np.array([signal.internal_angle_rad])
    with np.errstate(all="ignore"):
        return spectra._build_batch(cfg, lam, theta, 0, 1, spectra._pump_state(cfg))


def _grazing(idler):
    """Whether the oracle clamped the idler to grazing (the sweep masks it)."""
    return abs(idler.internal_angle_rad) == np.pi / 2 - 1e-12


def test_solve_idler_matches_oracle(rng):
    for cfg, pump, signal in _pixels(rng):
        stack = cfg.build_stack()
        ref = reference.solve_idler(pump, signal, stack)
        lam_i, theta_i, _ = kernel_idler(
            stack.film, pump.vacuum_wavelength_nm, signal.vacuum_wavelength_nm,
            signal.internal_angle_rad,
        )
        assert lam_i == ref.vacuum_wavelength_nm
        if _grazing(ref):
            assert abs(theta_i) == np.pi / 2
        else:
            assert theta_i == pytest.approx(ref.internal_angle_rad, rel=REL)


def test_interaction_params_matches_oracle(rng):
    grazing = 0
    for cfg, pump, signal in _pixels(rng):
        stack = cfg.build_stack()
        batch = _batch(cfg, signal)
        idler = reference.solve_idler(pump, signal, stack)
        if _grazing(idler):
            grazing += 1
            assert batch.mask[0]
            continue
        fields = tuple(cfg.pump_field_v_per_m * e for e in batch.pump_amplitudes)
        ref = reference.interaction_params(stack, pump, signal, idler, fields)
        beta_p, beta_m, delta = batch.beta_p[0], batch.beta_m[0], batch.delta[0]
        assert beta_p == pytest.approx(ref.beta_plus, rel=REL)
        assert beta_m == pytest.approx(ref.beta_minus, rel=REL)
        # The library carries no gain terms or wavevector mismatches:
        # gamma is gain_term(beta, delta), and delta is L dk_par.  The
        # signed zeros of a zero beta pick the square-root branch, which
        # w does not see.
        for beta, gamma in ((beta_p, ref.gamma_plus), (beta_m, ref.gamma_minus)):
            branches = (gamma, -gamma) if beta == 0 else (gamma,)
            mine = gain_term(beta, delta)
            assert any(mine == pytest.approx(g, rel=REL) for g in branches)
        assert delta == ref.delta == stack.thickness_nm * ref.delta_k_par
    assert 0 < grazing < 20


def test_interface_coeffs_match_fresnel_oracle(rng):
    for cfg, pump, signal in _pixels(rng):
        stack = cfg.build_stack()
        batch = _batch(cfg, signal)
        # The pump's coefficients as `spectra._pump_state` forms them.
        indices = _indices(stack, pump.vacuum_wavelength_nm)
        pump_coeffs = coefficient_arrays(indices, (np.cos(0.0), np.sin(0.0)), pump.polarization)
        cases = [(pump_coeffs, pump), (tuple(c[0] for c in batch.coeffs_s), signal)]
        if not batch.mask[0]:
            idler = reference.solve_idler(pump, signal, stack)
            cases.append((tuple(c[0] for c in batch.coeffs_i), idler))
        for mine, mode in cases:
            ref = reference.interface_coeffs(stack, mode)
            assert mine == pytest.approx(ref, rel=REL)


def test_etalon_scalars_match_oracles(rng):
    for cfg, pump, signal in _pixels(rng):
        stack = cfg.build_stack()
        coeffs = reference.interface_coeffs(stack, pump)
        ref = reference.pump_enhancement(coeffs, reference.propagation_phase(stack, pump))
        assert spectra._pump_state(cfg)[:2] == pytest.approx(ref, rel=REL)
        lam, theta = signal.vacuum_wavelength_nm, signal.internal_angle_rad
        indices, _ = spectra._masked_indices(stack, lam)
        trans = airy_transmittance(stack, lam, theta, signal.polarization, indices)
        assert trans == pytest.approx(reference.linear_transmission(stack, signal), rel=REL)
        # At normal incidence, as `transmission_curve` forms it.
        (t1, _, t2, _), phase, den = spectra._normal_incidence(cfg, lam, indices)
        trans = abs(t1 * t2 * np.exp(1j * phase) / den) ** 2
        normal = Mode(lam, 0.0, signal.polarization)
        assert trans == pytest.approx(reference.linear_transmission(stack, normal), rel=REL)


def test_phase_matching_matches_oracle(rng):
    dk_par = rng.normal(scale=1e-3, size=500)
    dk_perp = rng.normal(scale=5e-4, size=500)
    for thickness, waist in ((10150.0, 5.0), (733.3, 0.8)):
        mine = _nonresonant(thickness * dk_par, _pump_profile(dk_perp, waist))
        ref = reference.nonresonant_probability(dk_par, dk_perp, thickness, waist)
        assert np.array_equal(mine, ref)


def test_filter_function_matches_oracle(rng):
    for cfg, _pump, signal in _pixels(rng, count=10):
        batch = _batch(cfg, signal)
        if batch.mask[0]:
            continue  # e.g. beyond the critical angle, where the coefficients are nan
        enh_s = enhancement_arrays(*batch.coeffs_s, batch.phi_s, batch.den_s)
        enh_i = enhancement_arrays(*batch.coeffs_i, batch.phi_i, batch.den_i)
        beta_p, beta_m = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        for scheme in reference.SCHEMES:
            mine = _filter_strength(beta_p, beta_m, *_scheme_products(scheme, enh_s, enh_i))
            ref = reference.filter_function(scheme, beta_p, beta_m, enh_s, enh_i)
            assert np.array_equal(mine, ref)


def test_filter_function_scheme_routes():
    # Distinct factors per mode, so each scheme's pairing shows.
    signal, idler = (2.0, 3.0, 5.0, 7.0), (11.0, 13.0, 17.0, 19.0)
    expected = {
        "ff": 2 * 11 + 3 * 13,
        "bb": 5 * 17 + 7 * 19,
        "fb": 2 * 17 + 3 * 19,
        "bf": 5 * 11 + 7 * 13,
    }
    for scheme, amp in expected.items():
        assert _filter_strength(1.0, 1.0, *_scheme_products(scheme, signal, idler)) == amp ** 2
    # The pump amplitudes enter conjugated: conj(i) * 1 + conj(1) * i = 0.
    products = _scheme_products("ff", (1.0, 1j, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0))
    assert _filter_strength(1j, 1.0, *products) == 0.0


def test_pair_probabilities_match_oracle_bitwise(rng):
    u = rng.normal(size=(4096, 4, 4)) + 1j * rng.normal(size=(4096, 4, 4))
    u *= rng.uniform(1e-3, 1e3, size=(4096, 1, 1))
    for m in (u, u[7]):
        mine = pair_probabilities(m, reference.SCHEMES)
        ref = reference.pair_probabilities(m)
        assert list(mine) == list(reference.SCHEMES)
        for scheme in reference.SCHEMES:
            assert np.array_equal(mine[scheme], ref[scheme]), scheme


def test_pair_probabilities_subset_equals_full_call(rng):
    u = rng.normal(size=(512, 4, 4)) + 1j * rng.normal(size=(512, 4, 4))
    full = pair_probabilities(u, reference.SCHEMES)
    for subset in [(s,) for s in reference.SCHEMES] + [("bf", "ff"), reference.SCHEMES]:
        part = pair_probabilities(u, subset)
        assert list(part) == list(subset)
        for scheme in subset:
            assert np.array_equal(part[scheme], full[scheme]), scheme
    one = pair_probabilities(u[3], ("fb",))
    assert list(one) == ["fb"] and one["fb"] == full["fb"][3]

