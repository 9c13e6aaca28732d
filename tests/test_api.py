"""The public surface, and the scalar API against the independent oracles."""

import numpy as np
import pytest

import reference
import spdc_etalon
from spdc_etalon import (
    FieldEnhancements,
    GeometryError,
    LayerStack,
    MaterialModel,
    Mode,
    field_enhancements,
    filter_function,
    get_material,
    interaction_params,
    interface_coeffs,
    linear_transmission,
    nonresonant_probability,
    pair_probabilities,
    propagation_phase,
    pump_enhancement,
    solve_idler,
)

# Every public name.  A change to the surface is a change to this list.
PUBLIC_NAMES = [
    "ConfigError",
    "EnvelopeModel",
    "FieldEnhancements",
    "GainCurvePoint",
    "GeometryError",
    "InteractionParams",
    "InterfaceCoeffs",
    "LayerStack",
    "MaterialModel",
    "MaterialRangeError",
    "Mode",
    "NearSingularError",
    "PairProbabilities",
    "ResonancePoleError",
    "RunConfig",
    "SCHEMES",
    "SpdcEtalonError",
    "SpectrumGrid",
    "ZeroVarianceError",
    "__version__",
    "boundary_matrices",
    "compare_grids",
    "detection_spectrum",
    "field_enhancements",
    "filter_function",
    "frequency_angular_spectra",
    "frequency_angular_spectrum",
    "fresnel",
    "gain_and_agreement_curve",
    "gain_term",
    "get_material",
    "interaction_matrix",
    "interaction_params",
    "interface_coeffs",
    "linear_transmission",
    "low_gain_interaction_matrix",
    "material_from_spec",
    "material_names",
    "nonresonant_probability",
    "pair_probabilities",
    "parse_config",
    "propagation_phase",
    "pump_enhancement",
    "r_squared",
    "refractive_index",
    "scattering_matrix",
    "serialize_config",
    "solve_idler",
    "transmission_curve",
    "wavevector_components",
]

# The wrappers share the sweep's evaluation order, the oracles keep the
# first scalar one; they may differ by a few rounding steps only.
REL = 1e-13


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 50
    assert sorted(spdc_etalon.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(spdc_etalon, name) is not None


def _stacks():
    air = get_material("air")
    film = get_material("linbo3_e")
    yield LayerStack(air, film, get_material("silicon"), 10150.0, chi2_pm_per_v=30.0)
    yield LayerStack(get_material("silicon"), film, air, 5123.7, chi2_pm_per_v=25.0)
    yield LayerStack(MaterialModel.constant(1.4), film, MaterialModel.constant(1.9), 733.3)


def _pixels(rng, count=40):
    for stack in _stacks():
        for _ in range(count):
            lam_p = rng.uniform(700.0, 900.0)
            lam_s = rng.uniform(1.3, 2.7) * lam_p
            pol = rng.choice(["s", "p"])
            yield stack, Mode(lam_p, 0.0, pol, "pump"), Mode(lam_s, rng.uniform(-0.4, 0.4), pol)


def test_solve_idler_matches_oracle(rng):
    for stack, pump, signal in _pixels(rng):
        mine = solve_idler(pump, signal, stack)
        ref = reference.solve_idler(pump, signal, stack)
        assert mine.vacuum_wavelength_nm == ref.vacuum_wavelength_nm
        assert mine.internal_angle_rad == pytest.approx(ref.internal_angle_rad, rel=REL)
        assert (mine.polarization, mine.role) == (ref.polarization, ref.role)


def test_interaction_params_matches_oracle(rng):
    grazing = 0
    for stack, pump, signal in _pixels(rng):
        idler = reference.solve_idler(pump, signal, stack)
        fields = (rng.normal() * 1e8 + 1j * rng.normal() * 1e8, rng.normal() * 1e7)
        if abs(idler.internal_angle_rad) == np.pi / 2 - 1e-12:
            # Clamped to grazing: masked by sweeps, rejected here.
            grazing += 1
            with pytest.raises(GeometryError):
                interaction_params(stack, pump, signal, idler, fields)
            continue
        mine = interaction_params(stack, pump, signal, idler, fields)
        ref = reference.interaction_params(stack, pump, signal, idler, fields)
        for key in ("beta_plus", "beta_minus", "gamma_plus", "gamma_minus"):
            assert getattr(mine, key) == pytest.approx(getattr(ref, key), rel=REL)
        assert (mine.delta, mine.delta_k_par, mine.delta_k_perp) == (
            ref.delta,
            ref.delta_k_par,
            ref.delta_k_perp,
        )
    assert 0 < grazing < 20


def test_etalon_scalars_match_oracles(rng):
    for stack, pump, signal in _pixels(rng):
        coeffs = interface_coeffs(stack, pump)
        phi = propagation_phase(stack, pump)
        for mine, ref in zip(
            pump_enhancement(coeffs, phi), reference.pump_enhancement(coeffs, phi)
        ):
            assert mine == pytest.approx(ref, rel=REL)
        assert linear_transmission(stack, signal) == pytest.approx(
            reference.linear_transmission(stack, signal), rel=REL
        )


def test_phase_matching_matches_oracle(rng):
    dk_par = rng.normal(scale=1e-3, size=500)
    dk_perp = rng.normal(scale=5e-4, size=500)
    for thickness, waist in ((10150.0, 5.0), (733.3, 0.8)):
        mine = nonresonant_probability(dk_par, dk_perp, thickness, waist)
        ref = reference.nonresonant_probability(dk_par, dk_perp, thickness, waist)
        assert np.array_equal(mine, ref)


def test_filter_function_matches_oracle(rng):
    for stack, pump, signal in _pixels(rng, count=10):
        idler = reference.solve_idler(pump, signal, stack)
        if abs(idler.internal_angle_rad) > 0.4:
            continue  # beyond the critical angle: |r| = 1 can hit a pole
        enh_s, enh_i = (
            field_enhancements(interface_coeffs(stack, mode), propagation_phase(stack, mode))
            for mode in (signal, idler)
        )
        beta_p, beta_m = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        for scheme in reference.SCHEMES:
            assert filter_function(scheme, beta_p, beta_m, enh_s, enh_i) == (
                reference.filter_function(scheme, beta_p, beta_m, enh_s, enh_i)
            )


def test_filter_function_scheme_routes():
    # Distinct factors per mode, so each scheme's pairing shows.
    signal = FieldEnhancements(a1p=2.0, a1m=3.0, a3p=5.0, a3m=7.0)
    idler = FieldEnhancements(a1p=11.0, a1m=13.0, a3p=17.0, a3m=19.0)
    expected = {
        "ff": 2 * 11 + 3 * 13,
        "bb": 5 * 17 + 7 * 19,
        "fb": 2 * 17 + 3 * 19,
        "bf": 5 * 11 + 7 * 13,
    }
    for scheme, amp in expected.items():
        assert filter_function(scheme, 1.0, 1.0, signal, idler) == amp ** 2
    # The pump amplitudes enter conjugated: conj(i) * 1 + conj(1) * i = 0.
    signal = FieldEnhancements(a1p=1.0, a1m=1j, a3p=0.0, a3m=0.0)
    idler = FieldEnhancements(a1p=1.0, a1m=1.0, a3p=0.0, a3m=0.0)
    assert filter_function("ff", 1j, 1.0, signal, idler) == 0.0


def test_pair_probabilities_match_oracle_bitwise(rng):
    u = rng.normal(size=(4096, 4, 4)) + 1j * rng.normal(size=(4096, 4, 4))
    u *= rng.uniform(1e-3, 1e3, size=(4096, 1, 1))
    mine = pair_probabilities(u)
    ref = reference.pair_probabilities(u)
    for scheme in reference.SCHEMES:
        assert np.array_equal(getattr(mine, scheme), getattr(ref, scheme)), scheme
    one = pair_probabilities(u[7])
    assert one == reference.pair_probabilities(u[7])
    assert all(type(getattr(one, scheme)) is float for scheme in reference.SCHEMES)


def test_pair_probabilities_subset_equals_full_call(rng):
    u = rng.normal(size=(512, 4, 4)) + 1j * rng.normal(size=(512, 4, 4))
    full = pair_probabilities(u)
    for subset in [(s,) for s in reference.SCHEMES] + [("bf", "ff"), reference.SCHEMES]:
        part = pair_probabilities(u, subset)
        for scheme in reference.SCHEMES:
            if scheme in subset:
                assert np.array_equal(getattr(part, scheme), getattr(full, scheme)), scheme
            else:
                assert getattr(part, scheme) is None
    one = pair_probabilities(u[3], ("fb",))
    assert one.fb == pair_probabilities(u[3]).fb and one.ff is None

