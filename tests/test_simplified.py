import numpy as np
import pytest

import reference
from conftest import config_text
from reference import Mode, dense_interaction_matrix, low_gain_interaction_matrix, propagation_phase
from spdc_etalon import (
    ConfigError,
    LayerStack,
    boundary_matrices,
    interaction_matrix,
    material_from_spec,
    pair_probabilities,
    parse_config,
    scattering_matrix,
)
from spdc_etalon.layerstack import enhancement_arrays, round_trip_denominator
from spdc_etalon.simplified import _filter_strength, _nonresonant, _pump_profile, _scheme_products


def test_nonresonant_perfect_phase_matching():
    assert _nonresonant(0.0, _pump_profile(0.0, 5.0)) == 1.0


def test_nonresonant_first_sinc_zero():
    dk = 2.0 * np.pi / 10150.0  # dk L / 2 = pi
    assert _nonresonant(dk * 10150.0, _pump_profile(0.0, 5.0)) == pytest.approx(0.0, abs=1e-30)


def test_nonresonant_pump_factor_frozen():
    # dk_perp = 2 / w puts the Gaussian factor at exp(-2).
    waist_um = 5.0
    dk_perp = 2.0 / (waist_um * 1e3)
    p = _nonresonant(0.0, _pump_profile(dk_perp, waist_um))
    assert p == pytest.approx(0.13533528323661271, rel=1e-12)


def test_nonresonant_validates_inputs():
    # The kernel checks nothing: the stack refuses a thickness and the
    # config a waist that is not positive.
    air = material_from_spec("air")
    with pytest.raises(ValueError):
        LayerStack(air, air, air, -1.0)
    with pytest.raises(ConfigError, match="^pump.waist_um: must be positive"):
        parse_config(config_text().replace("waist_um = 5.0", "waist_um = 0.0"))


def test_low_gain_matrix_identity_at_zero():
    w = low_gain_interaction_matrix(0.0, 0.0, 4.2)
    assert np.array_equal(w, np.eye(4, dtype=complex))


def test_low_gain_matrix_zero_mismatch():
    w = low_gain_interaction_matrix(0.02, 0.01, 0.0)
    assert w[0, 1] == pytest.approx(-0.02, rel=1e-15)
    assert w[1, 0] == pytest.approx(0.02, rel=1e-15)
    assert w[2, 3] == pytest.approx(-0.01, rel=1e-15)
    assert w[3, 2] == pytest.approx(0.01, rel=1e-15)


def test_low_gain_matrix_frozen_sinc():
    w = low_gain_interaction_matrix(0.01, 0.0, 2.0)
    assert abs(w[0, 1]) == pytest.approx(0.0084147098480790, rel=1e-12)


def test_low_gain_matches_full_matrix_at_small_beta():
    # Entrywise magnitudes only: the full matrix carries an extra i on
    # the off-diagonals, a mode-reference phase that cancels in every
    # probability.
    p = (1e-5, 3e-6, 1.7)
    low = np.abs(low_gain_interaction_matrix(*p))
    full = np.abs(dense_interaction_matrix(interaction_matrix(*p)))
    assert np.max(np.abs(low - full)) < 1e-9


def test_filter_function_no_etalon_collapse():
    enh = (1.0, 0.0, 0.0, 1.0)
    beta = 2e-3
    for scheme, expected in (("ff", beta ** 2), ("bb", 0.0), ("fb", 0.0), ("bf", 0.0)):
        s = _filter_strength(beta, 0.0, *_scheme_products(scheme, enh, enh))
        assert s == pytest.approx(expected, rel=1e-15, abs=1e-30)


def test_filter_function_zero_betas():
    enh = (1.2, 0.3, 0.4, 0.9)
    for scheme in ("ff", "bb", "fb", "bf"):
        assert _filter_strength(0.0, 0.0, *_scheme_products(scheme, enh, enh)) == 0.0


def test_filter_function_rejects_unknown_scheme():
    # An unknown scheme never reaches the filter kernel: the config
    # refuses it.
    with pytest.raises(ConfigError, match="^model.schemes: entries must be among"):
        parse_config(config_text() + "\n[model]\nschemes = ff, xx\n")


def _point_prediction(stack, lam_s, theta_s, beta_scale):
    """Simplified emission assembled op by op at one grid point."""
    from reference import (
        filter_function,
        interface_coeffs,
        nonresonant_probability,
        pump_enhancement,
        simplified_probability,
        solve_idler,
        wavevector_components,
    )
    from spdc_etalon import refractive_index

    pump = Mode(788.0, 0.0, role="pump", polarization="s")
    signal = Mode(lam_s, theta_s)
    idler = solve_idler(pump, signal, stack)

    phi_s = propagation_phase(stack, signal)
    phi_i = propagation_phase(stack, idler)
    e_fwd, e_bwd = pump_enhancement(interface_coeffs(stack, pump), propagation_phase(stack, pump))
    beta_p = beta_scale * e_fwd
    beta_m = beta_scale * e_bwd

    kp = wavevector_components(pump, refractive_index(stack.film, 788.0))
    ks = wavevector_components(signal, refractive_index(stack.film, lam_s))
    ki = wavevector_components(idler, refractive_index(stack.film, idler.vacuum_wavelength_nm))
    dk_par = kp[0] - ks[0] - ki[0]
    dk_perp = kp[1] - ks[1] - ki[1]

    p = nonresonant_probability(dk_par, dk_perp, stack.thickness_nm, 5.0)
    enh = []
    for mode, phi in ((signal, phi_s), (idler, phi_i)):
        c = interface_coeffs(stack, mode)
        enh.append(enhancement_arrays(*c, phi, round_trip_denominator(c.r1, c.r2, phi)))
    enh_s, enh_i = enh
    out = {}
    for scheme in ("ff", "bb", "fb", "bf"):
        s = filter_function(scheme, beta_p, beta_m, enh_s, enh_i)
        out[scheme] = simplified_probability(p, s)
    return out, (signal, idler, dk_par, beta_p, beta_m, phi_s, phi_i)


def _rigorous_point(stack, signal, idler, beta_p, beta_m, phi_s, phi_i, delta):
    w = interaction_matrix(beta_p, beta_m, delta)
    tau1, tau2, rho = boundary_matrices(
        reference.interface_coeffs(stack, signal),
        reference.interface_coeffs(stack, idler),
        phi_s,
        phi_i,
    )
    u = scattering_matrix(w, tau1, tau2, rho)
    return pair_probabilities(u, reference.SCHEMES)


@pytest.mark.parametrize("lam_s,theta_s", [(1576.0, 0.0), (1450.0, 0.12), (2100.0, -0.2)])
def test_filter_function_matches_rigorous_low_gain(experiment_stack, lam_s, theta_s):
    # All four schemes at beta = 1e-4: the multiplicative model must
    # reproduce the scattering-matrix model to second order.
    beta_scale = 1e-4
    simp, (signal, idler, dk_par, beta_p, beta_m, phi_s, phi_i) = _point_prediction(
        experiment_stack, lam_s, theta_s, beta_scale
    )
    delta = experiment_stack.thickness_nm * dk_par
    rig = _rigorous_point(
        experiment_stack, signal, idler, beta_p, beta_m, phi_s, phi_i, delta
    )
    for scheme in ("ff", "bb", "fb", "bf"):
        assert simp[scheme] == pytest.approx(rig[scheme], rel=1e-5)


def test_no_etalon_reduction_proportional_to_sinc(experiment_stack):
    # Index-matched boundaries: every nonzero scheme reduces to the
    # phase-matching sinc^2; backward channels vanish outright.
    matched = LayerStack(
        superstrate=material_from_spec("linbo3_e"),
        film=material_from_spec("linbo3_e"),
        substrate=material_from_spec("linbo3_e"),
        thickness_nm=10150.0,
    )
    beta_scale = 1e-3
    lams = np.linspace(1200.0, 2300.0, 41)
    ratios = []
    for lam in lams:
        simp, (_, _, dk_par, _, _, _, _) = _point_prediction(matched, lam, 0.05, beta_scale)
        sinc_sq = np.sinc(dk_par * matched.thickness_nm / 2.0 / np.pi) ** 2
        if sinc_sq > 1e-8:
            ratios.append(simp["ff"] / sinc_sq)
        assert simp["bb"] == pytest.approx(0.0, abs=1e-30)
        assert simp["fb"] == pytest.approx(0.0, abs=1e-30)
        assert simp["bf"] == pytest.approx(0.0, abs=1e-30)
    ratios = np.asarray(ratios)
    assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-10
