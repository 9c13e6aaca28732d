import numpy as np
import pytest

from reference import dense_interaction_matrix, low_gain_interaction_matrix, propagation_phase
from spdc_etalon import (
    FieldEnhancements,
    InteractionParams,
    Mode,
    boundary_matrices,
    field_enhancements,
    filter_function,
    interaction_matrix,
    interface_coeffs,
    nonresonant_probability,
    pair_probabilities,
    scattering_matrix,
)


def params(beta_plus=0.0, beta_minus=0.0, delta=0.0):
    return InteractionParams(beta_plus=beta_plus, beta_minus=beta_minus, delta=delta)


def test_nonresonant_perfect_phase_matching():
    assert nonresonant_probability(0.0, 0.0, 10150.0, 5.0) == 1.0


def test_nonresonant_first_sinc_zero():
    dk = 2.0 * np.pi / 10150.0  # dk L / 2 = pi
    assert nonresonant_probability(dk, 0.0, 10150.0, 5.0) == pytest.approx(0.0, abs=1e-30)


def test_nonresonant_pump_factor_frozen():
    # dk_perp = 2 / w puts the Gaussian factor at exp(-2).
    waist_um = 5.0
    dk_perp = 2.0 / (waist_um * 1e3)
    p = nonresonant_probability(0.0, dk_perp, 10150.0, waist_um)
    assert p == pytest.approx(0.13533528323661271, rel=1e-12)


def test_nonresonant_validates_inputs():
    with pytest.raises(ValueError):
        nonresonant_probability(0.0, 0.0, -1.0, 5.0)
    with pytest.raises(ValueError):
        nonresonant_probability(0.0, 0.0, 10.0, 0.0)


def test_low_gain_matrix_identity_at_zero():
    w = low_gain_interaction_matrix(params(0.0, 0.0, 4.2))
    assert np.array_equal(w, np.eye(4, dtype=complex))


def test_low_gain_matrix_zero_mismatch():
    w = low_gain_interaction_matrix(params(0.02, 0.01, 0.0))
    assert w[0, 1] == pytest.approx(-0.02, rel=1e-15)
    assert w[1, 0] == pytest.approx(0.02, rel=1e-15)
    assert w[2, 3] == pytest.approx(-0.01, rel=1e-15)
    assert w[3, 2] == pytest.approx(0.01, rel=1e-15)


def test_low_gain_matrix_frozen_sinc():
    w = low_gain_interaction_matrix(params(0.01, 0.0, 2.0))
    assert abs(w[0, 1]) == pytest.approx(0.0084147098480790, rel=1e-12)


def test_low_gain_matches_full_matrix_at_small_beta():
    # Entrywise magnitudes only: the full matrix carries an extra i on
    # the off-diagonals, a mode-reference phase that cancels in every
    # probability.
    p = params(1e-5, 3e-6, 1.7)
    low = np.abs(low_gain_interaction_matrix(p))
    full = np.abs(dense_interaction_matrix(interaction_matrix(p)))
    assert np.max(np.abs(low - full)) < 1e-9


def test_filter_function_no_etalon_collapse():
    enh = FieldEnhancements(a1p=1.0, a1m=0.0, a3p=0.0, a3m=1.0)
    beta = 2e-3
    assert filter_function("ff", beta, 0.0, enh, enh) == pytest.approx(beta ** 2, rel=1e-15)
    for scheme in ("bb", "fb", "bf"):
        assert filter_function(scheme, beta, 0.0, enh, enh) == pytest.approx(0.0, abs=1e-30)


def test_filter_function_zero_betas():
    enh = FieldEnhancements(a1p=1.2, a1m=0.3, a3p=0.4, a3m=0.9)
    for scheme in ("ff", "bb", "fb", "bf"):
        assert filter_function(scheme, 0.0, 0.0, enh, enh) == 0.0


def test_filter_function_rejects_unknown_scheme():
    enh = FieldEnhancements(a1p=1.0, a1m=0.0, a3p=0.0, a3m=1.0)
    with pytest.raises(ValueError):
        filter_function("xx", 1.0, 0.0, enh, enh)


def _point_prediction(stack, lam_s, theta_s, beta_scale):
    """Simplified emission assembled op by op at one grid point."""
    from reference import (
        filter_function,
        nonresonant_probability,
        pump_enhancement,
        simplified_probability,
        solve_idler,
    )

    pump = Mode(788.0, 0.0, role="pump", polarization="s")
    signal = Mode(lam_s, theta_s)
    idler = solve_idler(pump, signal, stack)

    phi_p = propagation_phase(stack, pump)
    phi_s = propagation_phase(stack, signal)
    phi_i = propagation_phase(stack, idler)
    e_fwd, e_bwd = pump_enhancement(interface_coeffs(stack, pump), phi_p)
    beta_p = beta_scale * e_fwd
    beta_m = beta_scale * e_bwd

    from spdc_etalon import refractive_index, wavevector_components

    kp = wavevector_components(pump, refractive_index(stack.film, 788.0))
    ks = wavevector_components(signal, refractive_index(stack.film, lam_s))
    ki = wavevector_components(idler, refractive_index(stack.film, idler.vacuum_wavelength_nm))
    dk_par = kp[0] - ks[0] - ki[0]
    dk_perp = kp[1] - ks[1] - ki[1]

    p = nonresonant_probability(dk_par, dk_perp, stack.thickness_nm, 5.0)
    enh_s = field_enhancements(interface_coeffs(stack, signal), phi_s)
    enh_i = field_enhancements(interface_coeffs(stack, idler), phi_i)
    out = {}
    for scheme in ("ff", "bb", "fb", "bf"):
        s = filter_function(scheme, beta_p, beta_m, enh_s, enh_i)
        out[scheme] = simplified_probability(p, s)
    return out, (signal, idler, dk_par, beta_p, beta_m, phi_s, phi_i)


def _rigorous_point(stack, signal, idler, beta_p, beta_m, phi_s, phi_i, delta):
    w = interaction_matrix(InteractionParams(beta_plus=beta_p, beta_minus=beta_m, delta=delta))
    tau1, tau2, rho = boundary_matrices(
        interface_coeffs(stack, signal), interface_coeffs(stack, idler), phi_s, phi_i
    )
    u = scattering_matrix(w, tau1, tau2, rho)
    return pair_probabilities(u)


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
        assert simp[scheme] == pytest.approx(getattr(rig, scheme), rel=1e-5)


def test_no_etalon_reduction_proportional_to_sinc(experiment_stack):
    # Index-matched boundaries: every nonzero scheme reduces to the
    # phase-matching sinc^2; backward channels vanish outright.
    from spdc_etalon import LayerStack, get_material

    matched = LayerStack(
        superstrate=get_material("linbo3_e"),
        film=get_material("linbo3_e"),
        substrate=get_material("linbo3_e"),
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
