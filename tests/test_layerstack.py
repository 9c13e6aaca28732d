import warnings

import numpy as np
import pytest

from reference import fresnel, propagation_phase
from spdc_etalon import (
    InterfaceCoeffs,
    LayerStack,
    MaterialModel,
    Mode,
    ResonancePoleError,
    SpdcEtalonError,
    field_enhancements,
    get_material,
    interface_coeffs,
    linear_transmission,
    pump_enhancement,
    refractive_index,
)


def slab(n_film, n_outer=1.0, thickness_nm=5000.0):
    return LayerStack(
        superstrate=MaterialModel.constant(n_outer),
        film=MaterialModel.constant(n_film),
        substrate=MaterialModel.constant(n_outer),
        thickness_nm=thickness_nm,
    )


def test_fresnel_index_matched():
    for theta in (0.0, 0.4, 1.2):
        r, t = fresnel(1.8, 1.8, theta)
        assert r == pytest.approx(0.0, abs=1e-15)
        assert t == pytest.approx(1.0, rel=1e-15)


def test_fresnel_normal_incidence_frozen():
    r, t = fresnel(1.0, 3.5, 0.0, "s")
    assert r == pytest.approx(-5.0 / 9.0, rel=1e-15)
    assert t == pytest.approx(4.0 / 9.0, rel=1e-15)


def test_fresnel_polarizations_agree_at_normal_incidence(rng):
    for _ in range(50):
        n1 = rng.uniform(1.0, 4.0)
        n2 = rng.uniform(1.0, 4.0)
        rs, ts = fresnel(n1, n2, 0.0, "s")
        rp, tp = fresnel(n1, n2, 0.0, "p")
        assert abs(rs) == pytest.approx(abs(rp), rel=1e-12)
        assert abs(ts) == pytest.approx(abs(tp), rel=1e-12)


def test_fresnel_power_conservation_random(rng):
    for _ in range(500):
        n1 = rng.uniform(1.0, 4.0)
        n2 = rng.uniform(1.0, 4.0)
        # Stay below the critical angle when going into a thinner medium.
        theta_max = np.arcsin(min(n2 / n1, 1.0)) - 1e-6
        theta = rng.uniform(0.0, theta_max)
        ct = np.sqrt(1.0 - (n1 * np.sin(theta) / n2) ** 2)
        flux = n2 * ct / (n1 * np.cos(theta))
        for pol in ("s", "p"):
            r, t = fresnel(n1, n2, theta, pol)
            assert abs(r) ** 2 + flux * abs(t) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_fresnel_total_internal_reflection_unimodular():
    # Dense-to-rare beyond the critical angle: |r| = 1, complex r.
    r, _ = fresnel(2.2, 1.0, 0.8, "s")
    assert abs(r) == pytest.approx(1.0, rel=1e-12)
    assert abs(np.imag(r)) > 0


def test_interface_coeffs_homogeneous():
    stack = slab(2.1, 2.1)
    coeffs = interface_coeffs(stack, Mode(1500.0, 0.3))
    assert coeffs.r1 == pytest.approx(0.0, abs=1e-15)
    assert coeffs.r2 == pytest.approx(0.0, abs=1e-15)
    assert coeffs.t1 == pytest.approx(1.0, rel=1e-15)
    assert coeffs.t2 == pytest.approx(1.0, rel=1e-15)


def test_interface_coeffs_symmetric_stack():
    # Internal-reflection sign convention: a symmetric slab sees the
    # same film-side reflection at both faces, which places the unit
    # Airy transmission at the half-wave resonances.
    stack = slab(2.0, 1.0)
    coeffs = interface_coeffs(stack, Mode(1600.0, 0.0))
    assert coeffs.r1 == pytest.approx(coeffs.r2, rel=1e-15)
    assert np.real(coeffs.r1) > 0


def test_interface_coeffs_experiment_stack():
    # air / LiNbO3 / silicon at 1576 nm, normal incidence; cross-checked
    # against a direct evaluation of the flux-normalized formulas.
    stack = LayerStack(
        superstrate=get_material("air"),
        film=get_material("linbo3_e"),
        substrate=get_material("silicon"),
        thickness_nm=10150.0,
    )
    n2 = refractive_index(stack.film, 1576.0)
    n3 = refractive_index(stack.substrate, 1576.0)
    coeffs = interface_coeffs(stack, Mode(1576.0, 0.0))
    assert coeffs.r1 == pytest.approx((n2 - 1.0) / (n2 + 1.0), rel=1e-12)
    assert coeffs.r2 == pytest.approx((n2 - n3) / (n2 + n3), rel=1e-12)
    assert np.real(coeffs.r2) < 0 < np.real(coeffs.r1)
    assert coeffs.t1 == pytest.approx(2.0 * np.sqrt(n2) / (1.0 + n2), rel=1e-12)
    assert coeffs.t2 == pytest.approx(2.0 * np.sqrt(n2 * n3) / (n2 + n3), rel=1e-12)


def test_interface_unitarity_below_tir(rng):
    # Flux-normalized coefficients: |r|^2 + |t|^2 = 1 at each face.
    for _ in range(200):
        n1 = rng.uniform(1.0, 4.0)
        n2 = rng.uniform(1.0, 4.0)
        n3 = rng.uniform(1.0, 4.0)
        stack = LayerStack(
            superstrate=MaterialModel.constant(n1),
            film=MaterialModel.constant(n2),
            substrate=MaterialModel.constant(n3),
            thickness_nm=3000.0,
        )
        cap = min(n1, n3) / n2
        theta = rng.uniform(0.0, np.arcsin(min(cap, 1.0)) - 1e-6)
        pol = "s" if rng.random() < 0.5 else "p"
        c = interface_coeffs(stack, Mode(1500.0, theta, polarization=pol))
        assert abs(c.r1) ** 2 + abs(c.t1) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(c.r2) ** 2 + abs(c.t2) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_propagation_phase_forced_value():
    stack = slab(2.0, 1.0, thickness_nm=1576.0)
    phi = propagation_phase(stack, Mode(1576.0, 0.0))
    assert phi == pytest.approx(4.0 * np.pi, rel=1e-15)


def test_propagation_phase_linear_in_thickness():
    thin = slab(2.0, 1.0, thickness_nm=2000.0)
    thick = slab(2.0, 1.0, thickness_nm=4000.0)
    mode = Mode(1400.0, 0.25)
    assert propagation_phase(thick, mode) == pytest.approx(
        2.0 * propagation_phase(thin, mode), rel=1e-15
    )


def test_propagation_phase_experiment_frozen(experiment_stack):
    # 10.15 um of extraordinary LiNbO3 at 1576 nm, normal incidence.
    phi = propagation_phase(experiment_stack, Mode(1576.0, 0.0))
    assert phi == pytest.approx(86.468189506216387, rel=1e-13)


def test_pump_enhancement_no_etalon():
    coeffs = InterfaceCoeffs(t1=1.0, r1=0.0, t2=1.0, r2=0.0)
    fwd, bwd = pump_enhancement(coeffs, 12.3)
    assert fwd == pytest.approx(1.0, rel=1e-15)
    assert bwd == pytest.approx(0.0, abs=1e-15)


def test_pump_enhancement_backward_identity(rng):
    for _ in range(300):
        r1 = rng.uniform(-0.9, 0.9)
        r2 = rng.uniform(-0.9, 0.9)
        t1 = rng.uniform(0.1, 1.0)
        phi = rng.uniform(0.0, 200.0)
        coeffs = InterfaceCoeffs(t1=t1, r1=r1, t2=0.5, r2=r2)
        fwd, bwd = pump_enhancement(coeffs, phi)
        assert bwd == pytest.approx(r2 * np.exp(1j * phi) * fwd, rel=1e-12)


def test_pump_enhancement_hand_value():
    coeffs = InterfaceCoeffs(t1=0.75, r1=0.5, t2=0.75, r2=0.5)
    fwd, bwd = pump_enhancement(coeffs, 0.0)
    assert fwd == pytest.approx(1.0, rel=1e-15)
    assert bwd == pytest.approx(0.5, rel=1e-15)


def test_pump_enhancement_pole_error():
    coeffs = InterfaceCoeffs(t1=0.1, r1=1.0, t2=0.1, r2=1.0)
    with pytest.raises(ResonancePoleError):
        pump_enhancement(coeffs, 0.0)


def test_field_enhancements_transparent():
    coeffs = InterfaceCoeffs(t1=1.0, r1=0.0, t2=1.0, r2=0.0)
    enh = field_enhancements(coeffs, 7.7)
    assert enh.a1p == pytest.approx(1.0, rel=1e-15)
    assert enh.a1m == pytest.approx(0.0, abs=1e-15)
    assert enh.a3p == pytest.approx(0.0, abs=1e-15)
    assert enh.a3m == pytest.approx(1.0, rel=1e-15)


def test_field_enhancements_ratio(rng):
    for _ in range(200):
        r1 = rng.uniform(-0.9, 0.9)
        r2 = rng.uniform(-0.9, 0.9)
        phi = rng.uniform(0.0, 100.0)
        coeffs = InterfaceCoeffs(t1=0.6, r1=r1, t2=0.8, r2=r2)
        enh = field_enhancements(coeffs, phi)
        if abs(r1) > 1e-12:
            assert enh.a1m / enh.a1p == pytest.approx(r1 * np.exp(1j * phi), rel=1e-12)


def test_field_enhancements_hand_values():
    coeffs = InterfaceCoeffs(t1=0.75, r1=0.5, t2=0.75, r2=0.5)
    enh = field_enhancements(coeffs, 0.0)
    assert enh.a1p == pytest.approx(1.0, rel=1e-15)
    assert enh.a3p == pytest.approx(0.5, rel=1e-15)


def _tmm_transmittance(n0, n1, n2, d_nm, lam_nm, theta0, pol):
    """Independent oracle: textbook characteristic-matrix transmittance."""
    s0 = np.sin(theta0)
    c0 = np.cos(theta0)
    c1 = np.sqrt(1 - (n0 * s0 / n1) ** 2)
    c2 = np.sqrt(1 - (n0 * s0 / n2) ** 2 + 0j)
    if pol == "s":
        e0, e1, e2 = n0 * c0, n1 * c1, n2 * c2
    else:
        e0, e1, e2 = n0 / c0, n1 / c1, n2 / c2
    delta = 2 * np.pi * n1 * d_nm * c1 / lam_nm
    m = np.array(
        [
            [np.cos(delta), 1j * np.sin(delta) / e1],
            [1j * e1 * np.sin(delta), np.cos(delta)],
        ]
    )
    b, c = m @ np.array([1.0, e2])
    t_amp = 2 * e0 / (e0 * b + c)
    return np.real(e2) / np.real(e0) * abs(t_amp) ** 2


def test_linear_transmission_against_transfer_matrix(experiment_stack):
    # Full cross-check of the Fresnel/phase layer on the asymmetric
    # stack at oblique incidence, both polarizations.
    for lam in (1200.0, 1576.0, 2300.0):
        n2 = refractive_index(experiment_stack.film, lam)
        n3 = refractive_index(experiment_stack.substrate, lam)
        for theta_int in (0.0, 0.1, 0.25, 0.4):
            sin_ext = n2 * np.sin(theta_int)
            if abs(sin_ext) >= 1:
                continue
            theta0 = np.arcsin(sin_ext)
            for pol in ("s", "p"):
                mine = linear_transmission(
                    experiment_stack, Mode(lam, theta_int, polarization=pol)
                )
                ref = _tmm_transmittance(1.0, n2, n3, 10150.0, lam, theta0, pol)
                assert mine == pytest.approx(ref, abs=1e-12)


def test_linear_transmission_matched():
    stack = slab(2.1, 2.1)
    assert linear_transmission(stack, Mode(1500.0, 0.1)) == pytest.approx(1.0, rel=1e-12)


def test_linear_transmission_symmetric_resonance():
    # Half-wave slab: n L = m lambda / 2 transmits fully.
    n = 2.3
    lam = 1500.0
    stack = slab(n, 1.0, thickness_nm=10.0 * lam / (2.0 * n))
    assert linear_transmission(stack, Mode(lam, 0.0)) == pytest.approx(1.0, abs=1e-10)
    # A quarter-wave offset sits at the transmission minimum.
    stack_q = slab(n, 1.0, thickness_nm=10.0 * lam / (2.0 * n) + lam / (4.0 * n))
    assert linear_transmission(stack_q, Mode(lam, 0.0)) < 0.6


# What each per-point wrapper names, with a call whose phase is infinite.
NON_FINITE_CALLS = {
    "pump enhancement": lambda c: pump_enhancement(c, np.inf),
    "field enhancement": lambda c: field_enhancements(c, np.inf),
    "linear transmission": lambda c: linear_transmission(slab(1e308), Mode(1500.0, 0.0)),
}


@pytest.mark.parametrize("what", NON_FINITE_CALLS)
def test_non_finite_result_is_an_error_without_a_warning(what):
    # An infinite phase (given, or from a film index whose phase
    # overflows) leaves the round-trip denominator nan: not a pole, but
    # nothing finite to return.
    coeffs = InterfaceCoeffs(0.9, 0.2, 0.9, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpdcEtalonError, match=f"^{what} is not finite: ") as err:
            NON_FINITE_CALLS[what](coeffs)
    assert type(err.value) is SpdcEtalonError

