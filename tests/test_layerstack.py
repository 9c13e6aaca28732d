import warnings

import numpy as np
import pytest

from conftest import config_text
from reference import (
    InterfaceCoeffs,
    Mode,
    complex_coefficient_arrays,
    fresnel,
    propagation_phase,
)
from spdc_etalon import (
    LayerStack,
    MaterialModel,
    ResonancePoleError,
    SpdcEtalonError,
    detection_spectrum,
    frequency_angular_spectra,
    gain_and_agreement_curve,
    material_from_spec,
    parse_config,
    refractive_index,
    transmission_curve,
)
from spdc_etalon.layerstack import (
    _indices,
    _pump_enhancement,
    coefficient_arrays,
    enhancement_arrays,
    round_trip_denominator,
)


def slab(n_film, n_outer=1.0, thickness_nm=5000.0):
    return LayerStack(
        superstrate=MaterialModel.constant(n_outer),
        film=MaterialModel.constant(n_film),
        substrate=MaterialModel.constant(n_outer),
        thickness_nm=thickness_nm,
    )


@pytest.mark.parametrize(
    "thickness_nm, chi2", [(np.nan, 0.0), (np.inf, 0.0), (5000.0, np.inf), (5000.0, np.nan)]
)
def test_layer_stack_refuses_non_finite_numbers(thickness_nm, chi2):
    air = material_from_spec("air")
    with pytest.raises(ValueError, match="finite"):
        LayerStack(air, air, air, thickness_nm, chi2_pm_per_v=chi2)


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
    t1, r1, t2, r2 = coefficient_arrays((2.1, 2.1, 2.1), (np.cos(0.3), np.sin(0.3)), "s")
    assert r1 == pytest.approx(0.0, abs=1e-15)
    assert r2 == pytest.approx(0.0, abs=1e-15)
    assert t1 == pytest.approx(1.0, rel=1e-15)
    assert t2 == pytest.approx(1.0, rel=1e-15)


def test_interface_coeffs_symmetric_stack():
    # Internal-reflection sign convention: a symmetric slab sees the
    # same film-side reflection at both faces, which places the unit
    # Airy transmission at the half-wave resonances.
    _, r1, _, r2 = coefficient_arrays((1.0, 2.0, 1.0), (1.0, 0.0), "s")
    assert r1 == pytest.approx(r2, rel=1e-15)
    assert np.real(r1) > 0


def test_interface_coeffs_experiment_stack():
    # air / LiNbO3 / silicon at 1576 nm, normal incidence; cross-checked
    # against a direct evaluation of the flux-normalized formulas.
    stack = LayerStack(
        superstrate=material_from_spec("air"),
        film=material_from_spec("linbo3_e"),
        substrate=material_from_spec("silicon"),
        thickness_nm=10150.0,
    )
    n2 = refractive_index(stack.film, 1576.0)
    n3 = refractive_index(stack.substrate, 1576.0)
    t1, r1, t2, r2 = coefficient_arrays(_indices(stack, 1576.0), (1.0, 0.0), "s")
    assert r1 == pytest.approx((n2 - 1.0) / (n2 + 1.0), rel=1e-12)
    assert r2 == pytest.approx((n2 - n3) / (n2 + n3), rel=1e-12)
    assert np.real(r2) < 0 < np.real(r1)
    assert t1 == pytest.approx(2.0 * np.sqrt(n2) / (1.0 + n2), rel=1e-12)
    assert t2 == pytest.approx(2.0 * np.sqrt(n2 * n3) / (n2 + n3), rel=1e-12)


@pytest.mark.parametrize("pol", ["s", "p"])
def test_coefficients_have_the_bits_of_the_complex_formula(rng, pol):
    # Below the critical angle the complex formula's coefficients are
    # real, and the float64 kernel gives the bits of their real parts:
    # numpy divides by a complex of zero imaginary part as a product with
    # its reciprocal, as the kernel does.  Random stacks, angles of either
    # sign up to each stack's critical angle (grazing when the film is
    # the thinnest region), and normal incidence.
    n1, n2, n3 = rng.uniform(1.0, 4.0, (3, 100_000))
    critical = np.arcsin(np.minimum(np.minimum(n1, n3) / n2, 1.0))
    theta = rng.uniform(-1.0, 1.0, n2.size) * critical
    theta[:100] = 0.0
    trig = (np.cos(theta), np.sin(theta))
    mine = coefficient_arrays((n1, n2, n3), trig, pol)
    oracle = complex_coefficient_arrays((n1, n2, n3), trig, pol)
    for name, x, z in zip(("t1", "r1", "t2", "r2"), mine, oracle):
        assert x.dtype == np.float64, name
        assert not np.imag(z).any(), name
        assert x.tobytes() == np.real(z).tobytes(), name


@pytest.mark.parametrize("pol", ["s", "p"])
def test_coefficients_are_nan_beyond_the_critical_angle(pol):
    # An n = 2.2 film between air and n = 1.8: the critical angles are
    # 0.472 rad at interface 1 and 0.958 rad at interface 2.
    theta = np.array([0.0, 0.4, 0.8, 1.2])
    with np.errstate(invalid="ignore"):
        t1, r1, t2, r2 = coefficient_arrays((1.0, 2.2, 1.8), (np.cos(theta), np.sin(theta)), pol)
    for coeffs, beyond in (((t1, r1), [False, False, True, True]), ((t2, r2), [False] * 3 + [True])):
        for c in coeffs:
            assert np.array_equal(np.isnan(c), beyond)


def test_interface_unitarity_below_tir(rng):
    # Flux-normalized coefficients: |r|^2 + |t|^2 = 1 at each face.
    for _ in range(200):
        n1 = rng.uniform(1.0, 4.0)
        n2 = rng.uniform(1.0, 4.0)
        n3 = rng.uniform(1.0, 4.0)
        cap = min(n1, n3) / n2
        theta = rng.uniform(0.0, np.arcsin(min(cap, 1.0)) - 1e-6)
        pol = "s" if rng.random() < 0.5 else "p"
        t1, r1, t2, r2 = coefficient_arrays((n1, n2, n3), (np.cos(theta), np.sin(theta)), pol)
        assert abs(r1) ** 2 + abs(t1) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(r2) ** 2 + abs(t2) ** 2 == pytest.approx(1.0, abs=1e-12)


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


def pump_amplitudes(coeffs, phase):
    """`_pump_enhancement` with the round-trip denominator that
    `spectra._normal_incidence` forms, under the errstate of the entries
    that evaluate the pump."""
    with np.errstate(all="ignore"):
        den = round_trip_denominator(coeffs.r1, coeffs.r2, phase)
        return _pump_enhancement(coeffs, phase, den)


def test_pump_enhancement_no_etalon():
    coeffs = InterfaceCoeffs(t1=1.0, r1=0.0, t2=1.0, r2=0.0)
    fwd, bwd = pump_amplitudes(coeffs, 12.3)
    assert fwd == pytest.approx(1.0, rel=1e-15)
    assert bwd == pytest.approx(0.0, abs=1e-15)


def test_pump_enhancement_backward_identity(rng):
    for _ in range(300):
        r1 = rng.uniform(-0.9, 0.9)
        r2 = rng.uniform(-0.9, 0.9)
        t1 = rng.uniform(0.1, 1.0)
        phi = rng.uniform(0.0, 200.0)
        coeffs = InterfaceCoeffs(t1=t1, r1=r1, t2=0.5, r2=r2)
        fwd, bwd = pump_amplitudes(coeffs, phi)
        assert bwd == pytest.approx(r2 * np.exp(1j * phi) * fwd, rel=1e-12)


def test_pump_enhancement_hand_value():
    coeffs = InterfaceCoeffs(t1=0.75, r1=0.5, t2=0.75, r2=0.5)
    fwd, bwd = pump_amplitudes(coeffs, 0.0)
    assert fwd == pytest.approx(1.0, rel=1e-15)
    assert bwd == pytest.approx(0.5, rel=1e-15)


def test_pump_enhancement_pole_error():
    coeffs = InterfaceCoeffs(t1=0.1, r1=1.0, t2=0.1, r2=1.0)
    with pytest.raises(ResonancePoleError):
        pump_amplitudes(coeffs, 0.0)


def test_field_enhancements_transparent():
    den = round_trip_denominator(0.0, 0.0, 7.7)
    a1p, a1m, a3p, a3m = enhancement_arrays(1.0, 0.0, 1.0, 0.0, 7.7, den)
    assert a1p == pytest.approx(1.0, rel=1e-15)
    assert a1m == pytest.approx(0.0, abs=1e-15)
    assert a3p == pytest.approx(0.0, abs=1e-15)
    assert a3m == pytest.approx(1.0, rel=1e-15)


def test_field_enhancements_ratio(rng):
    for _ in range(200):
        r1 = rng.uniform(-0.9, 0.9)
        r2 = rng.uniform(-0.9, 0.9)
        phi = rng.uniform(0.0, 100.0)
        den = round_trip_denominator(r1, r2, phi)
        a1p, a1m, _, _ = enhancement_arrays(0.6, r1, 0.8, r2, phi, den)
        if abs(r1) > 1e-12:
            assert a1m / a1p == pytest.approx(r1 * np.exp(1j * phi), rel=1e-12)


def test_field_enhancements_hand_values():
    den = round_trip_denominator(0.5, 0.5, 0.0)
    a1p, _, a3p, _ = enhancement_arrays(0.75, 0.5, 0.75, 0.5, 0.0, den)
    assert a1p == pytest.approx(1.0, rel=1e-15)
    assert a3p == pytest.approx(0.5, rel=1e-15)


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


def airy_transmittance(stack, wavelength_nm, internal_angle_rad, polarization, indices):
    """|t1 t2 e^{i phi} / (1 - r1 r2 e^{2 i phi})|^2 from `coefficient_arrays`
    at any internal angle, with `indices` the (n1, n2, n3) at
    `wavelength_nm`.  With flux-normalized coefficients this is the
    raw-amplitude formula times the external flux ratio."""
    cos = np.cos(internal_angle_rad)
    t1, r1, t2, r2 = coefficient_arrays(indices, (cos, np.sin(internal_angle_rad)), polarization)
    phi = stack.thickness_nm * 2.0 * np.pi * indices[1] / wavelength_nm * cos
    return np.abs(t1 * t2 * np.exp(1j * phi) / (1.0 - r1 * r2 * np.exp(2j * phi))) ** 2


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
                indices = _indices(experiment_stack, lam)
                mine = airy_transmittance(experiment_stack, lam, theta_int, pol, indices)
                ref = _tmm_transmittance(1.0, n2, n3, 10150.0, lam, theta0, pol)
                assert mine == pytest.approx(ref, abs=1e-12)


def test_linear_transmission_matched():
    stack = slab(2.1, 2.1)
    trans = airy_transmittance(stack, 1500.0, 0.1, "s", _indices(stack, 1500.0))
    assert trans == pytest.approx(1.0, rel=1e-12)


def test_linear_transmission_symmetric_resonance():
    # Half-wave slab: n L = m lambda / 2 transmits fully.
    n = 2.3
    lam = 1500.0

    def transmission(thickness_nm):
        """`transmission_curve` of the slab in air at `lam`, its first wavelength."""
        text = config_text(
            superstrate="constant:1.0",
            film=f"constant:{n}",
            substrate="constant:1.0",
            thickness_um=thickness_nm / 1e3,
            lambda_min_nm=lam,
        )
        return transmission_curve(parse_config(text))[1][0]

    assert transmission(10.0 * lam / (2.0 * n)) == pytest.approx(1.0, abs=1e-10)
    # A quarter-wave offset sits at the transmission minimum.
    assert transmission(10.0 * lam / (2.0 * n) + lam / (4.0 * n)) < 0.6


def test_non_finite_result_is_an_error_without_a_warning():
    # An infinite phase leaves the round-trip denominator nan: not a
    # pole, but no finite pump amplitude to return.  The entries ignore
    # floating-point errors; the pump's own check raises.
    coeffs = InterfaceCoeffs(0.9, 0.2, 0.9, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpdcEtalonError, match="^pump enhancement is not finite: ") as err:
            pump_amplitudes(coeffs, np.inf)
    assert type(err.value) is SpdcEtalonError


@pytest.mark.parametrize(
    "entry",
    [lambda cfg: frequency_angular_spectra(cfg, ("simplified",)), gain_and_agreement_curve,
     detection_spectrum],
    ids=["spectra", "gain", "detection"],
)
def test_entries_report_a_non_finite_pump_without_a_warning(entry):
    # An index of 1e308 overflows the pump's phase.  Each entry that
    # evaluates the pump raises the pump's error, not a RuntimeWarning,
    # even when the caller has asked numpy to raise on every error, and
    # leaves the caller's error state as it was.
    config = parse_config(config_text(lambda_count=16, theta_count=8, film="constant:1e308"))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(SpdcEtalonError, match="^pump enhancement is not finite: ") as err:
            entry(config)
        assert np.geterr() == dict.fromkeys(("divide", "over", "under", "invalid"), "raise")
    assert type(err.value) is SpdcEtalonError
