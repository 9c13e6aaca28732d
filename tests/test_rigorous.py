import numpy as np
import pytest

import reference
from spdc_etalon import (
    InteractionParams,
    InterfaceCoeffs,
    Mode,
    NearSingularError,
    boundary_matrices,
    gain_term,
    interaction_matrix,
    interaction_params,
    pair_probabilities,
    scattering_matrix,
)


def params(beta_plus=0.0, beta_minus=0.0, delta=0.0):
    return InteractionParams(beta_plus=beta_plus, beta_minus=beta_minus, delta=delta)


def reference_block(beta, delta, gamma_sign=1.0):
    """Closed-form 2x2 block, written independently of the library."""
    gamma = gamma_sign * np.sqrt(complex(beta) ** 2 - delta ** 2 / 4.0)
    if gamma == 0:
        ch, shc = 1.0, 1.0
    else:
        ch = np.cosh(gamma)
        shc = np.sinh(gamma) / gamma
    return np.array(
        [
            [np.exp(-1j * delta / 2) * (ch + 1j * delta * shc / 2), -1j * beta * shc],
            [1j * beta * shc, np.exp(1j * delta / 2) * (ch - 1j * delta * shc / 2)],
        ]
    )


# ---- interaction_params ---------------------------------------------------


def test_interaction_params_no_pump(experiment_stack):
    pump = Mode(788.0, 0.0, role="pump")
    signal = Mode(1576.0, 0.0)
    idler = Mode(1576.0, 0.0, role="idler")
    p = interaction_params(experiment_stack, pump, signal, idler, (0.0, 0.0))
    assert p.beta_plus == 0.0 and p.beta_minus == 0.0
    # gamma is a square-root branch of -delta^2/4.
    assert gain_term(p.beta_plus, p.delta) ** 2 == pytest.approx(-p.delta ** 2 / 4.0, rel=1e-12)


def test_interaction_params_linear_in_field(experiment_stack):
    from dataclasses import replace

    stack = replace(experiment_stack, chi2_pm_per_v=30.0)
    pump = Mode(788.0, 0.0, role="pump")
    signal = Mode(1500.0, 0.1)
    idler = Mode(1659.0, -0.09, role="idler")
    p1 = interaction_params(stack, pump, signal, idler, (2e7, 1e7))
    p2 = interaction_params(stack, pump, signal, idler, (4e7, 2e7))
    assert p2.beta_plus == pytest.approx(2.0 * p1.beta_plus, rel=1e-14)
    assert p2.beta_minus == pytest.approx(2.0 * p1.beta_minus, rel=1e-14)
    assert p2.delta == p1.delta


def test_interaction_params_degenerate_delta_frozen(experiment_stack):
    # L (k_p - 2 k_s) at the degenerate collinear point, evaluated
    # independently from the published Sellmeier coefficients.
    pump = Mode(788.0, 0.0, role="pump")
    signal = Mode(1576.0, 0.0)
    idler = Mode(1576.0, 0.0, role="idler")
    p = interaction_params(experiment_stack, pump, signal, idler, (0.0, 0.0))
    assert p.delta == pytest.approx(3.2383322404438462, rel=1e-12)


def test_gain_invariant_random(rng):
    for _ in range(300):
        beta = complex(rng.normal(), rng.normal())
        delta = rng.uniform(-50.0, 50.0)
        gamma = gain_term(beta, delta)
        assert gamma ** 2 == pytest.approx(beta ** 2 - delta ** 2 / 4.0, rel=1e-12)


# ---- interaction_matrix ---------------------------------------------------


def test_interaction_matrix_zero_gain_exact_identity():
    w = interaction_matrix(params(0.0, 0.0, delta=3.7))
    assert np.array_equal(w, np.eye(4, dtype=complex))


def test_interaction_matrix_frozen_entries():
    # beta+ = 0.1, delta = 1: entries from a 50-digit evaluation of the
    # closed forms.
    w = interaction_matrix(params(0.1, 0.0, delta=1.0))
    assert w[0, 0] == pytest.approx(1.0046007403954536 - 0.0015868796553719307j, rel=1e-14)
    assert w[1, 1] == pytest.approx(1.0046007403954536 + 0.0015868796553719307j, rel=1e-14)
    assert w[0, 1] == pytest.approx(-0.096047726626579689j, rel=1e-14)
    assert w[1, 0] == pytest.approx(0.096047726626579689j, rel=1e-14)
    # Lower block stays identity at beta- = 0.
    assert np.array_equal(w[2:, 2:], np.eye(2, dtype=complex))


def test_interaction_matrix_unit_determinant_random(rng):
    betas = (rng.normal(size=1200) + 1j * rng.normal(size=1200)) * 5.0
    deltas = rng.uniform(-50.0, 50.0, size=1200)
    w = interaction_matrix(params(betas, betas * 0.3, deltas))
    for rows in (slice(0, 2), slice(2, 4)):
        block = w[..., rows, rows]
        det = block[..., 0, 0] * block[..., 1, 1] - block[..., 0, 1] * block[..., 1, 0]
        scale = 1.0 + np.abs(block[..., 0, 0] * block[..., 1, 1]) + np.abs(
            block[..., 0, 1] * block[..., 1, 0]
        )
        assert np.all(np.abs(det - 1.0) <= 1e-12 * scale)


def test_interaction_matrix_gamma_branch_invariance(rng):
    for _ in range(200):
        beta = complex(rng.normal(), rng.normal()) * 3.0
        delta = rng.uniform(-20.0, 20.0)
        w = interaction_matrix(params(beta, 0.0, delta))[0:2, 0:2]
        for sign in (1.0, -1.0):
            ref = reference_block(beta, delta, gamma_sign=sign)
            assert np.allclose(w, ref, rtol=1e-12, atol=1e-12)


def test_sinhc_series_switch_continuity():
    # Straddle |gamma| = 1e-4 so closely that the legitimate physical
    # change is ~1e-16; any remaining jump is the series/direct switch.
    cutoff = 1e-4
    w_lo = interaction_matrix(params(cutoff * (1.0 - 1e-12), 0.0, 0.0))
    w_hi = interaction_matrix(params(cutoff * (1.0 + 1e-12), 0.0, 0.0))
    assert np.max(np.abs(w_hi - w_lo)) < 1e-10
    # And with the gain dominated by the mismatch instead.
    w_lo = interaction_matrix(params(1e-6, 0.0, 2.0 * cutoff * (1.0 - 1e-12)))
    w_hi = interaction_matrix(params(1e-6, 0.0, 2.0 * cutoff * (1.0 + 1e-12)))
    assert np.max(np.abs(w_hi - w_lo)) < 1e-10


# ---- boundary_matrices ----------------------------------------------------


def test_boundary_matrices_trivial():
    c = InterfaceCoeffs(t1=1.0, r1=0.0, t2=1.0, r2=0.0)
    tau1, tau2, rho = boundary_matrices(c, c, 0.0, 0.0)
    assert np.array_equal(tau1, np.eye(4, dtype=complex))
    assert np.array_equal(tau2, np.eye(4, dtype=complex))
    assert np.array_equal(rho, np.zeros((4, 4), dtype=complex))


def test_boundary_matrices_layout():
    cs = InterfaceCoeffs(t1=0.9, r1=0.3, t2=0.8, r2=-0.2)
    ci = InterfaceCoeffs(t1=0.7 + 0.1j, r1=0.4 - 0.2j, t2=0.6, r2=0.1)
    tau1, tau2, rho = boundary_matrices(cs, ci, 0.0, 0.0)
    assert tau1[0, 0] == 0.9 and tau1[2, 2] == 0.8
    assert tau1[1, 1] == np.conj(0.7 + 0.1j)
    assert tau2[0, 0] == 0.8 and tau2[2, 2] == 0.9
    assert rho[0, 2] == 0.3
    assert rho[1, 3] == np.conj(0.4 - 0.2j)
    assert rho[2, 0] == -0.2
    assert rho[3, 1] == np.conj(0.1 + 0.0j)


def test_boundary_matrices_phase_entry():
    cs = InterfaceCoeffs(t1=1.0, r1=0.3, t2=1.0, r2=0.0)
    ci = InterfaceCoeffs(t1=1.0, r1=0.0, t2=1.0, r2=0.0)
    _, _, rho = boundary_matrices(cs, ci, np.pi / 2, 0.0)
    assert rho[0, 2] == pytest.approx(0.3j, rel=1e-15)


# ---- scattering_matrix ----------------------------------------------------


def test_scattering_matrix_transparent_slab():
    eye = np.eye(4, dtype=complex)
    u = scattering_matrix(eye, eye, eye, np.zeros((4, 4), dtype=complex))
    assert np.allclose(u, eye, atol=1e-15)


def _linear_boundaries(rng):
    """Random lossless sub-TIR interface coefficients and phases."""
    from spdc_etalon import LayerStack, MaterialModel, interface_coeffs

    n1 = rng.uniform(1.0, 4.0)
    n2 = rng.uniform(1.0, 4.0)
    n3 = rng.uniform(1.0, 4.0)
    stack = LayerStack(
        superstrate=MaterialModel.constant(n1),
        film=MaterialModel.constant(n2),
        substrate=MaterialModel.constant(n3),
        thickness_nm=rng.uniform(1000.0, 20000.0),
    )
    cap = np.arcsin(min(min(n1, n3) / n2, 1.0)) - 1e-6
    theta = rng.uniform(0.0, cap)
    mode = Mode(rng.uniform(900.0, 2400.0), theta)
    coeffs = interface_coeffs(stack, mode)
    return coeffs, reference.propagation_phase(stack, mode)


def test_scattering_matrix_zero_gain_signal_subblock_unitary(rng):
    w = np.eye(4, dtype=complex)
    for _ in range(200):
        coeffs, phi = _linear_boundaries(rng)
        tau1, tau2, rho = boundary_matrices(coeffs, coeffs, phi, phi)
        u = scattering_matrix(w, tau1, tau2, rho)
        sub = u[np.ix_([0, 2], [0, 2])]
        assert np.max(np.abs(sub @ sub.conj().T - np.eye(2))) < 1e-10


def test_scattering_matrix_matches_explicit_inverse(rng):
    for _ in range(100):
        coeffs, phi = _linear_boundaries(rng)
        p = params(
            complex(rng.normal(), rng.normal()) * 0.2,
            complex(rng.normal(), rng.normal()) * 0.2,
            rng.uniform(-10.0, 10.0),
        )
        w = interaction_matrix(p)
        tau1, tau2, rho = boundary_matrices(coeffs, coeffs, phi, phi * 0.8)
        u = scattering_matrix(w, tau1, tau2, rho)
        # Alternate solve order through the push-through identity:
        # w (I - rho w)^-1 = (w^-1 - rho)^-1.
        alt = tau2 @ np.linalg.inv(np.linalg.inv(w) - rho) @ tau1 - rho.conj().T
        assert np.max(np.abs(u - alt)) < 1e-11


def test_scattering_matrix_near_singular_error():
    w = np.eye(4, dtype=complex)
    coeffs = InterfaceCoeffs(t1=1e-6, r1=1.0, t2=1e-6, r2=1.0)
    tau1, tau2, rho = boundary_matrices(coeffs, coeffs, 0.0, 0.0)
    with pytest.raises(NearSingularError):
        scattering_matrix(w, tau1, tau2, rho)


# ---- scattering_matrix against the generic BLAS oracle ---------------------
#
# scattering_matrix forms rho w and tau2 w from their nonzero entries;
# reference.scattering_matrix multiplies the full matrices through BLAS.
# U must agree bit for bit, so a BLAS that rounds a one-term entry some
# other way fails here by name and not only on the golden hashes.

# Parts mixed into the random entries: signed zeros, subnormals, products
# that underflow or overflow, and non-finite values.
SPECIAL_PARTS = np.array(
    [0.0, -0.0, 5e-324, -3e-310, 1e-300, -1e-160, 1e300, -1e300, np.inf, -np.inf, np.nan]
)
RHO_ENTRIES = ((0, 2), (1, 3), (2, 0), (3, 1))


def _random_structured(rng, n, special_frac, special=SPECIAL_PARTS):
    """(w, tau1, tau2, rho) of shape (n, 4, 4) with the structure that
    interaction_matrix and boundary_matrices give them; a fraction
    `special_frac` of the real and imaginary parts is drawn from
    `special`, the rest from a normal distribution."""

    def entries(*shape):
        parts = rng.normal(size=shape + (2,))
        pick = rng.random(parts.shape) < special_frac
        parts[pick] = rng.choice(special, pick.sum())
        return parts.view(complex)[..., 0]

    w, tau1, tau2, rho = (np.zeros((n, 4, 4), dtype=complex) for _ in range(4))
    w[:, :2, :2] = entries(n, 2, 2)
    w[:, 2:, 2:] = entries(n, 2, 2)
    for tau in (tau1, tau2):
        tau[:, range(4), range(4)] = entries(n, 4)
    for i, j in RHO_ENTRIES:
        rho[:, i, j] = entries(n)
    return w, tau1, tau2, rho


def assert_same_bits(u, expected):
    assert u.shape == expected.shape
    assert np.array_equal(u.view(np.uint64), expected.view(np.uint64))


def _both_or_neither(inputs, check_condition=False):
    """U from the library and from the oracle, or None when both raise
    LinAlgError (an exactly singular I - rho w)."""
    results = []
    for fn in (scattering_matrix, reference.scattering_matrix):
        try:
            results.append(fn(*inputs, check_condition=check_condition))
        except np.linalg.LinAlgError:
            results.append(None)
    assert (results[0] is None) == (results[1] is None)
    return results


@pytest.mark.parametrize(
    "special_frac, special",
    [(0.0, SPECIAL_PARTS), (0.05, SPECIAL_PARTS), (0.3, SPECIAL_PARTS), (0.5, [0.0, -0.0])],
    ids=["normal", "few-special", "many-special", "signed-zeros"],
)
def test_scattering_matrix_bits_equal_oracle_on_random_structured_input(
    rng, special_frac, special
):
    w, tau1, tau2, rho = _random_structured(rng, 4096, special_frac, special)
    compared = []
    with np.errstate(all="ignore"):
        # Small batches, so an exactly singular matrix skips few others.
        for lo in range(0, w.shape[0], 16):
            batch = [m[lo : lo + 16] for m in (w, tau1, tau2, rho)]
            u, expected = _both_or_neither(batch)
            if u is not None:
                assert_same_bits(u, expected)
                compared.append(expected)
    compared = np.concatenate(compared)
    assert compared.shape[0] >= 0.9 * w.shape[0]
    finite = np.isfinite(compared).all(axis=(-2, -1))
    assert finite.any()
    assert finite.all() == (np.isfinite(special).all() or special_frac == 0.0)


def test_scattering_matrix_bits_equal_oracle_for_single_and_broadcast_w(rng):
    w, tau1, tau2, rho = _random_structured(rng, 64, 0.0)
    for k in range(8):
        inputs = [m[k] for m in (w, tau1, tau2, rho)]
        u, expected = _both_or_neither(inputs, check_condition=True)
        assert u.shape == (4, 4)
        assert_same_bits(u, expected)
    # One (4, 4) w against (n, 4, 4) boundary matrices, and the reverse.
    for inputs in ((w[0], tau1, tau2, rho), (w, tau1[0], tau2[0], rho[0])):
        u, expected = _both_or_neither(inputs)
        assert u.shape == (64, 4, 4)
        assert_same_bits(u, expected)


# Sweep configs: betas from low gain to overflow (every matrix non-finite
# at 1000), the chi2/field route and p polarization.
SWEEP_CONFIGS = {
    "beta-1e-3": lambda text: text,
    "beta-0.5": lambda text: text.replace("beta_plus = 1e-3", "beta_plus = 0.5"),
    "beta-3.5": lambda text: text.replace("beta_plus = 1e-3", "beta_plus = 3.5"),
    "beta-1000": lambda text: text.replace("beta_plus = 1e-3", "beta_plus = 1000"),
    "chi2-field": lambda text: text.replace("beta_plus = 1e-3", "field_v_per_m = 5e7").replace(
        "thickness_um = 10.15", "thickness_um = 10.15\nchi2_pm_per_v = 30.0"
    ),
    "p-polarization": lambda text: text.replace("[grid]", "[model]\npolarization = p\n\n[grid]"),
}


@pytest.mark.parametrize("name", list(SWEEP_CONFIGS))
def test_scattering_matrix_bits_equal_oracle_on_sweep_blocks(monkeypatch, name):
    from conftest import config_text
    from spdc_etalon import frequency_angular_spectrum, parse_config, spectra

    cfg = parse_config(SWEEP_CONFIGS[name](config_text(lambda_count=64, theta_count=48)))
    monkeypatch.setattr(spectra, "_RIGOROUS_BLOCK", 1000)
    blocks = []

    def checked(w, tau1, tau2, rho, check_condition=True):
        u = scattering_matrix(w, tau1, tau2, rho, check_condition=check_condition)
        expected = reference.scattering_matrix(w, tau1, tau2, rho, check_condition=check_condition)
        assert_same_bits(u, expected)
        blocks.append(np.isfinite(expected).all(axis=(-2, -1)))
        return u

    monkeypatch.setattr(spectra, "scattering_matrix", checked)
    frequency_angular_spectrum(cfg, "rigorous")
    finite = np.concatenate(blocks)
    assert len(blocks) > 1
    assert finite.any() == (name != "beta-1000")


@pytest.mark.parametrize("argument", ["w", "tau2", "rho"])
@pytest.mark.parametrize("value", [1e-300, np.nan])
def test_scattering_matrix_rejects_entries_outside_the_structure(rng, argument, value):
    inputs = dict(zip(("w", "tau1", "tau2", "rho"), _random_structured(rng, 3, 0.0)))
    # A signed zero outside the structure is still zero.
    inputs[argument][:, 0, 3] = -0.0
    scattering_matrix(**inputs)
    inputs[argument][1, 0, 3] = value
    with pytest.raises(ValueError, match=f"{argument} has a nonzero entry outside"):
        scattering_matrix(**inputs)


# ---- pair_probabilities ---------------------------------------------------


def test_pair_probabilities_identity_matrix():
    probs = pair_probabilities(np.eye(4, dtype=complex))
    assert probs.ff == probs.bb == probs.fb == probs.bf == 0.0


def test_pair_probabilities_zero_gain(rng):
    w = np.eye(4, dtype=complex)
    for _ in range(100):
        coeffs, phi = _linear_boundaries(rng)
        tau1, tau2, rho = boundary_matrices(coeffs, coeffs, phi, phi)
        probs = pair_probabilities(scattering_matrix(w, tau1, tau2, rho))
        for val in (probs.ff, probs.bb, probs.fb, probs.bf):
            assert abs(val) <= 1e-20
