import numpy as np
import pytest

import reference
from conftest import config_text
from reference import InterfaceCoeffs, Mode
from test_acceptance import _random_lossless_boundaries
from spdc_etalon import (
    boundary_matrices,
    gain_term,
    interaction_matrix,
    pair_probabilities,
    parse_config,
    scattering_matrix,
    spectra,
)


# The interaction matrix at zero gain, as its two identity blocks.
W_ZERO_GAIN = np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2))


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


# ---- interaction strengths of the chi2/field route ------------------------


def _chi2_pixel(field_v_per_m, lam_s, theta_s):
    """The sweep's kinematics batch of one pixel of the experiment stack
    on the chi2/field route (chi2 = 30 pm/V)."""
    text = config_text().replace("beta_plus = 1e-3", f"field_v_per_m = {field_v_per_m!r}")
    cfg = parse_config(text.replace("thickness_um", "chi2_pm_per_v = 30.0\nthickness_um"))
    lams, thetas = np.array([lam_s]), np.array([theta_s])
    with np.errstate(all="ignore"):
        return spectra._build_batch(cfg, lams, thetas, 0, 1, spectra._pump_state(cfg))


def test_interaction_params_no_pump():
    p = _chi2_pixel(0.0, 1576.0, 0.0)
    assert p.beta_p[0] == 0.0 and p.beta_m[0] == 0.0
    # gamma is a square-root branch of -delta^2/4.
    gamma = gain_term(p.beta_p[0], p.delta[0])
    assert gamma ** 2 == pytest.approx(-p.delta[0] ** 2 / 4.0, rel=1e-12)


def test_interaction_params_linear_in_field():
    p1 = _chi2_pixel(2e7, 1500.0, 0.1)
    p2 = _chi2_pixel(4e7, 1500.0, 0.1)
    assert p2.beta_p[0] == pytest.approx(2.0 * p1.beta_p[0], rel=1e-14)
    assert p2.beta_m[0] == pytest.approx(2.0 * p1.beta_m[0], rel=1e-14)
    assert p2.delta[0] == p1.delta[0]


def test_interaction_params_degenerate_delta_frozen():
    # L (k_p - 2 k_s) at the degenerate collinear point, evaluated
    # independently from the published Sellmeier coefficients.
    p = _chi2_pixel(0.0, 1576.0, 0.0)
    assert p.delta[0] == pytest.approx(3.2383322404438462, rel=1e-12)


def test_gain_invariant_random(rng):
    for _ in range(300):
        beta = complex(rng.normal(), rng.normal())
        delta = rng.uniform(-50.0, 50.0)
        gamma = gain_term(beta, delta)
        assert gamma ** 2 == pytest.approx(beta ** 2 - delta ** 2 / 4.0, rel=1e-12)


# ---- interaction_matrix ---------------------------------------------------


def test_interaction_matrix_zero_gain_exact_identity():
    w = interaction_matrix(0.0, 0.0, 3.7)
    assert w.shape == (2, 2, 2)
    assert np.array_equal(w, W_ZERO_GAIN)


def test_interaction_matrix_frozen_entries():
    # beta+ = 0.1, delta = 1: entries from a 50-digit evaluation of the
    # closed forms.
    w = interaction_matrix(0.1, 0.0, 1.0)
    upper = w[0]
    assert upper[0, 0] == pytest.approx(1.0046007403954536 - 0.0015868796553719307j, rel=1e-14)
    assert upper[1, 1] == pytest.approx(1.0046007403954536 + 0.0015868796553719307j, rel=1e-14)
    assert upper[0, 1] == pytest.approx(-0.096047726626579689j, rel=1e-14)
    assert upper[1, 0] == pytest.approx(0.096047726626579689j, rel=1e-14)
    # Lower block stays identity at beta- = 0.
    assert np.array_equal(w[1], np.eye(2, dtype=complex))


def test_interaction_matrix_unit_determinant_random(rng):
    betas = (rng.normal(size=1200) + 1j * rng.normal(size=1200)) * 5.0
    deltas = rng.uniform(-50.0, 50.0, size=1200)
    w = interaction_matrix(betas, betas * 0.3, deltas)
    for branch in (0, 1):
        block = w[..., branch, :, :]
        det = block[..., 0, 0] * block[..., 1, 1] - block[..., 0, 1] * block[..., 1, 0]
        scale = 1.0 + np.abs(block[..., 0, 0] * block[..., 1, 1]) + np.abs(
            block[..., 0, 1] * block[..., 1, 0]
        )
        assert np.all(np.abs(det - 1.0) <= 1e-12 * scale)


def test_interaction_matrix_gamma_branch_invariance(rng):
    for _ in range(200):
        beta = complex(rng.normal(), rng.normal()) * 3.0
        delta = rng.uniform(-20.0, 20.0)
        w = interaction_matrix(beta, 0.0, delta)[0]
        for sign in (1.0, -1.0):
            ref = reference_block(beta, delta, gamma_sign=sign)
            assert np.allclose(w, ref, rtol=1e-12, atol=1e-12)


def test_sinhc_series_switch_continuity():
    # Straddle |gamma| = 1e-4 so closely that the legitimate physical
    # change is ~1e-16; any remaining jump is the series/direct switch.
    cutoff = 1e-4
    w_lo = interaction_matrix(cutoff * (1.0 - 1e-12), 0.0, 0.0)
    w_hi = interaction_matrix(cutoff * (1.0 + 1e-12), 0.0, 0.0)
    assert np.max(np.abs(w_hi - w_lo)) < 1e-10
    # And with the gain dominated by the mismatch instead.
    w_lo = interaction_matrix(1e-6, 0.0, 2.0 * cutoff * (1.0 - 1e-12))
    w_hi = interaction_matrix(1e-6, 0.0, 2.0 * cutoff * (1.0 + 1e-12))
    assert np.max(np.abs(w_hi - w_lo)) < 1e-10


# Random real beta up to 2.4 and |delta| <= 8, below and above threshold.
ODE_BOUND = 1e-12


def test_interaction_block_equals_coupled_mode_ode_for_real_beta(rng):
    # The forward block against an RK4 integration of the coupled-mode
    # equations (reference.coupled_mode_propagator), which shares nothing
    # with the closed form.  The backward block is the same function of
    # beta-.
    beta = rng.uniform(0.0, 2.4, 64)
    delta = rng.uniform(-8.0, 8.0, 64)
    above = beta > np.abs(delta) / 2.0
    assert 0 < above.mean() < 1
    propagator = reference.coupled_mode_propagator(beta, delta)
    w = interaction_matrix(beta, beta[::-1], delta)
    scale = np.max(np.abs(propagator), axis=(-2, -1))
    err = np.max(np.abs(w[:, 0] - propagator), axis=(-2, -1)) / scale
    assert err.max() <= ODE_BOUND
    lower = interaction_matrix(0.0, beta, delta)[:, 1]
    assert np.array_equal(lower, interaction_matrix(beta, 0.0, delta)[:, 0])


# ---- boundary_matrices ----------------------------------------------------


def test_boundary_matrices_trivial():
    c = InterfaceCoeffs(t1=1.0, r1=0.0, t2=1.0, r2=0.0)
    tau1, tau2, rho = boundary_matrices(c, c, 0.0, 0.0)
    assert np.array_equal(tau1, np.ones(4, dtype=complex))
    assert np.array_equal(tau2, np.ones(4, dtype=complex))
    assert np.array_equal(rho, np.zeros(4, dtype=complex))


def test_boundary_matrices_layout():
    cs = InterfaceCoeffs(t1=0.9, r1=0.3, t2=0.8, r2=-0.2)
    ci = InterfaceCoeffs(t1=0.7 + 0.1j, r1=0.4 - 0.2j, t2=0.6, r2=0.1)
    tau1, tau2, rho = boundary_matrices(cs, ci, 0.0, 0.0)
    assert tau1.shape == tau2.shape == rho.shape == (4,)
    # tau[k] is the diagonal entry [k, k].
    assert tau1[0] == 0.9 and tau1[2] == 0.8
    assert tau1[1] == np.conj(0.7 + 0.1j)
    assert tau2[0] == 0.8 and tau2[2] == 0.9
    # rho[k] is the entry [k, k ^ 2]: (0, 2), (1, 3), (2, 0), (3, 1).
    assert rho[0] == 0.3
    assert rho[1] == np.conj(0.4 - 0.2j)
    assert rho[2] == -0.2
    assert rho[3] == np.conj(0.1 + 0.0j)


def test_boundary_matrices_phase_entry():
    cs = InterfaceCoeffs(t1=1.0, r1=0.3, t2=1.0, r2=0.0)
    ci = InterfaceCoeffs(t1=1.0, r1=0.0, t2=1.0, r2=0.0)
    _, _, rho = boundary_matrices(cs, ci, np.pi / 2, 0.0)
    assert rho[0] == pytest.approx(0.3j, rel=1e-15)


# ---- scattering_matrix ----------------------------------------------------


def test_scattering_matrix_transparent_slab():
    ones = np.ones(4, dtype=complex)
    u = scattering_matrix(W_ZERO_GAIN, ones, ones, np.zeros(4, dtype=complex))
    assert np.allclose(u, np.eye(4), atol=1e-15)


def _linear_boundaries(rng):
    """Random lossless sub-TIR interface coefficients and phases."""
    from spdc_etalon import LayerStack, MaterialModel

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
    coeffs = reference.interface_coeffs(stack, mode)
    return coeffs, reference.propagation_phase(stack, mode)


def test_scattering_matrix_zero_gain_signal_subblock_unitary(rng):
    w = W_ZERO_GAIN
    for _ in range(200):
        coeffs, phi = _linear_boundaries(rng)
        tau1, tau2, rho = boundary_matrices(coeffs, coeffs, phi, phi)
        u = scattering_matrix(w, tau1, tau2, rho)
        sub = u[np.ix_([0, 2], [0, 2])]
        assert np.max(np.abs(sub @ sub.conj().T - np.eye(2))) < 1e-10


def test_scattering_matrix_matches_explicit_inverse(rng):
    for _ in range(100):
        coeffs, phi = _linear_boundaries(rng)
        w = interaction_matrix(
            complex(rng.normal(), rng.normal()) * 0.2,
            complex(rng.normal(), rng.normal()) * 0.2,
            rng.uniform(-10.0, 10.0),
        )
        tau1, tau2, rho = boundary_matrices(coeffs, coeffs, phi, phi * 0.8)
        u = scattering_matrix(w, tau1, tau2, rho)
        # Alternate solve order through the push-through identity:
        # w (I - rho w)^-1 = (w^-1 - rho)^-1.
        w, tau1, tau2, rho = reference.dense_operands(w, tau1, tau2, rho)
        alt = tau2 @ np.linalg.inv(np.linalg.inv(w) - rho) @ tau1 - rho.conj().T
        assert np.max(np.abs(u - alt)) < 1e-11


# Seed and size of the independent round-trip oracle's pixels.
ROUND_TRIP_SEED, ROUND_TRIP_PIXELS = 2026, 200
ROUND_TRIP_BOUND = 1e-12


def test_scattering_matrix_equals_coupled_mode_round_trip_oracle_for_real_beta():
    # reference.round_trip_scattering_matrix shares with the library only
    # the boundary entries: w from the coupled-mode ODE (2000 RK4 steps),
    # the cavity as a sum of round trips instead of a solve.  Random
    # lossless interfaces, delta in +-6, real beta+ with |beta+| up to
    # 0.6 max(|delta|/2, 0.3), and beta- = 0.7 beta+.
    rng = np.random.default_rng(ROUND_TRIP_SEED)
    coeffs, phi = _random_lossless_boundaries(rng, ROUND_TRIP_PIXELS)
    delta = rng.uniform(-6.0, 6.0, ROUND_TRIP_PIXELS)
    cap = 0.6 * np.maximum(np.abs(delta) / 2.0, 0.3)
    beta_plus = rng.uniform(-1.0, 1.0, ROUND_TRIP_PIXELS) * cap
    beta_minus = 0.7 * beta_plus
    tau1, tau2, rho = boundary_matrices(coeffs, coeffs, phi, phi * 0.7)
    oracle = reference.round_trip_scattering_matrix(
        beta_plus, beta_minus, delta, tau1, tau2, rho, steps=2000
    )
    u = scattering_matrix(interaction_matrix(beta_plus, beta_minus, delta), tau1, tau2, rho)
    # The series diverges past the cavity's oscillation threshold.
    converged = ~np.isnan(oracle).any(axis=(-2, -1))
    assert converged.sum() >= 0.95 * ROUND_TRIP_PIXELS
    u, oracle = u[converged], oracle[converged]
    err = np.max(np.abs(u - oracle), axis=(-2, -1))
    assert np.all(err <= ROUND_TRIP_BOUND * np.max(np.abs(oracle), axis=(-2, -1)))


# ---- scattering_matrix against the generic BLAS oracle ---------------------
#
# scattering_matrix forms rho w and tau2 w from their nonzero entries;
# reference.scattering_matrix multiplies the full matrices, assembled by
# reference.dense_operands, through BLAS.
# U must agree bit for bit, so a BLAS that rounds a one-term entry some
# other way fails here by name and not only on the golden hashes.

# Parts mixed into the random entries: signed zeros, subnormals, products
# that underflow or overflow, and non-finite values.
SPECIAL_PARTS = np.array(
    [0.0, -0.0, 5e-324, -3e-310, 1e-300, -1e-160, 1e300, -1e300, np.inf, -np.inf, np.nan]
)


def _random_structured(rng, n, special_frac, special=SPECIAL_PARTS):
    """(w, tau1, tau2, rho) of shapes (n, 2, 2, 2) and (n, 4), as
    interaction_matrix and boundary_matrices give them; a fraction
    `special_frac` of the real and imaginary parts is drawn from
    `special`, the rest from a normal distribution."""

    def entries(*shape):
        parts = rng.normal(size=shape + (2,))
        pick = rng.random(parts.shape) < special_frac
        parts[pick] = rng.choice(special, pick.sum())
        return parts.view(complex)[..., 0]

    return entries(n, 2, 2, 2), entries(n, 4), entries(n, 4), entries(n, 4)


def assert_same_bits(u, expected):
    assert u.shape == expected.shape
    assert np.array_equal(u.view(np.uint64), expected.view(np.uint64))


def _library_and_oracle(inputs):
    """U from the library and from the oracle, and which matrices are
    exactly singular.  Where the oracle's batched solve raises LinAlgError,
    the oracle runs one matrix at a time and a singular matrix's U is nan:
    the library must give nan there and the oracle's bits elsewhere."""
    u = scattering_matrix(*inputs)
    dense = reference.dense_operands(*inputs)
    try:
        expected = reference.scattering_matrix(*dense)
        return u, expected, np.zeros(u.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    args = np.broadcast_arrays(*dense)
    expected = np.full(u.shape, np.nan, dtype=complex)
    singular = np.zeros(u.shape[:-2], dtype=bool)
    for idx in np.ndindex(singular.shape):
        try:
            expected[idx] = reference.scattering_matrix(*(m[idx] for m in args))
        except np.linalg.LinAlgError:
            singular[idx] = True
    assert singular.any()
    return u, expected, singular


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
        for lo in range(0, w.shape[0], 16):
            batch = [m[lo : lo + 16] for m in (w, tau1, tau2, rho)]
            u, expected, singular = _library_and_oracle(batch)
            assert np.isnan(u[singular]).all()
            assert_same_bits(u[~singular], expected[~singular])
            compared.append(expected[~singular])
    compared = np.concatenate(compared)
    assert compared.shape[0] >= 0.9 * w.shape[0]
    finite = np.isfinite(compared).all(axis=(-2, -1))
    assert finite.any()
    assert finite.all() == (np.isfinite(special).all() or special_frac == 0.0)


@pytest.mark.parametrize("singular_at", [[0], [-1], [0, -1], slice(None)])
def test_scattering_matrix_is_nan_only_where_singular(rng, singular_at):
    # With w = I and rho[0, 2] = rho[2, 0] = 1, rows 0 and 2 of I - rho w
    # cancel exactly.  Singular matrices at either end of a call, or in
    # every place, are nan, and the others keep the oracle's bits.
    w, tau1, tau2, rho = _random_structured(rng, 16, 0.0)
    w[singular_at] = W_ZERO_GAIN
    rho[singular_at, 0] = rho[singular_at, 2] = 1.0
    expected_singular = np.zeros(16, dtype=bool)
    expected_singular[singular_at] = True
    u, expected, singular = _library_and_oracle((w, tau1, tau2, rho))
    assert np.array_equal(singular, expected_singular)
    assert np.isnan(u[singular]).all()
    assert_same_bits(u[~singular], expected[~singular])


# Zero gain between mirrors 1e-13 short of unit reflectance: (I - rho w)
# has condition number 2.0e13 but is solvable, so U is finite.
_R_NEAR_ONE = 1.0 - 1e-13
_T_NEAR_ZERO = np.sqrt(1.0 - _R_NEAR_ONE**2)
_NEAR_SINGULAR_COEFFS = InterfaceCoeffs(_T_NEAR_ZERO, _R_NEAR_ONE, _T_NEAR_ZERO, _R_NEAR_ONE)
NEAR_SINGULAR = (
    W_ZERO_GAIN, *boundary_matrices(_NEAR_SINGULAR_COEFFS, _NEAR_SINGULAR_COEFFS, 0.0, 0.0)
)


def test_scattering_matrix_bits_equal_oracle_for_single_and_broadcast_w(rng):
    # Single matrices, a near-singular one among them: no condition
    # check, and the oracle's bits.
    w, tau1, tau2, rho = _random_structured(rng, 64, 0.0)
    for inputs in [[m[k] for m in (w, tau1, tau2, rho)] for k in range(8)] + [NEAR_SINGULAR]:
        u, expected, _singular = _library_and_oracle(inputs)
        assert u.shape == (4, 4)
        assert_same_bits(u, expected)
    assert np.isfinite(u).all()  # the near-singular U, checked last
    # One w against (n, 4) boundary entries, and the reverse.
    for inputs in ((w[0], tau1, tau2, rho), (w, tau1[0], tau2[0], rho[0])):
        u, expected, _singular = _library_and_oracle(inputs)
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
    from spdc_etalon import frequency_angular_spectra

    cfg = parse_config(SWEEP_CONFIGS[name](config_text(lambda_count=64, theta_count=48)))
    monkeypatch.setattr(spectra, "_RIGOROUS_BLOCK", 1000)
    blocks = []

    def checked(w, tau1, tau2, rho):
        u = scattering_matrix(w, tau1, tau2, rho)
        expected = reference.scattering_matrix(*reference.dense_operands(w, tau1, tau2, rho))
        assert_same_bits(u, expected)
        blocks.append(np.isfinite(expected).all(axis=(-2, -1)).ravel())
        return u

    monkeypatch.setattr(spectra, "scattering_matrix", checked)
    frequency_angular_spectra(cfg, ("rigorous",))
    finite = np.concatenate(blocks)
    assert len(blocks) > 1
    assert finite.any() == (name != "beta-1000")


TRAILING_SHAPES = {"w": (2, 2, 2), "tau1": (4,), "tau2": (4,), "rho": (4,)}


@pytest.mark.parametrize("argument", list(TRAILING_SHAPES))
def test_scattering_matrix_checks_each_argument_at_its_own_shape(rng, argument):
    # A (jobs, n) w against (n, 4) boundary entries, as a sweep block
    # passes them: each argument is read at its own batch shape, and one
    # with another trailing shape raises ValueError.  A dense (..., 4, 4)
    # w is one such shape.
    w, tau1, tau2, rho = _random_structured(rng, 5, 0.0)
    inputs = {"w": np.stack([w, w[::-1], w]), "tau1": tau1, "tau2": tau2, "rho": rho}
    assert scattering_matrix(**inputs).shape == (3, 5, 4, 4)
    trailing = ", ".join(map(str, TRAILING_SHAPES[argument]))
    bad_operands = [inputs[argument][..., :1], inputs[argument][(0,) * inputs[argument].ndim]]
    if argument == "w":
        bad_operands.append(reference.dense_interaction_matrix(inputs["w"]))
    for bad in bad_operands:
        with pytest.raises(ValueError, match=rf"{argument} must have shape \(\.\.\., {trailing}\)"):
            scattering_matrix(**{**inputs, argument: bad})


# Beta scales of the jobs of one block: from threshold down to low gain,
# and overflow, where every matrix takes the BLAS route.
JOB_SCALES = {
    "gain": lambda jobs: np.geomspace(4.0, 1e-2, jobs),
    "overflow": lambda jobs: 1000.0 * np.arange(1, jobs + 1),
}


def _sweep_block(m, scales):
    """(beta+, beta-) as (jobs, m), delta as (m,) and the (m, 4)
    boundary entries of the first m unmasked pixels of a gain-curve
    batch, as `_eval_rigorous` forms them."""
    cfg = parse_config(config_text(lambda_count=128, theta_count=2))
    lams = cfg.signal_wavelengths()
    with np.errstate(all="ignore"):
        batch = spectra._build_batch(
            cfg, lams, np.zeros(1), 0, lams.size, spectra._pump_state(cfg)
        )
    px = np.flatnonzero(~batch.mask)[:m]
    assert px.size == m
    boundary = boundary_matrices(
        tuple(c[px] for c in batch.coeffs_s),
        tuple(c[px] for c in batch.coeffs_i),
        batch.phi_s[px],
        batch.phi_i[px],
    )
    return (*batch.betas(list(scales), px), batch.delta[px], boundary)


@pytest.mark.parametrize("scales", list(JOB_SCALES))
@pytest.mark.parametrize("jobs", [1, 2, 21])
@pytest.mark.parametrize("m", [1, 2, 7, 97])
def test_job_axis_bits_equal_one_job_per_call_and_oracle(m, jobs, scales):
    # (jobs, m) strengths and a (1, m) delta against (m, 4) boundary
    # entries give, bit for bit, the oracle's U on broadcast dense copies
    # and each job's w and U from a call of its own.
    beta_p, beta_m, delta, boundary = _sweep_block(m, JOB_SCALES[scales](jobs))
    with np.errstate(all="ignore"):
        w = interaction_matrix(beta_p, beta_m, delta[None])
        u = scattering_matrix(w, *boundary)
        dense_w, *dense = reference.dense_operands(w, *boundary)
        copies = [np.broadcast_to(b, dense_w.shape).copy() for b in dense]
        expected = reference.scattering_matrix(dense_w, *copies)
        assert_same_bits(u, expected)
        for k in range(jobs):
            w_k = interaction_matrix(beta_p[k], beta_m[k], delta)
            assert_same_bits(w[k], w_k)
            assert_same_bits(u[k], scattering_matrix(w_k, *boundary))
    finite = np.isfinite(expected).all(axis=(-2, -1))
    assert finite.all() if scales == "gain" else not finite.any()


# ---- pair_probabilities ---------------------------------------------------


def test_pair_probabilities_identity_matrix():
    probs = pair_probabilities(np.eye(4, dtype=complex), reference.SCHEMES)
    assert list(probs.values()) == [0.0] * 4


@pytest.mark.parametrize("schemes", [("xx",), ("ff", "fx"), "ff"])
def test_pair_probabilities_refuses_unknown_schemes(schemes):
    # A bare string is not a tuple of names: "ff" would read as ("f", "f").
    message = r"^schemes must be names among \('ff', 'bb', 'fb', 'bf'\), got "
    with pytest.raises(ValueError, match=message):
        pair_probabilities(np.eye(4, dtype=complex), schemes)


def test_pair_probabilities_zero_gain(rng):
    w = W_ZERO_GAIN
    for _ in range(100):
        coeffs, phi = _linear_boundaries(rng)
        tau1, tau2, rho = boundary_matrices(coeffs, coeffs, phi, phi)
        probs = pair_probabilities(scattering_matrix(w, tau1, tau2, rho), reference.SCHEMES)
        for val in probs.values():
            assert abs(val) <= 1e-20
