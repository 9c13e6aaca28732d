"""Independent oracles: the scalar formulas as first written.

The library's scalar functions are thin wrappers over the array kernels
of the sweep engine.  The bodies below are copies of the scalar
implementations from before that merge, so tests that compare a sweep
with a point-by-point composition still compare two separate
implementations of each formula.  Do not route them through the
library's kernels.

One edit against the originals: `filter_function` reads the idler's
forward/backward factors as `a1*`/`a3*`, because the `a2*`/`a4*` alias
properties of `FieldEnhancements` were removed.

`scattering_matrix` is the generic form of the library's structured
kernel: it multiplies the full 4x4 matrices through BLAS, so it is the
oracle for the entries the library forms one product at a time.
`dense_operands` assembles its dense inputs from the library's
structured ones (w as two 2x2 blocks; tau1, tau2 and rho as four
entries each).

`coupled_mode_propagator` integrates the forward coupled-mode equations
numerically, so it checks the interaction matrix's closed form without
sharing any of it.

`fresnel`, `propagation_phase` and `low_gain_interaction_matrix` were
public library functions that no model ran; they live on here as
independent references (textbook single-interface coefficients, the
single-pass phase L k_parallel, and the first-order interaction
matrix).  `interface_coeffs` is written here from `fresnel`.
`interaction_params` keeps the full record the library's
`InteractionParams` once carried, as an `InteractionRecord`.

`build_batch` is the sweep's chunk kinematics as first written: every
term, material indices and trigonometry included, evaluated once per
pixel.  The library evaluates each term once per wavelength, angle or
pixel and gathers it; the tests check that every batch field keeps its
bits.
"""

from collections import namedtuple

import numpy as np

from spdc_etalon import (
    GeometryError,
    InterfaceCoeffs,
    Mode,
    NearSingularError,
    PairProbabilities,
    ResonancePoleError,
    gain_term,
    interface_coeffs,
    refractive_index,
    wavevector_components,
)
from spdc_etalon.layerstack import POLE_TOLERANCE, coefficient_arrays, round_trip_denominator
from spdc_etalon.rigorous import CONDITION_LIMIT, KPAR_FLOOR, SPEED_OF_LIGHT_M_S, _coupling_prefactor
from spdc_etalon.simplified import _pump_profile
from spdc_etalon.spectra import _idler_wavelength, _masked_indices, _PixelBatch

SCHEMES = ("ff", "bb", "fb", "bf")

InteractionRecord = namedtuple(
    "InteractionRecord",
    "beta_plus beta_minus gamma_plus gamma_minus delta delta_k_par delta_k_perp",
)


def _complex_cos(sin_sq):
    """cos(theta) from sin^2(theta), continued to +i decay above TIR."""
    return np.sqrt((1.0 + 0j) - sin_sq)


def fresnel(n_in, n_out, incidence_angle, polarization="s"):
    """Single-interface amplitude coefficients (r, t) from the n_in side.

    Beyond the critical angle r is complex with |r| = 1; no error is
    raised.
    """
    if np.any(np.asarray(n_in) <= 0) or np.any(np.asarray(n_out) <= 0):
        raise ValueError("refractive indices must be positive")
    ci = np.cos(incidence_angle)
    si = np.sin(incidence_angle)
    st = n_in * si / n_out
    ct = _complex_cos(st ** 2)
    if polarization == "s":
        den = n_in * ci + n_out * ct
        r = (n_in * ci - n_out * ct) / den
        t = 2.0 * n_in * ci / den
    elif polarization == "p":
        den = n_out * ci + n_in * ct
        r = (n_out * ci - n_in * ct) / den
        t = 2.0 * n_in * ci / den
    else:
        raise ValueError("polarization must be 's' or 'p'")
    return r, t


def interface_coeffs(stack, mode):
    """Film-side (t1, r1, t2, r2) from the textbook `fresnel`, with each
    transmission scaled to flux normalization by sqrt(n_out c_out / n c)."""
    lam = mode.vacuum_wavelength_nm
    n = refractive_index(stack.film, lam)
    theta = mode.internal_angle_rad
    coeffs = []
    for outer in (stack.superstrate, stack.substrate):
        n_out = refractive_index(outer, lam)
        r, t = fresnel(n, n_out, theta, mode.polarization)
        c_out = _complex_cos((n * np.sin(theta) / n_out) ** 2)
        coeffs += [t * np.sqrt(n_out * c_out / (n * np.cos(theta))), r]
    return InterfaceCoeffs(*(complex(c) for c in coeffs))


def propagation_phase(stack, mode):
    """Single-pass propagation phase L * k_parallel of a film mode."""
    n = refractive_index(stack.film, mode.vacuum_wavelength_nm)
    k_par = 2.0 * np.pi * n / mode.vacuum_wavelength_nm * np.cos(mode.internal_angle_rad)
    return stack.thickness_nm * k_par


def solve_idler(pump, signal, stack):
    """Idler mode from energy conservation and transverse matching.

    The idler frequency satisfies 1/lam_i = 1/lam_p - 1/lam_s and its
    internal angle zeroes the transverse wavevector mismatch whenever
    a real angle allows it (clamped to grazing otherwise).
    """
    if signal.vacuum_wavelength_nm <= pump.vacuum_wavelength_nm:
        raise GeometryError(
            "energy conservation requires the signal wavelength to exceed the "
            "pump wavelength"
        )
    # Rational form of 1/lam_i = 1/lam_p - 1/lam_s; exact for the
    # degenerate case in floating point.
    lam_p = pump.vacuum_wavelength_nm
    lam_s = signal.vacuum_wavelength_nm
    lam_i = lam_p * lam_s / (lam_s - lam_p)
    n_s = refractive_index(stack.film, signal.vacuum_wavelength_nm)
    n_i = refractive_index(stack.film, lam_i)
    k_s = 2.0 * np.pi * n_s / signal.vacuum_wavelength_nm
    k_i = 2.0 * np.pi * n_i / lam_i
    ratio = np.clip(-k_s * np.sin(signal.internal_angle_rad) / k_i, -1.0, 1.0)
    theta_i = float(np.arcsin(ratio))
    # Mode forbids |theta| = pi/2 exactly; keep the clamp inside the open
    # interval, the grazing pixel is masked downstream anyway.
    limit = np.pi / 2 - 1e-12
    theta_i = float(np.clip(theta_i, -limit, limit))
    return Mode(
        vacuum_wavelength_nm=float(lam_i),
        internal_angle_rad=theta_i,
        polarization=signal.polarization,
        role="idler",
    )


def interaction_params(stack, pump_mode, signal_mode, idler_mode, pump_field_amplitudes):
    """Interaction strengths for one (pump, signal, idler) triple.

    `pump_field_amplitudes` is the (forward, backward) pump field
    inside the film in V/m; the caller has already enforced energy
    conservation between the three wavelengths.  The film index is
    used for all three waves.

    Raises GeometryError when the signal or idler parallel wavevector
    is not positive (mode at or past grazing).
    """
    n_p = refractive_index(stack.film, pump_mode.vacuum_wavelength_nm)
    n_s = refractive_index(stack.film, signal_mode.vacuum_wavelength_nm)
    n_i = refractive_index(stack.film, idler_mode.vacuum_wavelength_nm)
    kp_par, kp_perp = wavevector_components(pump_mode, n_p)
    ks_par, ks_perp = wavevector_components(signal_mode, n_s)
    ki_par, ki_perp = wavevector_components(idler_mode, n_i)
    if ks_par <= 0 or ki_par <= 0:
        raise GeometryError("signal/idler parallel wavevector must be positive")

    dk_par = kp_par - ks_par - ki_par
    dk_perp = kp_perp - ks_perp - ki_perp
    delta = stack.thickness_nm * dk_par

    # Interaction strength in SI: 2 pi w_s w_i chi2 L E0 / (c^2 sqrt(ks ki)).
    omega_s = 2.0 * np.pi * SPEED_OF_LIGHT_M_S / (signal_mode.vacuum_wavelength_nm * 1e-9)
    omega_i = 2.0 * np.pi * SPEED_OF_LIGHT_M_S / (idler_mode.vacuum_wavelength_nm * 1e-9)
    chi2_m_per_v = stack.chi2_pm_per_v * 1e-12
    length_m = stack.thickness_nm * 1e-9
    k_product = np.sqrt((ks_par * 1e9) * (ki_par * 1e9))
    prefactor = (
        2.0 * np.pi * omega_s * omega_i * chi2_m_per_v * length_m
        / (SPEED_OF_LIGHT_M_S ** 2 * k_product)
    )
    e_fwd, e_bwd = pump_field_amplitudes
    beta_plus = prefactor * e_fwd
    beta_minus = prefactor * e_bwd
    return InteractionRecord(
        beta_plus=complex(beta_plus),
        beta_minus=complex(beta_minus),
        gamma_plus=complex(gain_term(beta_plus, delta)),
        gamma_minus=complex(gain_term(beta_minus, delta)),
        delta=float(delta),
        delta_k_par=float(dk_par),
        delta_k_perp=float(dk_perp),
    )


def _checked_denominator(r1, r2, phase):
    den = round_trip_denominator(r1, r2, phase)
    if np.any(np.abs(den) < POLE_TOLERANCE):
        raise ResonancePoleError(
            "etalon round-trip denominator vanished (|1 - r1 r2 e^{2 i phi}| < "
            f"{POLE_TOLERANCE:g}); the linear cavity model diverges here"
        )
    return den


def pump_enhancement(coeffs, phase_p):
    """Forward and backward pump amplitudes inside the film, per unit E0.

    The backward amplitude is exactly the forward one after one
    reflection at interface 2 plus a single-pass phase.
    """
    den = _checked_denominator(coeffs.r1, coeffs.r2, phase_p)
    forward = coeffs.t1 / den
    backward = coeffs.r2 * np.exp(1j * phase_p) * forward
    return forward, backward


def linear_transmission(stack, mode):
    """Airy power transmittance of the slab for one mode.

    Computed from the flux-normalized interface coefficients, which is
    identical to the raw-amplitude formula times the external flux
    ratio (n_out cos / n_in cos).  Serves as a linear-optics check of
    the Fresnel and phase machinery.
    """
    coeffs = interface_coeffs(stack, mode)
    phi = propagation_phase(stack, mode)
    den = _checked_denominator(coeffs.r1, coeffs.r2, phi)
    amp = coeffs.t1 * coeffs.t2 * np.exp(1j * phi) / den
    return float(np.abs(amp) ** 2)


def sinc(x):
    """sin(x)/x with sinc(0) = 1 (unnormalized convention)."""
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


def nonresonant_probability(delta_k_par, delta_k_perp, thickness_nm, waist_um):
    """Pair probability of the bare film, |F_pm * F_p|^2.

    F_pm = sinc(dk_par L / 2) e^{i dk_par L / 2} and
    F_p = exp(-(dk_perp w / 2)^2) with w the 1/e^2 pump waist diameter,
    so the probability is sinc^2(dk_par L / 2) exp(-(dk_perp w)^2 / 2).
    Wavevectors in rad/nm, thickness in nm, waist in um.
    """
    if thickness_nm <= 0 or waist_um <= 0:
        raise ValueError("thickness and waist must be positive")
    half = np.asarray(delta_k_par, dtype=float) * thickness_nm / 2.0
    waist_nm = waist_um * 1e3
    gauss = np.exp(-(np.asarray(delta_k_perp, dtype=float) * waist_nm) ** 2 / 2.0)
    return sinc(half) ** 2 * gauss


def low_gain_interaction_matrix(params):
    """First-order interaction matrix: identity plus sinc-weighted coupling.

    Valid diagnostic for |beta|^2 << 1; off-diagonals are -/+ beta
    sinc(delta/2) on each pump branch.
    """
    s = sinc(np.asarray(params.delta, dtype=float) / 2.0)
    bp = np.asarray(params.beta_plus, dtype=complex)
    bm = np.asarray(params.beta_minus, dtype=complex)
    shape = np.broadcast_shapes(np.shape(s), np.shape(bp), np.shape(bm))
    w = np.zeros(shape + (4, 4), dtype=complex)
    for i in range(4):
        w[..., i, i] = 1.0
    w[..., 0, 1] = -bp * s
    w[..., 1, 0] = bp * s
    w[..., 2, 3] = -bm * s
    w[..., 3, 2] = bm * s
    return w


def filter_function(scheme, beta_plus, beta_minus, signal_enh, idler_enh):
    """Etalon filter S for one collection scheme.

    `signal_enh` and `idler_enh` are FieldEnhancements evaluated on the
    signal and idler mode respectively.  The forward/backward pump
    amplitudes enter conjugated so that S matches the low-gain limit
    of the rigorous model (for real pump enhancement the conjugation
    is a no-op).
    """
    if scheme == "ff":
        plus = signal_enh.a1p * idler_enh.a1p
        minus = signal_enh.a1m * idler_enh.a1m
    elif scheme == "bb":
        plus = signal_enh.a3p * idler_enh.a3p
        minus = signal_enh.a3m * idler_enh.a3m
    elif scheme == "fb":
        plus = signal_enh.a1p * idler_enh.a3p
        minus = signal_enh.a1m * idler_enh.a3m
    elif scheme == "bf":
        plus = signal_enh.a3p * idler_enh.a1p
        minus = signal_enh.a3m * idler_enh.a1m
    else:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    amp = np.conj(beta_plus) * plus + np.conj(beta_minus) * minus
    return np.abs(amp) ** 2


def simplified_probability(p, s):
    """Resonant emission probability as the product P x S."""
    return p * s


def pair_probabilities(u):
    """Relative pair-emission probabilities for the four schemes.

    Vacuum moments of the output operators reduce to closed forms in
    the scattering-matrix entries; these are implemented verbatim.
    """
    u = np.asarray(u, dtype=complex)
    a = np.abs(u)

    def row(i):
        return a[..., i, 0], a[..., i, 1], a[..., i, 2], a[..., i, 3]

    a10, a11, a12, a13 = row(0)
    a30, a31, a32, a33 = row(2)

    ff = (
        a[..., 1, 0] ** 2 * (a10 ** 2 + a11 ** 2 + a13 ** 2)
        + a[..., 1, 2] ** 2 * (a12 ** 2 + a11 ** 2 + a13 ** 2)
        + 2.0 * np.real(u[..., 0, 0] * u[..., 1, 2] * np.conj(u[..., 1, 0]) * np.conj(u[..., 0, 2]))
    )
    bb = (
        a[..., 3, 0] ** 2 * (a30 ** 2 + a31 ** 2 + a33 ** 2)
        + a[..., 3, 2] ** 2 * (a32 ** 2 + a31 ** 2 + a33 ** 2)
        + 2.0 * np.real(u[..., 2, 0] * u[..., 3, 2] * np.conj(u[..., 3, 0]) * np.conj(u[..., 2, 2]))
    )
    fb = (
        a[..., 3, 0] ** 2 * (a10 ** 2 + a11 ** 2 + a13 ** 2)
        + a[..., 3, 2] ** 2 * (a11 ** 2 + a12 ** 2 + a13 ** 2)
        + 2.0 * np.real(u[..., 3, 0] * u[..., 0, 2] * np.conj(u[..., 0, 0]) * np.conj(u[..., 3, 2]))
    )
    bf = (
        a[..., 1, 0] ** 2 * (a30 ** 2 + a31 ** 2 + a33 ** 2)
        + a[..., 1, 2] ** 2 * (a32 ** 2 + a31 ** 2 + a33 ** 2)
        + 2.0 * np.real(u[..., 2, 0] * u[..., 1, 2] * np.conj(u[..., 1, 0]) * np.conj(u[..., 2, 2]))
    )
    if ff.ndim == 0:
        return PairProbabilities(ff=float(ff), bb=float(bb), fb=float(fb), bf=float(bf))
    return PairProbabilities(ff=ff, bb=bb, fb=fb, bf=bf)


def _swap_conj_transpose(m):
    return np.conj(np.swapaxes(m, -1, -2))


def dense_interaction_matrix(w):
    """The dense (..., 4, 4) interaction matrix of the library's two
    blocks w[..., branch, row, col], with +0 off the blocks."""
    w = np.asarray(w, dtype=complex)
    dense = np.zeros(w.shape[:-3] + (4, 4), dtype=complex)
    dense[..., 0:2, 0:2] = w[..., 0, :, :]
    dense[..., 2:4, 2:4] = w[..., 1, :, :]
    return dense


def dense_operands(w, tau1, tau2, rho):
    """The dense (..., 4, 4) w, tau1, tau2 and rho of the library's
    structured operands, each at its own batch shape, with +0 in every
    entry off the structure: tau1[..., k] and tau2[..., k] are the
    diagonal entries [k, k], and rho[..., k] is the entry [k, k ^ 2].
    """
    dense = [dense_interaction_matrix(w)]
    for m, cols in ((tau1, [0, 1, 2, 3]), (tau2, [0, 1, 2, 3]), (rho, [2, 3, 0, 1])):
        m = np.asarray(m, dtype=complex)
        d = np.zeros(m.shape[:-1] + (4, 4), dtype=complex)
        for k, c in enumerate(cols):
            d[..., k, c] = m[..., k]
        dense.append(d)
    return tuple(dense)


def coupled_mode_propagator(beta, delta, steps=4000):
    """Propagator of the forward coupled-mode equations across the film.

    Integrates a_s' = -i beta e^{-i delta (z - 1/2)} a_i^dagger and
    (a_i^dagger)' = i beta* e^{i delta (z - 1/2)} a_s over z in [0, 1]
    with classical fourth-order Runge-Kutta on `steps` equal steps, and
    returns the (..., 2, 2) matrix that maps (a_s, a_i^dagger) at z = 0
    to z = 1.  The coupling phase is referenced to the film midplane.
    """
    beta = np.asarray(beta, dtype=complex)[..., None]
    delta = np.asarray(delta, dtype=float)[..., None]
    shape = np.broadcast_shapes(beta.shape, delta.shape)[:-1] + (2, 2)
    h = 1.0 / steps

    def slope(z, y):
        phase = np.exp(-1j * delta * (z - 0.5))
        return np.stack(
            [-1j * beta * phase * y[..., 1, :], 1j * np.conj(beta) / phase * y[..., 0, :]],
            axis=-2,
        )

    y = np.broadcast_to(np.eye(2, dtype=complex), shape).copy()
    for n in range(steps):
        z = n * h
        k1 = slope(z, y)
        k2 = slope(z + h / 2, y + h / 2 * k1)
        k3 = slope(z + h / 2, y + h / 2 * k2)
        k4 = slope(z + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def scattering_matrix(w, tau1, tau2, rho, check_condition=True):
    """Scattering matrix U = tau2 w (I - rho w)^-1 tau1 - rho^dagger.

    Uses a direct linear solve rather than an explicit inverse.  With
    `check_condition` a condition number above 1e12 in (I - rho w)
    raises NearSingularError (parametric-oscillation threshold);
    sweeps disable the check and mask bad pixels instead.
    """
    w = np.asarray(w, dtype=complex)
    system = np.asarray(rho, dtype=complex) @ w
    np.subtract(np.eye(4, dtype=complex), system, out=system)
    if check_condition:
        cond = np.linalg.cond(system)
        if np.any(~np.isfinite(cond)) or np.any(cond > CONDITION_LIMIT):
            raise NearSingularError(
                "(I - rho w) is near-singular (condition number "
                f"> {CONDITION_LIMIT:g}); at or past the oscillation threshold"
            )
    solved = np.linalg.solve(system, np.asarray(tau1, dtype=complex))
    del system
    return np.asarray(tau2, dtype=complex) @ w @ solved - _swap_conj_transpose(rho)


def pixel_axes(lams, thetas, lo, hi):
    """Signal wavelengths and angles of pixels lo..hi-1, wavelength-major."""
    pixel = np.arange(lo, hi)
    return lams[pixel // thetas.size], thetas[pixel % thetas.size]


def build_batch(config, stack, lams, thetas, lo, hi, pump_state, reasons=None):
    """The library's `_PixelBatch` for pixels lo..hi-1 of `lams` x
    `thetas`, from per-pixel kinematics throughout.

    A `reasons` dict receives one boolean array per mask reason.
    """
    e_fwd, e_bwd, kp_par = pump_state
    pol = config.polarization
    lam_p = config.pump_wavelength_nm
    lam_s, theta_s = pixel_axes(lams, thetas, lo, hi)
    lam_s = np.asarray(lam_s, dtype=float)
    theta_s = np.asarray(theta_s, dtype=float)
    mask = ~np.isfinite(lam_s) | (lam_s <= lam_p)
    reasons = {} if reasons is None else reasons
    reasons["signal <= pump"] = mask.copy()

    lam_i = _idler_wavelength(lam_p, np.where(mask, 2.0 * lam_p, lam_s))

    idx_s, ok_s = _masked_indices(stack, lam_s)
    idx_i, ok_i = _masked_indices(stack, lam_i)
    reasons["material range"] = ~ok_s | ~ok_i
    mask |= reasons["material range"]

    n_s = idx_s[1]
    n_i = idx_i[1]
    k_s = 2.0 * np.pi * n_s / np.where(lam_s > 0, lam_s, 1.0)
    k_i = 2.0 * np.pi * n_i / lam_i
    theta_i = np.arcsin(np.clip(-k_s * np.sin(theta_s) / k_i, -1.0, 1.0))

    ks_par = k_s * np.cos(theta_s)
    ki_par = k_i * np.cos(theta_i)
    reasons["grazing"] = (ks_par <= KPAR_FLOOR) | (ki_par <= KPAR_FLOOR)
    mask |= reasons["grazing"]

    sin_s = np.abs(n_s * np.sin(theta_s))
    sin_i = np.abs(n_i * np.sin(theta_i))
    reasons["critical angle"] = np.zeros_like(mask)
    for outer_idx in (0, 2):
        reasons["critical angle"] |= sin_s >= np.abs(idx_s[outer_idx])
        reasons["critical angle"] |= sin_i >= np.abs(idx_i[outer_idx])
    mask |= reasons["critical angle"]

    dk_par = kp_par - ks_par - ki_par
    dk_perp = -k_s * np.sin(theta_s) - k_i * np.sin(theta_i)
    delta = stack.thickness_nm * dk_par
    phi_s = stack.thickness_nm * ks_par
    phi_i = stack.thickness_nm * ki_par

    coeffs_s = coefficient_arrays(idx_s, (np.cos(theta_s), np.sin(theta_s)), pol)
    coeffs_i = coefficient_arrays(idx_i, (np.cos(theta_i), np.sin(theta_i)), pol)
    den_s = round_trip_denominator(coeffs_s[1], coeffs_s[3], phi_s)
    den_i = round_trip_denominator(coeffs_i[1], coeffs_i[3], phi_i)
    reasons["pole"] = (np.abs(den_s) < POLE_TOLERANCE) | (np.abs(den_i) < POLE_TOLERANCE)
    mask |= reasons["pole"]

    beta_p = beta_m = None
    if config.beta_plus is None:  # chi2/field route
        pref = _coupling_prefactor(stack, lam_s, lam_i, ks_par, ki_par) * config.pump_field_v_per_m
        beta_p, beta_m = pref * e_fwd, pref * e_bwd

    return _PixelBatch(
        delta=delta,
        phi_s=phi_s,
        phi_i=phi_i,
        coeffs_s=coeffs_s,
        coeffs_i=coeffs_i,
        den_s=den_s,
        den_i=den_i,
        beta_p=beta_p,
        beta_m=beta_m,
        gauss=_pump_profile(dk_perp, config.pump_waist_um),
        mask=mask,
        pump_amplitudes=(e_fwd, e_bwd),
    )
