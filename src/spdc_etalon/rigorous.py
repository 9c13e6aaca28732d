"""Quantum scattering-matrix model of pair generation in the slab.

The four coupled operators (forward signal, forward idler-dagger,
backward signal, backward idler-dagger) are propagated through the
film by a block-diagonal interaction matrix and stitched to the
outside world by boundary transmission/reflection matrices.  Emission
probabilities come directly from the scattering-matrix entries; no
operator algebra is materialized.

All matrix routines accept leading batch dimensions: a FourMatrix is
any complex ndarray of shape (..., 4, 4), so a full spectral grid can
be evaluated in one vectorized call.  The batch axes broadcast: a sweep
puts its beta jobs on a leading axis, (jobs, pixels), against per-pixel
delta and boundary matrices of shape (1, pixels) or (pixels,), so the
work that does not depend on beta runs once per pixel.  The structure
check of `scattering_matrix` runs on each argument as given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, NearSingularError
from .materials import refractive_index, wavevector_components

__all__ = [
    "InteractionParams",
    "PairProbabilities",
    "gain_term",
    "interaction_params",
    "interaction_matrix",
    "boundary_matrices",
    "scattering_matrix",
    "pair_probabilities",
]

SPEED_OF_LIGHT_M_S = 2.99792458e8
# Smallest parallel wavevector (rad/nm) of a propagating signal or idler;
# sweeps mask pixels at or below it.
KPAR_FLOOR = 1e-12
SINHC_SERIES_CUTOFF = 1e-4
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class InteractionParams:
    """Dimensionless interaction strengths and phase mismatch.

    `delta` is the film thickness times the longitudinal wavevector
    mismatch; `interaction_matrix` derives the gain term of each pump
    branch from it as `gain_term(beta, delta)`.
    """

    beta_plus: complex
    beta_minus: complex
    delta: float


@dataclass(frozen=True)
class PairProbabilities:
    """Relative emission probabilities per collection scheme (None for a
    scheme that `pair_probabilities` was not asked for)."""

    ff: float
    bb: float
    fb: float
    bf: float


def gain_term(beta, delta):
    """gamma = sqrt(beta^2 - delta^2/4), principal branch.

    The interaction matrix is even in gamma, so the branch choice is
    immaterial downstream.
    """
    beta = np.asarray(beta, dtype=complex)
    return np.sqrt(beta ** 2 - np.asarray(delta, dtype=float) ** 2 / 4.0)


def interaction_params(stack, pump_mode, signal_mode, idler_mode, pump_field_amplitudes):
    """Interaction strengths for one (pump, signal, idler) triple.

    `pump_field_amplitudes` is the (forward, backward) pump field
    inside the film in V/m; the caller has already enforced energy
    conservation between the three wavelengths.  The film index is
    used for all three waves.

    Raises GeometryError when the signal or idler parallel wavevector
    is not above KPAR_FLOOR (mode at or past grazing), where sweeps
    mask the pixel.
    """
    n_p = refractive_index(stack.film, pump_mode.vacuum_wavelength_nm)
    n_s = refractive_index(stack.film, signal_mode.vacuum_wavelength_nm)
    n_i = refractive_index(stack.film, idler_mode.vacuum_wavelength_nm)
    kp_par, _ = wavevector_components(pump_mode, n_p)
    ks_par, _ = wavevector_components(signal_mode, n_s)
    ki_par, _ = wavevector_components(idler_mode, n_i)
    if ks_par <= KPAR_FLOOR or ki_par <= KPAR_FLOOR:
        raise GeometryError("signal/idler parallel wavevector must be positive")

    prefactor = _coupling_prefactor(
        stack, signal_mode.vacuum_wavelength_nm, idler_mode.vacuum_wavelength_nm, ks_par, ki_par
    )
    e_fwd, e_bwd = pump_field_amplitudes
    return InteractionParams(
        beta_plus=complex(prefactor * e_fwd),
        beta_minus=complex(prefactor * e_bwd),
        delta=float(stack.thickness_nm * (kp_par - ks_par - ki_par)),
    )


def _coupling_prefactor(stack, lam_s, lam_i, ks_par, ki_par):
    """Interaction strength per unit pump field (m/V), SI:
    2 pi w_s w_i chi2 L / (c^2 sqrt(ks ki)).

    Wavelengths in nm, parallel wavevectors in rad/nm (floored at
    KPAR_FLOOR); scalar or array.
    """
    omega_s = 2.0 * np.pi * SPEED_OF_LIGHT_M_S / (lam_s * 1e-9)
    omega_i = 2.0 * np.pi * SPEED_OF_LIGHT_M_S / (lam_i * 1e-9)
    chi2 = stack.chi2_pm_per_v * 1e-12
    length_m = stack.thickness_nm * 1e-9
    k_prod = np.sqrt(np.maximum(ks_par, KPAR_FLOOR) * np.maximum(ki_par, KPAR_FLOOR)) * 1e9
    return 2.0 * np.pi * omega_s * omega_i * chi2 * length_m / (SPEED_OF_LIGHT_M_S ** 2 * k_prod)


def _sinhc(gamma):
    """sinh(gamma)/gamma, by series below the cutoff to avoid 0/0."""
    gamma = np.asarray(gamma, dtype=complex)
    small = np.abs(gamma) < SINHC_SERIES_CUTOFF
    if not small.any():
        return np.sinh(gamma) / gamma
    g_safe = np.where(small, 1.0, gamma)
    direct = np.sinh(g_safe) / g_safe
    g2 = gamma ** 2
    series = 1.0 + g2 / 6.0 * (1.0 + g2 / 20.0)
    return np.where(small, series, direct)


def _interaction_block(beta, half, quarter_sq, phases):
    """One 2x2 block of the interaction matrix; exact identity at beta = 0.

    `half` = delta/2, `quarter_sq` = delta^2/4 and `phases` =
    (e^{-i delta/2}, e^{i delta/2}) depend on delta alone, so both
    blocks and every beta of a job axis share them.
    """
    beta = np.asarray(beta, dtype=complex)
    beta = np.broadcast_to(beta, np.broadcast_shapes(beta.shape, half.shape))
    gamma = np.sqrt(beta ** 2 - quarter_sq)  # gain_term(beta, delta)
    shc = _sinhc(gamma)
    ch = np.cosh(gamma)
    ihs = 1j * half * shc
    block = np.empty(beta.shape + (2, 2), dtype=complex)
    block[..., 0, 0] = phases[0] * (ch + ihs)
    block[..., 0, 1] = -1j * beta * shc
    block[..., 1, 0] = 1j * beta * shc
    block[..., 1, 1] = phases[1] * (ch - ihs)
    zero = beta == 0
    if np.any(zero):
        block[zero] = np.eye(2, dtype=complex)
    return block


def interaction_matrix(params):
    """Block-diagonal 4x4 interaction matrix of the film.

    The upper block couples the forward signal/idler pair through the
    forward pump branch, the lower block the backward pair through the
    backward branch.  Each block has unit determinant, is even in the
    gain term, and collapses to the exact identity at zero gain.

    The strengths and delta broadcast: with (jobs, pixels) strengths and
    a (1, pixels) delta, the terms of delta alone are formed once per
    pixel and serve every job.  Keep such a per-pixel operand at an
    explicit leading axis of 1: numpy's complex product can round a
    one-element (1,) * (1, 1) product differently from (1,) * (1,).
    """
    delta = np.asarray(params.delta, dtype=float)
    half = delta / 2.0
    terms = (half, delta ** 2 / 4.0, (np.exp(-1j * half), np.exp(1j * half)))
    upper = _interaction_block(params.beta_plus, *terms)
    lower = _interaction_block(params.beta_minus, *terms)
    shape = np.broadcast_shapes(upper.shape[:-2], lower.shape[:-2])
    w = np.zeros(shape + (4, 4), dtype=complex)
    w[..., 0:2, 0:2] = upper
    w[..., 2:4, 2:4] = lower
    return w


def boundary_matrices(signal_coeffs, idler_coeffs, phase_s, phase_i):
    """Transmission matrices (tau1, tau2) and reflection matrix rho.

    Idler entries are conjugated because the idler operators enter the
    mode array Hermitian-conjugated; the reflection matrix carries the
    single-pass propagation phases.
    """
    t1s, t2s = signal_coeffs.t1, signal_coeffs.t2
    t1i, t2i = np.conj(idler_coeffs.t1), np.conj(idler_coeffs.t2)
    r1s, r2s = signal_coeffs.r1, signal_coeffs.r2
    r1i, r2i = np.conj(idler_coeffs.r1), np.conj(idler_coeffs.r2)
    ph_s = np.exp(1j * np.asarray(phase_s, dtype=float))
    ph_i = np.exp(-1j * np.asarray(phase_i, dtype=float))

    shape = np.broadcast_shapes(
        *(np.shape(x) for x in (t1s, t1i, r1s, r1i, ph_s, ph_i))
    )
    tau1 = np.zeros(shape + (4, 4), dtype=complex)
    tau2 = np.zeros(shape + (4, 4), dtype=complex)
    rho = np.zeros(shape + (4, 4), dtype=complex)

    tau1[..., 0, 0] = t1s
    tau1[..., 1, 1] = t1i
    tau1[..., 2, 2] = t2s
    tau1[..., 3, 3] = t2i

    tau2[..., 0, 0] = t2s
    tau2[..., 1, 1] = t2i
    tau2[..., 2, 2] = t1s
    tau2[..., 3, 3] = t1i

    rho[..., 0, 2] = r1s * ph_s
    rho[..., 1, 3] = r1i * ph_i
    rho[..., 2, 0] = r2s * ph_s
    rho[..., 3, 1] = r2i * ph_i
    return tau1, tau2, rho


def _swap_conj_transpose(m):
    return np.conj(np.swapaxes(m, -1, -2))


# The entries w, tau2 and rho may hold (interaction_matrix and
# boundary_matrices fill no others): w is block diagonal, tau2 diagonal,
# and rho couples the forward and backward wave of each operator.
_SUPPORT = {
    "w": np.kron(np.eye(2, dtype=bool), np.ones((2, 2), dtype=bool)),
    "tau2": np.eye(4, dtype=bool),
    "rho": np.eye(4, dtype=bool)[[2, 3, 0, 1]],
}
# w's eight entries (k, c), row-major, as flat indices 4 k + c, and where
# their one-term products land: (tau2 w)[k, c] = tau2[k, k] w[k, c] and
# (rho w)[j, c] = rho[j, k] w[k, c] with j = k ^ 2 (0 <-> 2, 1 <-> 3).
# The factors are the one entry in row k of tau2 and in column k of rho.
_W_ROWS, _W_COLS = np.nonzero(_SUPPORT["w"])
_W_ENTRIES = 4 * _W_ROWS + _W_COLS
_RHO_W_ENTRIES = 4 * (_W_ROWS ^ 2) + _W_COLS
_FACTOR_ENTRIES = {
    "tau2": 5 * np.arange(4),
    "rho": 4 * (np.arange(4) ^ 2) + np.arange(4),
}


def _entries(name, m, entries):
    """The flat `entries` of every matrix in `m` as an (entries, *batch)
    array; ValueError if `m` has a nonzero entry outside its structure."""
    flat = m.reshape(-1, 16).T
    if flat[np.flatnonzero(~_SUPPORT[name])].any():
        raise ValueError(f"{name} has a nonzero entry outside its structure")
    return flat[entries].reshape((len(entries),) + m.shape[:-2])


def _product(factor, w_kc):
    """factor[k] w[k, c] over w's nonzero entries (k, c), as (4, 2, *batch).

    BLAS forms an entry with one nonzero term as ar br - ai bi and
    ar bi + ai br, each product rounded on its own; numpy's complex `*`
    is FMA-contracted, so the parts are multiplied here one by one.
    """
    factor = factor[:, None]
    out = np.empty(np.broadcast_shapes(factor.shape, w_kc.shape), dtype=complex)
    np.subtract(factor.real * w_kc.real, factor.imag * w_kc.imag, out=out.real)
    np.add(factor.real * w_kc.imag, factor.imag * w_kc.real, out=out.imag)
    return out


def _solve(system, rhs):
    """`np.linalg.solve(system, rhs)`, nan for each exactly singular matrix.

    Where the batched call raises LinAlgError, the matrices are solved
    again in halves, and each half that raises in halves again, until
    every singular matrix stands alone.  LAPACK solves the matrices of a
    batched call one by one, so each other matrix keeps the bits the
    whole call gives it.
    """
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        pass
    shape = np.broadcast_shapes(system.shape, rhs.shape)
    system = np.broadcast_to(system, shape).reshape((-1,) + shape[-2:])
    rhs = np.broadcast_to(rhs, shape).reshape(system.shape)
    solved = np.full(system.shape, np.nan, dtype=complex)

    def halves(lo, hi):
        mid = (lo + hi) // 2
        for a, b in ((lo, mid), (mid, hi)):
            try:
                solved[a:b] = np.linalg.solve(system[a:b], rhs[a:b])
            except np.linalg.LinAlgError:
                if b - a > 1:
                    halves(a, b)

    halves(0, len(system))
    return solved.reshape(shape)


def scattering_matrix(w, tau1, tau2, rho, check_condition=True):
    """Scattering matrix U = tau2 w (I - rho w)^-1 tau1 - rho^dagger.

    The inputs must have the structure that `interaction_matrix` and
    `boundary_matrices` give them: w block diagonal with two 2x2 blocks,
    tau2 diagonal, and rho nonzero only at (0, 2), (1, 3), (2, 0) and
    (3, 1); a nonzero entry anywhere else raises ValueError.  Each
    argument is checked and gathered at its own shape.  Each entry
    of rho w and tau2 w is then one product, formed elementwise with the
    rounding of the generic BLAS product, so U is bit for bit the
    generic formula's.  The zero terms that BLAS adds can turn inf into
    nan, so matrices with a non-finite product go through BLAS.  They
    can also flip the sign of a zero entry, which does not reach U:
    I - rho w drops it, and BLAS sums (tau2 w) X from +0.

    The batch axes broadcast: a (jobs, pixels, 4, 4) w from
    (jobs, pixels) strengths meets the (pixels, 4, 4) boundary matrices,
    which are read and conjugated once per pixel, not once per job.

    Uses a direct linear solve rather than an explicit inverse.  With
    `check_condition` a condition number above 1e12 in (I - rho w)
    raises NearSingularError (parametric-oscillation threshold);
    sweeps disable the check and mask bad pixels instead.  Without the
    check, each (I - rho w) that LAPACK finds exactly singular gets a nan
    U, which sweeps mask, and every other matrix keeps the bits of the
    batched solve (see `_solve`).
    """
    args = [np.asarray(m, dtype=complex) for m in (w, tau1, tau2, rho)]
    shape = np.broadcast_shapes(*(m.shape for m in args))
    # At least one batch axis, and the same number on every argument: a
    # per-pixel argument gets explicit leading axes of 1.
    ndim = max(len(shape), 3)
    w, tau1, tau2, rho = (m.reshape((1,) * (ndim - m.ndim) + m.shape) for m in args)
    batch = np.broadcast_shapes(w.shape, tau2.shape, rho.shape)[:-2]
    w_kc = _entries("w", w, _W_ENTRIES).reshape((4, 2) + w.shape[:-2])
    # One zeroed buffer for rho w and tau2 w, and U later overwrites
    # I - rho w: fewer large allocations per call.  Keeping a block's
    # freed memory for the next block is left to the allocator policy
    # of `cli._pin_allocator_policy`.
    system, tau2_w = np.zeros((2,) + batch + (16,), dtype=complex)
    finite = np.ones(batch, dtype=bool)
    for name, m, out, entries in (
        ("rho", rho, system, _RHO_W_ENTRIES),
        ("tau2", tau2, tau2_w, _W_ENTRIES),
    ):
        prod = _product(_entries(name, m, _FACTOR_ENTRIES[name]), w_kc)
        finite &= np.isfinite(prod).all(axis=(0, 1))
        out[..., entries] = np.moveaxis(prod.reshape((8,) + prod.shape[2:]), 0, -1)
        del prod
    del w_kc
    if not finite.all():
        generic = np.nonzero(~finite)
        w_g, tau2_g, rho_g = (np.broadcast_to(m, batch + (4, 4))[generic] for m in (w, tau2, rho))
        system[generic] = (rho_g @ w_g).reshape(-1, 16)
        tau2_w[generic] = (tau2_g @ w_g).reshape(-1, 16)
    system = system.reshape(batch + (4, 4))
    tau2_w = tau2_w.reshape(batch + (4, 4))
    np.subtract(np.eye(4, dtype=complex), system, out=system)
    if check_condition:
        cond = np.linalg.cond(system)
        if np.any(~np.isfinite(cond)) or np.any(cond > CONDITION_LIMIT):
            raise NearSingularError(
                "(I - rho w) is near-singular (condition number "
                f"> {CONDITION_LIMIT:g}); at or past the oscillation threshold"
            )
    solved = _solve(system, tau1)
    u = np.matmul(tau2_w, solved, out=system)
    del tau2_w, solved
    np.subtract(u, _swap_conj_transpose(rho), out=u)
    return u.reshape(shape)


# Rows of U per scheme: signal output row s, idler output row i, and
# the rows (j, k) of the interference term Re(U_j0 U_k2 U*_k0 U*_j2),
# whose product order is kept as the closed forms were first written.
_SCHEME_ROWS = {"ff": (0, 1, 0, 1), "bb": (2, 3, 2, 3), "fb": (0, 3, 3, 0), "bf": (2, 1, 2, 1)}


def pair_probabilities(u, schemes=None):
    """Relative pair-emission probabilities for the four schemes.

    Vacuum moments of the output operators reduce to one closed form in
    the scattering-matrix entries of the scheme's signal and idler rows.
    `schemes` limits the work to the named schemes; the others are None.
    """
    u = np.asarray(u, dtype=complex)
    schemes = tuple(_SCHEME_ROWS) if schemes is None else schemes
    # |U|^2 of the signal and idler rows the schemes read.
    rows = {row for name in schemes for row in _SCHEME_ROWS[name][:2]}
    sq = {row: np.abs(u[..., row, :]) ** 2 for row in rows}
    probs = dict.fromkeys(_SCHEME_ROWS)
    for scheme in schemes:
        s, i, j, k = _SCHEME_ROWS[scheme]
        probs[scheme] = (
            sq[i][..., 0] * (sq[s][..., 0] + sq[s][..., 1] + sq[s][..., 3])
            + sq[i][..., 2] * (sq[s][..., 2] + sq[s][..., 1] + sq[s][..., 3])
            + 2.0 * np.real(
                u[..., j, 0] * u[..., k, 2] * np.conj(u[..., k, 0]) * np.conj(u[..., j, 2])
            )
        )
    if u.ndim == 2:
        probs = {scheme: None if p is None else float(p) for scheme, p in probs.items()}
    return PairProbabilities(**probs)
