"""Quantum scattering-matrix model of pair generation in the slab.

The four coupled operators (forward signal, forward idler-dagger,
backward signal, backward idler-dagger) are propagated through the
film by a block-diagonal interaction matrix and stitched to the
outside world by boundary transmission/reflection matrices.  Emission
probabilities come directly from the scattering-matrix entries; no
operator algebra is materialized.

Operands keep their structure and take leading batch dimensions, so a
full spectral grid is one vectorized call.  Each pump branch couples
only its own signal/idler pair, so w is its two 2x2 blocks, shape
(..., 2, 2, 2); an interface only transmits an operator or reflects it
into its counter-propagating twin, so tau1, tau2 and rho are their four
nonzero entries, shape (..., 4).  Only U is dense, (..., 4, 4).  The
batch axes broadcast: a sweep puts its beta jobs on a leading axis,
(jobs, pixels), against per-pixel delta and boundary entries of shape
(1, pixels) or (pixels,), so work that does not depend on beta runs
once per pixel.

The model diverges at the parametric-oscillation threshold.  The
kernel has one failure contract for it: no condition check, and a nan
U where (I - rho w) is exactly singular, which the sweeps mask like any
other non-finite result.
"""

from __future__ import annotations

from contextlib import suppress

import numpy as np

__all__ = [
    "gain_term",
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


def gain_term(beta, delta):
    """gamma = sqrt(beta^2 - delta^2/4), principal branch.

    `delta` is the film thickness times the longitudinal wavevector
    mismatch.  This is the one formula for the gain term of a pump
    branch: `interaction_matrix` forms each block from it, and the gain
    curve reports it.  The interaction matrix is even in gamma, so the
    branch choice is immaterial downstream.
    """
    beta = np.asarray(beta, dtype=complex)
    return np.sqrt(beta ** 2 - np.asarray(delta, dtype=float) ** 2 / 4.0)


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


def interaction_matrix(beta_plus, beta_minus, delta):
    """The two 2x2 blocks of the film's block-diagonal interaction matrix,
    from the forward and backward pump branches' strengths and delta
    (see `gain_term`).

    Returns w of shape (..., 2, 2, 2) = [pump branch, row, col]: w[..., 0]
    couples the forward signal/idler pair through the forward pump
    branch, w[..., 1] the backward pair through the backward branch;
    every entry off these blocks is zero.  Each block has unit
    determinant, is even in the gain term, and collapses to the exact
    identity at zero gain.

    The strengths and delta broadcast: with (jobs, pixels) strengths and
    a (1, pixels) delta, the terms of delta alone are formed once per
    pixel and serve every job.  Keep such a per-pixel operand at an
    explicit leading axis of 1: numpy's complex product can round a
    one-element (1,) * (1, 1) product differently from (1,) * (1,).
    """
    delta = np.asarray(delta, dtype=float)
    half = delta / 2.0
    phases = (np.exp(-1j * half), np.exp(1j * half))
    betas = [np.asarray(b, dtype=complex) for b in (beta_plus, beta_minus)]
    shape = np.broadcast_shapes(half.shape, *(b.shape for b in betas))
    w = np.empty(shape + (2, 2, 2), dtype=complex)
    for block, beta in zip(np.moveaxis(w, -3, 0), betas):
        # Each block's entries are formed at the shape of its beta and
        # delta, and the block broadcasts them.
        beta = np.broadcast_to(beta, np.broadcast_shapes(beta.shape, half.shape))
        gamma = gain_term(beta, delta)
        shc = _sinhc(gamma)
        ch = np.cosh(gamma)
        ihs = 1j * half * shc
        block[..., 0, 0] = phases[0] * (ch + ihs)
        block[..., 0, 1] = -1j * beta * shc
        block[..., 1, 0] = 1j * beta * shc
        block[..., 1, 1] = phases[1] * (ch - ihs)
        zero = np.broadcast_to(beta == 0, shape)
        if zero.any():
            block[zero] = np.eye(2, dtype=complex)
    return w


def boundary_matrices(signal_coeffs, idler_coeffs, phase_s, phase_i):
    """Transmission matrices (tau1, tau2) and reflection matrix rho.

    `signal_coeffs` and `idler_coeffs` are each mode's (t1, r1, t2, r2)
    as `coefficient_arrays` returns them.  Each matrix is returned as its
    four nonzero entries, an array of shape (..., 4) over the operators k
    (forward signal, forward idler-dagger, backward signal, backward
    idler-dagger): tau1[..., k] and tau2[..., k] are the diagonal entries
    [k, k], and rho[..., k] is the entry [k, k ^ 2], which reflects
    operator k into its counter-propagating twin.

    Idler entries are conjugated because the idler operators enter the
    mode array Hermitian-conjugated; the reflection matrix carries the
    single-pass propagation phases.
    """
    t1s, r1s, t2s, r2s = signal_coeffs
    t1i, r1i, t2i, r2i = (np.conj(c) for c in idler_coeffs)
    ph_s = np.exp(1j * np.asarray(phase_s, dtype=float))
    ph_i = np.exp(-1j * np.asarray(phase_i, dtype=float))
    # Per operator k: (tau1, tau2, rho) entries.
    operators = (
        (t1s, t2s, r1s * ph_s),
        (t1i, t2i, r1i * ph_i),
        (t2s, t1s, r2s * ph_s),
        (t2i, t1i, r2i * ph_i),
    )
    shape = np.broadcast_shapes(*(np.shape(x) for op in operators for x in op))
    matrices = np.empty((3,) + shape + (4,), dtype=complex)
    for k, entries in enumerate(operators):
        for m, entry in zip(matrices, entries):
            m[..., k] = entry
    return tuple(matrices)


def _product(factor, w, out):
    """out = factor w entry by entry, as BLAS rounds a one-term product.

    BLAS forms an entry with one nonzero term as ar br - ai bi and
    ar bi + ai br, each product rounded on its own; numpy's complex `*`
    is FMA-contracted, so the parts are multiplied here one by one.
    """
    np.subtract(factor.real * w.real, factor.imag * w.imag, out=out.real)
    np.add(factor.real * w.imag, factor.imag * w.real, out=out.imag)


# The trailing shape of each operand of `scattering_matrix`.
_TRAILING = {"w": (2, 2, 2), "tau1": (4,), "tau2": (4,), "rho": (4,)}
# Flat indices 4 i + j of a 4x4 matrix.  Operator k's twin is k ^ 2
# (0 <-> 2, 1 <-> 3): tau1 and tau2 hold the entries [k, k], rho the
# entries [k, k ^ 2].  w's eight entries, in its memory order (row
# k = 2 b + r of block b), are where (tau2 w)[k, c] = tau2[k] w[k, c]
# lands; (rho w)[k ^ 2, c] = rho[k ^ 2] w[k, c] lands in the twin row,
# eight places away.
_TWINS = np.array([2, 3, 0, 1])
_DIAGONAL = np.array([0, 5, 10, 15])
_RHO_ENTRIES = np.array([2, 7, 8, 13])
_W_ENTRIES = np.array([0, 1, 4, 5, 10, 11, 14, 15])


def _solve(system, rhs):
    """`np.linalg.solve(system, rhs)`, nan for each exactly singular matrix.

    Where the batched call raises LinAlgError, each matrix is solved
    again on its own, and a matrix that raises keeps a nan solution.
    LAPACK solves the matrices of a batched call one by one, so each
    other matrix keeps the bits the whole call gives it.  This is the
    kernel's only singularity handling: nothing estimates a condition
    number, so a near-singular matrix keeps its LAPACK solution.
    """
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        pass
    shape = np.broadcast_shapes(system.shape, rhs.shape)
    system = np.broadcast_to(system, shape).reshape((-1,) + shape[-2:])
    rhs = np.broadcast_to(rhs, shape).reshape(system.shape)
    solved = np.full(system.shape, np.nan, dtype=complex)
    for k in range(len(system)):
        with suppress(np.linalg.LinAlgError):
            solved[k] = np.linalg.solve(system[k], rhs[k])
    return solved.reshape(shape)


def scattering_matrix(w, tau1, tau2, rho):
    """Scattering matrix U = tau2 w (I - rho w)^-1 tau1 - rho^dagger.

    The operands come in the formats `interaction_matrix` and
    `boundary_matrices` give them: w as its two 2x2 blocks, shape
    (..., 2, 2, 2), and tau1, tau2 and rho as their four nonzero
    entries, shape (..., 4).  Any other trailing shape raises
    ValueError.  Each entry of rho w and tau2 w is one product, formed
    elementwise with the rounding of the generic BLAS product, so U is
    bit for bit the generic dense formula's.  The zero terms that BLAS
    adds can turn inf into nan, so matrices with a non-finite product go
    through BLAS on dense copies.  They can also flip the sign of a zero
    entry, which does not reach U: I - rho w drops it, and BLAS sums
    (tau2 w) X from +0.

    The batch axes broadcast, and each operand is read at its own shape:
    a (jobs, pixels, 2, 2, 2) w from (jobs, pixels) strengths meets the
    (pixels, 4) boundary entries, which are read and conjugated once per
    pixel, not once per job.  U has shape (..., 4, 4).

    Uses a direct linear solve rather than an explicit inverse, with no
    condition check: each (I - rho w) that LAPACK finds exactly singular
    gets a nan U, which the sweeps mask, and every other matrix, however
    ill-conditioned, keeps the bits of the batched solve (see `_solve`).
    """
    operands = dict(zip(_TRAILING, (np.asarray(m, dtype=complex) for m in (w, tau1, tau2, rho))))
    for name, trailing in _TRAILING.items():
        if operands[name].shape[-len(trailing) :] != trailing:
            raise ValueError(f"{name} must have shape (..., {', '.join(map(str, trailing))})")
    w, tau1, tau2, rho = operands.values()
    batch = np.broadcast_shapes(w.shape[:-3], tau1.shape[:-1], tau2.shape[:-1], rho.shape[:-1])
    # One zeroed buffer for rho w and tau2 w, and U later overwrites
    # I - rho w: fewer large allocations per call.  Keeping a block's
    # freed memory for the next block is left to the allocator policy
    # of `cli._pin_allocator_policy`.
    system, tau2_w = np.zeros((2,) + batch + (16,), dtype=complex)
    w_entries = w.reshape(w.shape[:-3] + (8,))
    prod = np.empty(batch + (8,), dtype=complex)
    finite = True
    # Entry 2 k + c of w takes the factor rho[k ^ 2] or tau2[k], repeated
    # at the operand's own (per-pixel) shape.
    for factor, out, entries in (
        (rho[..., _TWINS], system, _W_ENTRIES ^ 8),
        (tau2, tau2_w, _W_ENTRIES),
    ):
        _product(np.repeat(factor, 2, axis=-1), w_entries, prod)
        finite &= np.isfinite(prod).all()
        out[..., entries] = prod
    del prod
    if not finite:
        generic = ~(np.isfinite(system).all(axis=-1) & np.isfinite(tau2_w).all(axis=-1))
        dense = np.zeros((3, np.count_nonzero(generic), 16), dtype=complex)
        names = ("w", "tau2", "rho")
        for m, name, entries in zip(dense, names, (_W_ENTRIES, _DIAGONAL, _RHO_ENTRIES)):
            m_g = np.broadcast_to(operands[name], batch + _TRAILING[name])[generic]
            m[:, entries] = m_g.reshape(len(m), -1)
        w_g, tau2_g, rho_g = dense.reshape(3, -1, 4, 4)
        system[generic] = (rho_g @ w_g).reshape(-1, 16)
        tau2_w[generic] = (tau2_g @ w_g).reshape(-1, 16)
    system = system.reshape(batch + (4, 4))
    np.subtract(np.eye(4, dtype=complex), system, out=system)
    # Dense tau1 at its own batch shape, with leading axes of 1 up to the
    # rank of the system: numpy < 2 reads a right-hand side one rank below
    # the system as a stack of vectors.
    rhs = np.zeros((1,) * (len(batch) - tau1.ndim + 1) + tau1.shape[:-1] + (16,), dtype=complex)
    rhs[..., _DIAGONAL] = tau1
    solved = _solve(system, rhs.reshape(rhs.shape[:-1] + (4, 4)))
    del rhs
    u = np.matmul(tau2_w.reshape(batch + (4, 4)), solved, out=system)
    del tau2_w, solved
    # rho^dagger at rho's own shape: conj(rho[k ^ 2]) at [k, k ^ 2], and
    # the 0 - 0j that conjugating a zero entry gives everywhere else.
    rho_dagger = np.full(rho.shape[:-1] + (16,), complex(0.0, -0.0))
    rho_dagger[..., _RHO_ENTRIES] = np.conj(rho[..., _TWINS])
    np.subtract(u, rho_dagger.reshape(rho.shape[:-1] + (4, 4)), out=u)
    return u


# Rows of U per scheme: signal output row s, idler output row i, and
# the rows (j, k) of the interference term Re(U_j0 U_k2 U*_k0 U*_j2),
# whose product order is kept as the closed forms were first written.
_SCHEME_ROWS = {"ff": (0, 1, 0, 1), "bb": (2, 3, 2, 3), "fb": (0, 3, 3, 0), "bf": (2, 1, 2, 1)}


def pair_probabilities(u, schemes):
    """Relative pair-emission probabilities {scheme: array} of the named
    schemes, among ff, bb, fb and bf.

    Vacuum moments of the output operators reduce to one closed form in
    the scattering-matrix entries of the scheme's signal and idler rows.
    """
    u = np.asarray(u, dtype=complex)
    if not set(schemes) <= _SCHEME_ROWS.keys():
        raise ValueError(f"schemes must be names among {tuple(_SCHEME_ROWS)}, got {schemes!r}")
    # |U|^2 of the signal and idler rows the schemes read.
    rows = {row for name in schemes for row in _SCHEME_ROWS[name][:2]}
    sq = {row: np.abs(u[..., row, :]) ** 2 for row in rows}
    probs = {}
    for scheme in schemes:
        s, i, j, k = _SCHEME_ROWS[scheme]
        probs[scheme] = (
            sq[i][..., 0] * (sq[s][..., 0] + sq[s][..., 1] + sq[s][..., 3])
            + sq[i][..., 2] * (sq[s][..., 2] + sq[s][..., 1] + sq[s][..., 3])
            + 2.0 * np.real(
                u[..., j, 0] * u[..., k, 2] * np.conj(u[..., k, 0]) * np.conj(u[..., j, 2])
            )
        )
    return probs
