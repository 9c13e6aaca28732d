"""Sweep engines: frequency-angular grids, gain/agreement curves, 1D
detection spectra, and the Airy transmission curve.  The pump and the
transmission curve share one normal-incidence kernel, `_normal_incidence`,
and each front-end evaluates the pump once per run.  Each front-end runs
under a fresh np.errstate(all="ignore") per call, as each pool worker
does (threads do not inherit it); no kernel sets one.

Every sweep evaluates its pixels in fixed-size chunks, each chunk by one
worker, then runs deterministic reductions, so results are bitwise
independent of the worker count and memory is bounded by the chunk, not
the grid.  Within a chunk each kinematic term is computed at the
resolution it varies on (per wavelength, per angle or per pixel) and
gathered per pixel, with the bits of evaluating every pixel on its own.
The frequency-angular grids are mirror-symmetric in angle, bit for bit,
so each distinct |theta| is evaluated once (`_mirror_map`).  Pixels
that cannot be evaluated (material range, grazing idler, resonance
poles, exactly singular rigorous systems, non-finite intermediates)
are collected in an error mask instead of aborting; masked pixels are
excluded from normalization and R-squared.
"""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SpdcEtalonError
from .layerstack import (
    POLE_TOLERANCE,
    coefficient_arrays,
    enhancement_arrays,
    round_trip_denominator,
    _indices,
    _pump_enhancement,
)
from .materials import index_with_mask, refractive_index
from .rigorous import (
    KPAR_FLOOR,
    boundary_matrices,
    gain_term,
    interaction_matrix,
    pair_probabilities,
    scattering_matrix,
    _coupling_prefactor,
)
from .simplified import SCHEMES, _filter_strength, _nonresonant, _pump_profile, _scheme_products

__all__ = [
    "SpectrumGrid",
    "frequency_angular_spectra",
    "r_squared",
    "compare_grids",
    "gain_and_agreement_curve",
    "detection_spectrum",
    "transmission_curve",
]

# Pixels per kinematics batch.  Every sweep evaluates its pixels in
# chunks of this size, whatever the thread count, so memory is bounded
# by the chunk, not the grid.
_CHUNK_PIXELS = 32768
# Unmasked pixels per rigorous solve.  The rigorous model's working set
# (about 1.3 KB per pixel) is bounded by this block, not by the chunk.
_RIGOROUS_BLOCK = 2048


@dataclass
class SpectrumGrid:
    """Per-scheme 2D intensities over (signal wavelength x internal angle).

    `mask` flags pixels that could not be evaluated; intensities there
    are zero and excluded from normalization.
    """

    signal_wavelengths_nm: np.ndarray
    internal_angles_rad: np.ndarray
    intensity: dict
    mask: np.ndarray

    def normalized(self):
        """Unit-max copy: the global maximum over all schemes is 1."""
        peak = _masked_peak(
            self.intensity.values(), self.mask, "cannot normalize an all-zero or all-masked grid"
        )
        scaled = {k: v / peak for k, v in self.intensity.items()}
        return SpectrumGrid(
            signal_wavelengths_nm=self.signal_wavelengths_nm,
            internal_angles_rad=self.internal_angles_rad,
            intensity=scaled,
            mask=self.mask,
        )


def _masked_peak(arrays, mask, empty):
    """The largest value of `arrays` outside `mask`; a sweep with no positive
    one has nothing to report, and raises SpdcEtalonError(`empty`)."""
    peak = max([0.0, *(float(np.max(a, where=~mask, initial=0.0)) for a in arrays)])
    if peak <= 0:
        raise SpdcEtalonError(empty)
    return peak


def _envelope(wavelength_nm, center_nm, fwhm_nm, amplitude):
    """Gaussian detection envelope in wavelength: `amplitude` at
    `center_nm`, half of it `fwhm_nm` / 2 away (`RunConfig.validate`
    checks the width and amplitude)."""
    arg = (np.asarray(wavelength_nm, dtype=float) - center_nm) / fwhm_nm
    return amplitude * np.exp(-4.0 * np.log(2.0) * arg ** 2)


def _idler_wavelength(lam_p, lam_s):
    """Rational form of 1/lam_i = 1/lam_p - 1/lam_s; exact for the
    degenerate case in floating point."""
    return lam_p * lam_s / (lam_s - lam_p)


def _idler_kinematics(k_s, k_i, trig_s):
    """Transverse matching of an idler of film wavenumber k_i to a signal of
    film wavenumber k_s at angle (cos, sin) `trig_s`: the idler angle that
    zeroes -k_s sin(theta_s) - k_i sin(theta_i) (clamped to grazing where no
    real angle does), its (cos, sin), the mismatch left, and the parallel
    wavevectors k_s cos(theta_s) and k_i cos(theta_i)."""
    kt_s = -k_s * trig_s[1]
    theta_i = np.arcsin(np.clip(kt_s / k_i, -1.0, 1.0))
    trig_i = (np.cos(theta_i), np.sin(theta_i))
    return theta_i, trig_i, kt_s - k_i * trig_i[1], k_s * trig_s[0], k_i * trig_i[0]


# ---------------------------------------------------------------------------
# vectorized kinematics shared by all sweep engines
# ---------------------------------------------------------------------------


@dataclass
class _PixelBatch:
    """Flat per-pixel arrays for one chunk of a sweep.

    `den_s`/`den_i` are the round-trip denominators of the signal and
    idler; `beta_p`/`beta_m` are the per-pixel strengths of the
    chi2/field route, or None when the config sets a direct beta scale;
    `pump_amplitudes` are the forward and backward pump enhancements.
    """

    delta: np.ndarray
    phi_s: np.ndarray
    phi_i: np.ndarray
    coeffs_s: tuple
    coeffs_i: tuple
    den_s: np.ndarray
    den_i: np.ndarray
    beta_p: np.ndarray | None
    beta_m: np.ndarray | None
    gauss: np.ndarray
    mask: np.ndarray
    pump_amplitudes: tuple

    def strengths(self, scale):
        """(beta+, beta-) at one beta scale: the chi2/field route's
        per-pixel strengths when `scale` is None, else two scalars, the
        scale times the pump enhancement."""
        if scale is None:
            return self.beta_p, self.beta_m
        return tuple(complex(scale) * e for e in self.pump_amplitudes)

    def betas(self, scales, pixels=slice(None)):
        """(beta+, beta-) of each scale at `pixels`, as two
        (scales, pixels) arrays of `strengths`."""
        shape = (len(scales),) + self.mask[pixels].shape
        beta_p, beta_m = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
        for k, scale in enumerate(scales):
            b_p, b_m = self.strengths(scale)
            if scale is None:
                b_p, b_m = b_p[pixels], b_m[pixels]
            beta_p[k], beta_m[k] = b_p, b_m
        return beta_p, beta_m


def _normal_incidence(config, wavelength_nm, indices):
    """((t1, r1, t2, r2), phase, round-trip denominator) of the config's
    stack at normal incidence, with `indices` the (n1, n2, n3) at
    `wavelength_nm`: the pump's and the transmission curve's optics.
    Nothing is checked, under the errstate of the entry that calls it."""
    coeffs = coefficient_arrays(indices, (np.cos(0.0), np.sin(0.0)), config.polarization)
    # Keep this evaluation order of L k: the golden outputs pin its bits.
    phase = config.build_stack().thickness_nm * 2.0 * np.pi * indices[1] / wavelength_nm
    return coeffs, phase, round_trip_denominator(coeffs[1], coeffs[3], phase)


def _pump_state(config):
    """Pump-side constants: enhancement amplitudes and parallel wavevector."""
    lam_p = config.pump_wavelength_nm
    indices = _indices(config.build_stack(), lam_p)
    e_fwd, e_bwd = _pump_enhancement(*_normal_incidence(config, lam_p, indices))
    return e_fwd, e_bwd, 2.0 * np.pi * indices[1] / lam_p


def _masked_indices(stack, lam):
    """(n1, n2, n3) evaluated range-safely plus the validity mask."""
    n1, ok1 = index_with_mask(stack.superstrate, lam)
    n2, ok2 = index_with_mask(stack.film, lam)
    n3, ok3 = index_with_mask(stack.substrate, lam)
    return (n1, n2, n3), ok1 & ok2 & ok3


def _build_batch(config, lams, thetas, lo, hi, pump_state):
    """Kinematics, interface coefficients, and error mask for pixels
    lo..hi-1 of the grid `lams` x `thetas` (wavelength-major).

    Each term is computed at the resolution it varies on and gathered
    per pixel: the material indices, the idler wavelength, k_s, k_i and
    their masks once per wavelength of the chunk's run, sin and cos of
    the signal angle once per angle, and the idler angle's sin and cos
    and the round-trip denominators once per pixel, each shared by
    every term that reads it.  Every expression is the per-pixel one,
    so the bits are those of evaluating each pixel on its own.
    """
    e_fwd, e_bwd, kp_par = pump_state
    stack = config.build_stack()
    pol = config.polarization
    lam_p = config.pump_wavelength_nm
    pixel = np.arange(lo, hi)
    first = lo // thetas.size
    # Each pixel's wavelength in the chunk's run: x[row] gathers a
    # per-wavelength term x to the pixels.
    row = pixel // thetas.size - first

    # Per wavelength.
    lam_w = np.asarray(lams[first : (hi - 1) // thetas.size + 1], dtype=float)
    mask_w = ~np.isfinite(lam_w) | (lam_w <= lam_p)
    lam_i_w = _idler_wavelength(lam_p, np.where(mask_w, 2.0 * lam_p, lam_w))
    idx_s_w, ok_s = _masked_indices(stack, lam_w)
    idx_i_w, ok_i = _masked_indices(stack, lam_i_w)
    mask_w |= ~ok_s | ~ok_i
    k_s = (2.0 * np.pi * idx_s_w[1] / np.where(lam_w > 0, lam_w, 1.0))[row]
    k_i = (2.0 * np.pi * idx_i_w[1] / lam_i_w)[row]
    idx_s = tuple(n[row] for n in idx_s_w)
    idx_i = tuple(n[row] for n in idx_i_w)
    mask = mask_w[row]

    # Per angle.
    col = pixel % thetas.size
    trig_s = (np.cos(thetas)[col], np.sin(thetas)[col])

    # Per pixel.
    _, trig_i, mismatch, ks_par, ki_par = _idler_kinematics(k_s, k_i, trig_s)
    gauss = _pump_profile(mismatch, config.pump_waist_um)
    mask |= (ks_par <= KPAR_FLOOR) | (ki_par <= KPAR_FLOOR)

    # Beyond the critical angle of either photon at either outer
    # interface there is no propagating external channel; the boundary
    # formalism (flux-normalized coefficients, Stokes bookkeeping) does
    # not apply and the pixel is reported as unevaluated.
    sin_s = np.abs(idx_s[1] * trig_s[1])
    sin_i = np.abs(idx_i[1] * trig_i[1])
    for outer_idx in (0, 2):
        mask |= sin_s >= np.abs(idx_s[outer_idx])
        mask |= sin_i >= np.abs(idx_i[outer_idx])

    delta = stack.thickness_nm * (kp_par - ks_par - ki_par)
    phi_s = stack.thickness_nm * ks_par
    phi_i = stack.thickness_nm * ki_par

    coeffs_s = coefficient_arrays(idx_s, trig_s, pol)
    coeffs_i = coefficient_arrays(idx_i, trig_i, pol)
    den_s = round_trip_denominator(coeffs_s[1], coeffs_s[3], phi_s)
    den_i = round_trip_denominator(coeffs_i[1], coeffs_i[3], phi_i)
    mask |= (np.abs(den_s) < POLE_TOLERANCE) | (np.abs(den_i) < POLE_TOLERANCE)

    beta_p = beta_m = None
    if config.beta_plus is None:  # chi2/field route
        pref = _coupling_prefactor(stack, lam_w[row], lam_i_w[row], ks_par, ki_par)
        pref = pref * config.pump_field_v_per_m
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
        gauss=gauss,
        mask=mask,
        pump_amplitudes=(e_fwd, e_bwd),
    )


# Model evaluators: each takes a batch, the schemes, the beta scales
# (None for the chi2/field route's per-pixel strengths) and its model's
# zeroed (scales, schemes, n) slice of the result, which it fills with
# the intensities.


def _eval_simplified(batch, schemes, scales, values):
    p = _nonresonant(batch.delta, batch.gauss)
    signal = enhancement_arrays(*batch.coeffs_s, batch.phi_s, batch.den_s)
    idler = enhancement_arrays(*batch.coeffs_i, batch.phi_i, batch.den_i)
    products = [_scheme_products(scheme, signal, idler) for scheme in schemes]
    for k, scale in enumerate(scales):
        beta_p, beta_m = batch.strengths(scale)
        for j, pair in enumerate(products):
            values[k, j] = p * _filter_strength(beta_p, beta_m, *pair)


def _eval_rigorous(batch, schemes, scales, values):
    """The rigorous model on the unmasked pixels only (the others keep their zeros).

    All scales run together: each block of pixels makes one call per
    rigorous step on (scales, pixels) strengths, so a block holds
    `_RIGOROUS_BLOCK` // scales pixels (at least one) and every call at
    most max(`_RIGOROUS_BLOCK`, scales) matrices.  The block's (pixels, 4)
    boundary entries and the terms of delta alone serve every scale.
    """
    live = np.flatnonzero(~batch.mask)
    step = max(1, _RIGOROUS_BLOCK // len(scales))
    for lo in range(0, live.size, step):
        px = live[lo : lo + step]
        boundary = boundary_matrices(
            tuple(c[px] for c in batch.coeffs_s),
            tuple(c[px] for c in batch.coeffs_i),
            batch.phi_s[px],
            batch.phi_i[px],
        )
        # delta keeps an explicit scale axis of 1; see `interaction_matrix`.
        w = interaction_matrix(*batch.betas(scales, px), batch.delta[px][None])
        u = scattering_matrix(w, *boundary)
        del w
        probs = pair_probabilities(u, schemes)
        # Freed before the next block allocates, so that block can reuse
        # it (kept, not trimmed, under `cli._pin_allocator_policy`): two
        # live U raise the peak RSS.
        del u
        gauss = batch.gauss[px]
        for j, scheme in enumerate(schemes):
            values[:, j, px] = probs[scheme] * gauss


def _eval_nonresonant(batch, schemes, scales, values):
    """The bare film: its one scheme is ff (`_evaluate_pixels` checks)."""
    values[...] = _nonresonant(batch.delta, batch.gauss)


# `config.MODELS` is these keys in this order, as config errors and the
# CLI's --model choices list them.
_EVALUATORS = {
    "rigorous": _eval_rigorous,
    "simplified": _eval_simplified,
    "nonresonant": _eval_nonresonant,
}
# The simplified schemes each detection scheme sums; `config.DETECTION_SCHEMES`
# is these keys in this order.
_DETECTED_SCHEMES = {"forward": ("ff",), "backward": ("bb",), "forward_backward": ("fb", "bf")}


def _evaluate_pixels(config, pump_state, lams, thetas, models, scales, schemes, threads):
    """Evaluate every model at every beta scale on the pixel grid `lams` x `thetas`.

    The stack is `config.build_stack()` and `pump_state` is
    `_pump_state(config)`, which each front-end evaluates once.  A scale
    of None takes the chi2/field route's per-pixel strengths; they pass
    `config.beta_plus` for the config's own strengths.  Before any pixel
    is evaluated, a scheme outside SCHEMES raises the ConfigError that
    `RunConfig.validate` gives, and a scheme other than ff raises one when
    the nonresonant model is among `models` (the bare film has no
    interfaces, so no backward emission): no caller gets zeros that read
    as intensities.  A `threads` that is not an integer raises TypeError,
    and one below 1 ValueError, before anything is allocated.  Pixels run
    wavelength-major in chunks of `_CHUNK_PIXELS`: each chunk's
    kinematics batch is built once and serves the whole model x scale
    grid, each model is evaluated at all scales in one call that writes
    straight into the result, and `threads` workers take whole chunks, so
    the result is bitwise the same for any thread count.

    Returns (values, mask): values[m, k, j] is the flat intensity of
    model m at scale k for scheme j, shape (models, scales, schemes, n),
    and mask[m, k] its flat error mask (intensity zero there), shape
    (models, scales, n).
    """
    if any(s not in SCHEMES for s in schemes):
        raise ConfigError(f"model.schemes: entries must be among {SCHEMES}")
    other = ",".join(s for s in schemes if s != "ff")
    if "nonresonant" in models and other:
        raise ConfigError(f"model.schemes: the nonresonant model has only ff, not {other}")
    try:
        threads = operator.index(threads)
    except TypeError:
        raise TypeError("threads must be an integer") from None
    if threads < 1:
        raise ValueError("threads must be >= 1")
    n = lams.size * thetas.size
    out = np.zeros((len(models), len(scales), len(schemes), n))
    mask = np.zeros((len(models), len(scales), n), dtype=bool)

    def eval_chunk(lo):
        hi = min(lo + _CHUNK_PIXELS, n)
        with np.errstate(all="ignore"):
            batch = _build_batch(config, lams, thetas, lo, hi, pump_state)
            for m, model in enumerate(models):
                values = out[m, :, :, lo:hi]
                _EVALUATORS[model](batch, schemes, scales, values)
                bad = batch.mask | ~np.isfinite(values).all(axis=1)
                mask[m, :, lo:hi] = bad
                np.copyto(values, 0.0, where=bad[:, None])

    # On the first chunk that raises, `map` cancels the chunks not yet started.
    starts = range(0, n, _CHUNK_PIXELS)
    with ThreadPoolExecutor(max_workers=min(threads, len(starts))) as pool:
        list(pool.map(eval_chunk, starts))
    return out, mask


def _mirror_map(thetas):
    """(first, inverse) over the distinct |theta| of `thetas`, ascending:
    thetas[first] holds one angle of each magnitude, and angle j has the
    magnitude of thetas[first[inverse[j]]].

    The stack is isotropic and the pump at normal incidence, so a pixel
    at -theta has the bits of the pixel at theta: the kernels read sin
    theta only through sign-symmetric expressions, and numpy's cos is
    even and its sin odd, bit for bit.  A grid's columns at angles of one
    magnitude are therefore one column, evaluated and written once.
    """
    _, first, inverse = np.unique(np.abs(thetas), return_index=True, return_inverse=True)
    return first, inverse


def frequency_angular_spectra(config, models, threads=1):
    """{model: raw SpectrumGrid} over the configured wavelength/angle axes
    for every model in `models`, from one pass over the pixels.

    For each pixel the idler is solved from energy conservation and
    transverse matching, its kinematics serve every model, and failures
    are recorded in each grid's error mask.  The pass runs on the
    distinct |theta| of the angle axis only (`_mirror_map`), and each
    grid column is gathered from the one of its magnitude, with the bits
    of evaluating every angle.  `models` is a nonempty sequence of
    distinct model names, checked before any pixel runs.  The grids are
    raw (unnormalized); call `.normalized()` for the unit-max version.
    """
    with np.errstate(all="ignore"):
        if isinstance(models, str) or not models or len(set(models)) != len(models):
            raise ValueError("models must be a nonempty sequence of distinct model names")
        for model in models:
            if model not in _EVALUATORS:
                raise ValueError(f"model must be one of {sorted(_EVALUATORS)}")
        lams = config.signal_wavelengths()
        thetas = config.internal_angles()
        first, inverse = _mirror_map(thetas)
        values, mask = _evaluate_pixels(
            config, _pump_state(config), lams, np.abs(thetas[first]), models, (config.beta_plus,),
            config.schemes, threads,
        )
        values = values.reshape(*values.shape[:-1], lams.size, first.size)[..., inverse]
        mask = mask.reshape(*mask.shape[:-1], lams.size, first.size)[..., inverse]
        return {
            model: SpectrumGrid(
                signal_wavelengths_nm=lams,
                internal_angles_rad=thetas,
                intensity=dict(zip(config.schemes, values[m, 0])),
                mask=mask[m, 0],
            )
            for m, model in enumerate(models)
        }


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def r_squared(candidate, reference, mask=None):
    """Coefficient of determination on unit-max-normalized data.

    `reference` is the trusted side.  Masked entries are excluded, and
    a mask must have the arrays' shape (ValueError otherwise).  No
    unmasked pair or a constant reference raises SpdcEtalonError.
    """
    a = np.asarray(candidate, dtype=float)
    b = np.asarray(reference, dtype=float)
    if a.shape != b.shape:
        raise ValueError("arrays must have the same shape")
    keep = np.isfinite(a) & np.isfinite(b)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape:
            raise ValueError("mask must have the arrays' shape")
        keep &= ~mask
    a = a[keep]
    b = b[keep]
    if a.size == 0:
        raise SpdcEtalonError("no unmasked data to compare")
    a_peak = np.max(np.abs(a))
    b_peak = np.max(np.abs(b))
    if a_peak > 0:
        a = a / a_peak
    if b_peak > 0:
        b = b / b_peak
    var = np.sum((b - np.mean(b)) ** 2)
    if var == 0:
        raise SpdcEtalonError("reference array has zero variance")
    return float(1.0 - np.sum((a - b) ** 2) / var)


def compare_grids(grid_a, grid_b, scheme):
    """R-squared between two grids for one scheme, merging their masks."""
    mask = grid_a.mask | grid_b.mask
    return r_squared(grid_a.intensity[scheme], grid_b.intensity[scheme], mask=mask)


def gain_and_agreement_curve(config, beta_values=None, threads=1):
    """Gain and model-agreement sweep at the degenerate collinear point.

    For each interaction scale the rigorous and simplified 1D spectra
    (signal wavelength at normal emission) are compared by R-squared;
    the gain term is reported as Re sqrt(|beta+|^2 - (delta/2)^2) at
    the degenerate collinear operating point, so the threshold sits
    exactly at |beta+| = |delta/2|.  A scale at which every pixel is
    masked (far past threshold the rigorous model overflows) raises
    SpdcEtalonError naming the first such scale.

    Returns {column: 1-D float64 array, one entry per scale}, with the
    columns beta_scale, beta_plus_abs, beta_over_half_delta,
    re_gamma_plus and r_squared in that order.
    """
    with np.errstate(all="ignore"):
        if beta_values is None:
            beta_values = np.geomspace(
                config.gain_beta_min, config.gain_beta_max, config.gain_beta_count
            )
        beta_values = np.asarray(beta_values, dtype=float)
        finite_positive = np.isfinite(beta_values) & (beta_values > 0)
        if beta_values.ndim != 1 or not beta_values.size or not finite_positive.all():
            raise ValueError("beta values must be a nonempty 1-D array of finite positive numbers")

        stack = config.build_stack()
        pump_state = _pump_state(config)
        e_fwd, _, kp_par = pump_state
        lam_deg = 2.0 * config.pump_wavelength_nm
        n_deg = refractive_index(stack.film, lam_deg)
        ks_deg = 2.0 * np.pi * n_deg / lam_deg
        delta_deg = stack.thickness_nm * (kp_par - 2.0 * ks_deg)
        half_delta = abs(delta_deg) / 2.0

        lams = config.signal_wavelengths()
        models = ("rigorous", "simplified")
        (rig, smp), (rig_mask, smp_mask) = _evaluate_pixels(
            config, pump_state, lams, np.zeros(1), models, beta_values, ("ff",), threads
        )
        rows = []
        for k, scale in enumerate(beta_values):
            scale_mask = rig_mask[k] | smp_mask[k]
            if scale_mask.all():
                raise SpdcEtalonError(
                    f"every pixel of the gain curve is masked at beta_scale {scale:.9g}; "
                    "no R-squared can be formed there"
                )
            rr = r_squared(smp[k, 0], rig[k, 0], mask=scale_mask)
            beta_abs = abs(scale * e_fwd)
            gamma = gain_term(beta_abs, delta_deg)
            # A phase-matched film has delta 0 here: the ratio is inf.
            ratio = np.divide(beta_abs, half_delta)
            rows.append((scale, beta_abs, ratio, np.real(gamma), rr))
        keys = ("beta_scale", "beta_plus_abs", "beta_over_half_delta", "re_gamma_plus", "r_squared")
        return dict(zip(keys, np.array(rows, dtype=float).T))


def detection_spectrum(config, threads=1):
    """1D detected-rate spectrum at normal emission with envelope weighting.

    The simplified model is evaluated at theta = 0; each pixel is
    weighted by the config's detection envelope (flat when its center
    and width are unset; `RunConfig.validate` sets them as a pair) at
    the signal wavelength and at the energy-conserving idler
    wavelength.  The config's detection scheme
    is reported; the forward scheme fixes the normalization maximum,
    the backward scheme is multiplied by the config's efficiency ratio
    and the split scheme by its square root.  Returns (wavelengths_nm,
    rates, mask).
    """
    with np.errstate(all="ignore"):
        scheme = config.detection_scheme
        needed = _DETECTED_SCHEMES[scheme]
        lams = config.signal_wavelengths()
        schemes = tuple(sorted(set(needed + ("ff",))))
        values, mask = _evaluate_pixels(
            config, _pump_state(config), lams, np.zeros(1), ("simplified",), (config.beta_plus,),
            schemes, threads,
        )
        values = dict(zip(schemes, values[0, 0]))
        mask = mask[0, 0]

        lam_p = config.pump_wavelength_nm
        lam_i = np.where(lams > lam_p, _idler_wavelength(lam_p, lams), np.nan)
        if config.envelope_center_nm is None:
            weight = np.ones_like(lams)
        else:
            envelope = config.envelope_center_nm, config.envelope_fwhm_nm, config.envelope_amplitude
            weight = _envelope(lams, *envelope) * _envelope(lam_i, *envelope)
        weight = np.where(np.isfinite(weight), weight, 0.0)

        forward = values["ff"] * weight
        peak = _masked_peak((forward,), mask, "forward spectrum is empty; cannot normalize")

        base = np.zeros_like(forward)
        for s in needed:
            base = base + values[s] * weight
        rate = base / peak
        if scheme == "backward":
            rate = rate * config.efficiency_ratio
        elif scheme == "forward_backward":
            rate = rate * float(np.sqrt(config.efficiency_ratio))
        rate = np.where(mask, 0.0, rate)
        return lams, rate, mask


def transmission_curve(config):
    """Linear Airy transmission at normal incidence over the configured
    wavelength axis.

    Wavelengths outside a material's range, resonance poles and
    non-finite values are masked (transmission zero there); with none
    left, or none positive, SpdcEtalonError.
    """
    with np.errstate(all="ignore"):
        lams = config.signal_wavelengths()
        indices, ok = _masked_indices(config.build_stack(), lams)
        (t1, _, t2, _), phase, den = _normal_incidence(config, lams, indices)
        trans = np.abs(t1 * t2 * np.exp(1j * phase) / den) ** 2
        mask = ~ok | (np.abs(den) < POLE_TOLERANCE) | ~np.isfinite(trans)
        _masked_peak((trans,), mask, "cannot report an all-zero or all-masked transmission curve")
        return lams, np.where(mask, 0.0, trans), mask
