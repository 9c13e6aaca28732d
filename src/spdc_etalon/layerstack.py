"""Fresnel optics of a three-region stack: superstrate / film / substrate.

Sign and normalization conventions (pinned so that a lossless
symmetric slab reaches unit Airy transmission exactly on its
half-wave resonances, and so that the zero-gain scattering matrix of
a lossless stack is unitary):

* `interface_coeffs` returns the coefficients the etalon formulas
  consume: r1, r2 are the reflections of the *internal* film wave at
  interface 1 (film -> superstrate) and interface 2 (film ->
  substrate), so a symmetric stack has r1 = r2.  t1, t2 are
  flux-normalized, 2 sqrt(n_a c_a n_b c_b) / (n_a c_a + n_b c_b) for
  s polarization, which makes them direction-independent and gives
  each lossless interface a unitary 2x2 scattering block.
* Total internal reflection is handled by analytic continuation: the
  transmitted-angle cosine becomes +i |cos|, so |r| = 1 beyond the
  critical angle and fields decay outward.

The per-point wrappers raise ResonancePoleError where the round-trip
denominator vanishes and SpdcEtalonError where their result is not
finite, with no RuntimeWarning first; the array kernels check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonancePoleError, SpdcEtalonError
from .materials import POLARIZATIONS, refractive_index

__all__ = [
    "LayerStack",
    "InterfaceCoeffs",
    "FieldEnhancements",
    "interface_coeffs",
    "pump_enhancement",
    "field_enhancements",
    "linear_transmission",
]

POLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class LayerStack:
    """Three-region geometry with a nonlinear film of thickness L.

    `chi2_pm_per_v` is only used when the parametric interaction is
    computed from an absolute pump field instead of a direct
    dimensionless scale.
    """

    superstrate: object
    film: object
    substrate: object
    thickness_nm: float
    chi2_pm_per_v: float = 0.0

    def __post_init__(self):
        if self.thickness_nm <= 0:
            raise ValueError("film thickness must be positive")


@dataclass(frozen=True)
class InterfaceCoeffs:
    """Interface amplitudes for one mode: t1, r1 (interface 1), t2, r2."""

    t1: complex
    r1: complex
    t2: complex
    r2: complex


@dataclass(frozen=True)
class FieldEnhancements:
    """Etalon enhancement factors of one down-converted mode.

    a1 (forward emission) and a3 (backward emission) carry the
    direct / once-reflected routing for the forward- and
    backward-driven generation channels.  Evaluated on an idler mode,
    a1 and a3 play the role of the idler factors a2 and a4.
    """

    a1p: complex
    a1m: complex
    a3p: complex
    a3m: complex


def _complex_cos(sin_sq):
    """cos(theta) from sin^2(theta), continued to +i decay above TIR."""
    return np.sqrt((1.0 + 0j) - sin_sq)


def _indices(stack, wavelength_nm):
    """Range-checked (n1, n2, n3) of the stack's three regions."""
    regions = (stack.superstrate, stack.film, stack.substrate)
    return tuple(refractive_index(m, wavelength_nm) for m in regions)


def coefficient_arrays(indices, trig, polarization):
    """Flux-normalized (t1, r1, t2, r2) of the film mode: the array
    kernel of `interface_coeffs`.

    `indices` holds (n1, n2, n3) and `trig` the (cos, sin) of the
    internal angle, scalars or arrays that broadcast.  Nothing is range
    checked here: `interface_coeffs` resolves checked indices, and the
    sweep engines mask the pixels whose indices are invalid.
    """
    n1, n2, n3 = indices
    c2, s2 = trig
    if polarization not in POLARIZATIONS:
        raise ValueError("polarization must be 's' or 'p'")
    n2c2, n2s2 = n2 * c2, n2 * s2

    def interface(n):
        """(t, r) where the film meets the region of index n; each
        product is formed once, and r = (a - b) / (a + b)."""
        c = _complex_cos((n2s2 / n) ** 2)
        nc = n * c
        a, b = (n2c2, nc) if polarization == "s" else (n * c2, n2 * c)
        den = a + b
        return 2.0 * np.sqrt((nc + 0j) * n2c2) / den, (a - b) / den

    (t1, r1), (t2, r2) = interface(n1), interface(n3)
    return t1, r1, t2, r2


def interface_coeffs(stack, mode):
    """Flux-normalized interface coefficients for one film mode."""
    indices = _indices(stack, mode.vacuum_wavelength_nm)
    theta = mode.internal_angle_rad
    t1, r1, t2, r2 = coefficient_arrays(
        indices, (np.cos(theta), np.sin(theta)), mode.polarization
    )
    return InterfaceCoeffs(t1=complex(t1), r1=complex(r1), t2=complex(t2), r2=complex(r2))


def round_trip_denominator(r1, r2, phase):
    """1 - r1 r2 e^{2 i phi}, without pole checking (sweeps mask instead)."""
    return 1.0 - r1 * r2 * np.exp(2j * np.asarray(phase, dtype=float))


def _check_pole(den, what, labels, values):
    """`values`, unless `den` vanishes (nan does not) or a value is not finite."""
    if np.any(np.abs(den) < POLE_TOLERANCE):
        raise ResonancePoleError(
            "etalon round-trip denominator vanished (|1 - r1 r2 e^{2 i phi}| < "
            f"{POLE_TOLERANCE:g}); the linear cavity model diverges here"
        )
    if not all(np.isfinite(v).all() for v in values):
        found = ", ".join(f"{k} {np.asarray(v).tolist()}" for k, v in zip(labels, values))
        raise SpdcEtalonError(f"{what} is not finite: {found}")
    return values


def pump_enhancement(coeffs, phase_p):
    """Forward and backward pump amplitudes inside the film, per unit E0.

    The backward amplitude is exactly the forward one after one
    reflection at interface 2 plus a single-pass phase.
    """
    with np.errstate(all="ignore"):
        den = round_trip_denominator(coeffs.r1, coeffs.r2, phase_p)
        forward = coeffs.t1 / den
        backward = coeffs.r2 * np.exp(1j * phase_p) * forward
    return _check_pole(den, "pump enhancement", ("forward", "backward"), (forward, backward))


def enhancement_arrays(t1, r1, t2, r2, phase, den):
    """(a1+, a1-, a3+, a3-) without pole checking, for sweep engines;
    `den` is `round_trip_denominator(r1, r2, phase)`."""
    ph = np.exp(1j * np.asarray(phase, dtype=float))
    return t2 / den, r1 * t2 * ph / den, r2 * t1 * ph / den, t1 / den


def field_enhancements(coeffs, phase_mode):
    """Etalon enhancement factors of one down-converted film mode."""
    with np.errstate(all="ignore"):
        den = round_trip_denominator(coeffs.r1, coeffs.r2, phase_mode)
        a = enhancement_arrays(coeffs.t1, coeffs.r1, coeffs.t2, coeffs.r2, phase_mode, den)
    labels = ("a1+", "a1-", "a3+", "a3-")
    return FieldEnhancements(*_check_pole(den, "field enhancement", labels, a))


def _airy_transmission(stack, wavelength_nm, internal_angle_rad, polarization, indices):
    """Airy power transmittance |t1 t2 e^{i phi} / (1 - r1 r2 e^{2 i phi})|^2.

    Scalar or array wavelength/angle, with `indices` the (n1, n2, n3)
    at those wavelengths.  Returns (transmittance, round-trip
    denominator), without pole checking; callers set the errstate.
    """
    cos = np.cos(internal_angle_rad)
    t1, r1, t2, r2 = coefficient_arrays(indices, (cos, np.sin(internal_angle_rad)), polarization)
    phi = stack.thickness_nm * 2.0 * np.pi * indices[1] / wavelength_nm * cos
    den = round_trip_denominator(r1, r2, phi)
    trans = np.abs(t1 * t2 * np.exp(1j * phi) / den) ** 2
    return trans, den


def linear_transmission(stack, mode):
    """Airy power transmittance of the slab for one mode.

    Computed from the flux-normalized interface coefficients, which is
    identical to the raw-amplitude formula times the external flux
    ratio (n_out cos / n_in cos).  Serves as a linear-optics check of
    the Fresnel and phase machinery.
    """
    lam = mode.vacuum_wavelength_nm
    with np.errstate(all="ignore"):
        trans, den = _airy_transmission(
            stack, lam, mode.internal_angle_rad, mode.polarization, _indices(stack, lam)
        )
    return float(_check_pole(den, "linear transmission", ("T",), (trans,))[0])
