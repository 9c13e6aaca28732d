"""Fresnel optics of a three-region stack: superstrate / film / substrate.

Sign and normalization conventions (pinned so that a lossless
symmetric slab reaches unit Airy transmission exactly on its
half-wave resonances, and so that the zero-gain scattering matrix of
a lossless stack is unitary):

* `coefficient_arrays` returns the coefficients the etalon formulas
  consume: r1, r2 are the reflections of the *internal* film wave at
  interface 1 (film -> superstrate) and interface 2 (film ->
  substrate), so a symmetric stack has r1 = r2.  t1, t2 are
  flux-normalized, 2 sqrt(n_a c_a n_b c_b) / (n_a c_a + n_b c_b) for
  s polarization, which makes them direction-independent and gives
  each lossless interface a unitary 2x2 scattering block.

The array kernels check nothing, and nothing here sets numpy's error
state: the entries of `spectra` ignore every floating-point error, and
the sweep engines mask the pixels they cannot evaluate.  At normal
incidence, `spectra._normal_incidence` forms the coefficients, phase
and round-trip denominator from the same kernels, for the Airy
transmission curve (which masks) and for the pump, one point per run,
whose `_pump_enhancement` raises ResonancePoleError where the
denominator vanishes and SpdcEtalonError where its result is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonancePoleError, SpdcEtalonError
from .materials import POLARIZATIONS, refractive_index

__all__ = ["LayerStack"]

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
        if not 0 < self.thickness_nm < np.inf:
            raise ValueError("film thickness in nm must be positive and finite")
        if not np.isfinite(self.chi2_pm_per_v):
            raise ValueError("chi2_pm_per_v must be finite")


def _indices(stack, wavelength_nm):
    """Range-checked (n1, n2, n3) of the stack's three regions."""
    regions = (stack.superstrate, stack.film, stack.substrate)
    return tuple(refractive_index(m, wavelength_nm) for m in regions)


def coefficient_arrays(indices, trig, polarization):
    """Flux-normalized float64 (t1, r1, t2, r2) of the film mode.

    `indices` holds (n1, n2, n3) and `trig` the (cos, sin) of the
    internal angle, scalars or arrays that broadcast.  Nothing is checked:
    beyond an interface's critical angle its t and r are nan, the pump's
    caller, `spectra._pump_state`, passes the checked indices of
    `_indices`, and the sweep engines and the transmission curve mask the
    pixels whose indices are invalid or whose angles are beyond critical.
    """
    n1, n2, n3 = indices
    c2, s2 = trig
    if polarization not in POLARIZATIONS:
        raise ValueError("polarization must be 's' or 'p'")
    n2c2, n2s2 = n2 * c2, n2 * s2

    def interface(n):
        """(t, r) where the film meets the region of index n; each product is
        formed once, and x / (a + b) is x * (1 / (a + b)), as numpy's complex / rounds."""
        c = np.sqrt(1.0 - (n2s2 / n) ** 2)
        nc = n * c
        a, b = (n2c2, nc) if polarization == "s" else (n * c2, n2 * c)
        inv = 1.0 / (a + b)
        return 2.0 * np.sqrt(nc * n2c2) * inv, (a - b) * inv

    (t1, r1), (t2, r2) = interface(n1), interface(n3)
    return t1, r1, t2, r2


def round_trip_denominator(r1, r2, phase):
    """1 - r1 r2 e^{2 i phi}, without pole checking (sweeps mask instead)."""
    return 1.0 - r1 * r2 * np.exp(2j * np.asarray(phase, dtype=float))


def _pump_enhancement(coeffs, phase_p, den):
    """Forward and backward pump amplitudes inside the film, per unit E0,
    from the pump's (t1, r1, t2, r2), phase and round-trip denominator
    as `spectra._normal_incidence` returns them.

    The backward amplitude is exactly the forward one after one
    reflection at interface 2 plus a single-pass phase.  The pole is
    tested before dividing; a nan `den` is no pole, but is not finite.
    """
    if np.any(np.abs(den) < POLE_TOLERANCE):
        raise ResonancePoleError(
            "etalon round-trip denominator vanished (|1 - r1 r2 e^{2 i phi}| < "
            f"{POLE_TOLERANCE:g}); the linear cavity model diverges here"
        )
    t1, _, _, r2 = coeffs
    forward = t1 / den
    backward = r2 * np.exp(1j * phase_p) * forward
    if not (np.isfinite(forward).all() and np.isfinite(backward).all()):
        found = f"forward {np.asarray(forward).tolist()}, backward {np.asarray(backward).tolist()}"
        raise SpdcEtalonError(f"pump enhancement is not finite: {found}")
    return forward, backward


def enhancement_arrays(t1, r1, t2, r2, phase, den):
    """Etalon enhancement factors (a1+, a1-, a3+, a3-) of one
    down-converted mode, without pole checking, for sweep engines.

    a1 routes forward and a3 backward emission (a2 and a4 on an idler)
    for the forward- (+) and backward-driven (-) generation channels;
    `den` is `round_trip_denominator(r1, r2, phase)`.
    """
    ph = np.exp(1j * np.asarray(phase, dtype=float))
    return t2 / den, r1 * t2 * ph / den, r2 * t1 * ph / den, t1 / den

