"""Low-gain multiplicative model: bare-film pair spectrum times an
etalon filter function.

In the low-gain regime the emission probability factorizes into the
non-resonant phase-matching/pump-profile probability P and a filter
function S that depends only on the interface coefficients and the
collection scheme.  S interferes the forward- and backward-pump
generation channels; the pump-branch amplitudes enter conjugated,
which is required for S to reproduce the low-gain limit of the
scattering-matrix model when the pump enhancement is complex.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np

__all__ = [
    "SCHEMES",
    "sinc",
    "nonresonant_probability",
    "low_gain_interaction_matrix",
    "filter_function",
]

SCHEMES = ("ff", "bb", "fb", "bf")
# Per scheme, where the (signal, idler) pair is collected: 0 = forward
# emission (a1+, a1-), 2 = backward emission (a3+, a3-), as offsets into
# a mode's (a1+, a1-, a3+, a3-).  On the idler these are a2 and a4.
_SCHEME_FACTORS = {"ff": (0, 0), "bb": (2, 2), "fb": (0, 2), "bf": (2, 0)}


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
    delta = thickness_nm * np.asarray(delta_k_par, dtype=float)
    return _nonresonant(delta, _pump_profile(np.asarray(delta_k_perp, dtype=float), waist_um))


def _pump_profile(delta_k_perp, waist_um):
    """Transverse pump-overlap factor |F_p|^2 = exp(-(dk_perp w)^2 / 2)."""
    return np.exp(-((delta_k_perp * (waist_um * 1e3)) ** 2) / 2.0)


def _nonresonant(delta, profile):
    """sinc^2(delta / 2) times the pump profile, delta = dk_par L."""
    return sinc(delta / 2.0) ** 2 * profile


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
    if scheme not in _SCHEME_FACTORS:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    products = _scheme_products(scheme, astuple(signal_enh), astuple(idler_enh))
    return _filter_strength(beta_plus, beta_minus, *products)


def _scheme_products(scheme, signal, idler):
    """(plus, minus) enhancement products of one scheme, per pump branch.

    `signal` and `idler` are the (a1+, a1-, a3+, a3-) of each mode.
    """
    s, i = _SCHEME_FACTORS[scheme]
    return signal[s] * idler[i], signal[s + 1] * idler[i + 1]


def _filter_strength(beta_plus, beta_minus, plus, minus):
    """|conj(beta+) plus + conj(beta-) minus|^2."""
    return np.abs(np.conj(beta_plus) * plus + np.conj(beta_minus) * minus) ** 2
