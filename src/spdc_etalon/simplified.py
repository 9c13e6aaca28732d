"""Low-gain multiplicative model: bare-film pair spectrum times an
etalon filter function.

In the low-gain regime the emission probability factorizes into the
non-resonant phase-matching/pump-profile probability P and a filter
function S that depends only on the interface coefficients and the
collection scheme.  P = sinc^2(dk_par L / 2) exp(-(dk_perp w)^2 / 2),
with w the 1/e^2 pump waist diameter (`_nonresonant`, `_pump_profile`).
S interferes the forward- and backward-pump generation channels
(`_scheme_products`, `_filter_strength`); the pump-branch amplitudes
enter conjugated, which is required for S to reproduce the low-gain
limit of the scattering-matrix model when the pump enhancement is
complex.  `spectra` evaluates P x S on whole pixel chunks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SCHEMES"]

SCHEMES = ("ff", "bb", "fb", "bf")
# Per scheme, where the (signal, idler) pair is collected: 0 = forward
# emission (a1+, a1-), 2 = backward emission (a3+, a3-), as offsets into
# a mode's (a1+, a1-, a3+, a3-).  On the idler these are a2 and a4.
_SCHEME_FACTORS = {"ff": (0, 0), "bb": (2, 2), "fb": (0, 2), "bf": (2, 0)}


def sinc(x):
    """sin(x)/x with sinc(0) = 1 (unnormalized convention)."""
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


def _pump_profile(delta_k_perp, waist_um):
    """Transverse pump-overlap factor |F_p|^2 = exp(-(dk_perp w)^2 / 2)."""
    return np.exp(-((delta_k_perp * (waist_um * 1e3)) ** 2) / 2.0)


def _nonresonant(delta, profile):
    """sinc^2(delta / 2) times the pump profile, delta = dk_par L."""
    return sinc(delta / 2.0) ** 2 * profile


def _scheme_products(scheme, signal, idler):
    """(plus, minus) enhancement products of one scheme, per pump branch.

    `signal` and `idler` are the (a1+, a1-, a3+, a3-) of each mode.
    """
    s, i = _SCHEME_FACTORS[scheme]
    return signal[s] * idler[i], signal[s + 1] * idler[i + 1]


def _filter_strength(beta_plus, beta_minus, plus, minus):
    """|conj(beta+) plus + conj(beta-) minus|^2."""
    return np.abs(np.conj(beta_plus) * plus + np.conj(beta_minus) * minus) ** 2
