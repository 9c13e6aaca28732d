"""Exception types shared across the package.

The rigorous kernel raises none of them at the oscillation threshold:
an exactly singular system gives a nan scattering matrix, which the
sweeps mask.
"""

__all__ = [
    "SpdcEtalonError",
    "MaterialRangeError",
    "ResonancePoleError",
    "ZeroVarianceError",
    "ConfigError",
]


class SpdcEtalonError(Exception):
    """Base class for all errors raised by this package."""


class MaterialRangeError(SpdcEtalonError):
    """Wavelength query outside a material model's validity range."""


class ResonancePoleError(SpdcEtalonError):
    """Etalon round-trip denominator vanished (gain-free divergence)."""


class ZeroVarianceError(SpdcEtalonError):
    """R-squared is undefined for a constant reference array."""


class ConfigError(SpdcEtalonError):
    """Invalid, incomplete, or unknown configuration content."""
