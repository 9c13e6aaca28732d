"""Exception types shared across the package."""

__all__ = [
    "SpdcEtalonError",
    "MaterialRangeError",
    "GeometryError",
    "ResonancePoleError",
    "NearSingularError",
    "ZeroVarianceError",
    "ConfigError",
]


class SpdcEtalonError(Exception):
    """Base class for all errors raised by this package."""


class MaterialRangeError(SpdcEtalonError):
    """Wavelength query outside a material model's validity range."""


class GeometryError(SpdcEtalonError):
    """Unphysical mode geometry (grazing propagation, energy conservation)."""


class ResonancePoleError(SpdcEtalonError):
    """Etalon round-trip denominator vanished (gain-free divergence)."""


class NearSingularError(SpdcEtalonError):
    """Scattering-matrix solve near the parametric-oscillation threshold."""


class ZeroVarianceError(SpdcEtalonError):
    """R-squared is undefined for a constant reference array."""


class ConfigError(SpdcEtalonError):
    """Invalid, incomplete, or unknown configuration content."""
