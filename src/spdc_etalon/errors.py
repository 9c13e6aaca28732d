"""Exception types shared across the package: one per CLI exit code.

`SpdcEtalonError` is a design the models cannot evaluate (exit 3): a
wavelength outside a material's range or a non-physical index, a pump
on its etalon pole or not finite, nothing to compare or a constant
reference.  Its subclass `ConfigError` is a bad config (exit 2).  The
rigorous kernel raises neither at the oscillation threshold: an
exactly singular system gives a nan scattering matrix, which the
sweeps mask.
"""

__all__ = ["SpdcEtalonError", "ConfigError"]


class SpdcEtalonError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SpdcEtalonError):
    """Invalid, incomplete, or unknown configuration content."""
