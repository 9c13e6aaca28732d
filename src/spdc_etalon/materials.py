"""Refractive-index models and optical-mode bookkeeping.

All wavelengths are vacuum wavelengths in nanometers, angles are in
radians, and wavevectors are in rad/nm.

Built-in presets:

``air``
    Constant n = 1.
``linbo3_e`` / ``linbo3_o``
    Extraordinary / ordinary index of congruent lithium niobate,
    Sellmeier coefficients from Zelmon, Small & Jundt, JOSA B 14, 3319
    (1997), stated validity 400-5000 nm.
``silicon``
    Room-temperature crystalline silicon, tabulated on a fixed 2 nm
    grid over 650-4000 nm.  The table is generated from a smooth
    two-pole Sellmeier-form fit to published data (Green 2008; Li 1980);
    the exact coefficients are recorded below and in the README, so the
    preset is bit-identically reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MaterialRangeError

__all__ = [
    "MaterialModel",
    "Mode",
    "refractive_index",
    "wavevector_components",
    "get_material",
    "material_names",
]

POLARIZATIONS = ("s", "p")
ROLES = ("pump", "signal", "idler")


@dataclass(frozen=True)
class MaterialModel:
    """One dispersion model: constant, Sellmeier, or tabulated.

    The Sellmeier form is n^2 = offset + sum_i b_i u / (u - c_i) with
    u the squared wavelength in um^2, matching the usual infrared
    Sellmeier convention.  Tabulated models interpolate linearly in
    wavelength and refuse queries outside the sample range.
    """

    kind: str
    name: str = ""
    n_const: float = 0.0
    offset: float = 1.0
    sellmeier_b: tuple = ()
    sellmeier_c: tuple = ()
    table_wavelengths_nm: tuple = ()
    table_indices: tuple = ()
    valid_range_nm: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "sellmeier", "tabulated"):
            raise ValueError(f"unknown material kind {self.kind!r}")
        if self.kind == "constant" and self.n_const <= 0:
            raise ValueError("constant index must be positive")
        if self.kind == "sellmeier" and len(self.sellmeier_b) != len(self.sellmeier_c):
            raise ValueError("Sellmeier b and c term lists must have equal length")
        if self.kind == "tabulated":
            lam = np.asarray(self.table_wavelengths_nm, dtype=float)
            idx = np.asarray(self.table_indices, dtype=float)
            if lam.size < 2 or lam.size != idx.size:
                raise ValueError("tabulated model needs >= 2 (wavelength, index) samples")
            if np.any(np.diff(lam) <= 0):
                raise ValueError("tabulated wavelengths must be strictly increasing")
            if np.any(idx <= 0):
                raise ValueError("tabulated indices must be positive")

    @classmethod
    def constant(cls, n, name=""):
        return cls(kind="constant", n_const=float(n), name=name)

    @classmethod
    def sellmeier(cls, b_terms, c_terms, offset=1.0, valid_range_nm=None, name=""):
        return cls(
            kind="sellmeier",
            offset=float(offset),
            sellmeier_b=tuple(float(b) for b in b_terms),
            sellmeier_c=tuple(float(c) for c in c_terms),
            valid_range_nm=tuple(valid_range_nm) if valid_range_nm else None,
            name=name,
        )

    @classmethod
    def tabulated(cls, wavelengths_nm, indices, name=""):
        lam = tuple(float(x) for x in wavelengths_nm)
        return cls(
            kind="tabulated",
            table_wavelengths_nm=lam,
            table_indices=tuple(float(x) for x in indices),
            valid_range_nm=(lam[0], lam[-1]),
            name=name,
        )


@dataclass(frozen=True)
class Mode:
    """One optical wave inside the film: wavelength, angle, polarization, role.

    The internal angle is measured from the stack normal (the pump
    axis) inside the film; positive angles tilt toward +x.
    """

    vacuum_wavelength_nm: float
    internal_angle_rad: float
    polarization: str = "s"
    role: str = "signal"

    def __post_init__(self):
        if self.vacuum_wavelength_nm <= 0:
            raise ValueError("vacuum wavelength must be positive")
        if abs(self.internal_angle_rad) >= np.pi / 2:
            raise ValueError("internal angle must satisfy |theta| < pi/2")
        if self.polarization not in POLARIZATIONS:
            raise ValueError(f"polarization must be one of {POLARIZATIONS}")
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}")


def _evaluate(model, wavelength_nm):
    """Evaluate the index without range checking (inputs already vetted)."""
    lam = np.asarray(wavelength_nm, dtype=float)
    if model.kind == "constant":
        n = np.full_like(lam, model.n_const)
    elif model.kind == "sellmeier":
        u = (lam / 1000.0) ** 2
        n2 = np.full_like(lam, model.offset)
        for b, c in zip(model.sellmeier_b, model.sellmeier_c):
            n2 = n2 + b * u / (u - c)
        n = np.sqrt(n2)
    else:
        n = np.interp(
            lam,
            np.asarray(model.table_wavelengths_nm),
            np.asarray(model.table_indices),
        )
    return n if n.ndim else float(n)


def refractive_index(model, wavelength_nm):
    """Real refractive index of `model` at a vacuum wavelength in nm.

    Accepts scalars or arrays.  Raises MaterialRangeError when any
    query is not positive, falls outside the model's validity range or
    gets a non-physical index; tabulated models never extrapolate.
    """
    n, valid = index_with_mask(model, wavelength_nm)
    if np.all(valid):
        return n
    lam = np.asarray(wavelength_nm, dtype=float)
    bounds = model.valid_range_nm
    what = f"material {model.name or model.kind!r}"
    if np.any(lam <= 0):
        raise MaterialRangeError(f"{what}: wavelength must be positive")
    if bounds is not None and (np.any(lam < bounds[0]) or np.any(lam > bounds[1])):
        raise MaterialRangeError(
            f"{what}: wavelength {np.min(lam):g}-{np.max(lam):g} nm outside validity "
            f"range {bounds[0]:g}-{bounds[1]:g} nm"
        )
    raise MaterialRangeError(
        f"{what}: model produced a non-physical index inside its declared validity range"
    )


def index_with_mask(model, wavelength_nm):
    """Array-friendly index evaluation that masks instead of raising.

    Returns (n, valid) where invalid entries were evaluated at a
    clipped wavelength and must be discarded by the caller.  Used by
    the sweep engines, which report bad pixels in an error mask, and by
    `refractive_index`, which raises instead.
    """
    lam = np.asarray(wavelength_nm, dtype=float)
    valid = lam > 0
    bounds = model.valid_range_nm
    if bounds is not None:
        valid = valid & (lam >= bounds[0]) & (lam <= bounds[1])
        lam = np.clip(lam, bounds[0], bounds[1])
    else:
        lam = np.where(valid, lam, 1.0)
    n = _evaluate(model, lam)
    valid = valid & np.isfinite(n) & (n > 0)
    return n, valid


def wavevector_components(mode, n):
    """Parallel (along z) and perpendicular (in-plane) wavevector parts.

    k = 2 pi n / lambda in rad/nm; the parallel component follows the
    pump axis, the perpendicular one lies in the film plane.
    """
    if np.any(np.asarray(n) <= 0):
        raise ValueError("refractive index must be positive")
    k = 2.0 * np.pi * n / mode.vacuum_wavelength_nm
    return k * np.cos(mode.internal_angle_rad), k * np.sin(mode.internal_angle_rad)


# Congruent lithium niobate, Zelmon/Small/Jundt 1997 (lambda in um):
#   n_e^2 = 1 + 2.9804 u/(u-0.02047) + 0.5981 u/(u-0.0666) + 8.9543 u/(u-416.08)
#   n_o^2 = 1 + 2.6734 u/(u-0.01764) + 1.2290 u/(u-0.05914) + 12.614 u/(u-474.60)
_LINBO3_E = MaterialModel.sellmeier(
    b_terms=(2.9804, 0.5981, 8.9543),
    c_terms=(0.02047, 0.0666, 416.08),
    valid_range_nm=(400.0, 5000.0),
    name="linbo3_e",
)
_LINBO3_O = MaterialModel.sellmeier(
    b_terms=(2.6734, 1.2290, 12.614),
    c_terms=(0.01764, 0.05914, 474.60),
    valid_range_nm=(400.0, 5000.0),
    name="linbo3_o",
)

# Crystalline silicon fit coefficients (u in um^2):
#   n^2 = 1 + B1 u/(u - C1) + B2 u/(u - C2)
# Smooth representation of published room-temperature data (Green 2008;
# Li 1980) over 650-4000 nm; desk accuracy ~0.5% on n.
_SILICON_B1 = 10.62103911405175
_SILICON_C1 = 0.0994560520008473
_SILICON_B2 = -6055.054853695855
_SILICON_C2 = 1104.0 ** 2
_SILICON_GRID_NM = (650.0, 4000.0, 2.0)  # start, stop, step


def _silicon_table():
    start, stop, step = _SILICON_GRID_NM
    lam = np.arange(start, stop + 0.5 * step, step)
    u = (lam / 1000.0) ** 2
    n2 = 1.0 + _SILICON_B1 * u / (u - _SILICON_C1) + _SILICON_B2 * u / (u - _SILICON_C2)
    return lam, np.sqrt(n2)


_SI_LAM, _SI_N = _silicon_table()
_SILICON = MaterialModel.tabulated(_SI_LAM, _SI_N, name="silicon")

_PRESETS = {
    "air": MaterialModel.constant(1.0, name="air"),
    "linbo3_e": _LINBO3_E,
    "linbo3_o": _LINBO3_O,
    "silicon": _SILICON,
}


def get_material(name):
    """Look up a built-in material preset by name."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown material preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None


def material_names():
    return sorted(_PRESETS)
