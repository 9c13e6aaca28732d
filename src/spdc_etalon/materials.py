"""Refractive-index models.

All wavelengths are vacuum wavelengths in nanometers.  Text reaches a
model through `material_from_spec`, the one owner of the spec grammar:
a preset name, or a ``constant:``, ``sellmeier:`` or ``tabulated:``
form.  `MaterialModel` judges the numbers, and a spec that does not
resolve raises ConfigError.

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

from .errors import ConfigError, SpdcEtalonError

__all__ = [
    "MaterialModel",
    "refractive_index",
    "material_from_spec",
]

POLARIZATIONS = ("s", "p")


@dataclass(frozen=True)
class MaterialModel:
    """One dispersion model: constant, Sellmeier, or tabulated.

    The Sellmeier form is n^2 = offset + sum_i b_i u / (u - c_i) with
    u the squared wavelength in um^2, matching the usual infrared
    Sellmeier convention.  Tabulated models interpolate linearly in
    wavelength and refuse queries outside the sample range.

    Construction checks the parameters (every number finite, a positive
    constant, paired Sellmeier terms, a table of >= 2 rows with strictly
    increasing wavelengths and positive indices, min_nm < max_nm) and
    raises ValueError otherwise.
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
        numbers = (self.n_const, self.offset, *self.sellmeier_b, *self.sellmeier_c,
                   *self.table_wavelengths_nm, *self.table_indices, *(self.valid_range_nm or ()))
        if not np.isfinite(np.asarray(numbers, dtype=float)).all():
            raise ValueError("every number must be finite")
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
        if self.valid_range_nm is not None:
            lo, hi = self.valid_range_nm
            if not lo < hi:
                raise ValueError("validity range must have min_nm < max_nm")

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

    Accepts scalars or arrays, ignoring floating-point errors.  Raises
    SpdcEtalonError when any query is not positive, falls outside the
    model's validity range or gets a non-physical index inside it (with
    no RuntimeWarning first); tabulated models never extrapolate.
    """
    with np.errstate(all="ignore"):
        n, valid = index_with_mask(model, wavelength_nm)
    if np.all(valid):
        return n
    lam = np.asarray(wavelength_nm, dtype=float)
    bounds = model.valid_range_nm
    what = f"material {model.name or model.kind!r}"
    if np.any(lam <= 0):
        raise SpdcEtalonError(f"{what}: wavelength must be positive")
    if bounds is not None and (np.any(lam < bounds[0]) or np.any(lam > bounds[1])):
        raise SpdcEtalonError(
            f"{what}: wavelength {np.min(lam):g}-{np.max(lam):g} nm outside validity "
            f"range {bounds[0]:g}-{bounds[1]:g} nm"
        )
    raise SpdcEtalonError(
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


def material_from_spec(spec):
    """Resolve a material spec string to a MaterialModel.

    Accepts a preset name, ``constant:<n>``,
    ``sellmeier:<offset>:<b1,...>:<c1,...>[:<min_nm>,<max_nm>]``, or
    ``tabulated:<csv path>`` (two comma-separated columns:
    wavelength_nm, index; '#' comments allowed).  Raises ConfigError
    for an unknown preset or form, text that does not split, a table
    that cannot be read, or numbers `MaterialModel` refuses.
    """
    spec = spec.strip()
    kind, sep, rest = spec.partition(":")
    if not sep:
        if spec in _PRESETS:
            return _PRESETS[spec]
        raise ConfigError(
            f"unknown material preset {spec!r}; available: {sorted(_PRESETS)}, "
            "or use constant:/sellmeier:/tabulated: forms"
        )
    try:
        if kind == "constant":
            return MaterialModel.constant(float(rest), name=spec)
        if kind == "sellmeier":
            parts = rest.split(":")
            if len(parts) not in (3, 4):
                raise ValueError("expected offset:b1,..:c1,..[:min_nm,max_nm]")
            b, c = (tuple(float(x) for x in p.split(",") if x) for p in parts[1:3])
            rng = tuple(float(x) for x in parts[3].split(",")) if len(parts) == 4 else None
            return MaterialModel.sellmeier(
                b, c, offset=float(parts[0]), valid_range_nm=rng, name=spec
            )
        if kind == "tabulated":
            rows = np.loadtxt(rest, delimiter=",", comments="#", ndmin=2)
            return MaterialModel.tabulated(rows[:, 0], rows[:, 1], name=spec)
    except OSError as exc:
        raise ConfigError(f"cannot read material table {rest!r}: {exc}") from None
    except (ValueError, IndexError) as exc:
        what = f"material table {rest!r}" if kind == "tabulated" else f"{kind} material {spec!r}"
        raise ConfigError(f"bad {what}: {exc}") from None
    raise ConfigError(f"unknown material form {kind!r} in {spec!r}")
