"""Run configuration: INI-style parsing, validation, serialization.

The config format is key-value pairs in named sections.  The key table
`_KEYS` is the schema: it maps each section and key to its `RunConfig`
field and kind, and parsing, required keys and serialization all read
it; defaults live only on `RunConfig`.  Unknown sections or keys are
hard errors; every diagnostic carries the offending key path.  Parsing
is seed-free and fully deterministic, and
`parse_config(serialize_config(cfg))` round-trips exactly.
"""

from __future__ import annotations

import cmath
import configparser
import io
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .materials import MaterialModel, get_material, material_names
from .layerstack import LayerStack
from .simplified import SCHEMES

__all__ = ["RunConfig", "parse_config", "serialize_config", "material_from_spec"]

MODELS = ("rigorous", "simplified", "nonresonant")
DETECTION_SCHEMES = ("forward", "backward", "forward_backward")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated run parameters (all deterministic)."""

    superstrate: str
    film: str
    substrate: str
    thickness_um: float
    pump_wavelength_nm: float
    pump_waist_um: float
    lambda_min_nm: float
    lambda_max_nm: float
    lambda_count: int
    theta_min_rad: float
    theta_max_rad: float
    theta_count: int
    chi2_pm_per_v: float | None = None
    beta_plus: complex | None = None
    pump_field_v_per_m: float | None = None
    model: str = "simplified"
    schemes: tuple = SCHEMES
    polarization: str = "s"
    envelope_center_nm: float | None = None
    envelope_fwhm_nm: float | None = None
    envelope_amplitude: float = 1.0
    efficiency_ratio: float = 1.0
    detection_scheme: str = "forward"
    gain_beta_min: float = 1e-2
    gain_beta_max: float = 4.0
    gain_beta_count: int = 21
    output_path: str | None = None

    def validate(self):
        if self.thickness_um <= 0:
            raise ConfigError("stack.thickness_um: must be positive")
        if self.pump_wavelength_nm <= 0:
            raise ConfigError("pump.wavelength_nm: must be positive")
        if self.pump_waist_um <= 0:
            raise ConfigError("pump.waist_um: must be positive")
        if self.lambda_count < 2 or self.theta_count < 2:
            raise ConfigError("grid: lambda_count and theta_count must be >= 2")
        if self.lambda_count * self.theta_count > np.iinfo(np.intp).max:
            raise ConfigError("grid: lambda_count * theta_count pixels cannot be indexed")
        if not self.lambda_min_nm < self.lambda_max_nm:
            raise ConfigError("grid: lambda_min_nm must be < lambda_max_nm")
        if not self.theta_min_rad < self.theta_max_rad:
            raise ConfigError("grid: theta_min_rad must be < theta_max_rad")
        if self.model not in MODELS:
            raise ConfigError(f"model.kind: must be one of {MODELS}")
        if self.polarization not in ("s", "p"):
            raise ConfigError("model.polarization: must be 's' or 'p'")
        if not self.schemes or any(s not in SCHEMES for s in self.schemes):
            raise ConfigError(f"model.schemes: entries must be among {SCHEMES}")
        if self.detection_scheme not in DETECTION_SCHEMES:
            raise ConfigError(f"detection.scheme: must be one of {DETECTION_SCHEMES}")
        has_beta = self.beta_plus is not None
        has_field = self.pump_field_v_per_m is not None and self.chi2_pm_per_v is not None
        if self.pump_field_v_per_m is not None and self.chi2_pm_per_v is None:
            raise ConfigError(
                "pump.field_v_per_m requires stack.chi2_pm_per_v to be set"
            )
        if has_beta == has_field:
            raise ConfigError(
                "pump: exactly one of beta_plus or (chi2_pm_per_v, field_v_per_m) "
                "must be provided"
            )
        if self.efficiency_ratio <= 0:
            raise ConfigError("detection.efficiency_ratio: must be positive")
        if self.envelope_fwhm_nm is not None and self.envelope_fwhm_nm <= 0:
            raise ConfigError("detection.envelope_fwhm_nm: must be positive")
        if self.envelope_amplitude <= 0:
            raise ConfigError("detection.envelope_amplitude: must be positive")
        if self.gain_beta_min <= 0 or self.gain_beta_max <= self.gain_beta_min:
            raise ConfigError("gain_curve: need 0 < beta_min < beta_max")
        if self.gain_beta_count < 2:
            raise ConfigError("gain_curve.count: must be >= 2")
        self.build_stack()  # the materials must resolve
        return self

    # -- derived objects -------------------------------------------------
    @cached_property
    def _stack(self):
        materials = {}
        for key in ("superstrate", "film", "substrate"):
            try:
                materials[key] = material_from_spec(getattr(self, key))
            except ConfigError as exc:
                raise ConfigError(f"stack.{key}: {exc}") from None
        return LayerStack(
            **materials,
            thickness_nm=self.thickness_um * 1e3,
            chi2_pm_per_v=self.chi2_pm_per_v or 0.0,
        )

    def build_stack(self):
        """The LayerStack, resolved once per config: a `tabulated:` table
        is read once, and the run uses the table that `validate` checked."""
        return self._stack

    def signal_wavelengths(self):
        return np.linspace(self.lambda_min_nm, self.lambda_max_nm, self.lambda_count)

    def internal_angles(self):
        return np.linspace(self.theta_min_rad, self.theta_max_rad, self.theta_count)


def material_from_spec(spec):
    """Resolve a material spec string to a MaterialModel.

    Accepts a preset name, ``constant:<n>``,
    ``sellmeier:<offset>:<b1,...>:<c1,...>[:<min_nm>,<max_nm>]``, or
    ``tabulated:<csv path>`` (two comma-separated columns:
    wavelength_nm, index; '#' comments allowed).
    """
    spec = spec.strip()
    if ":" not in spec:
        if spec in material_names():
            return get_material(spec)
        raise ConfigError(
            f"unknown material {spec!r}; presets: {material_names()}, or use "
            "constant:/sellmeier:/tabulated: forms"
        )
    kind, _, rest = spec.partition(":")
    if kind == "constant":
        try:
            return MaterialModel.constant(float(rest), name=spec)
        except ValueError as exc:
            raise ConfigError(f"bad constant material {spec!r}: {exc}") from None
    if kind == "sellmeier":
        parts = rest.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(
                f"bad sellmeier material {spec!r}: expected "
                "offset:b1,..:c1,..[:min_nm,max_nm]"
            )
        try:
            offset = float(parts[0])
            b = tuple(float(x) for x in parts[1].split(",") if x)
            c = tuple(float(x) for x in parts[2].split(",") if x)
            rng = None
            if len(parts) == 4:
                lo, hi = (float(x) for x in parts[3].split(","))
                rng = (lo, hi)
            return MaterialModel.sellmeier(b, c, offset=offset, valid_range_nm=rng, name=spec)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"bad sellmeier material {spec!r}: {exc}") from None
    if kind == "tabulated":
        try:
            rows = np.loadtxt(rest, delimiter=",", comments="#", ndmin=2)
            return MaterialModel.tabulated(rows[:, 0], rows[:, 1], name=spec)
        except OSError as exc:
            raise ConfigError(f"cannot read material table {rest!r}: {exc}") from None
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"bad material table {rest!r}: {exc}") from None
    raise ConfigError(f"unknown material form {kind!r} in {spec!r}")


# The schema: one row per config key, (section, key, RunConfig field,
# kind), in the order `serialize_config` writes them.  A key is required
# when its field has no default; a missing optional key takes the default.
_KEYS = (
    ("stack", "superstrate", "superstrate", "text"),
    ("stack", "film", "film", "text"),
    ("stack", "substrate", "substrate", "text"),
    ("stack", "thickness_um", "thickness_um", "float"),
    ("stack", "chi2_pm_per_v", "chi2_pm_per_v", "float"),
    ("pump", "wavelength_nm", "pump_wavelength_nm", "float"),
    ("pump", "waist_um", "pump_waist_um", "float"),
    ("pump", "beta_plus", "beta_plus", "complex"),
    ("pump", "field_v_per_m", "pump_field_v_per_m", "float"),
    ("grid", "lambda_min_nm", "lambda_min_nm", "float"),
    ("grid", "lambda_max_nm", "lambda_max_nm", "float"),
    ("grid", "lambda_count", "lambda_count", "int"),
    ("grid", "theta_min_rad", "theta_min_rad", "float"),
    ("grid", "theta_max_rad", "theta_max_rad", "float"),
    ("grid", "theta_count", "theta_count", "int"),
    ("model", "kind", "model", "text"),
    ("model", "schemes", "schemes", "schemes"),
    ("model", "polarization", "polarization", "text"),
    ("detection", "envelope_center_nm", "envelope_center_nm", "float"),
    ("detection", "envelope_fwhm_nm", "envelope_fwhm_nm", "float"),
    ("detection", "envelope_amplitude", "envelope_amplitude", "float"),
    ("detection", "efficiency_ratio", "efficiency_ratio", "float"),
    ("detection", "scheme", "detection_scheme", "text"),
    ("gain_curve", "beta_min", "gain_beta_min", "float"),
    ("gain_curve", "beta_max", "gain_beta_max", "float"),
    ("gain_curve", "count", "gain_beta_count", "int"),
    ("output", "path", "output_path", "text"),
)
_SCHEMA = {section: {k for s, k, _, _ in _KEYS if s == section} for section, *_ in _KEYS}
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_REQUIRED = [(s, k) for s, k, field, _ in _KEYS if _DEFAULTS[field] is MISSING]
# Numeric kinds: the converter and what the error message expects.
_NUMBERS = {
    "float": (float, "a number"),
    "int": (int, "an integer"),
    "complex": (complex, "a number"),
}


def _parse_number(section, key, raw, conv, what):
    try:
        value = conv(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected {what}, got {raw!r}") from None
    if conv is not int and not cmath.isfinite(value):
        raise ConfigError(f"{section}.{key}: expected a finite number, got {raw!r}")
    return value


def _parse_value(section, key, kind, raw):
    if kind == "text":
        return raw
    if kind == "schemes":
        return tuple(s.strip() for s in raw.split(",") if s.strip())
    return _parse_number(section, key, raw, *_NUMBERS[kind])


def parse_config(text):
    """Parse and validate an INI-style config into a RunConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    for section, key in _REQUIRED:
        if section not in parser:
            raise ConfigError(f"missing required section [{section}]")
        if key not in parser[section]:
            raise ConfigError(f"missing required key {section}.{key}")

    values = {}
    for section, key, field, kind in _KEYS:
        if section in parser and key in parser[section]:
            values[field] = _parse_value(section, key, kind, parser[section][key].strip())
    return RunConfig(**values).validate()


def _fmt(value):
    if isinstance(value, complex):
        if value.imag == 0:
            return repr(value.real)
        return repr(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config):
    """Canonical INI text for a RunConfig; parse_config round-trips it.

    Every field that is not None is written, in table order; a section
    with no such field is left out.
    """
    sections = {}
    for section, key, field, kind in _KEYS:
        value = getattr(config, field)
        if value is not None:
            text = ",".join(value) if kind == "schemes" else _fmt(value)
            sections.setdefault(section, {})[key] = text
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
