"""Run configuration: INI-style parsing, validation, serialization.

The config format is key-value pairs in named sections.  Each
`RunConfig` field declares its section, key, kind and value rule (see
`_key`), and parsing, required keys, the finite and rule checks of
`validate` and serialization all read `fields(RunConfig)`: a key is
added by adding a field, and it is required when its field has no
default.  Unknown sections or keys are hard errors; every diagnostic
carries the offending key path.  Parsing is seed-free and fully
deterministic, and `parse_config(serialize_config(cfg))` round-trips
exactly.  Material specs are resolved by `materials.material_from_spec`,
and its ConfigError gains the offending key's path here.
"""

from __future__ import annotations

import cmath
import configparser
import io
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .materials import POLARIZATIONS, material_from_spec
from .layerstack import LayerStack
from .simplified import SCHEMES
from .spectra import _DETECTED_SCHEMES, _EVALUATORS

__all__ = ["RunConfig", "parse_config", "serialize_config"]

MODELS = tuple(_EVALUATORS)
DETECTION_SCHEMES = tuple(_DETECTED_SCHEMES)


def _key(section, key, kind, default=MISSING, rule=None):
    """A field read from and written to `key` of `[section]` as `kind`:
    text, float, int, complex or schemes (a comma-separated list).
    `validate` checks its `rule` on any value but None: "positive", or
    the tuple of allowed values."""
    return field(default=default, metadata={"ini": (section, key, kind), "rule": rule})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated run parameters (all deterministic)."""

    # `serialize_config` writes the keys in field order, by section.
    superstrate: str = _key("stack", "superstrate", "text")
    film: str = _key("stack", "film", "text")
    substrate: str = _key("stack", "substrate", "text")
    thickness_um: float = _key("stack", "thickness_um", "float", rule="positive")
    pump_wavelength_nm: float = _key("pump", "wavelength_nm", "float", rule="positive")
    pump_waist_um: float = _key("pump", "waist_um", "float", rule="positive")
    lambda_min_nm: float = _key("grid", "lambda_min_nm", "float", rule="positive")
    lambda_max_nm: float = _key("grid", "lambda_max_nm", "float")
    lambda_count: int = _key("grid", "lambda_count", "int")
    theta_min_rad: float = _key("grid", "theta_min_rad", "float")
    theta_max_rad: float = _key("grid", "theta_max_rad", "float")
    theta_count: int = _key("grid", "theta_count", "int")
    chi2_pm_per_v: float | None = _key("stack", "chi2_pm_per_v", "float", None)
    beta_plus: complex | None = _key("pump", "beta_plus", "complex", None)
    pump_field_v_per_m: float | None = _key("pump", "field_v_per_m", "float", None)
    model: str = _key("model", "kind", "text", "simplified", rule=MODELS)
    schemes: tuple = _key("model", "schemes", "schemes", SCHEMES)
    polarization: str = _key("model", "polarization", "text", "s")
    envelope_center_nm: float | None = _key("detection", "envelope_center_nm", "float", None)
    envelope_fwhm_nm: float | None = _key(
        "detection", "envelope_fwhm_nm", "float", None, rule="positive"
    )
    envelope_amplitude: float = _key(
        "detection", "envelope_amplitude", "float", 1.0, rule="positive"
    )
    efficiency_ratio: float = _key("detection", "efficiency_ratio", "float", 1.0, rule="positive")
    detection_scheme: str = _key("detection", "scheme", "text", "forward", rule=DETECTION_SCHEMES)
    gain_beta_min: float = _key("gain_curve", "beta_min", "float", 1e-2)
    gain_beta_max: float = _key("gain_curve", "beta_max", "float", 4.0)
    gain_beta_count: int = _key("gain_curve", "count", "int", 21)
    output_path: str | None = _key("output", "path", "text", None)

    def validate(self):
        for f in fields(self):
            section, key, kind = f.metadata["ini"]
            rule, value = f.metadata["rule"], getattr(self, f.name)
            if value is None:
                continue
            if kind in ("float", "complex") and not cmath.isfinite(value):
                raise ConfigError(f"{section}.{key}: must be finite")
            if rule == "positive" and value <= 0:
                raise ConfigError(f"{section}.{key}: must be positive")
            if isinstance(rule, tuple) and value not in rule:
                raise ConfigError(f"{section}.{key}: must be one of {rule}")
        if self.lambda_count < 2 or self.theta_count < 2:
            raise ConfigError("grid: lambda_count and theta_count must be >= 2")
        if self.lambda_count * self.theta_count > np.iinfo(np.intp).max:
            raise ConfigError("grid: lambda_count * theta_count pixels cannot be indexed")
        if not self.lambda_min_nm < self.lambda_max_nm:
            raise ConfigError("grid: lambda_min_nm must be < lambda_max_nm")
        if not self.theta_min_rad < self.theta_max_rad:
            raise ConfigError("grid: theta_min_rad must be < theta_max_rad")
        if self.theta_min_rad < -np.pi / 2 or self.theta_max_rad > np.pi / 2:
            raise ConfigError("grid: theta_min_rad and theta_max_rad must lie in [-pi/2, pi/2]")
        if self.polarization not in POLARIZATIONS:
            raise ConfigError("model.polarization: must be 's' or 'p'")
        if not self.schemes or any(s not in SCHEMES for s in self.schemes):
            raise ConfigError(f"model.schemes: entries must be among {SCHEMES}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("model.schemes: each scheme may appear only once")
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
        center, fwhm = self.envelope_center_nm, self.envelope_fwhm_nm
        if (center is None) != (fwhm is None):
            unset, given = ("fwhm", "center") if fwhm is None else ("center", "fwhm")
            raise ConfigError(
                f"detection.envelope_{unset}_nm: required when envelope_{given}_nm is set"
            )
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
        chi2 = self.chi2_pm_per_v or 0.0
        try:
            return LayerStack(**materials, thickness_nm=self.thickness_um * 1e3, chi2_pm_per_v=chi2)
        except ValueError as exc:  # a thickness_um that overflows in nm
            raise ConfigError(f"stack: {exc}") from None

    def build_stack(self):
        """The LayerStack, resolved once per config: a `tabulated:` table
        is read once, and the run uses the table that `validate` checked."""
        return self._stack

    def _replace_keeping_stack(self, **changes):
        """`replace(self, **changes).validate()` for changes that leave the
        stack's fields alone: the copy takes over the resolved stack, so
        a `tabulated:` table is not read again."""
        if changes.keys() & _STACK_FIELDS:
            raise ValueError(f"cannot keep the stack when changing {sorted(changes)}")
        config = replace(self, **changes)
        # Where `cached_property` keeps `_stack`.
        config.__dict__["_stack"] = self._stack
        return config.validate()

    def signal_wavelengths(self):
        return np.linspace(self.lambda_min_nm, self.lambda_max_nm, self.lambda_count)

    def internal_angles(self):
        return np.linspace(self.theta_min_rad, self.theta_max_rad, self.theta_count)


# The fields `_stack` reads.
_STACK_FIELDS = {"superstrate", "film", "substrate", "thickness_um", "chi2_pm_per_v"}


# The schema: (section, key) -> its RunConfig field, in field order.
_SCHEMA = {f.metadata["ini"][:2]: f for f in fields(RunConfig)}
# Numeric kinds: the converter and what the error message expects.
_NUMBERS = {
    "float": (float, "a number"),
    "int": (int, "an integer"),
    "complex": (complex, "a number"),
}


def _parse_value(section, key, kind, raw):
    if kind == "text":
        return raw
    if kind == "schemes":
        return tuple(s.strip() for s in raw.split(",") if s.strip())
    conv, what = _NUMBERS[kind]
    try:
        value = conv(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected {what}, got {raw!r}") from None
    if conv is not int and not cmath.isfinite(value):
        raise ConfigError(f"{section}.{key}: expected a finite number, got {raw!r}")
    return value


def _parse_field(name, raw):
    """`raw` as the value of RunConfig field `name`, parsed by its kind
    as its config key is (text is kept as given)."""
    section, key, kind = RunConfig.__dataclass_fields__[name].metadata["ini"]
    return _parse_value(section, key, kind, raw)


def parse_config(text):
    """Parse and validate an INI-style config into a RunConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    sections = {section for section, _ in _SCHEMA}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if (section, key) not in _SCHEMA:
                raise ConfigError(f"unknown key {section}.{key}")
    for (section, key), f in _SCHEMA.items():
        if f.default is MISSING and section not in parser:
            raise ConfigError(f"missing required section [{section}]")
        if f.default is MISSING and key not in parser[section]:
            raise ConfigError(f"missing required key {section}.{key}")

    values = {}
    for (section, key), f in _SCHEMA.items():
        if section in parser and key in parser[section]:
            kind = f.metadata["ini"][2]
            values[f.name] = _parse_value(section, key, kind, parser[section][key].strip())
    return RunConfig(**values).validate()


def _fmt(value):
    if isinstance(value, tuple):  # the schemes
        return ",".join(value)
    if isinstance(value, np.generic):  # a library caller's numpy scalar: repr is np.float64(...)
        value = value.item()
    if isinstance(value, complex) and value.imag == 0:
        value = value.real
    return repr(value) if isinstance(value, (float, complex)) else str(value)


def serialize_config(config):
    """Canonical INI text for a RunConfig; parse_config round-trips it.

    Every field that is not None is written, in field order; a section
    with no such field is left out.
    """
    sections = {}
    for (section, key), f in _SCHEMA.items():
        value = getattr(config, f.name)
        if value is not None:
            sections.setdefault(section, {})[key] = _fmt(value)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
