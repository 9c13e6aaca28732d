"""Photon-pair emission spectra of a nonlinear etalon.

Rigorous scattering-matrix model, low-gain multiplicative model
(non-resonant spectrum times an etalon filter function), and sweep
engines to compare them.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    GeometryError,
    MaterialRangeError,
    NearSingularError,
    ResonancePoleError,
    SpdcEtalonError,
    ZeroVarianceError,
)
from .materials import (
    MaterialModel,
    Mode,
    get_material,
    material_names,
    refractive_index,
    wavevector_components,
)
from .layerstack import (
    FieldEnhancements,
    InterfaceCoeffs,
    LayerStack,
    field_enhancements,
    interface_coeffs,
    linear_transmission,
    pump_enhancement,
)
from .rigorous import (
    InteractionParams,
    PairProbabilities,
    boundary_matrices,
    gain_term,
    interaction_matrix,
    interaction_params,
    pair_probabilities,
    scattering_matrix,
)
from .simplified import (
    SCHEMES,
    filter_function,
    nonresonant_probability,
)
from .spectra import (
    EnvelopeModel,
    GainCurvePoint,
    SpectrumGrid,
    compare_grids,
    detection_spectrum,
    frequency_angular_spectra,
    frequency_angular_spectrum,
    gain_and_agreement_curve,
    r_squared,
    solve_idler,
    transmission_curve,
)
from .config import RunConfig, material_from_spec, parse_config, serialize_config

__all__ = [
    "__version__",
    "ConfigError",
    "GeometryError",
    "MaterialRangeError",
    "NearSingularError",
    "ResonancePoleError",
    "SpdcEtalonError",
    "ZeroVarianceError",
    "MaterialModel",
    "Mode",
    "get_material",
    "material_names",
    "refractive_index",
    "wavevector_components",
    "FieldEnhancements",
    "InterfaceCoeffs",
    "LayerStack",
    "field_enhancements",
    "interface_coeffs",
    "linear_transmission",
    "pump_enhancement",
    "InteractionParams",
    "PairProbabilities",
    "boundary_matrices",
    "gain_term",
    "interaction_matrix",
    "interaction_params",
    "pair_probabilities",
    "scattering_matrix",
    "SCHEMES",
    "filter_function",
    "nonresonant_probability",
    "EnvelopeModel",
    "GainCurvePoint",
    "SpectrumGrid",
    "compare_grids",
    "detection_spectrum",
    "frequency_angular_spectra",
    "frequency_angular_spectrum",
    "gain_and_agreement_curve",
    "r_squared",
    "solve_idler",
    "transmission_curve",
    "RunConfig",
    "material_from_spec",
    "parse_config",
    "serialize_config",
]
