"""Photon-pair emission spectra of a nonlinear etalon.

Rigorous scattering-matrix model, low-gain multiplicative model
(non-resonant spectrum times an etalon filter function), and sweep
engines to compare them.  The public names are those of each library
module's `__all__`.
"""

__version__ = "0.1.0"

from . import config, errors, layerstack, materials, rigorous, simplified, spectra
from .config import *
from .errors import *
from .layerstack import *
from .materials import *
from .rigorous import *
from .simplified import *
from .spectra import *

__all__ = [
    "__version__",
    *errors.__all__,
    *materials.__all__,
    *layerstack.__all__,
    *rigorous.__all__,
    *simplified.__all__,
    *spectra.__all__,
    *config.__all__,
]
