"""Sampling bandlimited graph signals by local weighted averages, and
reconstructing them with a contractive projection iteration.

The package re-exports every module's ``__all__``."""

from .graph import *
from .generators import *
from .spectral import *
from .localsets import *
from .sampling import *
from .reconstruction import *
from .noise import *
from .experiments import *
from . import (
    experiments, generators, graph, localsets, noise, reconstruction, sampling, spectral,
)

__version__ = "0.1.0"

__all__ = [
    name
    for module in (graph, generators, spectral, localsets, sampling, reconstruction,
                   noise, experiments)
    for name in module.__all__
] + ["__version__"]
