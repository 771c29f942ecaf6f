"""Competing (min-linear) Weibull accelerated failure time modelling.

The observed event time is the minimum of independent latent Weibull times,
one per competing group, each with its own linear predictor.  The package
provides exact model evaluation, penalized EM fitting with per-group winning
probabilities, expected-survival-time prediction with tail bounds,
simulation scenarios, survival metrics, and a command-line interface.

Each module's ``__all__`` is its public surface; the package exports their
union, module by module.
"""

from . import errors, estimation, metrics, model, simulation
from .errors import *  # noqa: F401,F403
from .estimation import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *estimation.__all__, *metrics.__all__, *model.__all__, *simulation.__all__
]
