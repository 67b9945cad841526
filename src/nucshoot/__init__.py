"""Radial shooting solver for a coupled nonlinear Dirac-type system.

Locates the decaying ground-state profile (f, g) by bracketing the
supremum of the set of initial values whose f-component vanishes first,
and provides the surrounding phase-plane, classification, physics, and
reporting machinery.  The package re-exports the public names (`__all__`)
of its layer modules.
"""
from . import integrator, model, physics, portrait, shooting
from .integrator import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .physics import *  # noqa: F401,F403
from .portrait import *  # noqa: F401,F403
from .shooting import *  # noqa: F401,F403

__version__ = "0.1.0"

LAYERS = (model, integrator, portrait, shooting, physics)

__all__ = [name for layer in LAYERS for name in layer.__all__] + ["__version__"]
