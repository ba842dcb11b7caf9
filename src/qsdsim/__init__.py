"""Stochastic quantum-trajectory estimation of Heisenberg-picture matrix
elements and two-time correlations, with a deterministic master-equation
oracle for verification.

Every library module declares its public names in its own ``__all__``; the
package re-exports exactly those."""

from . import correlations, diffusion, ensemble, errors, gisin, hilbert, jumps, master, noise
from .correlations import *  # noqa: F403
from .diffusion import *  # noqa: F403
from .ensemble import *  # noqa: F403
from .errors import *  # noqa: F403
from .gisin import *  # noqa: F403
from .hilbert import *  # noqa: F403
from .jumps import *  # noqa: F403
from .master import *  # noqa: F403
from .noise import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (correlations, diffusion, ensemble, errors, gisin, hilbert, jumps, master, noise)
    for name in module.__all__
] + ["__version__"]
