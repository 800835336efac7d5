"""qgraph: delta-coupling approximation of quantum-graph vertex conditions.

The package approximates an arbitrary self-adjoint vertex coupling of a star
graph by a family of graphs carrying only delta couplings and constant
magnetic potentials on short inner edges, and provides the closed-form
spectral machinery (scattering matrices, Green's functions, an eigenvalue
count on the vertex-reduced Dirichlet-to-Neumann matrix) needed to verify
the approximation numerically.

The public names are those of the submodules' ``__all__`` lists.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import budget, builder, convergence, couplings, errors, graphs, serialize, solver
from .budget import *  # noqa: F403
from .builder import *  # noqa: F403
from .convergence import *  # noqa: F403
from .couplings import *  # noqa: F403
from .errors import *  # noqa: F403
from .graphs import *  # noqa: F403
from .serialize import *  # noqa: F403
from .solver import *  # noqa: F403

__all__ = [
    "__version__",
    *couplings.__all__,
    *builder.__all__,
    *graphs.__all__,
    *solver.__all__,
    *convergence.__all__,
    *budget.__all__,
    *serialize.__all__,
    *errors.__all__,
]
