"""State-induced geometry on matrix algebras.

A state on a dense matrix algebra turns expectation values into a dot
product; reference sets of operators then carry Gram matrices, projections,
and uncertainty bounds, and parametrized chart maps into the algebra carry
an induced metric, connection, curvature, geodesics, and parallel
transport, all evaluated by finite differences.
"""

from . import algebra, errors, projection, uncertainty, hypersurface, transport
from .algebra import *  # noqa: F403 -- each module's __all__ is the one list of its public names
from .errors import *  # noqa: F403
from .projection import *  # noqa: F403
from .uncertainty import *  # noqa: F403
from .hypersurface import *  # noqa: F403
from .transport import *  # noqa: F403

# in module order; each public name is declared in one module's __all__
__all__ = [name for mod in (algebra, errors, projection, uncertainty, hypersurface, transport)
           for name in mod.__all__]

__version__ = "0.1.0"
