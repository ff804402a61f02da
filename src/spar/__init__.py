"""Realignment-based entanglement detection and the structural physical
approximation of the realignment map.

The package exports the ``__all__`` of each module below; ``linalg``,
``sweeps`` and ``cli`` stay behind their module names.
"""

from . import config, criteria, exceptions, moment_estimation, realign, spa, states

# taken before the star imports, which rebind ``realign`` to the function
__all__ = [
    *config.__all__,
    *exceptions.__all__,
    *criteria.__all__,
    *moment_estimation.__all__,
    *realign.__all__,
    *spa.__all__,
    *states.__all__,
]

from .config import *  # noqa: E402, F403
from .criteria import *  # noqa: E402, F403
from .exceptions import *  # noqa: E402, F403
from .moment_estimation import *  # noqa: E402, F403
from .realign import *  # noqa: E402, F403
from .spa import *  # noqa: E402, F403
from .states import *  # noqa: E402, F403

__version__ = "0.1.0"
