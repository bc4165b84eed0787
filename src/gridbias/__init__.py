"""Exact simulation and bias analysis for discretized continuous-time
treatment-outcome processes.

The public API is the ``__all__`` of each library module, re-exported here.
"""

from .estimands import *  # noqa: F403
from .estimation import *  # noqa: F403
from .linalg2 import *  # noqa: F403
from .sde import *  # noqa: F403

__version__ = "0.1.0"
