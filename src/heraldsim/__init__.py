"""Photon-transmission modeling for heralded-photon QKD over noisy fiber.

Quantifies when a heralded photon source beats a weak coherent source on
a noise-corrupted channel: closed-form link analytics, a cross-validating
Monte Carlo time-slot simulator, source calibration from measurable count
rates, and WDM channel-plan aggregation.
"""

from . import calibration, core, montecarlo, scenario, wdm
from .calibration import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403
from .wdm import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *core.__all__, *calibration.__all__, *montecarlo.__all__,
           *scenario.__all__, *wdm.__all__]
