"""Incentive analysis for coded multi-lane transaction dissemination.

Exact delay laws for withholding cartels, the pivotal-prefix bounty rule,
incentive-compatibility and coalition thresholds, adaptive-sender ratchet
bounds, within-slot race bounds, and a pathwise Monte-Carlo verifier.
"""

from .config import AnalysisConfig
from .geometry import ContactSchedule, SystemInstance
from .incentives import EconParams
from .probability import DiscreteDistribution, HypergeomLaw

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "ContactSchedule",
    "DiscreteDistribution",
    "EconParams",
    "HypergeomLaw",
    "SystemInstance",
    "__version__",
]
