"""FlexER core: intents, resolutions, MIER problem objects, and shared phase records."""

from ..config import FlexERConfig
from .intents import Intent, IntentSet, IntentRelationships
from .resolution import Resolution
from .mier import MIERProblem, MIERSolution
from .flexer import (
    FlexERTimings,
    combine_candidate_sets,
    compute_representations,
)

__all__ = [
    "Intent",
    "IntentSet",
    "IntentRelationships",
    "Resolution",
    "MIERProblem",
    "MIERSolution",
    "FlexERConfig",
    "FlexERTimings",
    "combine_candidate_sets",
    "compute_representations",
]
