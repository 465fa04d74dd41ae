"""Blocking phase: candidate pair generation."""

from .base import (
    Blocker,
    BlockingStats,
    KeyBlocker,
    OversizedBlockWarning,
    join_blocks,
    sources_admissible,
)
from .full import FullBlocker
from .qgram import QGramBlocker
from .token import TokenBlocker, DEFAULT_STOPWORDS

__all__ = [
    "Blocker",
    "BlockingStats",
    "KeyBlocker",
    "OversizedBlockWarning",
    "join_blocks",
    "sources_admissible",
    "FullBlocker",
    "QGramBlocker",
    "TokenBlocker",
    "DEFAULT_STOPWORDS",
]
