"""Knowledge-augmented language-image training and evaluation at desk scale.

Pipeline: load WordNet/Wiktionary snapshots, reduce descriptions to queries,
retrieve and compose knowledge-augmented texts, train tiny dual encoders with
a grouped contrastive objective (optionally adapter-modularized), and measure
zero-shot / few-shot transfer plus region grounding.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, LexivisError, NumericsError

__all__ = [
    "ConfigError",
    "DataError",
    "LexivisError",
    "NumericsError",
    "__version__",
]
