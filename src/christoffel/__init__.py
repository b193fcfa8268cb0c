"""Christoffel words: construction, superimposition, decimation, Beatty and money problems."""

from .words import *
from .christoffel import *
from .superimpose import *
from .money import *
from .fraenkel import *
from .oracle import *

__version__ = "0.1.0"

__all__ = sorted(words.__all__ + christoffel.__all__ + superimpose.__all__ + money.__all__
                 + fraenkel.__all__ + oracle.__all__)
