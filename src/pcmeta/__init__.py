"""pcmeta: partial-conjunction p-values and replicability analysis.

Combine per-study p-values into valid tests of "at least r of n studies
are non-null", build confidence sets for the number of non-null
studies, and verify any combining rule with the shipped Monte Carlo
oracles.

Each module's ``__all__`` is the one list of its public names; the
package exports their concatenation.  ``pcmeta.io`` and ``pcmeta.cli``
are imported on their own.
"""

from . import combiners, counterexample, errors, numerics, oracle, partial_conjunction, simulation
from .combiners import *
from .counterexample import *
from .errors import *
from .numerics import *
from .oracle import *
from .partial_conjunction import *
from .simulation import *

__all__ = [
    *combiners.__all__,
    *counterexample.__all__,
    *errors.__all__,
    *numerics.__all__,
    *oracle.__all__,
    *partial_conjunction.__all__,
    *simulation.__all__,
]

__version__ = "0.1.0"
