"""enlab: exact no-arbitrage verification after random times.

Two engines live here.  The finite engine does discrete-time stochastic
calculus with rational arithmetic on finite filtered spaces, so the
transfer formulas between a base filtration and its progressive
enlargement by an honest time, and the associated deflator construction
and NUPBR verdicts, can be checked with zero tolerance.  The Monte Carlo
engine reproduces the Poisson ruin-model examples in continuous time,
where tolerances are confidence intervals.
"""

from .errors import EnlabError
from .finite_prob import (
    AdaptedProcess,
    Filtration,
    FiniteFilteredSpace,
    MartingaleReport,
    adapted,
    angle_bracket,
    bracket,
    build_space,
    compensator,
    constant_process,
    is_martingale,
    is_positive,
    stochastic_exponential,
)
from .random_times import (
    RandomTimeAnalysis,
    RandomTimeMap,
    analyze,
    enlarge,
    generate_honest_model,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
