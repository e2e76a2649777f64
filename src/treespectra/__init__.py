"""Exact and numeric certificates for trees whose Laplacian reaches the
maximal eigenvalue multiplicity p-1 (p = number of pendant vertices).

The package decides when the bound is attained, lists the attaining
eigenvalues, constructs explicit eigenvector bases, classifies the
multiplicity of the eigenvalue 1, and sweeps all small trees with every
verdict cross-checked between independent exact and floating-point routes.

Each module's ``__all__`` is the one list of its public names; the package
root re-exports every one of them.
"""

__version__ = "0.1.0"

from . import trees, exact, numeric, construct, classify, gauntlet, census, errors
from .trees import *
from .exact import *
from .numeric import *
from .construct import *
from .classify import *
from .gauntlet import *
from .census import *

__all__ = ["__version__", "errors"] + [
    name
    for module in (trees, exact, numeric, construct, classify, gauntlet, census)
    for name in module.__all__
]
