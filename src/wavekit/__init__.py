"""wavekit: filter-bank and continuous wavelet transforms.

The discrete side builds orthogonal two-channel filter banks (haar, db4,
user files), runs them as 1-d and 2-d perfect-reconstruction pyramids, and
checks the operator identities behind them. The cascade refinement turns a
filter into its scaling and wavelet functions, the transfer-operator test
decides whether the translates are orthonormal, and the continuous module
handles admissibility, scalograms, inversion, and the dyadic wavelet family.
"""

from . import cascade, cwt, errors, filters, image2d, io, subband, transfer

# Each layer's __all__ is what the package re-exports; every other name is private.
# Read them while ``cwt`` is the module: ``from .cwt import *`` rebinds it to the function.
__all__ = [
    name
    for layer in (cascade, cwt, errors, filters, image2d, io, subband, transfer)
    for name in layer.__all__
]

from .cascade import *
from .cwt import *
from .errors import *
from .filters import *
from .image2d import *
from .io import *
from .subband import *
from .transfer import *

__version__ = "0.1.0"
