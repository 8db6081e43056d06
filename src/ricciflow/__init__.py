"""Numerical laboratory for homogeneous Ricci flow on Aloff-Wallach spaces
W^7_{k1,k2} and the Berger space B^13: closed-form Ricci eigenvalues, the
positive-sectional-curvature cone and its boundary scale t_A, flow
integration with cone-exit detection, and the closed-form derivative
machinery certifying that positively curved metrics exit the cone.

Each module's `__all__` is derived from what it defines (`spaces._public`).
The names in those of `spaces`, `cone`, `flow`, `derivatives` and `errors` are
importable from the package; `cli`, `serialize` and `verify` are imported apart."""

from .cone import *
from .derivatives import *
from .errors import *
from .flow import *
from .spaces import *

__version__ = "0.1.0"
