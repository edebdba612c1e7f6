"""Nonasymptotic risk bounds for least-squares regression.

Finite-sample confidence intervals for the excess risk of empirical risk
minimizers: empirical Rademacher-complexity intervals, covering-number and
entropy estimates, VC-type bounds with explicit optimized constants, and
corrections for beta-mixing data, together with simulation tooling that
checks the advertised coverage on synthetic models.

Each library module's ``__all__`` decides what it exports; the package
re-exports exactly those names, module by module.
"""

from . import bounds_rademacher, bounds_vc, covering, hypothesis, mixing, rademacher, simulate
from .hypothesis import *  # noqa: F403
from .rademacher import *  # noqa: F403
from .covering import *  # noqa: F403
from .bounds_rademacher import *  # noqa: F403
from .bounds_vc import *  # noqa: F403
from .mixing import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (hypothesis, rademacher, covering, bounds_rademacher, bounds_vc, mixing,
                   simulate)
    for name in module.__all__
] + ["__version__"]
