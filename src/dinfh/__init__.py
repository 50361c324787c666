"""Joint projective spectrum toolkit for the extended infinite dihedral group.

Subpackages:

* :mod:`dinfh.group`    - exact group/group-algebra arithmetic and the two
  central functionals.
* :mod:`dinfh.spectrum` - closed-form joint-spectrum membership and rasters.
* :mod:`dinfh.oracle`   - circulant truncation of the pencil: the
  ground-truth engine for margins, traces, and periods.
* :mod:`dinfh.traces`   - trace integrands, exactness potential, closedness
  checks, and contour periods of the two 1-forms.
* :mod:`dinfh.selfsim`  - self-similar action on the 4-ary tree and
  finite-level (Koopman) pencil spectra.
* :mod:`dinfh.cli`      - batch front end and report generation.
"""

import os

from .config import DEFAULT_SEED, RunConfig, thread_cap

# SPECTRA_THREADS caps the BLAS/LAPACK pools; it must reach the environment
# before the first numpy import (config imports none), and variables that
# are already set win
_cap = thread_cap()
if _cap is not None:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, str(_cap))

from .group import FunctionalKind
from .spectrum import MembershipResult, PencilPoint, membership

__all__ = [
    "DEFAULT_SEED",
    "FunctionalKind",
    "MembershipResult",
    "PencilPoint",
    "RunConfig",
    "membership",
]

__version__ = "0.1.0"
