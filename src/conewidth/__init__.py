"""Constrained M-estimation over l1 balls with width-based error bounds.

Modules by responsibility: :mod:`conewidth.glm` (families and oracles),
:mod:`conewidth.geometry` (cones, projections, width estimators),
:mod:`conewidth.solver` (projected gradient, and the Frank-Wolfe reference),
:mod:`conewidth.bounds` (restricted-convexity probes and bound formulas),
:mod:`conewidth.experiment` (sweeps and CSV output), :mod:`conewidth.cli`.

Importing the package forces one BLAS thread, so the bytes of a sweep do not
depend on the BLAS thread count; it has no effect once numpy is loaded.
"""

import os

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
