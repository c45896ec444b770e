"""Constrained M-estimation over l1 balls with width-based error bounds.

Modules by responsibility: :mod:`conewidth.glm` (families and oracles),
:mod:`conewidth.geometry` (cones, projections, width estimators),
:mod:`conewidth.solver` (projected gradient, and the Frank-Wolfe reference),
:mod:`conewidth.bounds` (restricted-convexity probes and bound formulas),
:mod:`conewidth.experiment` (sweeps and CSV output), :mod:`conewidth.cli`.
"""

__version__ = "0.1.0"
