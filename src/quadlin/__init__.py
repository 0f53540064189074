"""quadlin: linearization machinery and lower bounds for binary quadratic programs.

The package provides

* an exact rational linear-algebra core (:mod:`quadlin.exactnum`),
* DAG utilities for source-target path structure (:mod:`quadlin.graph`),
* instance models and encodings (:mod:`quadlin.model`),
* the exact linearizability test and spanning sets for quadratic
  shortest-path cost matrices (:mod:`quadlin.qspplin`),
* a self-contained primal simplex with exact and float modes
  (:mod:`quadlin.lpsolve`),
* combinatorial solvers for gl and ggl's LPs on shortest-path and
  assignment structure (:mod:`quadlin.combinatorial`),
* the lower-bound ladder and its verification (:mod:`quadlin.bounds`),
* a command line front end (:mod:`quadlin.cli`).
"""

from quadlin.exactnum import Rational, RationalMatrix

__all__ = ["Rational", "RationalMatrix"]

__version__ = "0.1.0"
