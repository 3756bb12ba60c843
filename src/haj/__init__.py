"""Certified numerics for higher Abel-Jacobi invariants of zero-cycles.

Subpackages by layer:

* :mod:`haj.numkernel` - precision contexts, circle loops, AGM, trapezoid-rule
  loop integration, branch-cut crossings
* :mod:`haj.elliptic` - curves, periods, Weierstrass functions, group law
* :mod:`haj.relations` - PSLQ, exact LLL, lattice membership certificates
* :mod:`haj.cycles` - formal zero-cycles, box cycles, face projections
* :mod:`haj.invariants` - chi2/chi3 evaluation, classification, psi2
* :mod:`haj.milnor` - Milnor symbols, tame symbols, regulator currents
* :mod:`haj.cli` - JSON-emitting command line front end
"""

__version__ = "0.1.0"
