"""Operator calculus for non-commutative Burgers equations.

Construction of the mirror and direct recursion operators, generation of
their hierarchies, machine verification of the strong-symmetry, hereditary
and Cole-Hopf identities, and an exact matrix oracle for cross-validation.
The API lives in the submodules (``ncburgers.fields``, ``ncburgers.verify``,
...); importing the package imports none of them.
"""

__version__ = "0.1.0"
