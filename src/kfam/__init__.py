"""Exact verification toolkit for intersecting set families.

Families live on a ground set [n] with members encoded as bitmasks; every
computation is exact (integers and rationals only).  The package bundles
the named extremal constructions, an exact covering-number solver,
compression and exchange transforms, spread and layer decompositions,
closed-form size formulas with grid certification, and small exhaustive
search oracles, all behind one CLI.
"""

__version__ = "0.1.0"
